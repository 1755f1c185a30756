// Process-isolated supervision (sim/supervise, docs/supervision.md).
//
// The supervised runners exec SLIMSIM_CLI_PATH as `--worker-mode FD`
// subprocesses, so these tests write the model to a real file (workers
// re-load it from disk) and point SuperviseOptions::worker_exe at the CLI
// binary — the default /proc/self/exe would re-exec the *test* binary.
#include "sim/supervise/supervise.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <unistd.h>

#include "api/analysis.hpp"
#include "eda/network.hpp"
#include "sim/runner.hpp"
#include "stat/generators.hpp"
#include "support/metrics.hpp"
#include "support/journal.hpp"
#include "support/metrics.hpp"

namespace slimsim::sim {
namespace {

constexpr const char* kModel = R"(
    root S.I;
    system S
    features broken: out data port bool default false;
    end S;
    system implementation S.I end S.I;
    error model EM
    features ok: initial state; bad: error state;
    end EM;
    error model implementation EM.I
    events f: error event occurrence poisson 0.5 per sec;
    transitions ok -[f]-> bad;
    end EM.I;
    fault injections
      component root uses error model EM.I;
      component root in state bad effect broken := true;
    end fault injections;
)";

std::size_t count_occurrences(const std::string& haystack, const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
         pos = haystack.find(needle, pos + needle.size()))
        ++n;
    return n;
}

struct SuperviseTest : ::testing::Test {
    std::string model_file;
    eda::Network net = eda::build_network_from_source(kModel);
    TimedReachability prop = make_reachability(net.model(), "broken", 2.0);
    // ~600 paths: enough for restart schedules, fast enough to run the
    // whole matrix of process counts under valgrind-ish CI machines.
    stat::ChernoffHoeffding ch{0.1, 0.05};

    void SetUp() override {
        model_file = "supervise_model_" + std::to_string(::getpid()) + ".slim";
        std::ofstream out(model_file);
        out << kModel;
    }
    void TearDown() override { std::remove(model_file.c_str()); }

    [[nodiscard]] supervise::SuperviseOptions options(std::size_t processes) const {
        supervise::SuperviseOptions so;
        so.processes = processes;
        so.worker_exe = SLIMSIM_CLI_PATH;
        so.model_path = model_file;
        so.worker_timeout_seconds = 2.0; // stall detection within one test
        so.backoff_initial_seconds = 0.01;
        return so;
    }
};

void expect_identical(const EstimationResult& a, const EstimationResult& b) {
    EXPECT_EQ(a.estimate, b.estimate);
    EXPECT_EQ(a.samples, b.samples);
    EXPECT_EQ(a.successes, b.successes);
    EXPECT_EQ(a.terminals, b.terminals);
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.stop_cause, b.stop_cause);
    EXPECT_EQ(a.achieved_half_width, b.achieved_half_width);
    EXPECT_EQ(a.path_errors, b.path_errors);
    EXPECT_EQ(a.error_log, b.error_log);
}

void expect_identical(const CurveResult& a, const CurveResult& b) {
    ASSERT_EQ(a.points.size(), b.points.size());
    for (std::size_t i = 0; i < a.points.size(); ++i) {
        EXPECT_EQ(a.points[i].bound, b.points[i].bound) << "point " << i;
        EXPECT_EQ(a.points[i].successes, b.points[i].successes) << "point " << i;
        EXPECT_EQ(a.points[i].estimate, b.points[i].estimate) << "point " << i;
    }
    EXPECT_EQ(a.samples, b.samples);
    EXPECT_EQ(a.terminals, b.terminals);
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.simultaneous_eps, b.simultaneous_eps);
    EXPECT_EQ(a.achieved_half_width, b.achieved_half_width);
}

TEST_F(SuperviseTest, ParseInjectionRoundTrip) {
    const auto crash = supervise::parse_injection("worker-crash@12");
    EXPECT_EQ(crash.kind, supervise::InjectKind::WorkerCrash);
    EXPECT_EQ(crash.path, 12u);
    const auto stall = supervise::parse_injection("worker-stall@0");
    EXPECT_EQ(stall.kind, supervise::InjectKind::WorkerStall);
    const auto corrupt = supervise::parse_injection("frame-corrupt@7");
    EXPECT_EQ(corrupt.kind, supervise::InjectKind::FrameCorrupt);
    for (const char* bad : {"", "worker-crash", "worker-crash@", "worker-crash@x",
                            "meteor-strike@3", "worker-crash@-1"}) {
        try {
            (void)supervise::parse_injection(bad);
            FAIL() << "accepted " << bad;
        } catch (const Error& e) {
            EXPECT_NE(std::string(e.what()).find("--inject"), std::string::npos) << bad;
        }
    }
}

TEST_F(SuperviseTest, ScalarByteIdenticalAcrossProcessCounts) {
    const auto one = supervise::estimate_supervised(net, prop, StrategyKind::Progressive,
                                                    ch, 42, options(1));
    EXPECT_EQ(one.status, RunStatus::Converged);
    EXPECT_GE(one.samples, *ch.fixed_sample_count());
    for (const std::size_t procs : {2u, 4u}) {
        const auto res = supervise::estimate_supervised(
            net, prop, StrategyKind::Progressive, ch, 42, options(procs));
        expect_identical(res, one);
    }
}

TEST_F(SuperviseTest, ScalarMatchesInProcessPerPathRun) {
    // Supervised runs always use per-path RNG streams. The sequential
    // runner switches to the same stream layout whenever checkpointing is
    // active, so a checkpointed in-process run is the byte-identity
    // reference (a plain sequential run draws one continuous stream).
    const std::string ck = "supervise_ref_" + std::to_string(::getpid()) + ".ckpt";
    SimOptions so;
    so.control.checkpoint_path = ck;
    const auto reference =
        estimate(net, prop, StrategyKind::Progressive, ch, 42, so, nullptr);
    std::remove(ck.c_str());
    const auto res = supervise::estimate_supervised(net, prop, StrategyKind::Progressive,
                                                    ch, 42, options(2));
    expect_identical(res, reference);
}

TEST_F(SuperviseTest, CurveByteIdenticalToInProcessAcrossProcessCounts) {
    CurveOptions co;
    co.bounds = {0.5, 1.0, 1.5, 2.0};
    const auto reference = estimate_curve(net, prop, StrategyKind::Progressive, ch, co,
                                          42, SimOptions{}, nullptr);
    for (const std::size_t procs : {1u, 2u, 4u}) {
        const auto res = supervise::estimate_curve_supervised(
            net, prop, StrategyKind::Progressive, ch, co, 42, options(procs));
        expect_identical(res, reference);
    }
}

TEST_F(SuperviseTest, InjectedCrashIsInvisibleInTheResult) {
    const auto clean = supervise::estimate_supervised(net, prop, StrategyKind::Progressive,
                                                      ch, 7, options(2));
    auto so = options(2);
    so.injections = {{supervise::InjectKind::WorkerCrash, 11}};
    telemetry::RunReport report;
    const auto res = supervise::estimate_supervised(net, prop, StrategyKind::Progressive,
                                                    ch, 7, so, &report);
    expect_identical(res, clean);
    EXPECT_EQ(report.supervision.restarts, 1u);
    EXPECT_EQ(report.supervision.injected_faults, 1u);
    ASSERT_EQ(report.supervision.restarts_by_reason.size(), 3u);
    EXPECT_EQ(report.supervision.restarts_by_reason[0].first, "crash");
    EXPECT_EQ(report.supervision.restarts_by_reason[0].second, 1u);
    EXPECT_GT(report.supervision.reassigned_paths, 0u);
}

TEST_F(SuperviseTest, InjectedStallIsInvisibleInTheResult) {
    const auto clean = supervise::estimate_supervised(net, prop, StrategyKind::Progressive,
                                                      ch, 7, options(2));
    auto so = options(2);
    so.worker_timeout_seconds = 0.5; // keep the stall detection fast
    so.injections = {{supervise::InjectKind::WorkerStall, 24}};
    telemetry::RunReport report;
    const auto res = supervise::estimate_supervised(net, prop, StrategyKind::Progressive,
                                                    ch, 7, so, &report);
    expect_identical(res, clean);
    EXPECT_EQ(report.supervision.restarts, 1u);
    EXPECT_EQ(report.supervision.restarts_by_reason[1].first, "stall");
    EXPECT_EQ(report.supervision.restarts_by_reason[1].second, 1u);
}

TEST_F(SuperviseTest, InjectedCorruptFrameIsInvisibleInTheResult) {
    const auto clean = supervise::estimate_supervised(net, prop, StrategyKind::Progressive,
                                                      ch, 7, options(2));
    auto so = options(2);
    so.injections = {{supervise::InjectKind::FrameCorrupt, 16}};
    telemetry::RunReport report;
    const auto res = supervise::estimate_supervised(net, prop, StrategyKind::Progressive,
                                                    ch, 7, so, &report);
    expect_identical(res, clean);
    EXPECT_EQ(report.supervision.restarts, 1u);
    EXPECT_EQ(report.supervision.restarts_by_reason[2].first, "corrupt-frame");
    EXPECT_EQ(report.supervision.restarts_by_reason[2].second, 1u);
}

TEST_F(SuperviseTest, CrashScheduleDrivesJournalAndMetricsExactly) {
    metrics::Registry registry(2);
    journal::Journal journal(journal::Level::Debug);
    auto so = options(2);
    so.worker_timeout_seconds = 0.5;
    so.injections = {{supervise::InjectKind::WorkerCrash, 11},
                     {supervise::InjectKind::WorkerStall, 24}};
    so.sim.metrics = &registry;
    so.sim.journal = &journal;
    telemetry::RunReport report;
    const auto res = supervise::estimate_supervised(net, prop, StrategyKind::Progressive,
                                                    ch, 7, so, &report);
    EXPECT_EQ(res.status, RunStatus::Converged);
    EXPECT_EQ(report.supervision.restarts, 2u);
    EXPECT_EQ(report.supervision.spawns, 4u); // 2 initial + 2 restarts

    const std::string events = journal.to_jsonl(false);
    EXPECT_EQ(count_occurrences(events, "\"event\":\"worker_spawn\""), 4u);
    EXPECT_EQ(count_occurrences(events, "\"event\":\"worker_lost\""), 2u);
    EXPECT_EQ(count_occurrences(events, "\"event\":\"worker_restart\""), 2u);
    EXPECT_EQ(count_occurrences(events, "\"event\":\"range_reassigned\""), 2u);

    const std::string prom = registry.expose();
    EXPECT_NE(
        prom.find("slimsim_supervisor_restarts_total{reason=\"crash\"} 1"),
        std::string::npos)
        << prom;
    EXPECT_NE(
        prom.find("slimsim_supervisor_restarts_total{reason=\"stall\"} 1"),
        std::string::npos)
        << prom;
    EXPECT_NE(
        prom.find("slimsim_supervisor_restarts_total{reason=\"corrupt-frame\"} 0"),
        std::string::npos)
        << prom;
}

TEST_F(SuperviseTest, ExhaustedRetriesDegradeToPartialResult) {
    auto so = options(2);
    so.worker_retries = 1;
    // Both crashes land on worker slot 0 (even global indices with k = 2):
    // the first consumes the only allowed restart, the second exhausts it.
    so.injections = {{supervise::InjectKind::WorkerCrash, 2},
                     {supervise::InjectKind::WorkerCrash, 6}};
    telemetry::RunReport report;
    EstimationResult res;
    ASSERT_NO_THROW(res = supervise::estimate_supervised(
                        net, prop, StrategyKind::Progressive, ch, 7, so, &report));
    EXPECT_EQ(res.status, RunStatus::Degraded);
    EXPECT_NE(res.stop_cause.find("exhausted"), std::string::npos) << res.stop_cause;
    // Partial result: everything before the permanently lost path index.
    EXPECT_GT(res.samples, 0u);
    EXPECT_LT(res.samples, *ch.fixed_sample_count());
    EXPECT_EQ(report.run_status.status, "degraded");
}

TEST_F(SuperviseTest, ReportCarriesSupervisionSection) {
    telemetry::RunReport report;
    (void)supervise::estimate_supervised(net, prop, StrategyKind::Progressive, ch, 7,
                                         options(3), &report);
    EXPECT_TRUE(report.supervision.enabled);
    EXPECT_EQ(report.supervision.processes, 3u);
    EXPECT_EQ(report.supervision.spawns, 3u);
    EXPECT_EQ(report.supervision.restarts, 0u);
    EXPECT_EQ(report.supervision.worker_retries, 3u);
    const std::string json = report.to_json().dump();
    EXPECT_NE(json.find("\"supervision\""), std::string::npos);
    EXPECT_NE(json.find("\"version\":6"), std::string::npos);
}

TEST_F(SuperviseTest, AnalysisReportCarriesNoEngineCounters) {
    // The paths run in the worker subprocesses, so no in-process generator
    // registers engine instruments in the run's registry.
    AnalysisRequest req;
    req.mode = AnalysisMode::EstimateParallel;
    req.property = prop;
    req.delta = 0.1;
    req.eps = 0.05;
    req.seed = 7;
    req.supervision.processes = 2;
    req.supervision.worker_exe = SLIMSIM_CLI_PATH;
    req.supervision.model_path = model_file;
    const AnalysisResult res = run_analysis(net, req);
    EXPECT_TRUE(res.report.supervision.enabled);
    EXPECT_GT(res.report.samples, 0u);
    EXPECT_TRUE(res.report.counters.empty());
    EXPECT_TRUE(res.report.histograms.empty());
    // Nor on a caller's registry whose engine instruments an in-process
    // run registered and filled first.
    metrics::Registry registry;
    AnalysisRequest local = req;
    local.supervision.processes = 0;
    local.metrics = &registry;
    ASSERT_FALSE(run_analysis(net, local).report.counters.empty());
    req.metrics = &registry;
    const AnalysisResult shared = run_analysis(net, req);
    EXPECT_TRUE(shared.report.supervision.enabled);
    EXPECT_TRUE(shared.report.counters.empty());
    EXPECT_TRUE(shared.report.histograms.empty());
}

TEST_F(SuperviseTest, RejectsUnsupportedConfigurations) {
    auto so = options(0);
    EXPECT_THROW((void)supervise::estimate_supervised(net, prop,
                                                      StrategyKind::Progressive, ch, 1, so),
                 Error);
    so = options(1);
    so.model_path.clear();
    EXPECT_THROW((void)supervise::estimate_supervised(net, prop,
                                                      StrategyKind::Progressive, ch, 1, so),
                 Error);
    so = options(1);
    so.sim.coverage = true;
    EXPECT_THROW((void)supervise::estimate_supervised(net, prop,
                                                      StrategyKind::Progressive, ch, 1, so),
                 Error);
}

TEST_F(SuperviseTest, ModelMismatchAbortsTheRun) {
    // The worker verifies the model's content hash against the
    // coordinator's before simulating anything.
    {
        std::string drifted(kModel);
        const std::size_t rate = drifted.find("poisson 0.5");
        ASSERT_NE(rate, std::string::npos);
        drifted.replace(rate, 11, "poisson 0.75");
        std::ofstream out(model_file);
        out << drifted;
    }
    EXPECT_THROW((void)supervise::estimate_supervised(net, prop,
                                                      StrategyKind::Progressive, ch, 1,
                                                      options(1)),
                 Error);
}

} // namespace
} // namespace slimsim::sim
