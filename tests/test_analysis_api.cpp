// Tests of the unified analysis API: every mode through run_analysis(),
// report content, and byte-identical deterministic report views.
#include "api/analysis.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "support/diagnostics.hpp"
#include "support/metrics.hpp"

namespace slimsim {
namespace {

// Markovian single-fault model: P( <> [0,2] broken ) = 1 - e^{-0.5 * 2}.
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

struct AnalysisApiTest : ::testing::Test {
    eda::Network net = eda::build_network_from_source(kModel);
    double expected = 1.0 - std::exp(-1.0);

    [[nodiscard]] AnalysisRequest base_request() const {
        AnalysisRequest req;
        req.property = sim::make_reachability(net.model(), "broken", 2.0);
        req.model_label = "fault.slim";
        req.delta = 0.1;
        req.eps = 0.05;
        req.seed = 7;
        return req;
    }

    [[nodiscard]] static bool has_phase(const telemetry::RunReport& report,
                                        std::string_view name) {
        return std::any_of(report.phases.begin(), report.phases.end(),
                           [&](const telemetry::Phase& p) { return p.name == name; });
    }
};

TEST_F(AnalysisApiTest, EstimateModeFillsReport) {
    const AnalysisResult res = run_analysis(net, base_request());
    EXPECT_EQ(res.mode, AnalysisMode::Estimate);
    EXPECT_NEAR(res.value, expected, 0.08);
    EXPECT_EQ(res.value, res.estimation.estimate);

    const telemetry::RunReport& report = res.report;
    EXPECT_EQ(report.mode, "estimate");
    EXPECT_EQ(report.model, "fault.slim");
    EXPECT_EQ(report.property, "<> [0,2] broken");
    EXPECT_EQ(report.strategy, "progressive");
    EXPECT_EQ(report.criterion, "chernoff-hoeffding");
    EXPECT_EQ(report.seed, 7u);
    EXPECT_EQ(report.workers, 1u);
    EXPECT_GT(report.samples, 0u);
    ASSERT_EQ(report.worker_stats.size(), 1u);
    EXPECT_EQ(report.worker_stats[0].rng_stream, 0u);
    EXPECT_EQ(report.worker_stats[0].accepted, report.samples);
    EXPECT_FALSE(report.terminals.empty());
    EXPECT_FALSE(report.stop_trajectory.empty());
    EXPECT_EQ(report.stop_trajectory.back().samples, report.samples);
    EXPECT_TRUE(has_phase(report, "simulate"));
    // Engine counters flowed from the metrics registry into the report.
    const auto paths =
        std::find_if(report.counters.begin(), report.counters.end(),
                     [](const auto& c) { return c.first == "sim.paths"; });
    ASSERT_NE(paths, report.counters.end());
    EXPECT_GE(paths->second, report.samples);
}

TEST_F(AnalysisApiTest, MatchesLegacyEntryPoint) {
    AnalysisRequest req = base_request();
    const AnalysisResult res = run_analysis(net, req);
    const stat::ChernoffHoeffding ch(req.delta, req.eps);
    const sim::EstimationResult legacy = sim::estimate(
        net, req.property, sim::StrategyKind::Progressive, ch, req.seed);
    EXPECT_EQ(res.estimation.samples, legacy.samples);
    EXPECT_EQ(res.estimation.successes, legacy.successes);
    EXPECT_EQ(res.value, legacy.estimate);
}

TEST_F(AnalysisApiTest, DeterministicViewIsByteStableAcrossRuns) {
    for (const std::size_t workers : {std::size_t{1}, std::size_t{3}}) {
        AnalysisRequest req = base_request();
        if (workers > 1) {
            req.mode = AnalysisMode::EstimateParallel;
            req.workers = workers;
        }
        const AnalysisResult a = run_analysis(net, req);
        const AnalysisResult b = run_analysis(net, req);
        const std::string da =
            telemetry::deterministic_view(a.report.to_json()).dump(2);
        const std::string db =
            telemetry::deterministic_view(b.report.to_json()).dump(2);
        EXPECT_EQ(da, db) << workers << " workers";
    }
}

TEST_F(AnalysisApiTest, ParallelModeReportsPerWorkerStreams) {
    AnalysisRequest req = base_request();
    req.mode = AnalysisMode::EstimateParallel;
    req.workers = 3;
    const AnalysisResult res = run_analysis(net, req);
    EXPECT_NEAR(res.value, expected, 0.08);
    const telemetry::RunReport& report = res.report;
    EXPECT_EQ(report.mode, "estimate-parallel");
    EXPECT_EQ(report.workers, 3u);
    ASSERT_EQ(report.worker_stats.size(), 3u);
    std::uint64_t accepted = 0;
    for (std::size_t w = 0; w < 3; ++w) {
        EXPECT_EQ(report.worker_stats[w].worker, w);
        EXPECT_EQ(report.worker_stats[w].rng_stream, w);
        accepted += report.worker_stats[w].accepted;
    }
    EXPECT_EQ(accepted, report.samples);
    EXPECT_GT(report.collector.rounds, 0u);
    EXPECT_EQ(report.collector.accepted, report.samples);
}

TEST_F(AnalysisApiTest, HypothesisTestMode) {
    AnalysisRequest req = base_request();
    req.mode = AnalysisMode::HypothesisTest;
    req.threshold = 0.1; // far below the true 0.63: accept quickly
    const AnalysisResult res = run_analysis(net, req);
    EXPECT_EQ(res.hypothesis.verdict, sim::HypothesisVerdict::AcceptAbove);
    EXPECT_EQ(res.report.mode, "hypothesis-test");
    EXPECT_EQ(res.report.criterion, "sprt");
    EXPECT_FALSE(res.report.verdict.empty());
    EXPECT_GT(res.report.samples, 0u);
    const double threshold =
        std::find_if(res.report.params.begin(), res.report.params.end(),
                     [](const auto& p) { return p.first == "threshold"; })
            ->second;
    EXPECT_EQ(threshold, 0.1);
}

TEST_F(AnalysisApiTest, HypothesisTestRunsInEveryVenue) {
    // SPRT is a stop criterion of the run consumer: under per-path streams
    // the threaded venue accepts the same paths as the sequential one.
    AnalysisRequest req = base_request();
    req.mode = AnalysisMode::HypothesisTest;
    req.threshold = 0.6; // near the true 0.63: a few hundred paths
    req.indifference = 0.02;
    req.sim.control.deterministic_streams = true;
    const AnalysisResult one = run_analysis(net, req);
    req.workers = 3;
    const AnalysisResult three = run_analysis(net, req);
    EXPECT_EQ(one.report.workers, 1u);
    EXPECT_EQ(three.report.workers, 3u);
    EXPECT_EQ(three.report.worker_stats.size(), 3u);
    EXPECT_GT(one.hypothesis.samples, 0u);
    EXPECT_EQ(three.hypothesis.samples, one.hypothesis.samples);
    EXPECT_EQ(three.hypothesis.successes, one.hypothesis.successes);
    EXPECT_EQ(three.hypothesis.verdict, one.hypothesis.verdict);
    EXPECT_EQ(three.report.verdict, one.report.verdict);
}

TEST_F(AnalysisApiTest, CtmcFlowMode) {
    AnalysisRequest req = base_request();
    req.mode = AnalysisMode::CtmcFlow;
    const AnalysisResult res = run_analysis(net, req);
    EXPECT_NEAR(res.value, expected, 1e-6);
    EXPECT_EQ(res.report.mode, "ctmc-flow");
    EXPECT_TRUE(has_phase(res.report, "explore"));
    EXPECT_TRUE(has_phase(res.report, "transient"));
    const auto states =
        std::find_if(res.report.counters.begin(), res.report.counters.end(),
                     [](const auto& c) { return c.first == "ctmc.imc_states"; });
    ASSERT_NE(states, res.report.counters.end());
    EXPECT_GT(states->second, 0u);
}

TEST_F(AnalysisApiTest, CtmcFlowRejectsUnsupportedProperties) {
    AnalysisRequest req = base_request();
    req.mode = AnalysisMode::CtmcFlow;
    req.property = sim::make_reachability_interval(net.model(), "broken", 0.5, 2.0);
    EXPECT_THROW((void)run_analysis(net, req), Error);
}

TEST_F(AnalysisApiTest, TelemetryOffStillReportsResults) {
    AnalysisRequest req = base_request();
    req.telemetry = false;
    const AnalysisResult res = run_analysis(net, req);
    EXPECT_NEAR(res.value, expected, 0.08);
    EXPECT_GT(res.report.samples, 0u);
    EXPECT_EQ(res.report.value, res.value);
    EXPECT_FALSE(res.report.terminals.empty());
    EXPECT_TRUE(res.report.counters.empty());
    EXPECT_FALSE(res.report.stop_trajectory.empty());
}

// Telemetry decides the report's engine counters and histograms, nothing
// else: the trajectory, workers, collector and diagnostics sections of a
// telemetry-off report equal those of the same run with telemetry on.
TEST_F(AnalysisApiTest, TelemetryOffReportDiffersOnlyInEngineCounts) {
    auto view = [](const AnalysisResult& res) {
        const json::Value full = telemetry::deterministic_view(res.report.to_json());
        json::Value out = json::Value::object();
        for (const auto& [key, value] : full.members()) {
            if (key != "counters" && key != "histograms") out[key] = value;
        }
        return out.dump(2);
    };
    struct Case {
        AnalysisMode mode;
        std::size_t workers;
    };
    for (const Case c : {Case{AnalysisMode::Estimate, 1}, Case{AnalysisMode::EstimateParallel, 3},
                         Case{AnalysisMode::HypothesisTest, 1}}) {
        AnalysisRequest req = base_request();
        req.mode = c.mode;
        req.workers = c.workers;
        req.threshold = 0.5;
        const AnalysisResult on = run_analysis(net, req);
        req.telemetry = false;
        const AnalysisResult off = run_analysis(net, req);
        EXPECT_EQ(view(off), view(on)) << to_string(c.mode);
        EXPECT_FALSE(off.report.stop_trajectory.empty()) << to_string(c.mode);
        if (c.mode != AnalysisMode::HypothesisTest) {
            EXPECT_FALSE(off.report.diagnostics.items.empty()) << to_string(c.mode);
        }
    }
}

TEST_F(AnalysisApiTest, SharedRegistryReportsEachRunsOwnEngineCounts) {
    // A caller's registry keeps counting across runs; each report holds
    // only the engine events of its own run.
    metrics::Registry registry;
    AnalysisRequest req = base_request();
    req.metrics = &registry;
    const AnalysisResult first = run_analysis(net, req);
    const AnalysisResult second = run_analysis(net, req);
    ASSERT_FALSE(first.report.counters.empty());
    ASSERT_FALSE(first.report.histograms.empty());
    EXPECT_EQ(first.report.counters, second.report.counters);
    EXPECT_EQ(first.report.histograms, second.report.histograms);
    req.metrics = nullptr; // a private registry counts the same
    const AnalysisResult fresh = run_analysis(net, req);
    EXPECT_EQ(fresh.report.counters, first.report.counters);
    EXPECT_EQ(fresh.report.histograms, first.report.histograms);
}

TEST_F(AnalysisApiTest, CtmcRunOnSharedRegistryCarriesNoEngineCounts) {
    // A simulation run registers and fills the engine instruments; a CTMC
    // run on the same registry generates no paths and reports none of them.
    metrics::Registry registry;
    AnalysisRequest req = base_request();
    req.metrics = &registry;
    ASSERT_FALSE(run_analysis(net, req).report.histograms.empty());
    req.mode = AnalysisMode::CtmcFlow;
    const AnalysisResult ctmc = run_analysis(net, req);
    EXPECT_TRUE(ctmc.report.histograms.empty());
    ASSERT_FALSE(ctmc.report.counters.empty());
    for (const auto& [name, value] : ctmc.report.counters) {
        EXPECT_EQ(name.rfind("ctmc.", 0), 0u) << name;
    }
}

TEST_F(AnalysisApiTest, ParallelEngineCountsCoverEveryGeneratedPath) {
    for (const std::size_t workers : {std::size_t{2}, std::size_t{3}, std::size_t{4}}) {
        AnalysisRequest req = base_request();
        req.mode = AnalysisMode::EstimateParallel;
        req.workers = workers;
        const json::Value doc = run_analysis(net, req).report.to_json();
        const json::Value& runtime = doc.at("runtime");
        std::uint64_t generated = 0;
        for (std::size_t w = 0; w < runtime.at("generated").size(); ++w) {
            generated += runtime.at("generated").at(w).as_uint();
        }
        ASSERT_NE(runtime.find("counters"), nullptr) << workers << " workers";
        EXPECT_EQ(runtime.at("counters").at("sim.paths").as_uint(), generated)
            << workers << " workers";
        EXPECT_EQ(doc.find("counters"), nullptr);
    }
}

TEST_F(AnalysisApiTest, ReportJsonRoundTripsThroughParser) {
    const AnalysisResult res = run_analysis(net, base_request());
    const json::Value doc = res.report.to_json();
    EXPECT_EQ(json::Value::parse(doc.dump()), doc);
    EXPECT_EQ(json::Value::parse(doc.dump(2)), doc);
    EXPECT_EQ(doc.at("schema").as_string(), "slimsim-run-report");
    EXPECT_EQ(doc.at("analysis").at("workers").as_uint(), 1u);
}

TEST_F(AnalysisApiTest, WitnessCaptureReturnsBothKinds) {
    AnalysisRequest req = base_request();
    req.witness.per_kind = 2;
    const AnalysisResult res = run_analysis(net, req);
    const auto& witnesses = res.estimation.witnesses;
    ASSERT_FALSE(witnesses.empty());
    std::size_t accepting = 0;
    std::size_t rejecting = 0;
    for (const sim::Witness& w : witnesses) {
        // The replayed trace agrees with the outcome captured live.
        EXPECT_TRUE(w.trace.finished());
        EXPECT_EQ(w.trace.satisfied(), w.outcome.satisfied);
        EXPECT_EQ(w.trace.end_time(), w.outcome.end_time);
        (w.outcome.satisfied ? accepting : rejecting) += 1;
    }
    // True p ~ 0.63: both outcomes occur well within the sample budget.
    EXPECT_EQ(accepting, 2u);
    EXPECT_EQ(rejecting, 2u);
    // Accepting witnesses come first, each kind in path-index order.
    EXPECT_TRUE(witnesses[0].outcome.satisfied);
    EXPECT_LE(witnesses[0].path_index, witnesses[1].path_index);
}

TEST_F(AnalysisApiTest, WitnessCaptureIsDeterministic) {
    for (const std::size_t workers : {std::size_t{1}, std::size_t{3}}) {
        AnalysisRequest req = base_request();
        req.witness.per_kind = 1;
        if (workers > 1) {
            req.mode = AnalysisMode::EstimateParallel;
            req.workers = workers;
        }
        const AnalysisResult a = run_analysis(net, req);
        const AnalysisResult b = run_analysis(net, req);
        ASSERT_EQ(a.estimation.witnesses.size(), b.estimation.witnesses.size())
            << workers << " workers";
        for (std::size_t i = 0; i < a.estimation.witnesses.size(); ++i) {
            const sim::Witness& wa = a.estimation.witnesses[i];
            const sim::Witness& wb = b.estimation.witnesses[i];
            EXPECT_EQ(wa.worker, wb.worker);
            EXPECT_EQ(wa.path_index, wb.path_index);
            // Byte-identical witness text for the same (seed, workers).
            EXPECT_EQ(wa.trace.to_string(), wb.trace.to_string())
                << workers << " workers, witness " << i;
        }
    }
}

TEST_F(AnalysisApiTest, WitnessCaptureDoesNotPerturbTheEstimate) {
    AnalysisRequest req = base_request();
    const AnalysisResult plain = run_analysis(net, req);
    req.witness.per_kind = 2;
    const AnalysisResult with = run_analysis(net, req);
    EXPECT_EQ(plain.value, with.value);
    EXPECT_EQ(plain.estimation.samples, with.estimation.samples);
    // Replay does not double-count engine telemetry: sim.paths still
    // matches the sample count.
    const auto paths =
        std::find_if(with.report.counters.begin(), with.report.counters.end(),
                     [](const auto& c) { return c.first == "sim.paths"; });
    ASSERT_NE(paths, with.report.counters.end());
    EXPECT_EQ(paths->second, with.report.samples);
}

TEST_F(AnalysisApiTest, TracerRecordsLanesPerMode) {
    // Sequential estimation: one "main" lane with sim.path spans.
    {
        tracer::Tracer tracer;
        AnalysisRequest req = base_request();
        req.tracer = &tracer;
        (void)run_analysis(net, req);
        tracer::Lane* main_lane = tracer.lane("main");
        ASSERT_NE(main_lane, nullptr);
        EXPECT_GT(main_lane->total(), 0u);
        EXPECT_NE(tracer.to_chrome_json().dump().find("\"sim.estimate\""), std::string::npos);
    }
    // A sequential curve shares the loop but keeps its own run span.
    {
        tracer::Tracer tracer;
        AnalysisRequest req = base_request();
        req.curve_bounds = {1.0, 2.0};
        req.tracer = &tracer;
        (void)run_analysis(net, req);
        const std::string events = tracer.to_chrome_json().dump();
        EXPECT_NE(events.find("\"sim.estimate_curve\""), std::string::npos);
        EXPECT_EQ(events.find("\"sim.estimate\""), std::string::npos);
    }
    // Parallel estimation: per-worker lanes plus the collector lane, in
    // deterministic id order.
    {
        tracer::Tracer tracer;
        AnalysisRequest req = base_request();
        req.mode = AnalysisMode::EstimateParallel;
        req.workers = 2;
        req.tracer = &tracer;
        (void)run_analysis(net, req);
        tracer::Lane* w0 = tracer.lane("worker 0");
        tracer::Lane* w1 = tracer.lane("worker 1");
        tracer::Lane* coll = tracer.lane("collector");
        ASSERT_NE(w0, nullptr);
        ASSERT_NE(w1, nullptr);
        ASSERT_NE(coll, nullptr);
        EXPECT_EQ(w0->id(), 0u);
        EXPECT_EQ(w1->id(), 1u);
        EXPECT_EQ(coll->id(), 2u);
        EXPECT_GT(w0->total(), 0u);
        EXPECT_GT(w1->total(), 0u);
        EXPECT_GT(coll->total(), 0u);
        const json::Value doc = tracer.to_chrome_json();
        EXPECT_EQ(json::Value::parse(doc.dump()), doc);
    }
    // Disabled tracer attached: no lanes are created.
    {
        tracer::Tracer::Options off;
        off.enabled = false;
        tracer::Tracer tracer(off);
        AnalysisRequest req = base_request();
        req.tracer = &tracer;
        (void)run_analysis(net, req);
        EXPECT_EQ(tracer.to_chrome_json().at("traceEvents").size(), 1u);
    }
}

TEST_F(AnalysisApiTest, ProgressCallbackStreamsMonotonically) {
    for (const std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
        AnalysisRequest req = base_request();
        if (workers > 1) {
            req.mode = AnalysisMode::EstimateParallel;
            req.workers = workers;
        }
        std::vector<sim::ProgressSnapshot> snaps;
        req.progress.callback = [&](const sim::ProgressSnapshot& p) {
            snaps.push_back(p);
        };
        req.progress.min_interval_seconds = 0.0; // every round
        const AnalysisResult res = run_analysis(net, req);
        ASSERT_FALSE(snaps.empty()) << workers << " workers";
        std::uint64_t prev = 0;
        for (const sim::ProgressSnapshot& p : snaps) {
            EXPECT_GE(p.samples, prev);
            prev = p.samples;
            EXPECT_LE(p.successes, p.samples);
            EXPECT_GE(p.half_width, 0.0);
        }
        // The final snapshot is always emitted and matches the result.
        EXPECT_EQ(snaps.back().samples, res.estimation.samples);
        EXPECT_EQ(snaps.back().successes, res.estimation.successes);
        EXPECT_EQ(snaps.back().required, res.estimation.samples);
    }
}

TEST_F(AnalysisApiTest, ProgressSnapshotMath) {
    sim::ProgressOptions opt;
    opt.delta = 0.05;
    const sim::ProgressSnapshot p = sim::make_progress_snapshot(100, 50, 400, 1.0, opt);
    EXPECT_EQ(p.samples, 100u);
    EXPECT_EQ(p.estimate, 0.5);
    // CLT half-width at 95%: 1.96 * sqrt(0.25/100) ~ 0.098.
    EXPECT_NEAR(p.half_width, 0.098, 0.002);
    // Fixed criterion: ETA extrapolates run rate to the remaining samples.
    EXPECT_NEAR(p.eta_seconds, 3.0, 1e-9);
}

TEST_F(AnalysisApiTest, ProgressEtaHonorsAdaptiveSampleFloor) {
    // Regression: with few successes the variance extrapolation can target
    // fewer samples than the adaptive criterion's floor, making the ETA hit
    // 0 while Chow-Robbins is still barred from stopping. The target must be
    // clamped to min_samples.
    sim::ProgressOptions opt;
    opt.delta = 0.05;
    opt.eps = 0.1;
    opt.min_samples = 64;
    const sim::ProgressSnapshot p = sim::make_progress_snapshot(30, 1, 0, 1.0, opt);
    EXPECT_GT(p.eta_seconds, 0.0);
    EXPECT_NEAR(p.eta_seconds, 1.0 * (64.0 - 30.0) / 30.0, 1e-9);
    // Past the floor the variance extrapolation governs again.
    const sim::ProgressSnapshot q = sim::make_progress_snapshot(70, 2, 0, 1.0, opt);
    EXPECT_EQ(q.eta_seconds, 0.0);
}

TEST_F(AnalysisApiTest, AdaptiveProgressNeverReportsZeroEtaBeforeFloor) {
    AnalysisRequest req = base_request();
    req.criterion = stat::CriterionKind::ChowRobbins;
    std::vector<sim::ProgressSnapshot> snaps;
    req.progress.callback = [&](const sim::ProgressSnapshot& p) { snaps.push_back(p); };
    req.progress.min_interval_seconds = 0.0;
    const AnalysisResult res = run_analysis(net, req);
    ASSERT_FALSE(snaps.empty());
    EXPECT_GE(res.estimation.samples, 64u); // the Chow-Robbins floor held
    // With no throttle interval the callback sees every sample, the early
    // ones included.
    ASSERT_GE(snaps.size(), 63u);
    for (std::uint64_t i = 0; i < 63; ++i) EXPECT_EQ(snaps[i].samples, i + 1);
    for (const sim::ProgressSnapshot& p : snaps) {
        if (p.samples >= 2 && p.samples < 64) {
            // ETA is either unknown (< 0, elapsed not yet measurable) or a
            // genuine positive extrapolation — never "done now".
            EXPECT_NE(p.eta_seconds, 0.0) << "at " << p.samples << " samples";
        }
    }
}

TEST_F(AnalysisApiTest, CoverageSectionByteIdenticalAcrossWorkerCounts) {
    // Coverage runs use per-path RNG streams, so the serialized coverage
    // section — counts, occupancy doubles, saturation series — must match
    // byte for byte whatever the worker count (docs/coverage.md).
    AnalysisRequest seq = base_request();
    seq.coverage = true;
    const AnalysisResult a = run_analysis(net, seq);
    ASSERT_TRUE(a.coverage.enabled);
    EXPECT_GT(a.coverage.paths, 0u);
    const json::Value doc = a.report.to_json();
    const json::Value* section = doc.find("coverage");
    ASSERT_NE(section, nullptr);
    const std::string reference = section->dump(2);
    for (const std::size_t workers : {2u, 4u}) {
        AnalysisRequest par = base_request();
        par.coverage = true;
        par.mode = AnalysisMode::EstimateParallel;
        par.workers = workers;
        const AnalysisResult b = run_analysis(net, par);
        EXPECT_EQ(b.value, a.value) << workers << " workers";
        EXPECT_EQ(b.report.to_json().at("coverage").dump(2), reference)
            << workers << " workers";
    }
}

TEST_F(AnalysisApiTest, CoverageRejectedOutsideEstimationModes) {
    AnalysisRequest req = base_request();
    req.coverage = true;
    req.mode = AnalysisMode::CtmcFlow;
    EXPECT_THROW((void)run_analysis(net, req), Error);
}

TEST_F(AnalysisApiTest, CurveRejectsWitnessCapture) {
    // Curve runs capture no witnesses, so asking for them is an error in
    // both in-process estimation modes rather than an empty witness list.
    AnalysisRequest req = base_request();
    req.curve_bounds = {1.0, 2.0};
    req.witness.per_kind = 1;
    for (const AnalysisMode mode : {AnalysisMode::Estimate, AnalysisMode::EstimateParallel}) {
        req.mode = mode;
        req.workers = mode == AnalysisMode::Estimate ? 1 : 2;
        try {
            (void)run_analysis(net, req);
            ADD_FAILURE() << "curve run with witness capture was accepted";
        } catch (const Error& e) {
            EXPECT_NE(std::string(e.what()).find("witness capture"), std::string::npos)
                << e.what();
        }
    }
}

TEST_F(AnalysisApiTest, SplittingModeFillsReport) {
    AnalysisRequest req = base_request();
    req.mode = AnalysisMode::EstimateSplitting;
    req.splitting.level = "(if broken then 1 else 0)";
    req.splitting.factor = 2;
    req.splitting.base_runs = 2048;
    const AnalysisResult res = run_analysis(net, req);
    EXPECT_EQ(res.mode, AnalysisMode::EstimateSplitting);
    EXPECT_NEAR(res.value, expected, 0.08);
    EXPECT_EQ(res.value, res.splitting.estimate);
    EXPECT_EQ(res.splitting.status, sim::RunStatus::Converged);

    const telemetry::RunReport& report = res.report;
    EXPECT_EQ(report.mode, "estimate-splitting");
    EXPECT_EQ(report.samples, 2048u);
    EXPECT_EQ(report.criterion, "fixed-roots(2048)");
    ASSERT_TRUE(report.splitting.enabled);
    EXPECT_EQ(report.splitting.level, req.splitting.level);
    EXPECT_EQ(report.splitting.factor, 2u);
    EXPECT_EQ(report.splitting.roots, 2048u);
    EXPECT_GT(report.splitting.total_paths, 2048u);
    EXPECT_EQ(report.splitting.goal_hits, res.splitting.goal_hits);

    const json::Value doc = report.to_json();
    ASSERT_NE(doc.find("version"), nullptr);
    EXPECT_EQ(doc.find("version")->as_int(), telemetry::RunReport::kSchemaVersion);
    const json::Value* sp = doc.find("splitting");
    ASSERT_NE(sp, nullptr);
    EXPECT_EQ(sp->find("factor")->as_int(), 2);
    EXPECT_EQ(sp->find("roots")->as_int(), 2048);

    const std::string text = res.to_string();
    EXPECT_NE(text.find("importance splitting"), std::string::npos);
    EXPECT_NE(text.find("roots"), std::string::npos);
}

TEST_F(AnalysisApiTest, SplittingReportByteIdenticalAcrossWorkerCounts) {
    // The report's result-bearing sections must not move by a byte when the
    // worker count changes. (The whole deterministic view cannot be compared
    // across worker counts: it embeds the workers parameter itself, and with
    // one worker the engine counters are deterministic and stay in the
    // deterministic part.)
    const auto result_sections = [](const telemetry::RunReport& report) {
        const json::Value doc = report.to_json();
        std::string out;
        for (const char* key : {"result", "run_status", "terminals", "splitting"}) {
            const json::Value* section = doc.find(key);
            if (section != nullptr) out += section->dump(2) + "\n";
        }
        return out;
    };
    std::string reference;
    std::string reference_text;
    for (const std::size_t workers :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
        AnalysisRequest req = base_request();
        req.mode = AnalysisMode::EstimateSplitting;
        req.splitting.level = "(if broken then 1 else 0)";
        req.splitting.factor = 4;
        req.splitting.base_runs = 512;
        req.workers = workers;
        const AnalysisResult res = run_analysis(net, req);
        const std::string view = result_sections(res.report);
        if (reference.empty()) {
            reference = view;
            reference_text = res.to_string();
        } else {
            EXPECT_EQ(view, reference) << workers << " workers";
            EXPECT_EQ(res.to_string(), reference_text) << workers << " workers";
        }
    }
}

TEST_F(AnalysisApiTest, SplittingHalfWidthFollowsTheRequestedDelta) {
    // The reported half-width is the CLT one at confidence 1 - delta: on the
    // same seed a smaller delta widens it by the ratio of the normal
    // quantiles, and the estimate itself does not move.
    AnalysisRequest req = base_request();
    req.mode = AnalysisMode::EstimateSplitting;
    req.splitting.level = "(if broken then 1 else 0)";
    req.splitting.factor = 2;
    req.splitting.base_runs = 2048;
    req.delta = 0.05;
    const AnalysisResult at_05 = run_analysis(net, req);
    req.delta = 0.001;
    const AnalysisResult at_001 = run_analysis(net, req);
    EXPECT_EQ(at_001.value, at_05.value);
    EXPECT_EQ(at_001.splitting.total_paths, at_05.splitting.total_paths);
    ASSERT_GT(at_05.splitting.relative_half_width, 0.0);
    EXPECT_NEAR(at_001.splitting.relative_half_width / at_05.splitting.relative_half_width,
                3.2905 / 1.9600, 1e-3);
    EXPECT_GT(at_001.report.run_status.achieved_half_width,
              at_05.report.run_status.achieved_half_width);
    EXPECT_EQ(at_001.report.splitting.relative_half_width,
              at_001.splitting.relative_half_width);
}

TEST_F(AnalysisApiTest, SplittingAutoPlacementFillsPilotCoverage) {
    AnalysisRequest req = base_request();
    req.mode = AnalysisMode::EstimateSplitting;
    req.splitting.auto_levels = true;
    req.splitting.base_runs = 512;
    req.splitting.pilot_runs = 128;
    const AnalysisResult res = run_analysis(net, req);
    EXPECT_NEAR(res.value, expected, 0.1);
    EXPECT_EQ(res.splitting.pilot_paths, 128u);
    EXPECT_TRUE(res.coverage.enabled); // the pilot's profile
    EXPECT_TRUE(res.report.coverage.enabled);
    EXPECT_EQ(res.report.splitting.level, "auto");
    EXPECT_EQ(res.report.splitting.pilot_paths, 128u);
}

TEST_F(AnalysisApiTest, SplittingRejectsCurveWitnessAndCoverage) {
    AnalysisRequest req = base_request();
    req.mode = AnalysisMode::EstimateSplitting;
    req.splitting.level = "(if broken then 1 else 0)";
    req.curve_bounds = {1.0, 2.0};
    EXPECT_THROW((void)run_analysis(net, req), Error);
    req.curve_bounds.clear();
    req.witness.per_kind = 1;
    EXPECT_THROW((void)run_analysis(net, req), Error);
    req.witness.per_kind = 0;
    req.coverage = true;
    EXPECT_THROW((void)run_analysis(net, req), Error);
}

TEST_F(AnalysisApiTest, ToStringCarriesHeadline) {
    const AnalysisResult res = run_analysis(net, base_request());
    const std::string text = res.to_string();
    EXPECT_NE(text.find("P( <> [0,2] broken ) ~="), std::string::npos);
    EXPECT_NE(text.find("terminals:"), std::string::npos);
    EXPECT_NE(text.find("goal="), std::string::npos);
}

} // namespace
} // namespace slimsim
