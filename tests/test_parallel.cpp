#include "sim/parallel_runner.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>

#include "models/failover.hpp"
#include "models/gps.hpp"
#include "models/launcher.hpp"
#include "models/sensor_filter.hpp"
#include "support/telemetry.hpp"

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

struct ParallelTest : ::testing::Test {
    eda::Network net = eda::build_network_from_source(kModel);
    TimedReachability prop = make_reachability(net.model(), "broken", 2.0);
    double expected = 1.0 - std::exp(-1.0);
};

TEST_F(ParallelTest, EstimateMatchesAnalytic) {
    const stat::ChernoffHoeffding ch(0.05, 0.02);
    ParallelOptions po;
    po.workers = 4;
    const auto res = estimate_parallel(net, prop, StrategyKind::Progressive, ch, 7, po);
    EXPECT_NEAR(res.estimate, expected, 0.03);
    EXPECT_GE(res.samples, *ch.fixed_sample_count());
}

TEST_F(ParallelTest, DeterministicInSeedAndWorkerCount) {
    const stat::ChernoffHoeffding ch(0.1, 0.05);
    ParallelOptions po;
    po.workers = 3;
    const auto r1 = estimate_parallel(net, prop, StrategyKind::Progressive, ch, 42, po);
    const auto r2 = estimate_parallel(net, prop, StrategyKind::Progressive, ch, 42, po);
    EXPECT_EQ(r1.samples, r2.samples);
    EXPECT_EQ(r1.successes, r2.successes);
}

TEST_F(ParallelTest, DifferentWorkerCountsAgreeStatistically) {
    const stat::ChernoffHoeffding ch(0.05, 0.03);
    for (const std::size_t workers : {1u, 2u, 8u}) {
        ParallelOptions po;
        po.workers = workers;
        const auto res =
            estimate_parallel(net, prop, StrategyKind::Progressive, ch, 11, po);
        EXPECT_NEAR(res.estimate, expected, 0.05) << workers << " workers";
    }
}

// Golden byte-identity: the deterministic view of the run report (everything
// but the "runtime" and "resources" sections) is pinned at fixed seeds, so a
// change to how samples travel from workers to the consumer cannot move any
// accepted sample, stop point or trajectory mark unnoticed. Scalar runs were
// re-pinned once when every run moved to per-path RNG streams; samples and
// successes are now the same at every worker count.

std::uint64_t fnv1a64(std::string_view text) {
    std::uint64_t h = 0xCBF29CE484222325ULL;
    for (const char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001B3ULL;
    }
    return h;
}

struct GoldenRun {
    const char* criterion;
    std::uint64_t seed;
    std::size_t workers;
    std::uint64_t samples;
    std::uint64_t successes;
    std::uint64_t view_hash;
};

TEST_F(ParallelTest, GoldenDeterministicViewOfScalarRuns) {
    const stat::ChernoffHoeffding ch(0.05, 0.03);
    const stat::GaussCriterion gauss(0.05, 0.02);
    const stat::ChowRobbins chow(0.05, 0.02);
    const auto criterion_named = [&](std::string_view name) -> const stat::StopCriterion& {
        if (name == "ch") return ch;
        if (name == "gauss") return gauss;
        return chow;
    };
    constexpr GoldenRun kGolden[] = {
        // criterion, seed, workers, samples, successes, view hash
        {"ch", 3, 1, 2050, 1303, 0x8ECE0A541959DC98ULL},
        {"ch", 3, 2, 2050, 1303, 0x405ABC17B1339D9AULL},
        {"ch", 3, 3, 2050, 1303, 0x8156B01E74CB9F6FULL},
        {"ch", 17, 1, 2050, 1285, 0x170B41294A81EA89ULL},
        {"ch", 17, 2, 2050, 1285, 0x9A33B5DB859BB3D3ULL},
        {"ch", 17, 3, 2050, 1285, 0x9EA20471009EE8FCULL},
        {"gauss", 3, 1, 2401, 1522, 0x5A1F8687ED42FDAAULL},
        {"gauss", 3, 2, 2401, 1522, 0x3F47F15DA35F8C48ULL},
        {"gauss", 3, 3, 2401, 1522, 0x238387FB128317F3ULL},
        {"gauss", 17, 1, 2401, 1507, 0x5DA23FBB1A7E57C0ULL},
        {"gauss", 17, 2, 2401, 1507, 0x13A9AD29FCCD28BAULL},
        {"gauss", 17, 3, 2401, 1507, 0x9EA05419A2D0BD5FULL},
        {"chow", 3, 1, 2233, 1417, 0xD301832F3F6605F1ULL},
        {"chow", 3, 2, 2233, 1417, 0x48046547F98B55E9ULL},
        {"chow", 3, 3, 2233, 1417, 0xB66116F206904EC0ULL},
        {"chow", 17, 1, 2252, 1412, 0xFA31B23EBC6B4776ULL},
        {"chow", 17, 2, 2252, 1412, 0x1F7AC6B6B07C18FEULL},
        {"chow", 17, 3, 2252, 1412, 0x8D4805839749E022ULL},
    };
    for (const GoldenRun& g : kGolden) {
        ParallelOptions po;
        po.workers = g.workers;
        telemetry::RunReport report;
        const auto res = estimate_parallel(net, prop, StrategyKind::Progressive,
                                           criterion_named(g.criterion), g.seed, po,
                                           &report);
        const std::string view = telemetry::deterministic_view(report.to_json()).dump(2);
        SCOPED_TRACE(std::string(g.criterion) + " seed " + std::to_string(g.seed) + ", " +
                     std::to_string(g.workers) + " workers");
        EXPECT_EQ(res.samples, g.samples);
        EXPECT_EQ(res.successes, g.successes);
        EXPECT_EQ(fnv1a64(view), g.view_hash) << view;
    }
}

TEST_F(ParallelTest, GoldenDeterministicViewOfCurveRuns) {
    const stat::ChernoffHoeffding ch(0.05, 0.03);
    CurveOptions curve;
    curve.bounds = {0.5, 1.0, 2.0};
    constexpr GoldenRun kGolden[] = {
        // criterion, seed, workers, samples, successes at 2.0, view hash
        {"ch", 3, 1, 2050, 1303, 0x29B2A37D021D41FFULL},
        {"ch", 3, 3, 2050, 1303, 0xEA889EFE907C2A26ULL},
        {"ch", 17, 1, 2050, 1285, 0x1A94B929EDBC1790ULL},
        {"ch", 17, 3, 2050, 1285, 0x6C96366C592C8DE9ULL},
    };
    for (const GoldenRun& g : kGolden) {
        ParallelOptions po;
        po.workers = g.workers;
        telemetry::RunReport report;
        const auto res = estimate_curve_parallel(net, prop, StrategyKind::Progressive, ch,
                                                 curve, g.seed, po, &report);
        const std::string view = telemetry::deterministic_view(report.to_json()).dump(2);
        SCOPED_TRACE("curve seed " + std::to_string(g.seed) + ", " +
                     std::to_string(g.workers) + " workers");
        EXPECT_EQ(res.samples, g.samples);
        EXPECT_EQ(res.points.back().successes, g.successes);
        EXPECT_EQ(fnv1a64(view), g.view_hash) << view;
    }
}

// The sequential runners and the threaded runner with coverage: a scalar
// run, a curve, and coverage at 1 and 3 workers.
TEST_F(ParallelTest, GoldenDeterministicViewOfSequentialRuns) {
    const stat::ChernoffHoeffding ch(0.05, 0.03);
    const stat::ChowRobbins chow(0.05, 0.02);
    CurveOptions curve;
    curve.bounds = {0.5, 1.0, 2.0};
    struct VenueRun {
        const char* venue;
        const char* criterion;
        std::uint64_t seed;
        std::uint64_t samples;
        std::uint64_t successes; // at the largest bound for the curve
        std::uint64_t view_hash;
    };
    constexpr VenueRun kGolden[] = {
        // venue, criterion, seed, samples, successes, view hash
        {"per_path", "ch", 3, 2050, 1303, 0x646B7A41F7AA5D73ULL},
        {"per_path", "ch", 17, 2050, 1285, 0x21D25D501167735EULL},
        {"per_path", "chow", 3, 2233, 1417, 0x5F96E14F9533DBE6ULL},
        {"curve", "ch", 3, 2050, 1303, 0xCDD71E92633A5E0AULL},
        {"curve", "ch", 17, 2050, 1285, 0x0BC54778083B60EFULL},
        {"coverage_1", "ch", 3, 2050, 1303, 0xF03C06ED70B2890EULL},
        {"coverage_1", "ch", 17, 2050, 1285, 0xA41D444C266111EEULL},
        {"coverage_3", "ch", 3, 2050, 1303, 0xE55F6A0A60525311ULL},
        {"coverage_3", "ch", 17, 2050, 1285, 0x7C61BBAE0AC2F4B3ULL},
        {"coverage_3", "chow", 3, 2233, 1417, 0x54C422C2662E9E11ULL},
    };
    for (const VenueRun& g : kGolden) {
        const std::string_view venue = g.venue;
        const stat::StopCriterion& criterion =
            std::string_view(g.criterion) == "ch" ? static_cast<const stat::StopCriterion&>(ch)
                                                  : chow;
        telemetry::RunReport report;
        std::uint64_t samples = 0;
        std::uint64_t successes = 0;
        if (venue == "curve") {
            const auto res = estimate_curve(net, prop, StrategyKind::Progressive, criterion,
                                            curve, g.seed, {}, &report);
            samples = res.samples;
            successes = res.points.back().successes;
        } else if (venue == "per_path") {
            const auto res =
                estimate(net, prop, StrategyKind::Progressive, criterion, g.seed, {}, &report);
            samples = res.samples;
            successes = res.successes;
        } else {
            ParallelOptions po;
            po.workers = venue == "coverage_1" ? 1 : 3;
            po.sim.coverage = true;
            const auto res = estimate_parallel(net, prop, StrategyKind::Progressive, criterion,
                                               g.seed, po, &report);
            samples = res.samples;
            successes = res.successes;
        }
        const std::string view = telemetry::deterministic_view(report.to_json()).dump(2);
        SCOPED_TRACE(std::string(venue) + " " + g.criterion + " seed " +
                     std::to_string(g.seed));
        EXPECT_EQ(samples, g.samples);
        EXPECT_EQ(successes, g.successes);
        EXPECT_EQ(fnv1a64(view), g.view_hash) << view;
    }
}

// The runs above use a model without data flows; these pin the view on
// generated models whose every firing runs flows and fault injections, so a
// change to which flows or injections apply, or to their order, moves a
// trajectory and with it the hash. The fail-over model is the only one with
// unary (`not broken`) and literal (`false`) flows.
TEST(ParallelGolden, GoldenDeterministicViewOfGeneratedModels) {
    models::LauncherOptions recoverable;
    recoverable.recoverable_dpu = true;
    models::FailoverOptions failover;
    failover.pump_fail_per_hour = 0.003;
    struct Generated {
        const char* name;
        std::string source;
        std::string goal;
        double bound;
        StrategyKind strategy;
    };
    const Generated kModels[] = {
        {"sensor_filter_r3", models::sensor_filter_source(3), models::sensor_filter_goal(),
         100.0 * 3600.0, StrategyKind::Asap},
        {"launcher_rec", models::launcher_source(recoverable), models::launcher_goal(),
         1800.0, StrategyKind::Progressive},
        {"failover", models::failover_source(failover), models::failover_goal(),
         200.0 * 3600.0, StrategyKind::Asap},
    };
    struct GeneratedRun {
        const char* model;
        std::uint64_t seed;
        std::size_t workers;
        std::uint64_t samples;
        std::uint64_t successes;
        std::uint64_t view_hash;
    };
    constexpr GeneratedRun kGolden[] = {
        // model, seed, workers, samples, successes, view hash (CH criterion)
        {"sensor_filter_r3", 3, 1, 2050, 636, 0xE135BB814404C0D2ULL},
        {"sensor_filter_r3", 3, 3, 2050, 636, 0x9CDA3E57B607096FULL},
        {"sensor_filter_r3", 17, 1, 2050, 654, 0x684A9CF399390D29ULL},
        {"sensor_filter_r3", 17, 3, 2050, 654, 0xEC905113E0A1ED26ULL},
        {"launcher_rec", 3, 1, 2050, 262, 0x4D8A7FB44F3CFCB7ULL},
        {"launcher_rec", 3, 3, 2050, 262, 0xF88C7C5891565D24ULL},
        {"launcher_rec", 17, 1, 2050, 240, 0x71EFA7614F6F9D28ULL},
        {"launcher_rec", 17, 3, 2050, 240, 0x63B86C4E056B9CF3ULL},
        {"failover", 3, 1, 2050, 412, 0x5A4CBBDA0B4DF073ULL},
        {"failover", 3, 3, 2050, 412, 0xDE2DAFE30EC834DCULL},
        {"failover", 17, 1, 2050, 429, 0x6ADEC7FF6EFF6295ULL},
        {"failover", 17, 3, 2050, 429, 0x1BACCDB1CAACF2F6ULL},
    };
    const stat::ChernoffHoeffding ch(0.05, 0.03);
    for (const Generated& m : kModels) {
        const eda::Network net = eda::build_network_from_source(m.source);
        const TimedReachability prop = make_reachability(net.model(), m.goal, m.bound);
        for (const GeneratedRun& g : kGolden) {
            if (std::string_view(g.model) != m.name) continue;
            ParallelOptions po;
            po.workers = g.workers;
            telemetry::RunReport report;
            const auto res = estimate_parallel(net, prop, m.strategy, ch, g.seed, po, &report);
            const std::string view =
                telemetry::deterministic_view(report.to_json()).dump(2);
            SCOPED_TRACE(std::string(m.name) + " seed " + std::to_string(g.seed) + ", " +
                         std::to_string(g.workers) + " workers");
            EXPECT_EQ(res.samples, g.samples);
            EXPECT_EQ(res.successes, g.successes);
            EXPECT_EQ(fnv1a64(view), g.view_hash) << view;
        }
    }
}

// Worker invariance: every run simulates path j with Rng(seed).split(j) and
// accepts samples one at a time in global path order, so the inline
// producer (1 worker) and 2 or 4 worker threads accept the same paths. The
// deterministic report may differ only in the worker count, the per-worker
// entries and the collector section, which the inline producer does not
// have.
struct WorkerInvariance : ::testing::Test {
    eda::Network net = eda::build_network_from_source(models::gps_source());
    TimedReachability prop = make_reachability(net.model(), models::gps_goal(), 1800.0);

    struct Run {
        EstimationResult result;
        std::string view;
    };

    /// `criterion` at 1 (inline), 2 and 4 workers.
    std::vector<Run> at_every_worker_count(const stat::StopCriterion& criterion,
                                           const SimOptions& sim = {}) const {
        std::vector<Run> runs;
        for (const std::size_t workers : {1u, 2u, 4u}) {
            telemetry::RunReport report;
            Run run;
            if (workers == 1) {
                run.result = estimate(net, prop, StrategyKind::Progressive, criterion, 7, sim,
                                      &report);
            } else {
                ParallelOptions po;
                po.workers = workers;
                po.sim = sim;
                run.result = estimate_parallel(net, prop, StrategyKind::Progressive, criterion,
                                               7, po, &report);
            }
            report.workers = 0;
            json::Value kept = json::Value::object();
            const json::Value view = telemetry::deterministic_view(report.to_json());
            for (const auto& [key, value] : view.members()) {
                if (key != "workers" && key != "collector") kept[key] = value;
            }
            run.view = kept.dump(2);
            runs.push_back(std::move(run));
        }
        return runs;
    }

    static void expect_identical(const std::vector<Run>& runs) {
        ASSERT_EQ(runs.size(), 3u);
        for (std::size_t i = 1; i < runs.size(); ++i) {
            SCOPED_TRACE(i == 1 ? "2 workers" : "4 workers");
            const EstimationResult& a = runs[0].result;
            const EstimationResult& b = runs[i].result;
            EXPECT_EQ(b.estimate, a.estimate);
            EXPECT_EQ(b.samples, a.samples);
            EXPECT_EQ(b.successes, a.successes);
            EXPECT_EQ(b.terminals, a.terminals);
            EXPECT_EQ(b.status, a.status);
            EXPECT_EQ(b.stop_cause, a.stop_cause);
            EXPECT_EQ(runs[i].view, runs[0].view);
        }
    }
};

TEST_F(WorkerInvariance, ChernoffHoeffdingTakesExactlyNAtEveryWorkerCount) {
    const stat::ChernoffHoeffding ch(0.05, 0.01);
    ASSERT_EQ(*ch.fixed_sample_count(), 18445u);
    const auto runs = at_every_worker_count(ch);
    expect_identical(runs);
    for (const Run& run : runs) EXPECT_EQ(run.result.samples, 18445u);
}

TEST_F(WorkerInvariance, SprtVerdictIsTheSameAtEveryWorkerCount) {
    const stat::Sprt sprt(0.99, 0.005, 0.05);
    const auto runs = at_every_worker_count(sprt);
    expect_identical(runs);
    EXPECT_TRUE(sprt.should_stop(stat::BernoulliSummary{runs[0].result.samples,
                                                        runs[0].result.successes}));
}

TEST_F(WorkerInvariance, SampleBudgetStopsAtTheSamePathAtEveryWorkerCount) {
    // 1,001 is no multiple of 2 or 4: the budget ends mid-round.
    const stat::ChernoffHoeffding ch(0.05, 0.001);
    SimOptions sim;
    sim.control.budget.max_samples = 1001;
    const auto runs = at_every_worker_count(ch, sim);
    expect_identical(runs);
    EXPECT_EQ(runs[0].result.samples, 1001u);
    EXPECT_EQ(runs[0].result.status, RunStatus::BudgetExhausted);
}

TEST_F(ParallelTest, RejectsBadConfiguration) {
    const stat::ChernoffHoeffding ch(0.1, 0.1);
    ParallelOptions po;
    po.workers = 0;
    EXPECT_THROW(estimate_parallel(net, prop, StrategyKind::Progressive, ch, 1, po),
                 Error);
    po.workers = 2;
    EXPECT_THROW(estimate_parallel(net, prop, StrategyKind::Input, ch, 1, po), Error);
}

TEST_F(ParallelTest, WorkerErrorsPropagate) {
    // A Zeno model (immediate self-loop) makes every worker throw.
    const eda::Network zeno = eda::build_network_from_source(R"(
        root S.I;
        system S
        features never: out data port bool default false;
        end S;
        system implementation S.I
        modes a: initial mode;
        transitions a -[]-> a;
        end S.I;
    )");
    const TimedReachability p = make_reachability(zeno.model(), "never", 1.0);
    const stat::ChernoffHoeffding ch(0.1, 0.1);
    ParallelOptions po;
    po.workers = 2;
    po.sim.max_steps = 500;
    EXPECT_THROW(estimate_parallel(zeno, p, StrategyKind::Asap, ch, 1, po), Error);
}

} // namespace
} // namespace slimsim::sim
