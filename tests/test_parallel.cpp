#include "sim/parallel_runner.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>

#include "models/failover.hpp"
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

TEST_F(ParallelTest, FirstComeModeStillWorksOnUnbiasedWorkload) {
    // With homogeneous workers the bias of first-come collection is
    // negligible; the mode exists to demonstrate the hazard in the bench.
    const stat::ChernoffHoeffding ch(0.05, 0.03);
    ParallelOptions po;
    po.workers = 4;
    po.collection = CollectionMode::FirstCome;
    const auto res = estimate_parallel(net, prop, StrategyKind::Progressive, ch, 3, po);
    EXPECT_NEAR(res.estimate, expected, 0.05);
}

// Golden byte-identity: the deterministic view of the run report (everything
// but the "runtime" and "resources" sections) is pinned at fixed seeds, so a
// change to how samples travel from workers to the consumer cannot move any
// accepted sample, stop point or trajectory mark unnoticed. The pinned values
// were computed with the one-sample-per-push, one-round-per-drain collector.

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
        {"ch", 3, 1, 2050, 1319, 0x07FDD0BEDC56C70FULL},
        {"ch", 3, 2, 2050, 1319, 0xCF674B23BB9E47E8ULL},
        {"ch", 3, 3, 2052, 1326, 0x87AA91EAE933B3D3ULL},
        {"ch", 17, 1, 2050, 1248, 0x8C86B17165947736ULL},
        {"ch", 17, 2, 2050, 1252, 0x9779E220CED5D92FULL},
        {"ch", 17, 3, 2052, 1268, 0xBF38212336AC1505ULL},
        {"gauss", 3, 1, 2401, 1544, 0x4EB9C87E21176CD0ULL},
        {"gauss", 3, 2, 2402, 1548, 0xCBEE2607D7860982ULL},
        {"gauss", 3, 3, 2403, 1549, 0xA9511876131BEC27ULL},
        {"gauss", 17, 1, 2401, 1470, 0x85ABC37E47F9216DULL},
        {"gauss", 17, 2, 2402, 1479, 0x5C2DFD4AF1712C9EULL},
        {"gauss", 17, 3, 2403, 1484, 0xCD8B117387EF078FULL},
        {"chow", 3, 1, 2210, 1422, 0x2E73BF74C0BB3BFEULL},
        {"chow", 3, 2, 2210, 1421, 0xB6A340FCEC26ACF9ULL},
        {"chow", 3, 3, 2205, 1423, 0x22F1D3110404C9B6ULL},
        {"chow", 17, 1, 2288, 1399, 0xF944A5010A57A4EEULL},
        {"chow", 17, 2, 2288, 1399, 0xF496A0F820F70799ULL},
        {"chow", 17, 3, 2268, 1408, 0x228225E931170C18ULL},
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

// The sequential runners and the per-path Bernoulli drain of the threaded
// runner: the master stream, per-path streams switched on by the run
// control, a curve, and coverage (which switches estimate_parallel to
// per-path streams and sample-by-sample draining) at 1 and 3 workers.
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
        {"master", "ch", 3, 2050, 1276, 0x816CA8D9FEEF0373ULL},
        {"master", "ch", 17, 2050, 1261, 0xABF9D0C863D3AABCULL},
        {"master", "chow", 3, 2268, 1407, 0xD021CBFEA7BB1C58ULL},
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
        } else if (venue == "master" || venue == "per_path") {
            SimOptions so;
            so.control.deterministic_streams = venue == "per_path";
            const auto res = estimate(net, prop, StrategyKind::Progressive, criterion, g.seed,
                                      so, &report);
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
        {"sensor_filter_r3", 3, 1, 2050, 597, 0xBA17AF8EF842AE4CULL},
        {"sensor_filter_r3", 3, 3, 2052, 634, 0xD395A58648514B10ULL},
        {"sensor_filter_r3", 17, 1, 2050, 582, 0xCC0C2043986FE7FEULL},
        {"sensor_filter_r3", 17, 3, 2052, 574, 0x048C3BA27EB98E93ULL},
        {"launcher_rec", 3, 1, 2050, 240, 0x877D222CE38D4AB7ULL},
        {"launcher_rec", 3, 3, 2052, 242, 0x4F63DE688DB7D6E6ULL},
        {"launcher_rec", 17, 1, 2050, 221, 0x9781D46D7E6F1DF2ULL},
        {"launcher_rec", 17, 3, 2052, 227, 0x1DE5CA58E746A801ULL},
        {"failover", 3, 1, 2050, 404, 0x0ACBE3DE0279E468ULL},
        {"failover", 3, 3, 2052, 420, 0x25B93CB5E478739DULL},
        {"failover", 17, 1, 2050, 389, 0x9BDCF316DF75CFC1ULL},
        {"failover", 17, 3, 2052, 384, 0x779937E904403CD7ULL},
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
