#include "sim/hypothesis.hpp"

#include <gtest/gtest.h>

#include "stat/generators.hpp"

namespace slimsim::sim {
namespace {

/// P(broken within 1 s) = 1 - exp(-rate): ~0.632 at rate 1.
constexpr const char* kFaultModel = R"(
    root S.I;
    system S
    features broken: out data port bool default false;
    end S;
    system implementation S.I end S.I;
    error model EM
    features ok: initial state; bad: error state;
    end EM;
    error model implementation EM.I
    events f: error event occurrence poisson 1 per sec;
    transitions ok -[f]-> bad;
    end EM.I;
    fault injections
      component root uses error model EM.I;
      component root in state bad effect broken := true;
    end fault injections;
)";

struct HypothesisTest : ::testing::Test {
    eda::Network net = eda::build_network_from_source(kFaultModel);
    PathFormula prop = make_reachability(net.model(), "broken", 1.0);
    // true p ~ 0.632
};

TEST_F(HypothesisTest, AcceptsWhenWellAboveThreshold) {
    const HypothesisResult res =
        test_hypothesis(net, prop, StrategyKind::Progressive, 0.4, 1);
    EXPECT_EQ(res.verdict, HypothesisVerdict::AcceptAbove);
    EXPECT_GT(res.samples, 0u);
}

TEST_F(HypothesisTest, RejectsWhenWellBelowThreshold) {
    const HypothesisResult res =
        test_hypothesis(net, prop, StrategyKind::Progressive, 0.9, 1);
    EXPECT_EQ(res.verdict, HypothesisVerdict::AcceptBelow);
}

TEST_F(HypothesisTest, NeedsFarFewerSamplesThanEstimation) {
    // Deciding "p >= 0.4" vs estimating p to eps=0.01: SPRT should be
    // orders of magnitude cheaper for a clear-cut case.
    const HypothesisResult res =
        test_hypothesis(net, prop, StrategyKind::Progressive, 0.4, 7);
    const std::size_t ch = stat::ChernoffHoeffding::sample_count(0.01, 0.01);
    EXPECT_LT(res.samples, ch / 20);
}

TEST_F(HypothesisTest, InconclusiveWithinIndifferenceRegion) {
    // Threshold placed at the true probability with a tiny budget: the SPRT
    // walks inside the indifference region and cannot decide.
    HypothesisOptions opt;
    opt.sim.control.budget.max_samples = 50;
    opt.indifference = 0.001;
    const HypothesisResult res =
        test_hypothesis(net, prop, StrategyKind::Progressive, 0.632, 3, opt);
    EXPECT_EQ(res.verdict, HypothesisVerdict::Inconclusive);
    EXPECT_EQ(res.samples, 50u);
}

TEST_F(HypothesisTest, DeterministicInSeed) {
    const HypothesisResult a =
        test_hypothesis(net, prop, StrategyKind::Progressive, 0.5, 42);
    const HypothesisResult b =
        test_hypothesis(net, prop, StrategyKind::Progressive, 0.5, 42);
    EXPECT_EQ(a.samples, b.samples);
    EXPECT_EQ(a.successes, b.successes);
    EXPECT_EQ(a.verdict, b.verdict);
}

TEST_F(HypothesisTest, ReportsParameters) {
    HypothesisOptions opt;
    opt.indifference = 0.05;
    opt.delta = 0.02;
    const HypothesisResult res =
        test_hypothesis(net, prop, StrategyKind::Asap, 0.3, 5, opt);
    EXPECT_DOUBLE_EQ(res.threshold, 0.3);
    EXPECT_DOUBLE_EQ(res.indifference, 0.05);
    EXPECT_DOUBLE_EQ(res.delta, 0.02);
    EXPECT_EQ(res.strategy, "asap");
    EXPECT_NE(res.to_string().find("accept"), std::string::npos);
}

// Error-rate sweep: over repeated experiments at a clear margin, the SPRT's
// wrong-decision frequency stays near/below delta.
class SprtErrorRate : public ::testing::TestWithParam<double> {};

TEST_P(SprtErrorRate, WrongDecisionsAreRare) {
    const eda::Network net = eda::build_network_from_source(kFaultModel);
    const PathFormula prop = make_reachability(net.model(), "broken", 1.0);
    const double threshold = GetParam(); // true p ~ 0.632
    HypothesisOptions opt;
    opt.delta = 0.05;
    opt.indifference = 0.05;
    int wrong = 0;
    const int trials = 40;
    for (int t = 0; t < trials; ++t) {
        const HypothesisResult res = test_hypothesis(
            net, prop, StrategyKind::Progressive, threshold,
            1000 + static_cast<std::uint64_t>(t), opt);
        const bool truth_above = 0.632 >= threshold;
        if ((res.verdict == HypothesisVerdict::AcceptAbove) != truth_above &&
            res.verdict != HypothesisVerdict::Inconclusive) {
            ++wrong;
        }
    }
    EXPECT_LE(wrong, 6); // ~delta * trials with slack
}

INSTANTIATE_TEST_SUITE_P(Thresholds, SprtErrorRate, ::testing::Values(0.45, 0.8));

} // namespace
} // namespace slimsim::sim
