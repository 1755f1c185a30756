// Statistical conformance (ctest label `conformance`): an estimate must meet
// the (eps, delta) it advertises, checked over many seeds against an exact
// answer. A criterion passes when its miss count (|p^ - p| > eps) is
// consistent with a miss probability of at most delta: a one-sided binomial
// test at the 5% level.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "sim/runner.hpp"

namespace slimsim::sim {
namespace {

/// One exponential failure at rate -ln(0.98) per second: P(<> [0,1] broken)
/// = 1 - e^-rate = 0.02 exactly (up to the literal's rounding).
constexpr double kRate = 0.0202027073175194;
constexpr std::size_t kSeeds = 300;
constexpr double kEps = 0.01;
constexpr double kDelta = 0.05;

const std::string kModel = R"(
    root S.I;
    system S
    features broken: out data port bool default false;
    end S;
    system implementation S.I end S.I;
    error model EM
    features ok: initial state; bad: error state;
    end EM;
    error model implementation EM.I
    events f: error event occurrence poisson 0.0202027073175194 per sec;
    transitions ok -[f]-> bad;
    end EM.I;
    fault injections
      component root uses error model EM.I;
      component root in state bad effect broken := true;
    end fault injections;
)";

/// The smallest c with P(X >= c) <= alpha for X ~ Binomial(n, q): a miss
/// count of c or more rejects "miss probability <= q" at level alpha.
std::size_t binomial_critical_count(std::size_t n, double q, double alpha) {
    const auto pmf = [&](std::size_t x) {
        const double log_choose = std::lgamma(static_cast<double>(n) + 1.0) -
                                  std::lgamma(static_cast<double>(x) + 1.0) -
                                  std::lgamma(static_cast<double>(n - x) + 1.0);
        return std::exp(log_choose + static_cast<double>(x) * std::log(q) +
                        static_cast<double>(n - x) * std::log1p(-q));
    };
    double tail = 0.0; // P(X >= c), accumulated from the top
    for (std::size_t c = n + 1; c-- > 0;) {
        if (tail + pmf(c) > alpha) return c + 1;
        tail += pmf(c);
    }
    return 0;
}

struct Conformance : ::testing::Test {
    eda::Network net = eda::build_network_from_source(kModel);
    TimedReachability prop = make_reachability(net.model(), "broken", 1.0);
    double exact = -std::expm1(-kRate);

    /// Seeds 1..kSeeds whose estimate misses the exact answer by more than
    /// eps; every run must converge.
    std::size_t misses(const stat::StopCriterion& criterion) const {
        std::size_t count = 0;
        for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
            const auto res = estimate(net, prop, StrategyKind::Asap, criterion, seed);
            EXPECT_EQ(res.status, RunStatus::Converged) << "seed " << seed;
            if (std::abs(res.estimate - exact) > kEps) ++count;
        }
        return count;
    }
};

TEST(ConformanceStat, BinomialCriticalCount) {
    // Binomial(300, 0.05): P(X >= 21) = 0.0776 and P(X >= 22) = 0.0486.
    EXPECT_EQ(binomial_critical_count(300, 0.05, 0.05), 22u);
    // One fair coin: P(X >= 1) = 0.5.
    EXPECT_EQ(binomial_critical_count(1, 0.5, 0.5), 1u);
    EXPECT_EQ(binomial_critical_count(1, 0.5, 0.4), 2u);
}

TEST_F(Conformance, ChernoffHoeffdingMeetsItsGuarantee) {
    ASSERT_NEAR(exact, 0.02, 1e-15);
    const std::size_t missed = misses(stat::ChernoffHoeffding(kDelta, kEps));
    std::printf("chernoff-hoeffding: %zu of %zu seeds miss p = %.4f by more than %.2f\n",
                missed, kSeeds, exact, kEps);
    RecordProperty("misses", static_cast<int>(missed));
    EXPECT_LT(missed, binomial_critical_count(kSeeds, kDelta, 0.05));
}

// Chow-Robbins' guarantee is asymptotic, and at p = 0.02 it is known to miss
// more often than delta allows; its count is reported, not asserted.
TEST_F(Conformance, ChowRobbinsMissCountIsReported) {
    const std::size_t missed = misses(stat::ChowRobbins(kDelta, kEps));
    std::printf("chow-robbins: %zu of %zu seeds miss p = %.4f by more than %.2f "
                "(a %zu-miss count would fail the binomial test)\n",
                missed, kSeeds, exact, kEps, binomial_critical_count(kSeeds, kDelta, 0.05));
    RecordProperty("misses", static_cast<int>(missed));
}

} // namespace
} // namespace slimsim::sim
