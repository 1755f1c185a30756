// Qualitative statistical analysis: sequential hypothesis testing.
//
// The paper (Sec. II-A) distinguishes qualitative analysis — "determining
// whether a certain property holds or not", generally by hypothesis testing
// — from the quantitative estimation its tool focuses on. This runner adds
// the qualitative side with Wald's SPRT: it decides
//     H0: P(formula) >= threshold + indifference   vs.
//     H1: P(formula) <= threshold - indifference
// with error probability delta for both errors, typically needing far fewer
// paths than estimation to the same confidence. SPRT is a stop criterion of
// the run consumer (sim/consumer.hpp) like any estimation criterion, so a
// test runs in every venue: inline, threaded and supervised.
#pragma once

#include "sim/runner.hpp"

namespace slimsim::sim {

enum class HypothesisVerdict : std::int8_t {
    AcceptAbove = +1,  // evidence that P >= threshold
    AcceptBelow = -1,  // evidence that P <= threshold
    Inconclusive = 0,  // run budget exhausted inside the indifference region
};

[[nodiscard]] std::string to_string(HypothesisVerdict v);

struct HypothesisResult {
    HypothesisVerdict verdict = HypothesisVerdict::Inconclusive;
    std::size_t samples = 0;
    std::size_t successes = 0;
    double threshold = 0.0;
    double indifference = 0.0;
    double delta = 0.0;
    double wall_seconds = 0.0;
    std::string strategy;

    [[nodiscard]] std::string to_string() const;
};

struct HypothesisOptions {
    double indifference = 0.01;
    double delta = 0.01;
    /// SPRT has no built-in sample cap: sim.control.budget bounds a test
    /// that walks inside the indifference region (verdict Inconclusive).
    SimOptions sim;
};

/// The hypothesis result of an estimation run (in any venue) whose stop
/// criterion was `sprt`, built with (threshold, indifference, delta).
[[nodiscard]] HypothesisResult hypothesis_result(const EstimationResult& run,
                                                 const stat::Sprt& sprt, double threshold,
                                                 double indifference, double delta);

/// Tests whether P(formula) exceeds `threshold` under the given strategy:
/// sim::estimate() with stat::Sprt as the criterion. Deterministic in
/// `seed`. When `report` is non-null the sampling statistics (samples,
/// terminal histogram, SPRT trajectory) and the verdict are recorded.
[[nodiscard]] HypothesisResult test_hypothesis(const eda::Network& net,
                                               const PathFormula& formula,
                                               StrategyKind strategy, double threshold,
                                               std::uint64_t seed,
                                               const HypothesisOptions& options = {},
                                               telemetry::RunReport* report = nullptr);

} // namespace slimsim::sim
