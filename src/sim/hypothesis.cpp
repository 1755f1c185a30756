#include "sim/hypothesis.hpp"

#include <sstream>

namespace slimsim::sim {

std::string to_string(HypothesisVerdict v) {
    switch (v) {
    case HypothesisVerdict::AcceptAbove: return "accept (P >= threshold)";
    case HypothesisVerdict::AcceptBelow: return "reject (P <= threshold)";
    case HypothesisVerdict::Inconclusive: return "inconclusive";
    }
    return "?";
}

std::string HypothesisResult::to_string() const {
    std::ostringstream os;
    os << slimsim::sim::to_string(verdict) << " at threshold " << threshold << " +- "
       << indifference << " (alpha = beta = " << delta << ", " << successes << "/"
       << samples << " paths, strategy " << strategy << ", " << wall_seconds << " s)";
    return os.str();
}

HypothesisResult hypothesis_result(const EstimationResult& run, const stat::Sprt& sprt,
                                   double threshold, double indifference, double delta) {
    HypothesisResult result;
    const int verdict = sprt.verdict({run.samples, run.successes});
    result.verdict = verdict > 0   ? HypothesisVerdict::AcceptAbove
                     : verdict < 0 ? HypothesisVerdict::AcceptBelow
                                   : HypothesisVerdict::Inconclusive;
    result.samples = run.samples;
    result.successes = run.successes;
    result.threshold = threshold;
    result.indifference = indifference;
    result.delta = delta;
    result.wall_seconds = run.wall_seconds;
    result.strategy = run.strategy;
    return result;
}

HypothesisResult test_hypothesis(const eda::Network& net, const PathFormula& formula,
                                 StrategyKind strategy, double threshold,
                                 std::uint64_t seed, const HypothesisOptions& options,
                                 telemetry::RunReport* report) {
    const stat::Sprt sprt(threshold, options.indifference, options.delta);
    const HypothesisResult result =
        hypothesis_result(estimate(net, formula, strategy, sprt, seed, options.sim, report),
                          sprt, threshold, options.indifference, options.delta);
    if (report != nullptr) report->verdict = to_string(result.verdict);
    return result;
}

} // namespace slimsim::sim
