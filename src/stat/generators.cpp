#include "stat/generators.hpp"

#include <cmath>

#include "stat/curve.hpp"
#include "support/diagnostics.hpp"

namespace slimsim::stat {

namespace {
void check_params(double delta, double epsilon) {
    if (!(delta > 0.0 && delta < 1.0)) {
        throw Error("confidence parameter delta must be in (0,1)");
    }
    if (!(epsilon > 0.0 && epsilon < 1.0)) {
        throw Error("error bound epsilon must be in (0,1)");
    }
}
} // namespace

double StopCriterion::achieved_half_width(const BernoulliSummary&) const { return 0.0; }

bool StopCriterion::should_stop_curve(const CurveSummary& curve) const {
    // Fixed-count criteria depend on the shared count only; one comparison.
    if (const auto n = fixed_sample_count()) return curve.count() >= *n;
    // Adaptive criteria must be satisfied at the loosest bound too.
    for (std::size_t i = 0; i < curve.size(); ++i) {
        if (!should_stop(curve.summary(i))) return false;
    }
    return curve.size() > 0;
}

ChernoffHoeffding::ChernoffHoeffding(double delta, double epsilon)
    : n_(sample_count(delta, epsilon)), delta_(delta), epsilon_(epsilon) {}

double ChernoffHoeffding::achieved_half_width(const BernoulliSummary& s) const {
    if (s.count == 0) return 0.0;
    // Invert N = ln(2/δ) / (2 ε²) at the accepted count.
    return std::sqrt(std::log(2.0 / delta_) / (2.0 * static_cast<double>(s.count)));
}

std::size_t ChernoffHoeffding::sample_count(double delta, double epsilon) {
    check_params(delta, epsilon);
    return static_cast<std::size_t>(
        std::ceil(std::log(2.0 / delta) / (2.0 * epsilon * epsilon)));
}

GaussCriterion::GaussCriterion(double delta, double epsilon)
    : delta_(delta), epsilon_(epsilon) {
    check_params(delta, epsilon);
    z_ = normal_quantile(1.0 - delta / 2.0);
    n_ = static_cast<std::size_t>(std::ceil(z_ * z_ / (4.0 * epsilon * epsilon)));
}

double GaussCriterion::achieved_half_width(const BernoulliSummary& s) const {
    if (s.count == 0) return 0.0;
    // Worst-case variance 1/4, as in the a-priori count.
    return z_ / (2.0 * std::sqrt(static_cast<double>(s.count)));
}

ChowRobbins::ChowRobbins(double delta, double epsilon, std::size_t min_samples)
    : delta_(delta), epsilon_(epsilon), min_samples_(min_samples) {
    check_params(delta, epsilon);
    z_ = normal_quantile(1.0 - delta / 2.0);
}

bool ChowRobbins::should_stop(const BernoulliSummary& s) const {
    if (s.count < min_samples_) return false;
    // Chow-Robbins: stop when z * sqrt(var/n) <= eps, with the continuity
    // correction 1/n added to the variance estimate.
    const double var = s.variance() + 1.0 / static_cast<double>(s.count);
    const double half_width = z_ * std::sqrt(var / static_cast<double>(s.count));
    return half_width <= epsilon_;
}

double ChowRobbins::achieved_half_width(const BernoulliSummary& s) const {
    if (s.count == 0) return 0.0;
    const double var = s.variance() + 1.0 / static_cast<double>(s.count);
    return z_ * std::sqrt(var / static_cast<double>(s.count));
}

Sprt::Sprt(double threshold, double indifference, double delta)
    : threshold_(threshold), indifference_(indifference), delta_(delta) {
    if (!(threshold > 0.0 && threshold < 1.0)) throw Error("SPRT threshold must be in (0,1)");
    if (!(indifference > 0.0) || threshold - indifference <= 0.0 ||
        threshold + indifference >= 1.0) {
        throw Error("SPRT indifference region out of range");
    }
    check_params(delta, 0.5);
    p0_ = threshold + indifference;
    p1_ = threshold - indifference;
    log_a_ = std::log((1.0 - delta) / delta); // accept H1 above this
    log_b_ = std::log(delta / (1.0 - delta)); // accept H0 below this
}

double Sprt::log_ratio(const BernoulliSummary& s) const {
    const auto k = static_cast<double>(s.successes);
    const auto n = static_cast<double>(s.count);
    return k * std::log(p1_ / p0_) + (n - k) * std::log((1.0 - p1_) / (1.0 - p0_));
}

bool Sprt::should_stop(const BernoulliSummary& s) const { return verdict(s) != 0; }

int Sprt::verdict(const BernoulliSummary& s) const {
    if (s.count == 0) return 0;
    const double lr = log_ratio(s);
    if (lr >= log_a_) return -1; // evidence for H1: p <= p1
    if (lr <= log_b_) return +1; // evidence for H0: p >= p0
    return 0;
}

std::unique_ptr<StopCriterion> make_criterion(CriterionKind kind, double delta,
                                              double epsilon) {
    switch (kind) {
    case CriterionKind::ChernoffHoeffding:
        return std::make_unique<ChernoffHoeffding>(delta, epsilon);
    case CriterionKind::Gauss:
        return std::make_unique<GaussCriterion>(delta, epsilon);
    case CriterionKind::ChowRobbins:
        return std::make_unique<ChowRobbins>(delta, epsilon);
    }
    throw Error("unknown stop criterion");
}

std::string to_string(CriterionKind kind) {
    switch (kind) {
    case CriterionKind::ChernoffHoeffding: return "chernoff-hoeffding";
    case CriterionKind::Gauss: return "gauss";
    case CriterionKind::ChowRobbins: return "chow-robbins";
    }
    return "?";
}

} // namespace slimsim::stat
