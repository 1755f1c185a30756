// Stopping criteria ("generators" in the paper's terminology, Sec. III-A).
//
// The generator decides how many Monte Carlo samples are needed for the
// requested confidence 1-δ and error bound ε. The paper's tool implements
// the Chernoff-Hoeffding bound; Chow-Robbins and Gauss-style criteria are
// listed as future extensions and implemented here as well, plus the SPRT
// hypothesis test for qualitative questions (related-work capability).
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "stat/bernoulli.hpp"

namespace slimsim::stat {

class CurveSummary;

/// A criterion's stop parameters as (name, value) pairs, e.g. delta and
/// eps; a checkpoint pins them so a resumed run keeps the same stop rule.
using StopParameters = std::vector<std::pair<std::string, double>>;

class StopCriterion {
public:
    virtual ~StopCriterion() = default;

    /// Sample count known a priori, if this criterion has one (CH, Gauss).
    /// Sequential criteria (Chow-Robbins, SPRT) return nullopt.
    [[nodiscard]] virtual std::optional<std::size_t> fixed_sample_count() const {
        return std::nullopt;
    }

    /// Samples this criterion requires before it may stop at all (the
    /// adaptive Chow-Robbins floor); 0 when there is no such floor. Progress
    /// ETAs must never extrapolate a target below this.
    [[nodiscard]] virtual std::size_t min_sample_count() const { return 0; }

    /// True once enough samples have been collected.
    [[nodiscard]] virtual bool should_stop(const BernoulliSummary& s) const = 0;

    /// True once the criterion is met *simultaneously* at every bound of a
    /// multi-bound curve — the worst bound governs (all bounds share the
    /// sample count). For simultaneous 1-delta coverage, construct the
    /// criterion with stat::per_bound_delta(band, delta, K).
    [[nodiscard]] virtual bool should_stop_curve(const CurveSummary& curve) const;

    /// Half-width actually guaranteed at the accepted sample count — what a
    /// partial (budget-exhausted / interrupted / degraded) run achieved.
    /// 0 when nothing can be said yet (no samples, or SPRT).
    [[nodiscard]] virtual double achieved_half_width(const BernoulliSummary& s) const;

    [[nodiscard]] virtual std::string name() const = 0;

    /// The parameters that, with name(), decide when this criterion stops.
    [[nodiscard]] virtual StopParameters parameters() const = 0;
};

/// Chernoff-Hoeffding bound: N = ceil( ln(2/δ) / (2 ε²) ) samples give
/// P(|Â/N - p| <= ε) >= 1-δ.
class ChernoffHoeffding final : public StopCriterion {
public:
    ChernoffHoeffding(double delta, double epsilon);

    [[nodiscard]] std::optional<std::size_t> fixed_sample_count() const override {
        return n_;
    }
    [[nodiscard]] bool should_stop(const BernoulliSummary& s) const override {
        return s.count >= n_;
    }
    [[nodiscard]] double achieved_half_width(const BernoulliSummary& s) const override;
    [[nodiscard]] std::string name() const override { return "chernoff-hoeffding"; }
    [[nodiscard]] StopParameters parameters() const override {
        return {{"delta", delta_}, {"eps", epsilon_}};
    }

    [[nodiscard]] static std::size_t sample_count(double delta, double epsilon);

private:
    std::size_t n_;
    double delta_;
    double epsilon_;
};

/// Gauss / central-limit criterion with worst-case variance 1/4:
/// N = ceil( z²_{1-δ/2} / (4 ε²) ). Fixed a priori, smaller than CH.
class GaussCriterion final : public StopCriterion {
public:
    GaussCriterion(double delta, double epsilon);

    [[nodiscard]] std::optional<std::size_t> fixed_sample_count() const override {
        return n_;
    }
    [[nodiscard]] bool should_stop(const BernoulliSummary& s) const override {
        return s.count >= n_;
    }
    [[nodiscard]] double achieved_half_width(const BernoulliSummary& s) const override;
    [[nodiscard]] std::string name() const override { return "gauss"; }
    [[nodiscard]] StopParameters parameters() const override {
        return {{"delta", delta_}, {"eps", epsilon_}};
    }

private:
    std::size_t n_;
    double z_;
    double delta_;
    double epsilon_;
};

/// Chow-Robbins sequential criterion: stop when the CLT confidence interval
/// at level 1-δ has half-width <= ε (with estimated variance). Adaptive:
/// needs far fewer samples when p is near 0 or 1.
class ChowRobbins final : public StopCriterion {
public:
    ChowRobbins(double delta, double epsilon, std::size_t min_samples = 64);

    [[nodiscard]] std::size_t min_sample_count() const override { return min_samples_; }
    [[nodiscard]] bool should_stop(const BernoulliSummary& s) const override;
    [[nodiscard]] double achieved_half_width(const BernoulliSummary& s) const override;
    [[nodiscard]] std::string name() const override { return "chow-robbins"; }
    [[nodiscard]] StopParameters parameters() const override {
        return {{"delta", delta_}, {"eps", epsilon_}};
    }

private:
    double z_;
    double delta_;
    double epsilon_;
    std::size_t min_samples_;
};

/// Wald's sequential probability ratio test for H0: p >= p0 + w vs
/// H1: p <= p0 - w (indifference width w), with error bounds alpha = beta = δ.
class Sprt final : public StopCriterion {
public:
    Sprt(double threshold, double indifference, double delta);

    [[nodiscard]] bool should_stop(const BernoulliSummary& s) const override;
    /// +1: accept H0 (p >= threshold), -1: accept H1, 0: undecided.
    [[nodiscard]] int verdict(const BernoulliSummary& s) const;
    [[nodiscard]] std::string name() const override { return "sprt"; }
    [[nodiscard]] StopParameters parameters() const override {
        return {{"threshold", threshold_}, {"indifference", indifference_}, {"delta", delta_}};
    }

private:
    [[nodiscard]] double log_ratio(const BernoulliSummary& s) const;

    double threshold_, indifference_, delta_;
    double p0_, p1_; // H0 at p0 (upper), H1 at p1 (lower)
    double log_a_, log_b_;
};

/// Named construction used by the CLI / benches.
enum class CriterionKind { ChernoffHoeffding, Gauss, ChowRobbins };
[[nodiscard]] std::unique_ptr<StopCriterion> make_criterion(CriterionKind kind, double delta,
                                                            double epsilon);
[[nodiscard]] std::string to_string(CriterionKind kind);

} // namespace slimsim::stat
