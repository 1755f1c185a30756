// Monte Carlo estimation on the calling thread: the in-process venue
// (sim/executor.hpp) with one producer inline, using the caller's strategy.
// The result types are shared by every venue.
#pragma once

#include <array>

#include "sim/path_generator.hpp"
#include "sim/witness.hpp"
#include "stat/curve.hpp"
#include "stat/generators.hpp"

namespace slimsim::sim {

struct EstimationResult {
    double estimate = 0.0;
    std::size_t samples = 0;
    std::size_t successes = 0;
    double wall_seconds = 0.0;
    std::size_t peak_rss_bytes = 0;
    std::string strategy;
    std::string criterion;
    /// How each path terminated (indexed by PathTerminal).
    std::array<std::size_t, kPathTerminalCount> terminals{};
    /// Captured witness paths (empty unless SimOptions::witness asks for
    /// them): first K accepting then first K non-accepting, in accepted
    /// order — deterministic in (seed, workers).
    std::vector<Witness> witnesses;
    /// Coverage profile over the accepted paths (enabled only when
    /// SimOptions::coverage asks for it). Coverage runs use per-path RNG
    /// streams, so the profile — and the estimate — is byte-identical for
    /// every worker count at a fixed seed (sim/coverage.hpp).
    telemetry::CoverageReport coverage;
    /// Run hardening (docs/robustness.md): how the run ended. Converged
    /// unless a budget, interrupt or the fault-error budget stopped it —
    /// then the estimate above is the partial result at `samples`.
    RunStatus status = RunStatus::Converged;
    std::string stop_cause; // "" when converged
    /// Half-width actually guaranteed at the accepted sample count.
    double achieved_half_width = 0.0;
    /// Accepted PathTerminal::Error samples (FaultPolicy::Tolerate) and
    /// their quarantined diagnostics (first kMaxQuarantinedErrors).
    std::uint64_t path_errors = 0;
    std::vector<std::string> error_log;

    [[nodiscard]] std::string to_string() const;
};

/// Estimates P( <> [0,u] goal ) by Monte Carlo on the calling thread until
/// the stopping criterion is met. Deterministic in `seed`: path j continues
/// the master stream Rng(seed), or simulates with Rng(seed).split(j) under
/// per-path streams. When `report` is non-null the
/// sampling statistics (samples, terminals, worker entry, stop-criterion
/// trajectory) are recorded into it; identity fields (mode, model, phases)
/// are the caller's responsibility — run_analysis() fills them.
[[nodiscard]] EstimationResult estimate(const eda::Network& net,
                                        const TimedReachability& property,
                                        Strategy& strategy,
                                        const stat::StopCriterion& criterion,
                                        std::uint64_t seed, const SimOptions& options,
                                        telemetry::RunReport* report);

/// Thin wrapper over the reporting overload (no report).
[[nodiscard]] EstimationResult estimate(const eda::Network& net,
                                        const TimedReachability& property,
                                        Strategy& strategy,
                                        const stat::StopCriterion& criterion,
                                        std::uint64_t seed, const SimOptions& options = {});

/// Convenience overload constructing the strategy from its kind.
[[nodiscard]] EstimationResult estimate(const eda::Network& net,
                                        const TimedReachability& property,
                                        StrategyKind strategy,
                                        const stat::StopCriterion& criterion,
                                        std::uint64_t seed, const SimOptions& options = {},
                                        telemetry::RunReport* report = nullptr);

/// Multi-bound curve estimation: one shared path set serves a whole grid of
/// time bounds (the paper's Fig. 5 workload).
struct CurveOptions {
    /// Strictly ascending bounds; each must lie in (0, property.bound].
    /// Paths are simulated to u_max = bounds.back(): the curve is the
    /// first-hit distribution under the u_max-horizon scheduler.
    std::vector<double> bounds;
    /// Simultaneous-confidence construction over the grid.
    stat::BandKind band = stat::BandKind::DKW;
    /// 1 - confidence of the simultaneous band (reporting only; build the
    /// stop criterion with stat::per_bound_delta(band, delta, K) yourself).
    double delta = 0.05;
};

struct CurveResult {
    std::vector<telemetry::CurvePoint> points; // one per grid bound, ascending
    std::size_t samples = 0;                   // shared by every bound
    std::string band;
    /// Achieved half-width of the simultaneous confidence band at `samples`.
    double simultaneous_eps = 0.0;
    std::string strategy;
    std::string criterion;
    std::array<std::size_t, kPathTerminalCount> terminals{};
    double wall_seconds = 0.0;
    std::size_t peak_rss_bytes = 0;
    /// Coverage profile over the shared path set (enabled only when
    /// SimOptions::coverage asks for it).
    telemetry::CoverageReport coverage;
    /// Run hardening (docs/robustness.md); for curve runs the achieved
    /// half-width is the simultaneous band half-width at `samples`.
    RunStatus status = RunStatus::Converged;
    std::string stop_cause;
    double achieved_half_width = 0.0;
    std::uint64_t path_errors = 0;
    std::vector<std::string> error_log;

    [[nodiscard]] std::string to_string() const;
};

/// Throws Error unless `property` is plain timed reachability (Reach with
/// lo == 0) and the grid is strictly ascending within (0, property.bound].
void validate_curve_request(const TimedReachability& property, const CurveOptions& curve);

/// Estimates the whole curve { P( <> [0,u_i] goal ) } from ONE path set:
/// each path runs to u_max = bounds.back() and its first goal-hit time
/// decides every bound at once (monotonicity), so a K-point curve costs one
/// run instead of K. Path j always simulates with the RNG stream
/// Rng(seed).split(j) — per-PATH streams, so curve results are
/// byte-identical for every worker count, not just deterministic at a fixed
/// one. Witness capture is not supported in curve mode (SimOptions::witness
/// is ignored).
[[nodiscard]] CurveResult estimate_curve(const eda::Network& net,
                                         const TimedReachability& property,
                                         Strategy& strategy,
                                         const stat::StopCriterion& criterion,
                                         const CurveOptions& curve, std::uint64_t seed,
                                         const SimOptions& options = {},
                                         telemetry::RunReport* report = nullptr);

/// Convenience overload constructing the strategy from its kind.
[[nodiscard]] CurveResult estimate_curve(const eda::Network& net,
                                         const TimedReachability& property,
                                         StrategyKind strategy,
                                         const stat::StopCriterion& criterion,
                                         const CurveOptions& curve, std::uint64_t seed,
                                         const SimOptions& options = {},
                                         telemetry::RunReport* report = nullptr);

/// Appends "path N: what" to `log` unless it already holds
/// kMaxQuarantinedErrors messages.
void quarantine_error(std::vector<std::string>& log, std::uint64_t path_index,
                      const char* what);

/// Fills the report's run_status section from the result fields (no-op when
/// `report` is null).
void fill_run_status(telemetry::RunReport* report, RunStatus status,
                     const std::string& stop_cause, double achieved_half_width,
                     std::uint64_t path_errors, const std::vector<std::string>& error_log);

} // namespace slimsim::sim
