// Rare-event simulation by importance splitting (paper, Sec. VI).
//
// Crude Monte Carlo needs ~1/p paths to see an event of probability p even
// once; the paper's related-work section points at importance
// splitting/sampling as the standard remedy. This module implements *fixed
// splitting*: an integer-valued level function over the model state
// increases toward the goal (e.g. the number of failed components). Whenever
// a path first crosses a new level, it is cloned `splitting_factor` times
// and each clone's weight is divided accordingly; the weighted goal
// frequency is an unbiased estimator of the reachability probability, with
// far lower variance on rare events (docs/rare-events.md).
//
// The engine runs on the compiled-model path and follows the repo's
// determinism discipline: the unit of work is one root *tree* (the root
// path plus every clone it spawns), root j draws all of its streams from
// the family Rng(seed).split(j), and trees are merged into the estimate in
// global root order — so the result is byte-identical for every worker
// count at a fixed seed. Runs are governed by sim::RunControlOptions
// (budgets, SIGINT draining, fault policy) and degrade to a partial result
// instead of throwing.
#pragma once

#include "sim/path_generator.hpp"

namespace slimsim::rare {

/// How the splitting levels are defined.
struct LevelSpec {
    /// Integer-valued expression over fully-qualified data element names
    /// (make_level_function); null selects automatic placement.
    expr::ExprPtr expression;
    /// Source text of the expression (reports); "auto" when auto_levels.
    std::string text;
    /// Automatic placement: the raw level is the number of error-model
    /// processes outside their initial location, and a pilot run profiles
    /// which raw values are rare enough to deserve a splitting level.
    bool auto_levels = false;
};

struct SplittingOptions {
    std::size_t splitting_factor = 8; // clones per first upward level crossing
    std::size_t base_runs = 4096;     // independent root trees
    /// Cap on simulated paths (roots + clones), consumed in root order; on
    /// exhaustion the run stops with RunStatus::BudgetExhausted and a
    /// partial (still unbiased) result — never an exception.
    std::size_t max_total_paths = 10'000'000;
    /// Worker threads; the estimate is byte-identical for every count.
    std::size_t workers = 1;
    /// Crude pilot paths used by automatic level placement (LevelSpec::
    /// auto_levels); drawn from a stream family disjoint from the roots.
    std::size_t pilot_runs = 256;
    /// 1 - confidence of the reported CLT half-width (relative_half_width,
    /// the run status's achieved half-width).
    double delta = 0.05;
    /// Run hardening rides in sim.control; sim.metrics enables live
    /// splitting instruments. Checkpoint/resume is not supported.
    sim::SimOptions sim;
};

/// Per-level crossing statistics (levels above the initial one only).
struct LevelStats {
    int level = 0;
    std::uint64_t crossings = 0; // lineages that first reached this level
    std::uint64_t clones = 0;    // clones spawned at this level
};

struct SplittingResult {
    double estimate = 0.0;       // weighted goal frequency over accepted roots
    std::size_t base_runs = 0;   // root trees accepted into the estimate
    std::size_t total_paths = 0; // roots + clones actually simulated
    std::size_t goal_hits = 0;   // raw (unweighted) goal observations
    int max_level_seen = 0;
    /// Sample variance of the per-root weighted contributions (root order);
    /// the paths-to-convergence currency of bench_rare's speedup_vs_crude.
    double variance_per_root = 0.0;
    /// CLT half-width at confidence 1 - SplittingOptions::delta, relative
    /// to the estimate (0 when the estimate is).
    double relative_half_width = 0.0;
    std::vector<LevelStats> levels; // ascending by level
    /// Auto placement only: the raw values promoted to splitting levels and
    /// the pilot profile (coverage/occupancy of the pilot paths).
    std::vector<int> auto_thresholds;
    std::size_t pilot_paths = 0;
    telemetry::CoverageReport pilot_coverage;
    /// How each completed path terminated (indexed by sim::PathTerminal).
    std::array<std::size_t, sim::kPathTerminalCount> terminals{};
    /// How the run ended (docs/robustness.md): Converged unless a budget,
    /// an interrupt or the fault-error budget stopped it first — then the
    /// estimate is the partial result over `base_runs` accepted roots.
    sim::RunStatus status = sim::RunStatus::Converged;
    std::string stop_cause; // "" when converged
    /// Root trees accepted as PathTerminal::Error (FaultPolicy::Tolerate)
    /// and their quarantined diagnostics.
    std::uint64_t path_errors = 0;
    std::vector<std::string> error_log;
    std::string strategy;
    /// Wall time lives here for the report's runtime section; to_string()
    /// deliberately omits it so splitting output is byte-stable in
    /// (seed, workers) like every other mode.
    double wall_seconds = 0.0;

    [[nodiscard]] std::string to_string() const;
};

/// Resolves an integer-valued level expression over fully-qualified data
/// element names (identity bindings), e.g.
/// "(if a.failed then 1 else 0) + (if b.failed then 1 else 0)".
/// Diagnostics follow the one-line CLI convention and name the --split flag.
[[nodiscard]] expr::ExprPtr make_level_function(const slim::InstanceModel& model,
                                                std::string_view source);

/// Estimates P(formula) by fixed splitting along `level`. Only reachability
/// formulas are supported (splitting accelerates hitting a goal; Until and
/// Globally do not fit the level-crossing scheme). Byte-identical in
/// (seed) for every `options.workers`. When `report` is non-null the
/// sampling statistics are recorded into it; identity fields are the
/// caller's responsibility — run_analysis() fills them.
[[nodiscard]] SplittingResult estimate_splitting(const eda::Network& net,
                                                 const sim::PathFormula& formula,
                                                 sim::StrategyKind strategy,
                                                 const LevelSpec& level, std::uint64_t seed,
                                                 const SplittingOptions& options = {},
                                                 telemetry::RunReport* report = nullptr);

/// Convenience overload wrapping a resolved expression into a LevelSpec.
[[nodiscard]] SplittingResult estimate_splitting(const eda::Network& net,
                                                 const sim::PathFormula& formula,
                                                 sim::StrategyKind strategy,
                                                 const expr::ExprPtr& level,
                                                 std::uint64_t seed,
                                                 const SplittingOptions& options = {},
                                                 telemetry::RunReport* report = nullptr);

} // namespace slimsim::rare
