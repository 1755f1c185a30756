// The structured, machine-readable run report.
//
// The engine counters and histograms in it are read from the run's metrics
// registry (support/metrics.hpp, sim::add_engine_counts). Event *counts*
// are deterministic in (seed, workers); wall-clock data is kept in separate
// report sections so deterministic content can be diffed across runs (see
// RunReport::to_json and deterministic_view).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "support/json.hpp"

namespace slimsim::telemetry {

/// One named phase of an analysis (parse, instantiate, simulate, ...).
struct Phase {
    std::string name;
    double seconds = 0.0;
};

/// Per-worker sampling statistics of a (possibly single-worker) run.
struct WorkerStats {
    std::size_t worker = 0;       // worker index
    std::uint64_t rng_stream = 0; // RNG stream id (split index of the master seed)
    std::uint64_t generated = 0;  // paths simulated by this worker
    std::uint64_t accepted = 0;   // samples consumed into the estimate
};

/// Round statistics of the bias-free parallel sample collector.
struct CollectorStats {
    std::uint64_t rounds = 0;       // complete rounds consumed
    std::uint64_t accepted = 0;     // samples consumed into the summary
    std::uint64_t discarded = 0;    // samples buffered but never consumed
    std::uint64_t max_buffered = 0; // high-water mark of buffered samples
};

/// One point of the stop-criterion trajectory: after `samples` accepted
/// samples (`successes` of them positive), the criterion required
/// `required` (0 = adaptive, no a-priori n). Successes make the trajectory
/// a running-estimate record, which the estimator health diagnostics
/// (stat/diagnostics) read for drift and CI-calibration checks.
struct StopPoint {
    std::uint64_t samples = 0;
    std::uint64_t required = 0;
    std::uint64_t successes = 0;
};

/// One bound of a multi-bound curve estimate P( <> [0,u] goal ).
struct CurvePoint {
    double bound = 0.0;
    std::uint64_t successes = 0;
    double estimate = 0.0;
};

/// The curve section of a run report; empty points = no curve estimated.
struct CurveReport {
    std::string band;              // dkw | bonferroni-chernoff
    double simultaneous_eps = 0.0; // achieved band half-width at the final n
    std::vector<CurvePoint> points;
};

/// One mode (process location) of the coverage profile. Occupancy is
/// sojourn-time weighted *model* time spent in the mode, summed over all
/// accepted paths — deterministic, unlike wall-clock timers.
struct CoverageMode {
    std::string name;
    std::uint64_t visits = 0;
    double occupancy_seconds = 0.0;
};

/// One transition of the coverage profile; error-model transitions double
/// as error-event activations.
struct CoverageTransition {
    std::string name;
    std::uint64_t fires = 0;
    bool error_event = false;
};

/// One alternative of a strategy choice point with its decision count.
struct CoverageAlternative {
    std::string name;
    std::uint64_t count = 0;
};

/// Decision histogram of one choice point (a distinct set of simultaneously
/// schedulable alternatives the strategy chose among).
struct CoverageChoicePoint {
    std::string key; // alternative names joined with " | "
    std::uint64_t decisions = 0;
    std::vector<CoverageAlternative> alternatives;
};

/// One point of the coverage-saturation series: after `paths` accepted
/// paths, `covered` distinct elements (modes + transitions) had been seen.
struct CoverageSaturationPoint {
    std::uint64_t paths = 0;
    std::uint64_t covered = 0;
};

/// The coverage section of a run report (sim/coverage, docs/coverage.md).
/// Fully deterministic in the seed: coverage runs use per-path RNG streams,
/// so the profile is byte-identical for every worker count.
struct CoverageReport {
    bool enabled = false;
    std::uint64_t paths = 0; // accepted paths profiled
    std::vector<CoverageMode> modes;
    std::vector<CoverageTransition> transitions;
    std::vector<CoverageChoicePoint> choice_points;
    std::vector<CoverageSaturationPoint> saturation;

    /// A mode counts as covered when it was entered or time passed in it.
    [[nodiscard]] static bool covered(const CoverageMode& m) {
        return m.visits > 0 || m.occupancy_seconds > 0.0;
    }
    [[nodiscard]] std::uint64_t covered_elements() const;
    [[nodiscard]] std::uint64_t total_elements() const {
        return modes.size() + transitions.size();
    }
    /// Dead-model warnings: modes no path reached / transitions that never
    /// fired across the entire run.
    [[nodiscard]] std::vector<std::string> unreached_modes() const;
    [[nodiscard]] std::vector<std::string> never_fired_transitions() const;

    /// The "coverage" report section (schema: docs/coverage.md).
    [[nodiscard]] json::Value to_json() const;
    /// CSV rendering (header kind,name,count,occupancy_seconds).
    [[nodiscard]] std::string to_csv() const;
    /// Human-readable summary with dead-model warnings (CLI --coverage).
    [[nodiscard]] std::string summary_text() const;
};

/// The "compiled_model" report section: deterministic compile-time facts of
/// the model the analysis ran on (eda::CompiledModel, docs/compiled-model.md).
struct CompiledModelReport {
    bool present = false;
    std::uint64_t programs = 0;        // expressions lowered (before dedup)
    std::uint64_t unique_programs = 0; // distinct hash-consed programs
    std::uint64_t nodes = 0;           // expression nodes over unique programs
    std::uint64_t bytecode_bytes = 0;  // code + node tables over unique programs
    std::string content_hash;          // 16 lowercase hex digits
};

/// One splitting level's crossing statistics (rare/splitting.hpp).
struct SplittingLevelReport {
    std::int64_t level = 0;
    std::uint64_t crossings = 0; // lineages that first reached this level
    std::uint64_t clones = 0;    // clones spawned at this level
};

/// The "splitting" section of a run report (importance splitting,
/// docs/rare-events.md). Fully deterministic in (seed, workers): root trees
/// merge in global root order.
struct SplittingReport {
    bool enabled = false;
    std::string level; // level expression text, or "auto"
    std::uint64_t factor = 0;
    std::uint64_t roots = 0;       // root trees accepted into the estimate
    std::uint64_t total_paths = 0; // roots + clones simulated
    std::uint64_t goal_hits = 0;   // raw (unweighted) goal observations
    std::int64_t max_level = 0;
    double variance_per_root = 0.0;
    double relative_half_width = 0.0;
    /// Auto placement only: pilot size and the raw values promoted to levels.
    std::uint64_t pilot_paths = 0;
    std::vector<std::int64_t> auto_thresholds;
    std::vector<SplittingLevelReport> levels; // ascending by level
};

/// One estimator health check result (stat/diagnostics,
/// docs/observability.md). `value` is the check's headline number (a rate,
/// a ratio, a drift in half-widths); `hint` is the actionable advice shown
/// to the user when the severity is above "ok".
struct DiagnosticItem {
    std::string check;    // e.g. "estimate-drift", "splitting-level"
    std::string severity; // ok | warning | critical
    double value = 0.0;
    std::string hint; // empty when severity is "ok"
};

/// The "diagnostics" report section (schema v5): deterministic post-hoc
/// estimator health checks computed from the deterministic report fields,
/// so the section is byte-identical across worker counts whenever the run
/// itself is.
struct DiagnosticsReport {
    bool enabled = false;
    std::uint64_t warnings = 0; // items with severity above "ok"
    std::vector<DiagnosticItem> items;
};

/// How an estimation run ended plus the partial-result context (run
/// hardening, docs/robustness.md). Deterministic except for wall-clock stop
/// causes (budget_exhausted via --max-seconds, interrupted).
struct RunStatusReport {
    std::string status = "converged"; // converged | budget_exhausted | interrupted | degraded
    std::string stop_cause;           // "" when converged
    /// Half-width actually guaranteed at the accepted sample count (the
    /// simultaneous band half-width for curve runs).
    double achieved_half_width = 0.0;
    std::uint64_t path_errors = 0; // accepted PathTerminal::Error samples
    /// Quarantined per-path error diagnostics (bounded,
    /// sim::kMaxQuarantinedErrors).
    std::vector<std::string> error_log;
};

/// The "supervision" report section (schema v6): what the process-isolated
/// coordinator observed (sim/supervise, docs/supervision.md). Under a
/// deterministic fault-injection schedule every field is deterministic; the
/// section is emitted only for supervised runs, so unsupervised reports are
/// byte-identical to schema-v5 documents apart from the version field.
struct SupervisionReport {
    bool enabled = false;
    std::uint64_t processes = 0; // worker subprocesses (slots)
    std::uint64_t spawns = 0;    // initial spawns + restarts
    std::uint64_t restarts = 0;
    /// Accepted path indices that were reassigned to a replacement worker
    /// at least once.
    std::uint64_t reassigned_paths = 0;
    std::uint64_t injected_faults = 0; // scheduled injections
    /// Restarts by failure classification, fixed order: crash, stall,
    /// corrupt-frame (shape-stable; zero entries are kept).
    std::vector<std::pair<std::string, std::uint64_t>> restarts_by_reason;
    double worker_timeout_seconds = 0.0;
    std::uint64_t worker_retries = 0;
};

/// The structured result record every analysis emits. Everything outside
/// the "runtime"/"resources" sections is deterministic in (seed, workers).
struct RunReport {
    static constexpr std::uint64_t kSchemaVersion = 6;

    // estimate | estimate-parallel | hypothesis-test | ctmc-flow |
    // estimate-splitting
    std::string mode;
    std::string model;    // model path (or a caller-chosen label)
    std::string property; // property text, e.g. "<> [0,1800] gps.measurement"
    std::string strategy; // empty for ctmc-flow
    std::string criterion;
    std::uint64_t seed = 0;
    std::size_t workers = 1;
    /// Mode-specific numeric parameters (delta, eps, threshold, ...), in
    /// insertion order.
    std::vector<std::pair<std::string, double>> params;

    double value = 0.0; // headline result: estimate / probability
    std::string verdict; // hypothesis-test only ("" otherwise)
    std::uint64_t samples = 0;
    std::uint64_t successes = 0;
    RunStatusReport run_status; // how the run ended (docs/robustness.md)

    std::vector<std::pair<std::string, std::uint64_t>> terminals; // path-terminal histogram
    std::vector<WorkerStats> worker_stats;
    CollectorStats collector;
    std::vector<StopPoint> stop_trajectory;
    CurveReport curve;       // multi-bound curve estimation (empty otherwise)
    SupervisionReport supervision; // process-isolated runs (disabled otherwise)
    SplittingReport splitting; // importance splitting (disabled otherwise)
    CoverageReport coverage; // model coverage profile (disabled otherwise)
    CompiledModelReport compiled_model; // compile-time model facts (when compiled)
    DiagnosticsReport diagnostics; // estimator health checks (schema v5)
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, std::vector<std::pair<std::string, std::uint64_t>>>>
        histograms;

    std::vector<Phase> phases; // wall-clock phase breakdown
    double wall_seconds = 0.0;
    std::uint64_t peak_rss_bytes = 0;

    /// The versioned JSON document (schema: docs/run-report.md).
    [[nodiscard]] json::Value to_json() const;

    /// Human-readable rendering (the CLI's --report output).
    [[nodiscard]] std::string to_text() const;
};

/// Copy of a report document with the wall-clock / scheduling-dependent
/// sections ("runtime", "resources") removed: the remainder is
/// deterministic in (seed, workers).
[[nodiscard]] json::Value deterministic_view(const json::Value& report);

} // namespace slimsim::telemetry
