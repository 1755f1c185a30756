// Run hardening: budgets with graceful degradation, cooperative
// (signal-safe) interruption, deterministic checkpoint/resume, and
// fault-isolated path generation (docs/robustness.md).
//
// Long Monte Carlo campaigns must degrade gracefully instead of throwing
// away hours of accepted samples: a budget or a SIGINT stops the run at the
// next accepted sample, the partial estimate is returned with its *achieved*
// half-width and a RunStatus, and a versioned binary checkpoint lets a later
// run resume deterministically. All stop causes funnel through one
// stop/drain path (RunGovernor), so the repo's byte-identical-across-workers
// invariant is preserved: checkpointed/resumed runs use per-path RNG streams
// (path j simulates with Rng(seed).split(j)) and the accepted prefix is the
// same for every worker count and every interruption point.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "stat/generators.hpp"

namespace slimsim::sim {

/// How an estimation run ended.
enum class RunStatus : std::uint8_t {
    Converged,       // the stop criterion was met
    BudgetExhausted, // a RunBudget limit stopped the run first
    Interrupted,     // the cooperative interrupt flag (SIGINT/SIGTERM) fired
    Degraded,        // FaultPolicy::Tolerate exceeded max_path_errors
};

[[nodiscard]] std::string to_string(RunStatus status);

/// Resource budget consulted in the consumer loop; 0 = unlimited. On
/// exhaustion the run stops cleanly with RunStatus::BudgetExhausted and a
/// partial result — never an exception.
struct RunBudget {
    double max_wall_seconds = 0.0;
    std::uint64_t max_samples = 0;
    /// Bound on discrete steps summed over *accepted* paths (deterministic,
    /// unlike anything counted over generated paths).
    std::uint64_t max_total_steps = 0;

    [[nodiscard]] bool active() const {
        return max_wall_seconds > 0.0 || max_samples > 0 || max_total_steps > 0;
    }
};

/// What a throwing path (Zeno guard, StuckPolicy::Error) does to the run.
enum class FaultPolicyKind : std::uint8_t {
    FailFast, // rethrow: the run aborts (default, the pre-hardening behavior)
    Tolerate, // record a PathTerminal::Error sample and keep sampling
};

struct FaultPolicy {
    FaultPolicyKind kind = FaultPolicyKind::FailFast;
    /// Tolerate only: accepted Error samples beyond this downgrade the run
    /// to RunStatus::Degraded and stop it.
    std::uint64_t max_path_errors = 100;
};

/// Cap on quarantined per-path error messages kept in results/checkpoints.
inline constexpr std::size_t kMaxQuarantinedErrors = 16;

/// Versioned binary snapshot of an estimation run (docs/robustness.md).
/// Captures everything needed to continue deterministically with per-path
/// RNG streams: the global path cursor (== accepted samples; the resumed
/// worker w of k owns paths cursor + w, cursor + w + k, ...), the summary
/// state (successes; for curve runs the Fenwick tree over first-hit
/// buckets), terminal tag counts, the accepted-step total, and the
/// quarantined error log. The header binds the snapshot to (model hash,
/// seed, property, strategy, criterion and its stop parameters, curve grid);
/// load(), validate() and validate_stop_parameters() reject mismatches with
/// a diagnostic naming the --resume flag.
struct RunCheckpoint {
    static constexpr std::uint32_t kVersion = 2;

    std::uint32_t version = kVersion;
    std::uint64_t model_hash = 0;    // CompiledModel::content_hash() of the model
    std::uint64_t seed = 0;
    std::uint64_t property_hash = 0; // fnv1a64 over the property text
    std::string strategy;
    std::string criterion;
    /// The criterion's stop parameters: delta and eps, or threshold,
    /// indifference and delta for SPRT.
    stat::StopParameters stop_parameters;
    std::uint64_t cursor = 0;      // accepted samples == next global path index
    std::uint64_t successes = 0;   // largest-bound successes for curve runs
    std::uint64_t total_steps = 0; // discrete steps over accepted paths
    std::vector<std::uint64_t> terminal_tags;
    std::vector<std::string> error_log;
    /// Curve runs only: the bound grid and the Fenwick tree snapshot
    /// (size bounds + 1); both empty for scalar estimation.
    std::vector<double> curve_bounds;
    std::vector<std::uint64_t> curve_tree;

    /// Writes the snapshot atomically (temp file + rename); throws Error
    /// naming the path on I/O failure. Returns the serialized size in bytes
    /// (checkpoint-write metrics).
    std::size_t save(const std::string& path) const;

    /// Throws Error naming --resume on I/O failure, bad magic, unsupported
    /// version, truncation, or checksum mismatch.
    [[nodiscard]] static RunCheckpoint load(const std::string& path);

    /// Header validation against the requested run; throws Error naming
    /// --resume on any mismatch (model hash, seed, property, strategy,
    /// criterion, curve grid).
    void validate(std::uint64_t expected_model_hash, std::uint64_t expected_seed,
                  const std::string& property_text, const std::string& strategy_name,
                  const std::string& criterion_name,
                  const std::vector<double>& expected_curve_bounds) const;

    /// Throws Error naming --resume, the parameter and both values when the
    /// requested criterion's stop parameters differ from the stored ones.
    void validate_stop_parameters(const stat::StopParameters& expected) const;
};

/// Run-hardening options threaded to the estimation runners through
/// SimOptions::control. The path generator itself ignores them.
struct RunControlOptions {
    RunBudget budget;
    FaultPolicy fault;
    /// Cooperative interrupt flag, polled in the consumer loop; the CLI
    /// wires the async-signal-safe SIGINT/SIGTERM flag here.
    const std::atomic<bool>* interrupt = nullptr;
    /// When non-empty, a checkpoint is written when the run stops (for any
    /// status) and, if checkpoint_every > 0, every checkpoint_every accepted
    /// samples along the way.
    std::string checkpoint_path;
    std::uint64_t checkpoint_every = 0;
    /// Snapshot to resume from (validated against this run's identity);
    /// must outlive the run.
    const RunCheckpoint* resume = nullptr;
    /// Identity of the model (CompiledModel::content_hash(): a deterministic
    /// hash of the behavioral content, insensitive to reformatting) recorded
    /// into and validated against checkpoints; 0 skips the model-hash check.
    std::uint64_t model_hash = 0;

    [[nodiscard]] bool hardened() const {
        return budget.active() || interrupt != nullptr || resume != nullptr ||
               checkpoint_every > 0 || !checkpoint_path.empty() ||
               fault.kind == FaultPolicyKind::Tolerate;
    }
};

/// The single stop/drain decision point every hardened runner consults.
/// Deterministic causes (sample/step budgets, the error budget) are checked
/// before timing-dependent ones (interrupt, wall clock), so a run limited by
/// max_samples stops at exactly the same accepted prefix on every host.
/// Once stopped, the status and cause are latched.
class RunGovernor {
public:
    RunGovernor(const RunControlOptions& control,
                std::chrono::steady_clock::time_point start)
        : control_(control), start_(start) {}

    /// True when the run should stop now. `samples`, `steps` and `errors`
    /// are totals over *accepted* samples (errors = accepted
    /// PathTerminal::Error tags).
    bool should_stop(std::uint64_t samples, std::uint64_t steps, std::uint64_t errors);

    [[nodiscard]] bool stopped() const { return stopped_; }
    /// Converged until a stop fires (the caller reports Converged when the
    /// criterion, not the governor, ended the run).
    [[nodiscard]] RunStatus status() const { return status_; }
    [[nodiscard]] const std::string& stop_cause() const { return cause_; }

private:
    void stop(RunStatus status, std::string cause);

    const RunControlOptions& control_;
    std::chrono::steady_clock::time_point start_;
    bool stopped_ = false;
    RunStatus status_ = RunStatus::Converged;
    std::string cause_;
};

/// FNV-1a 64-bit hash (checkpoint checksums and identity hashes).
[[nodiscard]] std::uint64_t fnv1a64(const void* data, std::size_t size);
[[nodiscard]] std::uint64_t fnv1a64(const std::string& text);

/// FNV-1a over a file's bytes (model identity for checkpoints); throws
/// Error naming the path when the file cannot be read.
[[nodiscard]] std::uint64_t hash_file(const std::string& path);

/// Async-signal-safe cooperative interruption: install_signal_handlers()
/// routes SIGINT/SIGTERM to a lock-free atomic flag (a second signal while
/// the flag is set force-exits with status 130), interrupt_flag() is the
/// flag to wire into RunControlOptions::interrupt, clear_interrupt() resets
/// it (tests).
void install_signal_handlers();
[[nodiscard]] const std::atomic<bool>* interrupt_flag();
void clear_interrupt();

} // namespace slimsim::sim
