// Discrete-event path generation (paper, Sec. II-E / III).
//
// A path alternates timed and discrete transitions. Each iteration:
//   1. consult the formula monitor at the current instant;
//   2. compute the invariant horizon H; strategies resolve delays within H
//      (within the remaining formula time when H is unbounded);
//   3. sample the Markovian race (one exponential per process in a rate
//      location) and ask the strategy for a (delay, candidate) choice;
//   4. fire whichever comes first (ties broken by a fair coin). Formula
//      satisfaction/refutation is monitored *continuously* along every
//      elapse (goals may depend on clocks and continuous variables).
// Paths end when the formula is decided, or with a deadlock (no discrete
// step can ever happen again; the monitor then decides on the frozen
// remainder) or a timelock (an invariant expires with nothing enabled;
// configurable: falsify or error, Sec. III-D).
#pragma once

#include <array>

#include "sim/observe.hpp"
#include "sim/property.hpp"
#include "sim/run_control.hpp"
#include "sim/strategy.hpp"
#include "sim/trace.hpp"
#include "support/journal.hpp"
#include "support/metrics.hpp"
#include "support/telemetry.hpp"
#include "support/tracer/tracer.hpp"

namespace slimsim::sim {

class CoverageShard;

/// What to do when a path gets stuck (paper, Sec. III-D).
enum class StuckPolicy : std::uint8_t { Falsify, Error };

/// What happens to the strategy's scheduled delay when a Markovian
/// transition preempts it: Restart (re-ask the strategy; default) or
/// Continue (keep the scheduled absolute time if still feasible).
enum class MemoryPolicy : std::uint8_t { Restart, Continue };

struct SimOptions {
    StuckPolicy deadlock = StuckPolicy::Falsify;
    StuckPolicy timelock = StuckPolicy::Falsify;
    MemoryPolicy memory = MemoryPolicy::Restart;
    /// Bound on discrete steps per path; exceeding it indicates a Zeno model
    /// and raises an error.
    std::size_t max_steps = 1'000'000;
    /// Optional execution-trace lane; when null (default) path generation
    /// pays a single branch per event. Spans recorded: sim.path (whole
    /// path), sim.delay_sample (the Markovian race), sim.strategy_choose;
    /// instants: sim.fire_markovian, sim.fire_strategy (docs/tracing.md).
    tracer::Lane* trace_lane = nullptr;
    /// Witness capture and progress streaming; acted on by the estimation
    /// runners (the path generator itself ignores both).
    WitnessOptions witness;
    ProgressOptions progress;
    /// Coverage profiling (sim/coverage.hpp). `coverage` carries the user's
    /// request to the estimation runners, which create per-worker shards,
    /// switch to per-path RNG streams and set `coverage_shard`; a generator
    /// with a null shard (default) pays one branch per event.
    bool coverage = false;
    CoverageShard* coverage_shard = nullptr;
    /// Run hardening — budgets, interruption, checkpoint/resume, fault
    /// policy (sim/run_control.hpp). Carries the user's request to the
    /// estimation runners; the path generator itself ignores it.
    RunControlOptions control;
    /// Optional metrics registry (support/metrics.hpp, docs/
    /// observability.md) for the engine instruments: paths started and
    /// completed, steps, fires by kind, interned configurations, steps per
    /// path, and the wall time of every 64th path. The run report's engine
    /// counters are read from them (engine_counts). When null (default) the
    /// generator pays one branch per path. The runners set `metrics_shard`
    /// to the worker index so concurrent generators never share a counter
    /// cache line; the shard must be < metrics->shards().
    metrics::Registry* metrics = nullptr;
    std::size_t metrics_shard = 0;
    /// Optional structured run journal (support/journal.hpp, docs/
    /// observability.md); acted on by the estimation runners (lifecycle,
    /// checkpoint, quarantine and stop events) — the path generator itself
    /// ignores it, so the hot loop pays nothing.
    journal::Journal* journal = nullptr;
};

enum class PathTerminal : std::uint8_t {
    Goal,      // formula satisfied
    TimeBound, // refuted at the time bound (nothing more could happen)
    Refuted,   // refuted strictly before the bound (Until/Globally violation)
    Deadlock,  // no discrete step can ever happen again
    Timelock,  // an invariant expired with nothing enabled
    Error,     // the path threw and FaultPolicy::Tolerate quarantined it
};
inline constexpr std::size_t kPathTerminalCount = 6;

[[nodiscard]] std::string to_string(PathTerminal t);

/// Terminal counts as a named histogram for run reports (all bins, in enum
/// order, including empty ones so documents are shape-stable).
[[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>>
terminal_histogram(const std::array<std::size_t, kPathTerminalCount>& terminals);

/// Engine-event totals read from the path generators' instruments in a
/// metrics registry: one Registry::totals entry per run-report engine
/// instrument (sim.paths, sim.steps, ..., sim.steps_per_path).
using EngineCounts = std::vector<std::vector<std::uint64_t>>;

[[nodiscard]] EngineCounts engine_counts(const metrics::Registry& registry);

/// Adds the engine events counted between the snapshots `start` and `end`
/// (a caller's registry may hold earlier runs) to the report's counters and
/// histograms under their report names, keeping both sorted by name. Only
/// instruments registered at `end` get an entry.
void add_engine_counts(telemetry::RunReport& report, const EngineCounts& start,
                       const EngineCounts& end);

struct PathOutcome {
    bool satisfied = false;
    PathTerminal terminal = PathTerminal::TimeBound;
    double end_time = 0.0;
    std::size_t steps = 0;
};

class PathGenerator {
public:
    /// `strategy` must outlive the generator; it is shared across paths
    /// (strategies are stateless apart from Input callbacks).
    PathGenerator(const eda::Network& net, const PathFormula& formula,
                  Strategy& strategy, SimOptions options = {});
    /// Adds the engine counts still pending to the registry, which must
    /// outlive the generator.
    ~PathGenerator();
    PathGenerator(const PathGenerator&) = delete;
    PathGenerator& operator=(const PathGenerator&) = delete;

    /// Simulates one path.
    [[nodiscard]] PathOutcome run(Rng& rng) const { return run_impl(rng, nullptr); }

    /// Simulates one path, recording every step into `trace`.
    [[nodiscard]] PathOutcome run_traced(Rng& rng, Trace& trace) const {
        return run_impl(rng, &trace);
    }

    /// Stepping interface for advanced drivers (importance splitting):
    /// advances `state` by exactly one simulation iteration — one discrete
    /// step, one pure delay, or a final elapse deciding the formula. Returns
    /// the outcome once the path has ended, nullopt while it continues.
    /// `steps` counts discrete steps (Zeno guard). Uses the Restart memory
    /// policy regardless of options.
    [[nodiscard]] std::optional<PathOutcome> step(eda::NetworkState& state, Rng& rng,
                                                  std::size_t& steps) const;

    [[nodiscard]] const eda::Network& network() const { return net_; }
    [[nodiscard]] const PathFormula& formula() const { return formula_; }

private:
    enum class Verdict : std::uint8_t { Undecided, Satisfied, Refuted };
    struct MonitorResult {
        Verdict verdict = Verdict::Undecided;
        double at = 0.0; // delay (relative to the current instant) of the decision
    };

    [[nodiscard]] PathOutcome run_impl(Rng& rng, Trace* trace) const;
    /// One simulation iteration; shared by run_impl and step().
    [[nodiscard]] std::optional<PathOutcome> iterate(eda::NetworkState& s, Rng& rng,
                                                     std::size_t& steps, Trace* trace,
                                                     std::optional<double>* sched_abs) const;
    /// Formula verdict at the current instant.
    [[nodiscard]] MonitorResult instant_verdict(const eda::NetworkState& s) const;
    /// goal / hold at the current instant (compiled programs, or the
    /// reference interpreter when the network is in reference mode).
    [[nodiscard]] bool goal_holds(const eda::NetworkState& s) const;
    [[nodiscard]] bool hold_holds(const eda::NetworkState& s) const;
    /// Formula verdict along the elapse segment (0, d] from the current
    /// state (constant derivatives; solved exactly).
    [[nodiscard]] MonitorResult elapse_verdict(const eda::NetworkState& s, double d) const;
    /// net_.elapse with the elapsed sojourn reported to the coverage shard
    /// (which advances its model-time path clock; occupancy is credited
    /// when a process leaves a mode).
    void advance(eda::NetworkState& s, double d) const;
    /// Adds pending_ to the instruments (when metered) and clears it.
    void flush_counts() const;

    const eda::Network& net_;
    const PathFormula& formula_;
    Strategy& strategy_;
    SimOptions options_;
    CoverageShard* cov_ = nullptr;
    /// Formula atoms compiled once (identity bindings: property atoms use
    /// global names). Null when the network runs the reference interpreter.
    expr::ProgramPtr goal_prog_;
    expr::ProgramPtr hold_prog_;
    /// Per-generator simulation buffers (one generator per worker); mutable
    /// because run() is logically const — the scratch only caches.
    mutable eda::SimScratch scratch_;
    /// Engine instruments, resolved once at construction (null when no
    /// registry); shard_ is the worker's cell index in every instrument.
    std::size_t shard_ = 0;
    metrics::Counter* c_started_ = nullptr;
    metrics::Counter* c_completed_ = nullptr;
    metrics::Counter* c_steps_ = nullptr;
    metrics::Counter* c_interned_ = nullptr;
    std::array<metrics::Counter*, 3> c_fires_{}; // by FireKind
    metrics::Histogram* h_steps_ = nullptr;
    metrics::Histogram* h_path_seconds_ = nullptr;
    /// Engine counts not yet added to the instruments. Paths and steps bump
    /// these plain members; flush_counts() adds them to the worker's shard
    /// before every 64th path, after each step() call and on destruction,
    /// so a metered path does no atomic read-modify-write.
    enum FireKind : std::uint8_t { kMarkovian, kStrategy, kPureDelay };
    struct PendingCounts {
        std::uint64_t started = 0;
        std::uint64_t completed = 0;
        std::uint64_t steps = 0; // also the sum of steps_per_path
        std::uint64_t interned = 0; // interner growth, taken at path ends
        std::array<std::uint64_t, 3> fires{}; // by FireKind
        std::array<std::uint64_t, metrics::kCountBuckets> steps_per_path{};
    };
    mutable PendingCounts pending_;
    /// Paths started, for timing and flushing every 64th one.
    mutable std::uint64_t paths_started_ = 0;
    /// Interner size already counted in pending_.interned (the counter
    /// receives only the growth, so its total is the table size).
    mutable std::size_t interned_reported_ = 0;
    // Trace lane + interned event names, resolved once (lane null when off).
    tracer::Lane* lane_ = nullptr;
    tracer::NameId n_path_ = tracer::kNoName;
    tracer::NameId n_delay_ = tracer::kNoName;
    tracer::NameId n_choose_ = tracer::kNoName;
    tracer::NameId n_fire_markov_ = tracer::kNoName;
    tracer::NameId n_fire_strategy_ = tracer::kNoName;
    tracer::NameId n_arg_steps_ = tracer::kNoName;
    tracer::NameId n_arg_count_ = tracer::kNoName;
};

} // namespace slimsim::sim
