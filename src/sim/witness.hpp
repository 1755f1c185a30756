// Witness-path capture: every estimate can ship concrete example paths —
// the first K accepting and first K non-accepting paths of the run — so a
// probability always comes with explaining traces (the batch counterpart of
// COMPASS's interactive trace inspection, paper Fig. 1).
//
// Capturing works by RNG snapshot + replay: the copyable Rng state is saved
// before each candidate path (32 bytes; no per-step cost on the hot path),
// and only the selected paths are re-simulated with full trace recording
// after the run. "First" is defined over the *accepted* sample order — the
// global path order (path r*k + w is sample r of worker w of k) — so the
// selection depends on the seed alone. Replay is exact
// because strategies are stateless and path generation is a pure function
// of (network, formula, options, RNG state).
#pragma once

#include <span>

#include "sim/path_generator.hpp"
#include "support/rng.hpp"

namespace slimsim::sim {

/// A replayable reference to one simulated path.
struct PathSnapshot {
    std::uint64_t index = 0; // per-worker path index (0-based)
    Rng rng{0};              // RNG state immediately before the path
    PathOutcome outcome;
};

/// One captured witness path: identity, outcome, RNG state (for further
/// replay, e.g. VCD export) and the rendered trace.
struct Witness {
    std::size_t worker = 0;
    std::uint64_t path_index = 0;
    PathOutcome outcome;
    Rng rng{0};
    Trace trace;
};

/// Per-worker bounded keeper of the first K accepting and first K
/// non-accepting path snapshots. Single-threaded (one buffer per worker).
class WitnessBuffer {
public:
    WitnessBuffer() = default;
    explicit WitnessBuffer(std::size_t per_kind) : per_kind_(per_kind) {}

    [[nodiscard]] bool active() const { return per_kind_ > 0; }
    /// Both kinds full: callers may skip the pre-path RNG snapshot.
    [[nodiscard]] bool saturated() const {
        return accepting_.size() >= per_kind_ && rejecting_.size() >= per_kind_;
    }

    /// Offers the path with the given pre-path RNG state; keeps it if its
    /// kind still has room. Call in per-worker path order.
    void offer(std::uint64_t index, const Rng& pre_path_rng, const PathOutcome& outcome);

    [[nodiscard]] const std::vector<PathSnapshot>& accepting() const { return accepting_; }
    [[nodiscard]] const std::vector<PathSnapshot>& rejecting() const { return rejecting_; }

private:
    std::size_t per_kind_ = 0;
    std::vector<PathSnapshot> accepting_;
    std::vector<PathSnapshot> rejecting_;
};

/// Selects the globally-first K accepting and K non-accepting snapshots over
/// the accepted sample order: per-worker snapshots are merged by
/// (path index, worker) — the global path order — and snapshots
/// of never-accepted samples (index >= accepted_per_worker[w]) are skipped.
/// Returns (worker, snapshot) pairs, accepting paths first.
[[nodiscard]] std::vector<std::pair<std::size_t, PathSnapshot>> select_witness_paths(
    std::span<const WitnessBuffer> buffers,
    std::span<const std::uint64_t> accepted_per_worker, std::size_t per_kind);

/// Replays each selected path with full trace recording under the shared
/// byte budget. `replay_gen` must be built from the same network, formula,
/// strategy (kind) and simulation options as the run — but with telemetry
/// and tracing stripped, so replay does not double-count instruments.
[[nodiscard]] std::vector<Witness> replay_witnesses(
    const PathGenerator& replay_gen,
    std::span<const std::pair<std::size_t, PathSnapshot>> selected,
    std::size_t max_bytes);

/// A run's witnesses: selects from `buffers` over the per-worker `accepted`
/// counts and replays the selection on a generator for `property` built
/// from the run's `options` with every instrument stripped.
[[nodiscard]] std::vector<Witness> replay_run_witnesses(
    const eda::Network& net, const TimedReachability& property, Strategy& strategy,
    const SimOptions& options, std::span<const WitnessBuffer> buffers,
    std::span<const std::uint64_t> accepted);

} // namespace slimsim::sim
