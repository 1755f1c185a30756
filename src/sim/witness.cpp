#include "sim/witness.hpp"

#include <algorithm>

namespace slimsim::sim {

void WitnessBuffer::offer(std::uint64_t index, const Rng& pre_path_rng,
                          const PathOutcome& outcome) {
    if (per_kind_ == 0) return;
    std::vector<PathSnapshot>& kind = outcome.satisfied ? accepting_ : rejecting_;
    if (kind.size() >= per_kind_) return;
    kind.push_back({index, pre_path_rng, outcome});
}

std::vector<std::pair<std::size_t, PathSnapshot>> select_witness_paths(
    std::span<const WitnessBuffer> buffers,
    std::span<const std::uint64_t> accepted_per_worker, std::size_t per_kind) {
    std::vector<std::pair<std::size_t, PathSnapshot>> out;
    if (per_kind == 0) return out;

    auto pick = [&](bool satisfied) {
        // Merge per-worker candidates in (path index, worker) order — the
        // round-robin acceptance order — dropping unaccepted samples.
        std::vector<std::pair<std::size_t, PathSnapshot>> pool;
        for (std::size_t w = 0; w < buffers.size(); ++w) {
            const auto& kind =
                satisfied ? buffers[w].accepting() : buffers[w].rejecting();
            const std::uint64_t accepted =
                w < accepted_per_worker.size() ? accepted_per_worker[w] : 0;
            for (const PathSnapshot& snap : kind) {
                if (snap.index < accepted) pool.emplace_back(w, snap);
            }
        }
        std::sort(pool.begin(), pool.end(), [](const auto& a, const auto& b) {
            if (a.second.index != b.second.index) return a.second.index < b.second.index;
            return a.first < b.first;
        });
        if (pool.size() > per_kind) pool.resize(per_kind);
        out.insert(out.end(), pool.begin(), pool.end());
    };
    pick(true);
    pick(false);
    return out;
}

std::vector<Witness> replay_witnesses(
    const PathGenerator& replay_gen,
    std::span<const std::pair<std::size_t, PathSnapshot>> selected,
    std::size_t max_bytes) {
    std::vector<Witness> out;
    out.reserve(selected.size());
    std::size_t budget = max_bytes;
    for (const auto& [worker, snap] : selected) {
        Witness w;
        w.worker = worker;
        w.path_index = snap.index;
        w.rng = snap.rng;
        if (max_bytes > 0) w.trace.set_byte_limit(budget);
        Rng rng = snap.rng;
        w.outcome = replay_gen.run_traced(rng, w.trace);
        // Replay must reproduce the recorded outcome exactly.
        SLIMSIM_ASSERT(w.outcome.satisfied == snap.outcome.satisfied &&
                       w.outcome.steps == snap.outcome.steps);
        if (max_bytes > 0) {
            const std::size_t used = w.trace.memory_bytes();
            budget = used >= budget ? 1 : budget - used; // 1: keep the cap hard
        }
        out.push_back(std::move(w));
    }
    return out;
}

std::vector<Witness> replay_run_witnesses(const eda::Network& net,
                                          const TimedReachability& property,
                                          Strategy& strategy, const SimOptions& options,
                                          std::span<const WitnessBuffer> buffers,
                                          std::span<const std::uint64_t> accepted) {
    SimOptions replay_options = options;
    replay_options.trace_lane = nullptr;
    replay_options.coverage = false;
    replay_options.coverage_shard = nullptr;
    replay_options.metrics = nullptr;
    replay_options.journal = nullptr;
    const PathGenerator replay_gen(net, property, strategy, replay_options);
    const auto selected = select_witness_paths(buffers, accepted, options.witness.per_kind);
    return replay_witnesses(replay_gen, selected, options.witness.max_bytes);
}

} // namespace slimsim::sim
