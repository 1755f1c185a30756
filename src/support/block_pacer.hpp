// Time-based sizing of the blocks a worker hands to its consumer, shared by
// the threaded estimation venue (sim/parallel_runner) and importance
// splitting (rare/splitting).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>

namespace slimsim {

/// Sizes hand-off blocks by time, not count: the worker reads the clock once
/// per hand-off and steers the next block toward kTargetNs of work (growing
/// at most 2x per hand-off, shrinking at once), so ~0.4 us items travel in
/// hundreds per lock acquisition while ~30 us items still leave one or a few
/// at a time.
class BlockPacer {
public:
    BlockPacer() : last_(Clock::now()) {}

    /// Items the current block should hold before it is handed off.
    [[nodiscard]] std::size_t size() const { return size_; }

    /// Records the hand-off of a block of `n` items and sizes the next one
    /// from the time since the previous hand-off.
    void handed_off(std::size_t n) {
        const auto now = Clock::now();
        const std::int64_t ns = std::max<std::int64_t>(
            1, std::chrono::duration_cast<std::chrono::nanoseconds>(now - last_).count());
        const auto ideal = static_cast<std::size_t>(static_cast<std::int64_t>(n) * kTargetNs / ns);
        size_ = std::clamp<std::size_t>(ideal, 1, std::min(kMaxSize, 2 * n));
        last_ = now;
    }

    /// Restarts the clock without sizing, so time a worker spent blocked
    /// (not working) does not shrink its next block.
    void restart() { last_ = Clock::now(); }

private:
    using Clock = std::chrono::steady_clock;
    static constexpr std::int64_t kTargetNs = 100'000;
    static constexpr std::size_t kMaxSize = 1024;

    std::size_t size_ = 1;
    Clock::time_point last_;
};

} // namespace slimsim
