// Bias-free parallel sample collection (paper, Sec. III-C).
//
// Consuming samples in completion order biases the estimate when sample
// outcome correlates with simulation time (fast-failing paths arrive first)
// [21]. The fix from [22]: buffer samples per worker and consume them in a
// fixed order that does not depend on worker speed. Here that order is the
// global path order: worker w of k produces the global paths w, w+k, w+2k,
// ... (each with its own stream Rng(seed).split(j), sim/executor.hpp), and
// take() hands out sample r of worker 0, 1, ..., k-1, then sample r+1, so
// the samples taken are always a prefix of the global path sequence —
// the same prefix for every worker count.
//
// The collector only moves samples. Workers hand them over in blocks
// (push_block: one lock acquisition per block, appended in order to the
// worker's FIFO); the consumer takes at most kMaxTake per lock and decides
// about each sample outside the lock (sim/consumer.hpp), putting back the
// tail it did not need when the run stopped inside a take. Where a block
// boundary or a take ends therefore never matters. Samples in a worker's
// unfinished block are invisible here until handed over.
//
// Samples optionally carry a small integer tag (the simulator uses the path
// terminal). The collector also keeps round statistics for the telemetry
// run report, counted over the samples taken and not put back.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <span>
#include <vector>

#include "stat/bernoulli.hpp"
#include "support/metrics.hpp"
#include "support/telemetry.hpp"
#include "support/tracer/tracer.hpp"

namespace slimsim::stat {

class CurveSummary;

/// One buffered Bernoulli sample with an optional classification tag.
struct TaggedSample {
    bool value = false;
    std::uint8_t tag = 0;
    /// Terminal time of the path (the first goal-hit time for satisfied
    /// samples); consumed by multi-bound curve estimation.
    double time = 0.0;
    /// Discrete steps taken by the path; accumulated over *accepted*
    /// samples for the deterministic max_total_steps run budget.
    std::uint64_t steps = 0;
};

class SampleCollector {
public:
    /// The most samples one take() hands out: the consumer holds the lock
    /// briefly, and its batch buffer stays small.
    static constexpr std::size_t kMaxTake = 1024;

    explicit SampleCollector(std::size_t worker_count);

    /// Appends `block` to `worker`'s buffer, in order, under one lock
    /// acquisition. Called by worker threads; thread-safe.
    void push_block(std::size_t worker, std::span<const TaggedSample> block);
    void push(std::size_t worker, TaggedSample sample) { push_block(worker, {&sample, 1}); }
    void push(std::size_t worker, bool sample) { push(worker, TaggedSample{sample, 0}); }

    /// Replaces `out` with up to min(max, kMaxTake) buffered samples in
    /// global path order, resuming mid-round across calls; it stops early
    /// at the first worker in order whose buffer is empty. Returns the
    /// number taken. Thread-safe.
    std::size_t take(std::vector<TaggedSample>& out, std::size_t max = kMaxTake);

    /// Returns `tail`, the last samples of the last take(), to the front of
    /// their buffers, as if they had never been taken. Thread-safe.
    void put_back(std::span<const TaggedSample> tail);

    /// The worker whose buffer the next take() reads first.
    [[nodiscard]] std::size_t next_worker() const;

    /// The next two wrap take() for the benchmark probe and bench_parallel's
    /// bias demo; the run consumer folds its samples itself.
    ///
    /// Takes up to `max_rounds` complete rounds (one sample from every
    /// worker each) into `summary`; `tag_counts` (grown as needed) and
    /// `steps` accumulate the taken samples' tags and step counts when given.
    /// Returns the samples taken.
    std::size_t drain_rounds(BernoulliSummary& summary,
                             std::size_t max_rounds = static_cast<std::size_t>(-1),
                             std::vector<std::uint64_t>* tag_counts = nullptr,
                             std::uint64_t* steps = nullptr);

    /// Takes samples in global path order into `summary` (and `curve` with
    /// (value, time), when non-null), consulting `done()` after each one;
    /// stops when it returns true or the next worker in order has nothing
    /// buffered, leaving the rest buffered. `tag_counts` and `steps` are
    /// updated before `done()` runs. Returns the samples taken.
    std::size_t drain_ordered(BernoulliSummary& summary, CurveSummary* curve,
                              std::vector<std::uint64_t>* tag_counts,
                              const std::function<bool()>& done,
                              std::uint64_t* steps = nullptr);

    /// Samples currently buffered across all workers (handed-over samples
    /// only: a worker's unfinished block is not counted).
    [[nodiscard]] std::size_t buffered() const;

    /// Round statistics so far: complete rounds taken, samples taken (and
    /// not put back), samples still buffered (discarded if the run stops
    /// now) and the buffered high-water mark. Samples still in a worker's
    /// unfinished block count in neither of the last two.
    [[nodiscard]] telemetry::CollectorStats stats() const;

    /// Attaches an execution-trace lane: each completed round emits a
    /// "collector.round" instant event (arg: samples taken so far). The
    /// lane must be owned by the taking thread.
    void set_trace(tracer::Lane* lane);

    /// Attaches a live metrics registry (docs/observability.md): a queue-
    /// depth gauge (buffered samples, updated on push/take) and a take-
    /// latency histogram (seconds per take call). Null detaches.
    void set_metrics(metrics::Registry* registry);

private:
    /// Buffered form of a TaggedSample, 16 bytes instead of 24: the buffered
    /// backlog, not the samples in flight, sets the collector's memory.
    /// `bits` = steps << 9 | tag << 1 | value. Steps saturate at 2^55 - 1,
    /// far beyond any path's step budget (a value that large can only come
    /// from a corrupt worker frame, which must not crash the consumer).
    struct Buffered {
        double time;
        std::uint64_t bits;
    };
    static constexpr std::uint64_t kMaxBufferedSteps = (std::uint64_t{1} << 55) - 1;
    static Buffered pack(const TaggedSample& s);
    static TaggedSample unpack(const Buffered& b);

    mutable std::mutex mutex_;
    std::vector<std::deque<Buffered>> buffers_;
    std::uint64_t pushed_ = 0;
    /// Samples taken and not put back; the next one comes from worker
    /// taken_ % k.
    std::uint64_t taken_ = 0;
    std::uint64_t max_buffered_ = 0;
    tracer::Lane* lane_ = nullptr;
    tracer::NameId n_round_ = tracer::kNoName;
    tracer::NameId n_arg_accepted_ = tracer::kNoName;
    metrics::Gauge* m_depth_ = nullptr;
    metrics::Histogram* m_drain_ = nullptr;
};

} // namespace slimsim::stat
