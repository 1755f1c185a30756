// Bias-free parallel sample collection (paper, Sec. III-C).
//
// Consuming samples in completion order biases the estimate when sample
// outcome correlates with simulation time (fast-failing paths arrive first)
// [21]. The fix from [22]: buffer samples per worker and consume *rounds* —
// one sample from every worker per round — so the accepted sample set does
// not depend on worker speed. This also makes parallel runs reproducible:
// the accepted multiset is exactly the first R samples of every worker's
// deterministic stream.
//
// Workers hand samples over in blocks (push_block: one lock acquisition per
// block, appended in order to the worker's FIFO), and the consumer drains
// every complete round in one call, consulting a done() predicate after each
// round (or each sample, for drain_ordered). Where a block boundary falls
// therefore never matters: the accepted set is decided by per-worker order
// and the predicate alone, so block sizes may vary with timing while the
// result stays byte-identical. Samples in a worker's unfinished block are
// invisible here until handed over.
//
// Samples optionally carry a small integer tag (the simulator uses the path
// terminal); tags counted over *accepted* samples are deterministic in
// (seed, worker count), unlike anything counted over generated paths. The
// collector also keeps round statistics for the telemetry run report.
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
    explicit SampleCollector(std::size_t worker_count);

    /// Appends `block` to `worker`'s buffer, in order, under one lock
    /// acquisition. Called by worker threads; thread-safe.
    void push_block(std::size_t worker, std::span<const TaggedSample> block);
    void push(std::size_t worker, TaggedSample sample) { push_block(worker, {&sample, 1}); }
    void push(std::size_t worker, bool sample) { push(worker, TaggedSample{sample, 0}); }

    /// Consumes complete rounds into `summary` until no complete round is
    /// buffered or `done()` — consulted after every round — returns true;
    /// the remaining samples stay buffered. Returns the number of samples
    /// consumed. Thread-safe. Because the stop criterion is consulted
    /// between rounds, the accepted sample set is exactly the first R
    /// rounds and deterministic in (seed, worker count), however the
    /// samples arrived. When `tag_counts` is given it is grown as needed
    /// and tag occurrences of the accepted samples are accumulated into it.
    /// `steps` (optional) accumulates accepted samples' step counts (run
    /// budgets). Both are updated before `done()` runs, so governor checks
    /// inside `done()` may read them. `done()` runs under the collector
    /// mutex — it must not call back into the collector.
    std::size_t drain_rounds(BernoulliSummary& summary, std::vector<std::uint64_t>* tag_counts,
                             const std::function<bool()>& done,
                             std::uint64_t* steps = nullptr);

    /// Consumes up to `max_rounds` complete rounds (the predicate overload
    /// with a round-counting done()).
    std::size_t drain_rounds(BernoulliSummary& summary,
                             std::size_t max_rounds = static_cast<std::size_t>(-1),
                             std::vector<std::uint64_t>* tag_counts = nullptr,
                             std::uint64_t* steps = nullptr);

    /// Unbiased (first-come) consumption, for the bias-demonstration bench.
    std::size_t drain_unordered(BernoulliSummary& summary,
                                std::vector<std::uint64_t>* tag_counts = nullptr,
                                std::uint64_t* steps = nullptr);

    /// Round-robin consumption at *sample* granularity, for curve and
    /// coverage estimation: consumes in global accepted order (sample r of
    /// worker 0, 1, ..., K-1, then sample r+1, ...), resuming mid-round
    /// across calls, and stops as soon as `done()` returns true after a
    /// sample or the next worker in order has nothing buffered. Each
    /// consumed sample updates `curve` — when non-null — with (value, time)
    /// alongside `summary`. Unlike whole-round draining, the accepted
    /// prefix can end mid-round, so the stop point is the same for every
    /// worker count — with per-path RNG streams this makes curve/coverage
    /// results independent of the worker count, not just deterministic at a
    /// fixed one. Thread-safe.
    /// `done()` runs under the collector mutex — it must not call back into
    /// the collector. `steps` (optional) accumulates accepted samples' step
    /// counts and is updated before `done()` runs, so governor checks inside
    /// `done()` may read the accumulator.
    std::size_t drain_ordered(BernoulliSummary& summary, CurveSummary* curve,
                              std::vector<std::uint64_t>* tag_counts,
                              const std::function<bool()>& done,
                              std::uint64_t* steps = nullptr);

    /// Samples currently buffered across all workers (handed-over samples
    /// only: a worker's unfinished block is not counted).
    [[nodiscard]] std::size_t buffered() const;

    [[nodiscard]] std::size_t worker_count() const { return buffers_.size(); }

    /// Round statistics so far: consumed rounds, accepted samples, samples
    /// still buffered (discarded if the run stops now) and the buffered
    /// high-water mark. Samples still in a worker's unfinished block count
    /// in neither of the last two.
    [[nodiscard]] telemetry::CollectorStats stats() const;

    /// Samples consumed from each worker's buffer so far (== rounds for
    /// round-based draining).
    [[nodiscard]] std::vector<std::uint64_t> consumed_per_worker() const;

    /// Attaches an execution-trace lane: each consumed round emits a
    /// "collector.round" instant event (arg: accepted samples so far). The
    /// lane must be owned by the draining thread.
    void set_trace(tracer::Lane* lane);

    /// Attaches a live metrics registry (docs/observability.md): a queue-
    /// depth gauge (buffered samples, updated on push/drain) and a drain-
    /// latency histogram (seconds per drain call). Null detaches.
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

    void consume_locked(BernoulliSummary& summary, std::size_t worker,
                        std::vector<std::uint64_t>* tag_counts,
                        CurveSummary* curve = nullptr, std::uint64_t* steps = nullptr);

    mutable std::mutex mutex_;
    std::vector<std::deque<Buffered>> buffers_;
    std::vector<std::uint64_t> consumed_;
    std::size_t cursor_ = 0; // next worker in ordered (sample-granular) draining
    std::uint64_t pushed_ = 0;
    std::uint64_t accepted_ = 0;
    std::uint64_t rounds_ = 0;
    std::uint64_t max_buffered_ = 0;
    tracer::Lane* lane_ = nullptr;
    tracer::NameId n_round_ = tracer::kNoName;
    tracer::NameId n_arg_accepted_ = tracer::kNoName;
    metrics::Gauge* m_depth_ = nullptr;
    metrics::Histogram* m_drain_ = nullptr;
};

} // namespace slimsim::stat
