#include "stat/collector.hpp"

#include <algorithm>
#include <chrono>

#include "stat/curve.hpp"
#include "support/diagnostics.hpp"

namespace slimsim::stat {

namespace {

/// Times one take call into the latency histogram; reads the wall clock
/// only when metrics are attached.
class DrainTimer {
public:
    explicit DrainTimer(metrics::Histogram* h) : h_(h) {
        if (h_ != nullptr) start_ = std::chrono::steady_clock::now();
    }
    ~DrainTimer() {
        if (h_ != nullptr) {
            h_->observe(0, std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start_)
                               .count());
        }
    }
    DrainTimer(const DrainTimer&) = delete;
    DrainTimer& operator=(const DrainTimer&) = delete;

private:
    metrics::Histogram* h_;
    std::chrono::steady_clock::time_point start_;
};

/// The wrappers' fold of one taken sample.
void add(const TaggedSample& s, BernoulliSummary& summary, CurveSummary* curve,
         std::vector<std::uint64_t>* tag_counts, std::uint64_t* steps) {
    summary.add(s.value);
    if (curve != nullptr) curve->add(s.value, s.time);
    if (tag_counts != nullptr) {
        if (tag_counts->size() <= s.tag) tag_counts->resize(s.tag + 1, 0);
        ++(*tag_counts)[s.tag];
    }
    if (steps != nullptr) *steps += s.steps;
}

} // namespace

SampleCollector::Buffered SampleCollector::pack(const TaggedSample& s) {
    const std::uint64_t steps = std::min(s.steps, kMaxBufferedSteps);
    return Buffered{s.time,
                    steps << 9 | std::uint64_t{s.tag} << 1 | std::uint64_t{s.value}};
}

TaggedSample SampleCollector::unpack(const Buffered& b) {
    return TaggedSample{(b.bits & 1u) != 0, static_cast<std::uint8_t>(b.bits >> 1), b.time,
                        b.bits >> 9};
}

SampleCollector::SampleCollector(std::size_t worker_count) : buffers_(worker_count) {
    SLIMSIM_ASSERT(worker_count >= 1);
}

void SampleCollector::push_block(std::size_t worker, std::span<const TaggedSample> block) {
    std::lock_guard lock(mutex_);
    SLIMSIM_ASSERT(worker < buffers_.size());
    auto& buffer = buffers_[worker];
    for (const TaggedSample& s : block) buffer.push_back(pack(s));
    pushed_ += block.size();
    max_buffered_ = std::max(max_buffered_, pushed_ - taken_);
    if (m_depth_ != nullptr) m_depth_->set(static_cast<double>(pushed_ - taken_));
}

std::size_t SampleCollector::take(std::vector<TaggedSample>& out, std::size_t max) {
    out.clear();
    max = std::min(max, kMaxTake);
    std::lock_guard lock(mutex_);
    const DrainTimer timer(m_drain_);
    const std::size_t k = buffers_.size();
    std::size_t w = taken_ % k;
    while (out.size() < max && !buffers_[w].empty()) {
        out.push_back(unpack(buffers_[w].front()));
        buffers_[w].pop_front();
        ++taken_;
        if (++w == k) {
            w = 0;
            if (lane_ != nullptr) {
                lane_->instant(n_round_, n_arg_accepted_, static_cast<double>(taken_));
            }
        }
    }
    if (m_depth_ != nullptr) m_depth_->set(static_cast<double>(pushed_ - taken_));
    return out.size();
}

void SampleCollector::put_back(std::span<const TaggedSample> tail) {
    std::lock_guard lock(mutex_);
    SLIMSIM_ASSERT(tail.size() <= taken_);
    for (auto it = tail.rbegin(); it != tail.rend(); ++it) {
        --taken_;
        buffers_[taken_ % buffers_.size()].push_front(pack(*it));
    }
    if (m_depth_ != nullptr) m_depth_->set(static_cast<double>(pushed_ - taken_));
}

std::size_t SampleCollector::next_worker() const {
    std::lock_guard lock(mutex_);
    return taken_ % buffers_.size();
}

std::size_t SampleCollector::drain_rounds(BernoulliSummary& summary, std::size_t max_rounds,
                                          std::vector<std::uint64_t>* tag_counts,
                                          std::uint64_t* steps) {
    // Only this thread takes, so the complete rounds counted here stay
    // buffered until taken.
    std::size_t want = max_rounds;
    {
        std::lock_guard lock(mutex_);
        for (const auto& b : buffers_) want = std::min(want, b.size());
    }
    want *= buffers_.size();
    std::vector<TaggedSample> batch;
    std::size_t total = 0;
    while (total < want && take(batch, want - total) > 0) {
        for (const TaggedSample& s : batch) add(s, summary, nullptr, tag_counts, steps);
        total += batch.size();
    }
    return total;
}

std::size_t SampleCollector::drain_ordered(BernoulliSummary& summary, CurveSummary* curve,
                                           std::vector<std::uint64_t>* tag_counts,
                                           const std::function<bool()>& done,
                                           std::uint64_t* steps) {
    std::vector<TaggedSample> batch;
    std::size_t total = 0;
    while (take(batch) > 0) {
        for (std::size_t i = 0; i < batch.size(); ++i) {
            add(batch[i], summary, curve, tag_counts, steps);
            if (done()) {
                put_back(std::span(batch).subspan(i + 1));
                return total + i + 1;
            }
        }
        total += batch.size();
    }
    return total;
}

void SampleCollector::set_trace(tracer::Lane* lane) {
    lane_ = lane;
    if (lane_ != nullptr) {
        n_round_ = lane_->intern("collector.round");
        n_arg_accepted_ = lane_->intern("accepted");
    }
}

void SampleCollector::set_metrics(metrics::Registry* registry) {
    if (registry == nullptr) {
        m_depth_ = nullptr;
        m_drain_ = nullptr;
        return;
    }
    m_depth_ = &registry->gauge("slimsim_collector_queue_depth",
                                "Samples buffered across worker queues (live).");
    m_drain_ = &registry->histogram("slimsim_collector_drain_seconds",
                                    "Wall-clock seconds per collector drain call.",
                                    metrics::time_buckets());
}

std::size_t SampleCollector::buffered() const {
    std::lock_guard lock(mutex_);
    std::size_t total = 0;
    for (const auto& b : buffers_) total += b.size();
    return total;
}

telemetry::CollectorStats SampleCollector::stats() const {
    std::lock_guard lock(mutex_);
    telemetry::CollectorStats s;
    s.rounds = taken_ / buffers_.size();
    s.accepted = taken_;
    s.discarded = pushed_ - taken_;
    s.max_buffered = max_buffered_;
    return s;
}

} // namespace slimsim::stat
