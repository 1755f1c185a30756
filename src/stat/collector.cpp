#include "stat/collector.hpp"

#include <algorithm>
#include <chrono>

#include "stat/curve.hpp"
#include "support/diagnostics.hpp"

namespace slimsim::stat {

namespace {

/// Times one drain call into the latency histogram; reads the wall clock
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

} // namespace

SampleCollector::SampleCollector(std::size_t worker_count)
    : buffers_(worker_count), consumed_(worker_count, 0) {
    SLIMSIM_ASSERT(worker_count >= 1);
}

void SampleCollector::push_block(std::size_t worker, std::span<const TaggedSample> block) {
    std::lock_guard lock(mutex_);
    SLIMSIM_ASSERT(worker < buffers_.size());
    auto& buffer = buffers_[worker];
    for (const TaggedSample& s : block) {
        const std::uint64_t steps = std::min(s.steps, kMaxBufferedSteps);
        buffer.push_back(
            Buffered{s.time, steps << 9 | std::uint64_t{s.tag} << 1 | std::uint64_t{s.value}});
    }
    pushed_ += block.size();
    max_buffered_ = std::max(max_buffered_, pushed_ - accepted_);
    if (m_depth_ != nullptr) m_depth_->set(static_cast<double>(pushed_ - accepted_));
}

void SampleCollector::consume_locked(BernoulliSummary& summary, std::size_t worker,
                                     std::vector<std::uint64_t>* tag_counts,
                                     CurveSummary* curve, std::uint64_t* steps) {
    auto& buffer = buffers_[worker];
    const Buffered b = buffer.front();
    buffer.pop_front();
    const bool value = (b.bits & 1u) != 0;
    const auto tag = static_cast<std::uint8_t>(b.bits >> 1);
    summary.add(value);
    if (curve != nullptr) curve->add(value, b.time);
    if (tag_counts != nullptr) {
        if (tag_counts->size() <= tag) tag_counts->resize(tag + 1, 0);
        ++(*tag_counts)[tag];
    }
    if (steps != nullptr) *steps += b.bits >> 9;
    ++consumed_[worker];
    ++accepted_;
}

std::size_t SampleCollector::drain_rounds(BernoulliSummary& summary,
                                          std::vector<std::uint64_t>* tag_counts,
                                          const std::function<bool()>& done,
                                          std::uint64_t* steps) {
    std::lock_guard lock(mutex_);
    const DrainTimer timer(m_drain_);
    std::size_t available = buffers_.front().size();
    for (const auto& b : buffers_) available = std::min(available, b.size());
    std::size_t rounds = 0;
    while (rounds < available) {
        for (std::size_t w = 0; w < buffers_.size(); ++w) {
            consume_locked(summary, w, tag_counts, nullptr, steps);
        }
        ++rounds;
        ++rounds_;
        if (lane_ != nullptr) {
            lane_->instant(n_round_, n_arg_accepted_, static_cast<double>(accepted_));
        }
        if (done()) break;
    }
    if (m_depth_ != nullptr) m_depth_->set(static_cast<double>(pushed_ - accepted_));
    return rounds * buffers_.size();
}

std::size_t SampleCollector::drain_rounds(BernoulliSummary& summary, std::size_t max_rounds,
                                          std::vector<std::uint64_t>* tag_counts,
                                          std::uint64_t* steps) {
    if (max_rounds == 0) return 0;
    std::size_t rounds = 0;
    return drain_rounds(
        summary, tag_counts, [&] { return ++rounds >= max_rounds; }, steps);
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

std::size_t SampleCollector::drain_ordered(BernoulliSummary& summary, CurveSummary* curve,
                                           std::vector<std::uint64_t>* tag_counts,
                                           const std::function<bool()>& done,
                                           std::uint64_t* steps) {
    std::lock_guard lock(mutex_);
    const DrainTimer timer(m_drain_);
    std::size_t consumed = 0;
    while (!buffers_[cursor_].empty()) {
        consume_locked(summary, cursor_, tag_counts, curve, steps);
        ++consumed;
        cursor_ = (cursor_ + 1) % buffers_.size();
        if (cursor_ == 0) {
            ++rounds_;
            if (lane_ != nullptr) {
                lane_->instant(n_round_, n_arg_accepted_, static_cast<double>(accepted_));
            }
        }
        if (done()) break;
    }
    if (m_depth_ != nullptr) m_depth_->set(static_cast<double>(pushed_ - accepted_));
    return consumed;
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
    s.rounds = rounds_;
    s.accepted = accepted_;
    s.discarded = pushed_ - accepted_;
    s.max_buffered = max_buffered_;
    return s;
}

std::vector<std::uint64_t> SampleCollector::consumed_per_worker() const {
    std::lock_guard lock(mutex_);
    return consumed_;
}

} // namespace slimsim::stat
