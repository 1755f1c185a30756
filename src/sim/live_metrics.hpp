// Live run gauges/counters (docs/observability.md): a small bundle the
// estimation runners update from their consuming thread alongside the
// progress stream, so a scrape of the metrics registry sees the current
// estimate, half-width, ETA and budget headroom mid-run.
//
// All handles resolve once at construction (registry mutex, off the hot
// path); every update is a relaxed atomic store/add. Header-only: the two
// runners are the only users.
#pragma once

#include <algorithm>
#include <cstdint>

#include "sim/observe.hpp"
#include "sim/run_control.hpp"
#include "support/metrics.hpp"

namespace slimsim::sim {

class LiveRunMetrics {
public:
    /// `registry` may be null (metrics off — every method is then a no-op
    /// the branch predictor eats). `budget` is copied for the headroom
    /// gauges; pass {} when no run control is active.
    explicit LiveRunMetrics(metrics::Registry* registry, RunBudget budget = {})
        : budget_(budget) {
        if (registry == nullptr) return;
        c_samples_ = &registry->counter("slimsim_samples_consumed_total",
                                        "Samples accepted by the consuming thread.");
        c_rounds_ = &registry->counter("slimsim_consumer_rounds_total",
                                       "Complete collector rounds consumed.");
        c_checkpoint_writes_ = &registry->counter(
            "slimsim_checkpoint_writes_total", "Checkpoint files written.");
        c_checkpoint_bytes_ = &registry->counter(
            "slimsim_checkpoint_bytes_total", "Bytes of checkpoint data written.");
        c_quarantined_ = &registry->counter(
            "slimsim_quarantined_paths_total",
            "Paths quarantined by fault isolation instead of aborting the run.");
        g_samples_ = &registry->gauge("slimsim_live_samples",
                                      "Samples consumed so far (live).");
        g_estimate_ = &registry->gauge("slimsim_live_estimate",
                                       "Running probability estimate (live).");
        g_half_width_ = &registry->gauge(
            "slimsim_live_half_width", "Confidence-interval half-width (live).");
        g_eta_ = &registry->gauge(
            "slimsim_live_eta_seconds",
            "Extrapolated seconds to completion (live); -1 when unknown.");
        g_elapsed_ = &registry->gauge("slimsim_live_elapsed_seconds",
                                      "Wall seconds since the run started (live).");
        if (budget_.active()) {
            g_budget_seconds_ = &registry->gauge(
                "slimsim_budget_wall_seconds_remaining",
                "Wall seconds left in the run budget; -1 when uncapped.");
            g_budget_samples_ = &registry->gauge(
                "slimsim_budget_samples_remaining",
                "Samples left in the run budget; -1 when uncapped.");
        }
    }

    explicit operator bool() const { return g_samples_ != nullptr; }

    /// Consuming-thread updates (shard 0 by convention: one writer).
    void add_samples(std::uint64_t n) {
        if (c_samples_ != nullptr && n > 0) c_samples_->add(0, n);
    }
    /// Advances the rounds counter to the collector's running total of
    /// consumed rounds: one drain call may take many rounds, or none.
    void sync_rounds(std::uint64_t total) {
        if (c_rounds_ != nullptr && total > rounds_) c_rounds_->add(0, total - rounds_);
        rounds_ = total;
    }
    void add_checkpoint(std::size_t bytes) {
        if (c_checkpoint_writes_ != nullptr) {
            c_checkpoint_writes_->add(0);
            c_checkpoint_bytes_->add(0, bytes);
        }
    }
    void add_quarantined() {
        if (c_quarantined_ != nullptr) c_quarantined_->add(0);
    }

    void on_snapshot(const ProgressSnapshot& snap) {
        if (g_samples_ == nullptr) return;
        g_samples_->set(static_cast<double>(snap.samples));
        g_estimate_->set(snap.estimate);
        g_half_width_->set(snap.half_width);
        g_eta_->set(snap.eta_seconds);
        g_elapsed_->set(snap.elapsed_seconds);
        if (g_budget_seconds_ != nullptr) {
            g_budget_seconds_->set(
                budget_.max_wall_seconds > 0.0
                    ? std::max(0.0, budget_.max_wall_seconds - snap.elapsed_seconds)
                    : -1.0);
            g_budget_samples_->set(
                budget_.max_samples > 0
                    ? static_cast<double>(
                          budget_.max_samples -
                          std::min<std::uint64_t>(budget_.max_samples, snap.samples))
                    : -1.0);
        }
    }

private:
    RunBudget budget_;
    std::uint64_t rounds_ = 0;
    metrics::Counter* c_samples_ = nullptr;
    metrics::Counter* c_rounds_ = nullptr;
    metrics::Counter* c_checkpoint_writes_ = nullptr;
    metrics::Counter* c_checkpoint_bytes_ = nullptr;
    metrics::Counter* c_quarantined_ = nullptr;
    metrics::Gauge* g_samples_ = nullptr;
    metrics::Gauge* g_estimate_ = nullptr;
    metrics::Gauge* g_half_width_ = nullptr;
    metrics::Gauge* g_eta_ = nullptr;
    metrics::Gauge* g_elapsed_ = nullptr;
    metrics::Gauge* g_budget_seconds_ = nullptr;
    metrics::Gauge* g_budget_samples_ = nullptr;
};

} // namespace slimsim::sim
