// The run consumer (paper, Sec. III-C, after [22]): workers only generate
// samples; one consumer decides which samples count and when the run stops.
//
// Every producer — the in-process venue's inline producer or worker threads
// (sim/executor.hpp) and the supervised worker processes (sim/supervise) —
// runs one PathExecutor in front of one RunConsumer, which owns everything
// after a sample is produced: checkpoint resume, the Bernoulli (and curve)
// summary, terminal tags and accepted steps, the RunGovernor, live metrics,
// the journal's worker rings and stop event, the power-of-two trajectory
// marks, the periodic checkpoint schedule, progress snapshots, quarantined
// faults, and the assembly of the result and the report. Producers differ only in
// how samples reach it: the inline producer hands each path to consume(),
// the others feed a SampleCollector that drain() empties.
#pragma once

#include <chrono>
#include <mutex>
#include <span>

#include "sim/live_metrics.hpp"
#include "sim/runner.hpp"
#include "stat/collector.hpp"

namespace slimsim::sim {

/// The curve result of a run whose `curve_summary` was `summary`; the
/// venue-independent fields move over from `run`.
[[nodiscard]] CurveResult curve_result(EstimationResult&& run, const CurveOptions& curve,
                                       const stat::CurveSummary& summary);

class RunConsumer {
public:
    /// Validates and restores `options.control.resume` against this run's
    /// identity, and opens one journal ring per worker. `curve` is null for
    /// a scalar run. `collector` is null for the inline producer, which
    /// hands its samples to consume().
    RunConsumer(const TimedReachability& property, std::string strategy_name,
                const stat::StopCriterion& criterion, const CurveOptions* curve,
                stat::CurveSummary* curve_summary, std::uint64_t seed,
                const SimOptions& options, std::size_t workers,
                stat::SampleCollector* collector, telemetry::RunReport* report);

    /// The resumed global path cursor (0 for a fresh run): worker w of k
    /// owns the global paths base + w, base + w + k, ...
    [[nodiscard]] std::uint64_t base() const { return base_; }
    /// True once the criterion or the governor ended the run. Both are
    /// consulted before the first sample too, so a run whose resumed state
    /// already satisfies them accepts nothing more.
    [[nodiscard]] bool stopped() const { return stopped_; }

    /// The inline producer: accepts one path, takes the per-sample decision
    /// and runs the post-batch hook.
    void consume(const PathOutcome& out);

    /// The threaded and supervised venues: drains the collector with the
    /// per-sample decision as its predicate — in global path order when
    /// `ordered` (per-path streams), else whole rounds — and runs the
    /// post-batch hook. When the drain paused for a periodic checkpoint,
    /// the checkpoint is saved outside the collector mutex and the drain
    /// resumes at once. Returns the samples consumed.
    std::size_t drain(bool ordered);

    /// Quarantines a throwing path under FaultPolicy::Tolerate: its message
    /// is kept with the worker's local path index (the first
    /// kMaxQuarantinedErrors per worker) and journaled in the worker's
    /// ring. Thread-safe; worker w only calls it for w.
    void quarantine(std::size_t worker, std::uint64_t local, const char* what);

    /// Samples accepted from each worker in this run (a resumed prefix
    /// counts for none of them).
    [[nodiscard]] std::vector<std::uint64_t> accepted_per_worker() const;

    /// Ends the run: the final progress snapshot, the journal merge and stop
    /// event, the result, the final checkpoint and the report. `run` carries
    /// what only the venue knows: witnesses, coverage and — when the venue
    /// rather than the governor ended the run (fail-fast abort, exhausted
    /// restarts) — a status other than Converged with its stop cause.
    /// `generated` is each worker's generated path count. A fail-fast abort
    /// passes `final_checkpoint` false: it has no consistent state to save.
    [[nodiscard]] EstimationResult finish(EstimationResult run,
                                          std::span<const std::uint64_t> generated,
                                          bool final_checkpoint = true);

private:
    /// The per-sample decision, after every accepted sample: takes the
    /// trajectory marks, then returns true when draining must pause — the
    /// criterion (consulted first, so ties report Converged) or the governor
    /// stopped the run, or the next periodic checkpoint is due.
    bool accept();
    /// After every drain (and every inline sample): live metrics, progress
    /// snapshots, the governor when nothing was consumed, and the periodic
    /// checkpoint the last decision paused for. Returns true when it saved
    /// that checkpoint, i.e. the drain paused without stopping the run.
    bool after_batch(std::size_t consumed);
    [[nodiscard]] bool criterion_met() const;
    [[nodiscard]] std::uint64_t path_errors() const;
    [[nodiscard]] std::vector<std::string> error_log() const;
    void snapshot();
    void save_checkpoint();

    const TimedReachability& property_;
    std::string strategy_;
    const stat::StopCriterion& criterion_;
    const CurveOptions* curve_;
    stat::CurveSummary* curve_summary_;
    std::uint64_t seed_;
    const RunControlOptions& control_;
    std::size_t workers_;
    stat::SampleCollector* collector_;
    telemetry::RunReport* report_;
    journal::Journal* journal_;
    std::chrono::steady_clock::time_point start_;
    RunGovernor governor_;
    LiveRunMetrics live_;

    stat::BernoulliSummary last_;
    std::vector<std::uint64_t> tags_;
    std::uint64_t steps_ = 0;
    std::uint64_t base_ = 0;
    std::vector<std::string> resumed_log_;
    mutable std::mutex faults_mutex_;
    std::vector<std::vector<std::pair<std::uint64_t, std::string>>> faults_;

    bool stopped_ = false;
    std::uint64_t required_ = 0;
    std::uint64_t next_mark_ = 1;
    std::uint64_t next_checkpoint_ = 0;
    ProgressOptions progress_options_;
    std::chrono::steady_clock::time_point last_progress_;
    std::uint64_t last_progress_check_ = 0;
};

} // namespace slimsim::sim
