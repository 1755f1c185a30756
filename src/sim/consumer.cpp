#include "sim/consumer.hpp"

#include <algorithm>

#include "support/memprobe.hpp"

namespace slimsim::sim {

namespace {

/// Without a progress callback the consumer reads the clock for the
/// live-metrics snapshot only after this many more accepted samples, so a
/// metered inline run does not read it after every path.
constexpr std::uint64_t kProgressCheckStride = 16;

std::vector<telemetry::CurvePoint> curve_points(const stat::CurveSummary& summary) {
    std::vector<telemetry::CurvePoint> out;
    out.reserve(summary.size());
    for (std::size_t i = 0; i < summary.size(); ++i) {
        out.push_back({summary.bounds()[i], summary.successes(i), summary.estimate(i)});
    }
    return out;
}

/// Tag counts (indexed by PathTerminal, grown on demand) as a result's
/// terminal array.
std::array<std::size_t, kPathTerminalCount>
terminal_array(const std::vector<std::uint64_t>& tags) {
    std::array<std::size_t, kPathTerminalCount> out{};
    for (std::size_t t = 0; t < tags.size() && t < out.size(); ++t) out[t] = tags[t];
    return out;
}

} // namespace

CurveResult curve_result(EstimationResult&& run, const CurveOptions& curve,
                         const stat::CurveSummary& summary) {
    CurveResult result;
    result.points = curve_points(summary);
    result.samples = run.samples;
    result.band = stat::to_string(curve.band);
    result.simultaneous_eps = run.achieved_half_width;
    result.strategy = std::move(run.strategy);
    result.criterion = std::move(run.criterion);
    result.terminals = run.terminals;
    result.wall_seconds = run.wall_seconds;
    result.peak_rss_bytes = run.peak_rss_bytes;
    result.coverage = std::move(run.coverage);
    result.status = run.status;
    result.stop_cause = std::move(run.stop_cause);
    result.achieved_half_width = run.achieved_half_width;
    result.path_errors = run.path_errors;
    result.error_log = std::move(run.error_log);
    return result;
}

RunConsumer::RunConsumer(const TimedReachability& property, std::string strategy_name,
                         const stat::StopCriterion& criterion, const CurveOptions* curve,
                         stat::CurveSummary* curve_summary, std::uint64_t seed,
                         const SimOptions& options, std::size_t workers,
                         stat::SampleCollector* collector, telemetry::RunReport* report)
    : property_(property),
      strategy_(std::move(strategy_name)),
      criterion_(criterion),
      curve_(curve),
      curve_summary_(curve_summary),
      seed_(seed),
      control_(options.control),
      workers_(workers),
      collector_(collector),
      report_(report),
      journal_(options.journal),
      start_(std::chrono::steady_clock::now()),
      governor_(control_, start_),
      live_(options.metrics, control_.budget),
      faults_(workers),
      required_(criterion.fixed_sample_count().value_or(0)),
      progress_options_(options.progress),
      last_progress_(start_) {
    if (control_.resume != nullptr) {
        const RunCheckpoint& ck = *control_.resume;
        ck.validate(control_.model_hash, seed, property.text, strategy_, criterion.name(),
                    curve != nullptr ? curve->bounds : std::vector<double>{});
        ck.validate_stop_parameters(criterion.parameters());
        base_ = ck.cursor;
        if (curve_summary_ != nullptr) curve_summary_->restore(ck.cursor, ck.curve_tree);
        last_.count = ck.cursor;
        last_.successes = ck.successes;
        steps_ = ck.total_steps;
        tags_ = ck.terminal_tags;
        resumed_log_ = ck.error_log;
        while (next_mark_ <= base_) next_mark_ *= 2;
    }
    // Periodic checkpoints land at exact multiples of checkpoint_every in
    // every venue (fold()).
    if (control_.checkpoint_every > 0) {
        next_checkpoint_ = (base_ / control_.checkpoint_every + 1) * control_.checkpoint_every;
    }
    // ETA snapshots account for active budget caps (sim/observe.hpp).
    progress_options_.budget_max_seconds = control_.budget.max_wall_seconds;
    progress_options_.budget_max_samples = control_.budget.max_samples;
    // Workers write quarantines into their own rings, merged into global
    // path order by finish(); serial events fire from the consuming thread.
    if (journal_ != nullptr) journal_->begin_workers(workers);
    stopped_ = criterion_met() || governor_.should_stop(last_.count, steps_, path_errors());
}

bool RunConsumer::criterion_met() const {
    return curve_summary_ != nullptr ? criterion_.should_stop_curve(*curve_summary_)
                                     : criterion_.should_stop(last_);
}

std::uint64_t RunConsumer::path_errors() const {
    const auto i = static_cast<std::size_t>(PathTerminal::Error);
    return tags_.size() > i ? tags_[i] : 0;
}

void RunConsumer::consume(const PathOutcome& out) {
    fold({out.satisfied, static_cast<std::uint8_t>(out.terminal), out.end_time, out.steps});
    after_batch(1);
}

std::size_t RunConsumer::drain() {
    std::size_t total = 0;
    for (;;) {
        const std::size_t taken = collector_->take(batch_);
        std::size_t folded = 0;
        while (folded < taken && !stopped_) fold(batch_[folded++]);
        if (folded < taken) collector_->put_back(std::span(batch_).subspan(folded));
        total += folded;
        after_batch(folded);
        if (stopped_ || taken < stat::SampleCollector::kMaxTake) return total;
    }
}

void RunConsumer::fold(const stat::TaggedSample& sample) {
    last_.add(sample.value);
    if (curve_summary_ != nullptr) curve_summary_->add(sample.value, sample.time);
    if (tags_.size() <= sample.tag) tags_.resize(sample.tag + 1, 0);
    ++tags_[sample.tag];
    steps_ += sample.steps;
    // Trajectory marks at each power of two.
    if (last_.count >= next_mark_) {
        if (report_ != nullptr) {
            report_->stop_trajectory.push_back({last_.count, required_, last_.successes});
        }
        if (journal_ != nullptr) {
            journal_->emit(journal::Level::Trace, "mark", "stop-criterion trajectory mark",
                           {{"samples", last_.count}, {"successes", last_.successes}});
        }
        while (next_mark_ <= last_.count) next_mark_ *= 2;
    }
    if (criterion_met() || governor_.should_stop(last_.count, steps_, path_errors())) {
        // A stopping run writes only its final checkpoint (finish()).
        stopped_ = true;
        return;
    }
    if (next_checkpoint_ != 0 && last_.count >= next_checkpoint_) {
        save_checkpoint();
        next_checkpoint_ += control_.checkpoint_every;
    }
}

void RunConsumer::after_batch(std::size_t folded) {
    if (folded == 0) {
        // No decision ran since the last batch; only the governor's
        // timing-dependent causes (interrupt, wall clock) can have fired.
        if (!stopped_) stopped_ = governor_.should_stop(last_.count, steps_, path_errors());
        return;
    }
    live_.add_samples(folded);
    if (live_ && collector_ != nullptr) live_.sync_rounds(collector_->stats().rounds);
    // Progress callbacks fire from this consuming thread only, so they can
    // never perturb the sample order.
    if (progress_options_.callback ||
        (live_ && last_.count - last_progress_check_ >= kProgressCheckStride)) {
        last_progress_check_ = last_.count;
        const auto now = std::chrono::steady_clock::now();
        if (std::chrono::duration<double>(now - last_progress_).count() >=
            progress_options_.min_interval_seconds) {
            snapshot();
            last_progress_ = now;
        }
    }
}

void RunConsumer::snapshot() {
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
    const ProgressSnapshot snap = make_progress_snapshot(last_.count, last_.successes,
                                                         required_, elapsed, progress_options_);
    live_.on_snapshot(snap);
    if (progress_options_.callback) progress_options_.callback(snap);
}

void RunConsumer::quarantine(std::size_t worker, std::uint64_t local, const char* what) {
    live_.add_quarantined();
    if (journal_ != nullptr) {
        journal_->worker(worker).emit(journal::Level::Debug, local, "quarantine", what);
    }
    const std::lock_guard lock(faults_mutex_);
    if (faults_[worker].size() < kMaxQuarantinedErrors) faults_[worker].emplace_back(local, what);
}

std::vector<std::uint64_t> RunConsumer::accepted_per_worker() const {
    const std::uint64_t n = last_.count - base_;
    std::vector<std::uint64_t> out(workers_, n / workers_);
    for (std::size_t w = 0; w < n % workers_; ++w) ++out[w];
    return out;
}

std::vector<std::string> RunConsumer::error_log() const {
    // Quarantined faults of *accepted* samples only, in global path order
    // (sample r of worker w of k is global path base + r*k + w), after the
    // resumed log, bounded. Each worker kept its first
    // kMaxQuarantinedErrors, which cover every possible contribution.
    const std::vector<std::uint64_t> accepted = accepted_per_worker();
    std::vector<std::string> log = resumed_log_;
    const std::lock_guard lock(faults_mutex_);
    std::vector<std::pair<std::uint64_t, const std::string*>> merged;
    for (std::size_t w = 0; w < workers_; ++w) {
        for (const auto& [local, msg] : faults_[w]) {
            if (local < accepted[w]) merged.emplace_back(base_ + local * workers_ + w, &msg);
        }
    }
    std::sort(merged.begin(), merged.end());
    for (const auto& [index, msg] : merged) {
        if (log.size() >= kMaxQuarantinedErrors) break;
        log.push_back("path " + std::to_string(index) + ": " + *msg);
    }
    return log;
}

void RunConsumer::save_checkpoint() {
    RunCheckpoint ck;
    ck.model_hash = control_.model_hash;
    ck.seed = seed_;
    ck.property_hash = fnv1a64(property_.text);
    ck.strategy = strategy_;
    ck.criterion = criterion_.name();
    ck.stop_parameters = criterion_.parameters();
    ck.cursor = last_.count;
    ck.successes = last_.successes;
    ck.total_steps = steps_;
    const auto terminals = terminal_array(tags_);
    ck.terminal_tags.assign(terminals.begin(), terminals.end());
    ck.error_log = error_log();
    if (curve_summary_ != nullptr) {
        ck.curve_bounds = curve_summary_->bounds();
        ck.curve_tree = curve_summary_->tree();
    }
    const std::size_t bytes = ck.save(control_.checkpoint_path);
    live_.add_checkpoint(bytes);
    if (journal_ != nullptr) {
        journal_->emit(journal::Level::Debug, "checkpoint", "checkpoint written",
                       {{"samples", last_.count}, {"bytes", static_cast<std::uint64_t>(bytes)}});
    }
}

EstimationResult RunConsumer::finish(EstimationResult run,
                                     std::span<const std::uint64_t> generated,
                                     bool final_checkpoint) {
    if (progress_options_.callback || live_) snapshot();
    if (run.status == RunStatus::Converged) {
        run.status = governor_.status();
        run.stop_cause = governor_.stop_cause();
    }
    const std::vector<std::uint64_t> accepted = accepted_per_worker();
    if (journal_ != nullptr) {
        journal_->merge_workers(accepted, base_);
        journal_->emit(journal::Level::Info, "stop", run.stop_cause,
                       {{"status", std::string(sim::to_string(run.status))},
                        {"samples", last_.count}});
    }
    run.estimate = last_.mean();
    run.samples = last_.count;
    run.successes = last_.successes;
    run.strategy = strategy_;
    run.criterion = criterion_.name();
    run.terminals = terminal_array(tags_);
    // A curve's achieved guarantee is the simultaneous band half-width.
    run.achieved_half_width =
        curve_ != nullptr ? stat::simultaneous_half_width(curve_->band, curve_->delta,
                                                          curve_summary_->size(), last_.count)
                          : criterion_.achieved_half_width(last_);
    run.path_errors = path_errors();
    run.error_log = error_log();
    // Partial or not, a requested checkpoint is written so the run can be
    // continued (or audited) later.
    if (final_checkpoint && !control_.checkpoint_path.empty()) save_checkpoint();
    run.peak_rss_bytes = peak_rss_bytes();
    run.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
    if (report_ == nullptr) return run;

    telemetry::RunReport& r = *report_;
    if (r.stop_trajectory.empty() || r.stop_trajectory.back().samples != run.samples) {
        r.stop_trajectory.push_back({run.samples, required_, run.successes});
    }
    r.value = run.estimate;
    r.samples = run.samples;
    r.successes = run.successes;
    r.strategy = run.strategy;
    r.criterion = run.criterion;
    r.seed = seed_;
    r.workers = generated.size();
    r.terminals = terminal_histogram(run.terminals);
    r.worker_stats.clear();
    for (std::size_t w = 0; w < generated.size(); ++w) {
        // Stream w names the worker's family {w, w+k, ...} of per-path
        // splits.
        r.worker_stats.push_back(telemetry::WorkerStats{w, w, generated[w], accepted[w]});
    }
    if (curve_ != nullptr) {
        r.curve = {stat::to_string(curve_->band), run.achieved_half_width,
                   curve_points(*curve_summary_)};
        r.value = r.curve.points.back().estimate;
    }
    fill_run_status(report_, run.status, run.stop_cause, run.achieved_half_width,
                    run.path_errors, run.error_log);
    if (collector_ != nullptr) r.collector = collector_->stats();
    if (run.coverage.enabled) r.coverage = run.coverage;
    return run;
}

} // namespace slimsim::sim
