#include "sim/runner.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <sstream>

#include "sim/coverage.hpp"
#include "sim/live_metrics.hpp"
#include "support/diagnostics.hpp"
#include "support/memprobe.hpp"

namespace slimsim::sim {

namespace {
/// Without a progress callback, the sequential loop consults the clock
/// for the live-metrics snapshot once per this many samples only, so a
/// metered run does not read it after every path.
constexpr std::uint64_t kProgressCheckStride = 16;

std::vector<telemetry::CurvePoint> curve_points(const stat::CurveSummary& summary) {
    std::vector<telemetry::CurvePoint> out;
    out.reserve(summary.size());
    for (std::size_t i = 0; i < summary.size(); ++i) {
        out.push_back({summary.bounds()[i], summary.successes(i), summary.estimate(i)});
    }
    return out;
}
} // namespace

std::string EstimationResult::to_string() const {
    std::ostringstream os;
    os << "p^ = " << estimate << " (" << successes << "/" << samples << " paths, strategy "
       << strategy << ", " << criterion << ", " << wall_seconds << " s)";
    if (status != RunStatus::Converged) {
        os << " [" << sim::to_string(status) << ": " << stop_cause << "]";
    }
    return os.str();
}

void quarantine_error(std::vector<std::string>& log, std::uint64_t path_index,
                      const char* what) {
    if (log.size() >= kMaxQuarantinedErrors) return;
    log.push_back("path " + std::to_string(path_index) + ": " + what);
}

std::vector<std::string> merge_fault_log(const std::vector<std::string>& resumed_log,
                                         const std::vector<WorkerFaults>& faults,
                                         const std::vector<std::uint64_t>& accepted,
                                         std::uint64_t base, std::size_t k) {
    std::vector<std::string> log = resumed_log;
    std::vector<std::pair<std::uint64_t, const std::string*>> merged;
    for (std::size_t w = 0; w < k; ++w) {
        for (const auto& [local, msg] : faults[w]) {
            if (local < accepted[w]) merged.emplace_back(base + local * k + w, &msg);
        }
    }
    std::sort(merged.begin(), merged.end());
    for (const auto& [idx, msg] : merged) {
        if (log.size() >= kMaxQuarantinedErrors) break;
        log.push_back("path " + std::to_string(idx) + ": " + *msg);
    }
    return log;
}

std::uint64_t tag_count(const std::vector<std::uint64_t>& tags, PathTerminal t) {
    const auto i = static_cast<std::size_t>(t);
    return tags.size() > i ? tags[i] : 0;
}

std::array<std::size_t, kPathTerminalCount>
terminal_array(const std::vector<std::uint64_t>& tags) {
    std::array<std::size_t, kPathTerminalCount> out{};
    for (std::size_t t = 0; t < tags.size() && t < out.size(); ++t) out[t] = tags[t];
    return out;
}

RunCheckpoint make_run_checkpoint(
    const RunControlOptions& control, std::uint64_t seed, const std::string& property_text,
    const std::string& strategy_name, const std::string& criterion_name,
    const stat::BernoulliSummary& last, std::uint64_t total_steps,
    const std::array<std::size_t, kPathTerminalCount>& terminals,
    const std::vector<std::string>& error_log, const stat::CurveSummary* curve) {
    RunCheckpoint ck;
    ck.model_hash = control.model_hash;
    ck.seed = seed;
    ck.property_hash = fnv1a64(property_text);
    ck.strategy = strategy_name;
    ck.criterion = criterion_name;
    ck.cursor = last.count;
    ck.successes = last.successes;
    ck.total_steps = total_steps;
    ck.terminal_tags.assign(terminals.begin(), terminals.end());
    ck.error_log = error_log;
    if (curve != nullptr) {
        ck.curve_bounds = curve->bounds();
        ck.curve_tree = curve->tree();
    }
    return ck;
}

void fill_run_status(telemetry::RunReport* report, RunStatus status,
                     const std::string& stop_cause, double achieved_half_width,
                     std::uint64_t path_errors, const std::vector<std::string>& error_log) {
    if (report == nullptr) return;
    report->run_status.status = sim::to_string(status);
    report->run_status.stop_cause = stop_cause;
    report->run_status.achieved_half_width = achieved_half_width;
    report->run_status.path_errors = path_errors;
    report->run_status.error_log = error_log;
}

void fill_report_common(telemetry::RunReport* report, const EstimationResult& result,
                        const CurveOptions* curve, const stat::CurveSummary* curve_summary,
                        std::uint64_t required, std::uint64_t seed,
                        std::span<const std::uint64_t> generated,
                        std::span<const std::uint64_t> accepted) {
    if (report == nullptr) return;
    if (report->stop_trajectory.empty() ||
        report->stop_trajectory.back().samples != result.samples) {
        report->stop_trajectory.push_back({result.samples, required, result.successes});
    }
    report->value = result.estimate;
    report->samples = result.samples;
    report->successes = result.successes;
    report->strategy = result.strategy;
    report->criterion = result.criterion;
    report->seed = seed;
    report->workers = generated.size();
    report->terminals = terminal_histogram(result.terminals);
    report->worker_stats.clear();
    for (std::size_t w = 0; w < generated.size(); ++w) {
        // Stream w is the worker's split, or its family {w, w+k, ...} of
        // per-path splits; a sequential run's 0 is the master stream.
        report->worker_stats.push_back(
            telemetry::WorkerStats{w, w, generated[w], accepted[w]});
    }
    if (curve != nullptr) {
        report->curve = {stat::to_string(curve->band), result.achieved_half_width,
                         curve_points(*curve_summary)};
        report->value = report->curve.points.back().estimate;
    }
    fill_run_status(report, result.status, result.stop_cause, result.achieved_half_width,
                    result.path_errors, result.error_log);
}

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

namespace {

/// The sequential sampling loop behind estimate() and estimate_curve().
/// `curve` and `curve_summary` are both null for a scalar run. A curve run
/// simulates to the largest bound and also feeds every accepted sample to
/// `curve_summary`; `last` is then the largest bound's summary. Either way
/// `last` drives the marks, checkpoints and progress snapshots.
EstimationResult run_sequential(const eda::Network& net, const TimedReachability& property,
                                Strategy& strategy, const stat::StopCriterion& criterion,
                                const CurveOptions* curve, stat::CurveSummary* curve_summary,
                                std::uint64_t seed, const SimOptions& options,
                                telemetry::RunReport* report) {
    const auto start = std::chrono::steady_clock::now();
    // A curve's paths only need to run to its largest bound; the hit time
    // of a path simulated to u_max decides every smaller bound at once.
    TimedReachability horizon = property;
    if (curve != nullptr) horizon.bound = curve->bounds.back();
    const bool coverage = options.coverage;
    std::optional<eda::ElementIndex> element_index;
    std::optional<CoverageShard> shard;
    SimOptions sim_options = options;
    if (coverage) {
        element_index.emplace(net.model());
        shard.emplace(*element_index);
        sim_options.coverage_shard = &*shard;
    }
    PathGenerator gen(net, horizon, strategy, sim_options);
    const Rng master(seed);
    Rng rng(seed);
    stat::BernoulliSummary last;
    EstimationResult result;
    const std::uint64_t required = criterion.fixed_sample_count().value_or(0);
    std::uint64_t next_mark = 1; // stop-criterion trajectory at powers of two
    auto criterion_met = [&] {
        return curve_summary != nullptr ? criterion.should_stop_curve(*curve_summary)
                                        : criterion.should_stop(last);
    };

    // Curves, coverage and checkpoint/resume use per-path RNG streams: path
    // j always simulates with Rng(seed).split(j). The accepted path set then
    // matches a threaded run at any worker count (sim/coverage.hpp), and a
    // resumed run continues the exact path sequence the interrupted run
    // would have produced (docs/robustness.md).
    const RunControlOptions& control = options.control;
    const bool per_path = curve != nullptr || coverage || control.per_path_streams();
    const bool tolerate = control.fault.kind == FaultPolicyKind::Tolerate;
    RunGovernor governor(control, start);
    std::uint64_t total_steps = 0;
    std::uint64_t path_index = 0;
    if (control.resume != nullptr) {
        const RunCheckpoint& ck = *control.resume;
        ck.validate(control.model_hash, seed, property.text, strategy.name(),
                    criterion.name(), curve != nullptr ? curve->bounds : std::vector<double>{});
        if (curve_summary != nullptr) curve_summary->restore(ck.cursor, ck.curve_tree);
        path_index = ck.cursor;
        last.count = ck.cursor;
        last.successes = ck.successes;
        total_steps = ck.total_steps;
        result.terminals = terminal_array(ck.terminal_tags);
        result.error_log = ck.error_log;
        result.path_errors = result.terminals[static_cast<std::size_t>(PathTerminal::Error)];
        while (next_mark <= ck.cursor) next_mark *= 2;
    }
    // Journal hooks mirror the threaded runner exactly — one worker ring,
    // merged after the loop — so journals are byte-identical (deterministic
    // view) at every worker count.
    journal::Journal* jnl = options.journal;
    if (jnl != nullptr) jnl->begin_workers(1);
    const std::uint64_t journal_base = path_index;
    LiveRunMetrics live(options.metrics, control.budget);
    auto save_checkpoint = [&] {
        const std::size_t bytes =
            make_run_checkpoint(control, seed, property.text, strategy.name(),
                                criterion.name(), last, total_steps, result.terminals,
                                result.error_log, curve_summary)
                .save(control.checkpoint_path);
        live.add_checkpoint(bytes);
        if (jnl != nullptr) {
            jnl->emit(journal::Level::Debug, "checkpoint", "checkpoint written",
                      {{"samples", last.count},
                       {"bytes", static_cast<std::uint64_t>(bytes)}});
        }
    };
    std::uint64_t next_checkpoint =
        control.checkpoint_every > 0 ? last.count + control.checkpoint_every : 0;

    // Witnesses are captured for scalar runs only.
    const bool capture = curve == nullptr && options.witness.per_kind > 0;
    WitnessBuffer witness_buffer(options.witness.per_kind);
    const ProgressFn& progress = options.progress.callback;
    // ETA snapshots account for active budget caps (sim/observe.hpp).
    ProgressOptions progress_options = options.progress;
    progress_options.budget_max_seconds = control.budget.max_wall_seconds;
    progress_options.budget_max_samples = control.budget.max_samples;
    auto last_progress = start;
    auto elapsed = [&] {
        return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    };

    tracer::Span run_span(options.trace_lane,
                          options.trace_lane != nullptr
                              ? options.trace_lane->intern(curve != nullptr
                                                               ? "sim.estimate_curve"
                                                               : "sim.estimate")
                              : tracer::kNoName);

    Rng pre_path(0);
    {
        // Decision observation stays scoped to the sampling loop: the
        // witness replay below reuses `strategy` and must not pollute the
        // decision histograms.
        const ObserverGuard observe(strategy, coverage ? &*shard : nullptr);
        // The criterion is consulted before the governor, so a run whose
        // budget and convergence land on the same sample reports Converged.
        while (!criterion_met() &&
               !governor.should_stop(last.count, total_steps, result.path_errors)) {
            if (per_path) rng = master.split(path_index);
            if (capture && !witness_buffer.saturated()) pre_path = rng;
            PathOutcome out;
            if (tolerate) {
                try {
                    out = gen.run(rng);
                } catch (const std::exception& e) {
                    // Deterministic fault isolation: the throwing path
                    // becomes an Error-tagged unsatisfied sample and its
                    // message is quarantined (bounded).
                    out = PathOutcome{false, PathTerminal::Error, 0.0, 0};
                    quarantine_error(result.error_log, path_index, e.what());
                    live.add_quarantined();
                    if (jnl != nullptr) {
                        jnl->worker(0).emit(journal::Level::Debug,
                                            path_index - journal_base, "quarantine",
                                            e.what());
                    }
                }
            } else {
                out = gen.run(rng);
            }
            // Error outcomes must not become witnesses: replaying one would
            // rethrow the fault.
            if (capture && out.terminal != PathTerminal::Error) {
                witness_buffer.offer(path_index, pre_path, out);
            }
            ++path_index;
            if (curve_summary != nullptr) curve_summary->add(out.satisfied, out.end_time);
            last.add(out.satisfied);
            live.add_samples(1);
            ++result.terminals[static_cast<std::size_t>(out.terminal)];
            if (out.terminal == PathTerminal::Error) ++result.path_errors;
            total_steps += out.steps;
            if (last.count == next_mark) {
                if (report != nullptr) {
                    report->stop_trajectory.push_back({last.count, required, last.successes});
                }
                if (jnl != nullptr) {
                    jnl->emit(journal::Level::Trace, "mark",
                              "stop-criterion trajectory mark",
                              {{"samples", last.count}, {"successes", last.successes}});
                }
                next_mark *= 2;
            }
            if (next_checkpoint != 0 && last.count >= next_checkpoint) {
                save_checkpoint();
                next_checkpoint += control.checkpoint_every;
            }
            if (progress || (live && last.count % kProgressCheckStride == 0)) {
                const auto now = std::chrono::steady_clock::now();
                if (std::chrono::duration<double>(now - last_progress).count() >=
                    options.progress.min_interval_seconds) {
                    const ProgressSnapshot snap =
                        make_progress_snapshot(last.count, last.successes, required,
                                               elapsed(), progress_options);
                    live.on_snapshot(snap);
                    if (progress) progress(snap);
                    last_progress = now;
                }
            }
        }
    }
    if (progress || live) {
        const ProgressSnapshot snap = make_progress_snapshot(
            last.count, last.successes, required, elapsed(), progress_options);
        live.on_snapshot(snap);
        if (progress) progress(snap);
    }
    run_span.end();
    if (jnl != nullptr) {
        const std::uint64_t journal_accepted[] = {last.count - journal_base};
        jnl->merge_workers(journal_accepted, journal_base);
        jnl->emit(journal::Level::Info, "stop", governor.stop_cause(),
                  {{"status", std::string(sim::to_string(governor.status()))},
                   {"samples", last.count}});
    }

    if (capture) {
        // Replay with instruments stripped so witnesses do not double-count
        // telemetry or trace events.
        SimOptions replay_options = options;
        replay_options.trace_lane = nullptr;
        replay_options.coverage = false;
        replay_options.coverage_shard = nullptr;
        replay_options.metrics = nullptr;
        replay_options.journal = nullptr;
        const PathGenerator replay_gen(net, property, strategy, replay_options);
        const WitnessBuffer buffers[] = {witness_buffer};
        const std::uint64_t accepted[] = {last.count};
        const auto selected =
            select_witness_paths(buffers, accepted, options.witness.per_kind);
        result.witnesses =
            replay_witnesses(replay_gen, selected, options.witness.max_bytes);
    }
    if (coverage) {
        const CoverageShard* shard_ptr = &*shard;
        const std::uint64_t accepted = last.count;
        result.coverage = merge_coverage({&shard_ptr, 1}, {&accepted, 1});
    }
    result.estimate = last.mean();
    result.samples = last.count;
    result.successes = last.successes;
    result.strategy = strategy.name();
    result.criterion = criterion.name();
    result.status = governor.status();
    result.stop_cause = governor.stop_cause();
    // A curve's achieved guarantee is the simultaneous band half-width.
    result.achieved_half_width =
        curve != nullptr ? stat::simultaneous_half_width(curve->band, curve->delta,
                                                         curve_summary->size(), last.count)
                         : criterion.achieved_half_width(last);
    // Partial or not, a requested checkpoint is always written so the run
    // can be continued (or audited) later.
    if (!control.checkpoint_path.empty()) save_checkpoint();
    result.peak_rss_bytes = peak_rss_bytes();
    result.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    const std::uint64_t paths[] = {last.count};
    fill_report_common(report, result, curve, curve_summary, required, seed, paths, paths);
    if (report != nullptr && coverage) report->coverage = result.coverage;
    return result;
}

} // namespace

EstimationResult estimate(const eda::Network& net, const TimedReachability& property,
                          Strategy& strategy, const stat::StopCriterion& criterion,
                          std::uint64_t seed, const SimOptions& options,
                          telemetry::RunReport* report) {
    return run_sequential(net, property, strategy, criterion, nullptr, nullptr, seed,
                          options, report);
}

EstimationResult estimate(const eda::Network& net, const TimedReachability& property,
                          Strategy& strategy, const stat::StopCriterion& criterion,
                          std::uint64_t seed, const SimOptions& options) {
    return estimate(net, property, strategy, criterion, seed, options, nullptr);
}

EstimationResult estimate(const eda::Network& net, const TimedReachability& property,
                          StrategyKind strategy, const stat::StopCriterion& criterion,
                          std::uint64_t seed, const SimOptions& options,
                          telemetry::RunReport* report) {
    const auto strat = make_strategy(strategy);
    return estimate(net, property, *strat, criterion, seed, options, report);
}

std::string CurveResult::to_string() const {
    std::ostringstream os;
    os << "curve over " << points.size() << " bounds (" << samples
       << " shared paths, strategy " << strategy << ", " << criterion << ", " << band
       << " band +-" << simultaneous_eps << ", " << wall_seconds << " s)";
    if (status != RunStatus::Converged) {
        os << " [" << sim::to_string(status) << ": " << stop_cause << "]";
    }
    for (const auto& p : points) {
        os << "\n  u = " << p.bound << "  p^ = " << p.estimate << "  (" << p.successes
           << "/" << samples << ")";
    }
    return os.str();
}

void validate_curve_request(const TimedReachability& property, const CurveOptions& curve) {
    if (property.kind != FormulaKind::Reach || property.lo != 0.0) {
        throw Error("curve estimation supports plain timed reachability "
                    "P( <> [0,u] goal ) only");
    }
    if (curve.bounds.empty()) throw Error("curve estimation needs at least one bound");
    double prev = 0.0;
    for (const double b : curve.bounds) {
        if (!(b > prev)) throw Error("curve bounds must be positive and strictly ascending");
        prev = b;
    }
    if (curve.bounds.back() > property.bound) {
        throw Error("curve bounds must not exceed the property's time bound");
    }
}

CurveResult estimate_curve(const eda::Network& net, const TimedReachability& property,
                           Strategy& strategy, const stat::StopCriterion& criterion,
                           const CurveOptions& curve, std::uint64_t seed,
                           const SimOptions& options, telemetry::RunReport* report) {
    validate_curve_request(property, curve);
    stat::CurveSummary summary(curve.bounds);
    return curve_result(run_sequential(net, property, strategy, criterion, &curve, &summary,
                                       seed, options, report),
                        curve, summary);
}

CurveResult estimate_curve(const eda::Network& net, const TimedReachability& property,
                           StrategyKind strategy, const stat::StopCriterion& criterion,
                           const CurveOptions& curve, std::uint64_t seed,
                           const SimOptions& options, telemetry::RunReport* report) {
    const auto strat = make_strategy(strategy);
    return estimate_curve(net, property, *strat, criterion, curve, seed, options, report);
}

} // namespace slimsim::sim
