#include "sim/runner.hpp"

#include <chrono>
#include <optional>
#include <sstream>

#include "sim/coverage.hpp"
#include "sim/live_metrics.hpp"
#include "support/diagnostics.hpp"
#include "support/memprobe.hpp"

namespace slimsim::sim {

namespace {
/// Without a progress callback, the sequential loops consult the clock
/// for the live-metrics snapshot once per this many samples only, so a
/// metered run does not read it after every path.
constexpr std::uint64_t kProgressCheckStride = 16;
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

RunCheckpoint make_run_checkpoint(
    const RunControlOptions& control, std::uint64_t seed, const std::string& property_text,
    const std::string& strategy_name, const std::string& criterion_name,
    std::uint64_t cursor, std::uint64_t successes, std::uint64_t total_steps,
    const std::array<std::size_t, kPathTerminalCount>& terminals,
    const std::vector<std::string>& error_log, const std::vector<double>& curve_bounds,
    const std::vector<std::uint64_t>& curve_tree) {
    RunCheckpoint ck;
    ck.model_hash = control.model_hash;
    ck.seed = seed;
    ck.property_hash = fnv1a64(property_text);
    ck.strategy = strategy_name;
    ck.criterion = criterion_name;
    ck.cursor = cursor;
    ck.successes = successes;
    ck.total_steps = total_steps;
    ck.terminal_tags.assign(terminals.begin(), terminals.end());
    ck.error_log = error_log;
    ck.curve_bounds = curve_bounds;
    ck.curve_tree = curve_tree;
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

EstimationResult estimate(const eda::Network& net, const TimedReachability& property,
                          Strategy& strategy, const stat::StopCriterion& criterion,
                          std::uint64_t seed, const SimOptions& options,
                          telemetry::RunReport* report) {
    const auto start = std::chrono::steady_clock::now();
    // Coverage profiling switches to the curve runners' per-path RNG streams
    // (path j simulates with Rng(seed).split(j)) so the accepted path set —
    // and with it the estimate and the profile — matches a parallel coverage
    // run at any worker count byte for byte (sim/coverage.hpp).
    const bool coverage = options.coverage;
    std::optional<eda::ElementIndex> element_index;
    std::optional<CoverageShard> shard;
    SimOptions sim_options = options;
    if (coverage) {
        element_index.emplace(net.model());
        shard.emplace(*element_index);
        sim_options.coverage_shard = &*shard;
    }
    PathGenerator gen(net, property, strategy, sim_options);
    const Rng master(seed);
    Rng rng(seed);
    stat::BernoulliSummary summary;
    EstimationResult result;
    const std::uint64_t required = criterion.fixed_sample_count().value_or(0);
    std::uint64_t next_mark = 1; // stop-criterion trajectory at powers of two

    // Run hardening (docs/robustness.md): checkpoint/resume needs per-path
    // RNG streams — path j always simulates with Rng(seed).split(j) — so a
    // resumed run continues the exact path sequence the interrupted run
    // would have produced.
    const RunControlOptions& control = options.control;
    const bool per_path = coverage || control.per_path_streams();
    const bool tolerate = control.fault.kind == FaultPolicyKind::Tolerate;
    RunGovernor governor(control, start);
    std::uint64_t total_steps = 0;
    std::uint64_t path_index = 0;
    if (control.resume != nullptr) {
        const RunCheckpoint& ck = *control.resume;
        ck.validate(control.model_hash, seed, property.text, strategy.name(),
                    criterion.name(), {});
        path_index = ck.cursor;
        summary.count = ck.cursor;
        summary.successes = ck.successes;
        total_steps = ck.total_steps;
        for (std::size_t i = 0; i < ck.terminal_tags.size() && i < kPathTerminalCount; ++i) {
            result.terminals[i] = ck.terminal_tags[i];
        }
        result.error_log = ck.error_log;
        result.path_errors = result.terminals[static_cast<std::size_t>(PathTerminal::Error)];
        while (next_mark <= ck.cursor) next_mark *= 2;
    }
    // Journal hooks mirror the parallel runner exactly — one worker ring,
    // merged after the loop — so journals are byte-identical (deterministic
    // view) at every worker count.
    journal::Journal* jnl = options.journal;
    if (jnl != nullptr) jnl->begin_workers(1);
    const std::uint64_t journal_base = path_index;
    LiveRunMetrics live(options.metrics, control.budget);
    auto save_checkpoint = [&] {
        const std::size_t bytes =
            make_run_checkpoint(control, seed, property.text, strategy.name(),
                                criterion.name(), summary.count, summary.successes,
                                total_steps, result.terminals, result.error_log)
                .save(control.checkpoint_path);
        live.add_checkpoint(bytes);
        if (jnl != nullptr) {
            jnl->emit(journal::Level::Debug, "checkpoint", "checkpoint written",
                      {{"samples", summary.count},
                       {"bytes", static_cast<std::uint64_t>(bytes)}});
        }
    };
    std::uint64_t next_checkpoint =
        control.checkpoint_every > 0 ? summary.count + control.checkpoint_every : 0;

    const bool capture = options.witness.per_kind > 0;
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
                              ? options.trace_lane->intern("sim.estimate")
                              : tracer::kNoName);

    Rng pre_path(0);
    {
        // Decision observation stays scoped to the sampling loop: the
        // witness replay below reuses `strategy` and must not pollute the
        // decision histograms.
        const ObserverGuard observe(strategy, coverage ? &*shard : nullptr);
        // The criterion is consulted before the governor, so a run whose
        // budget and convergence land on the same sample reports Converged.
        while (!criterion.should_stop(summary) &&
               !governor.should_stop(summary.count, total_steps, result.path_errors)) {
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
            summary.add(out.satisfied);
            live.add_samples(1);
            ++result.terminals[static_cast<std::size_t>(out.terminal)];
            if (out.terminal == PathTerminal::Error) ++result.path_errors;
            total_steps += out.steps;
            if (summary.count == next_mark) {
                if (report != nullptr) {
                    report->stop_trajectory.push_back(
                        {summary.count, required, summary.successes});
                }
                if (jnl != nullptr) {
                    jnl->emit(journal::Level::Trace, "mark",
                              "stop-criterion trajectory mark",
                              {{"samples", summary.count},
                               {"successes", summary.successes}});
                }
                next_mark *= 2;
            }
            if (next_checkpoint != 0 && summary.count >= next_checkpoint) {
                save_checkpoint();
                next_checkpoint += control.checkpoint_every;
            }
            if (progress || (live && summary.count % kProgressCheckStride == 0)) {
                const auto now = std::chrono::steady_clock::now();
                if (std::chrono::duration<double>(now - last_progress).count() >=
                    options.progress.min_interval_seconds) {
                    const ProgressSnapshot snap =
                        make_progress_snapshot(summary.count, summary.successes,
                                               required, elapsed(), progress_options);
                    live.on_snapshot(snap);
                    if (progress) progress(snap);
                    last_progress = now;
                }
            }
        }
    }
    if (progress || live) {
        const ProgressSnapshot snap = make_progress_snapshot(
            summary.count, summary.successes, required, elapsed(), progress_options);
        live.on_snapshot(snap);
        if (progress) progress(snap);
    }
    run_span.end();
    if (jnl != nullptr) {
        const std::uint64_t journal_accepted[] = {summary.count - journal_base};
        jnl->merge_workers(journal_accepted, journal_base);
        jnl->emit(journal::Level::Info, "stop", governor.stop_cause(),
                  {{"status", std::string(sim::to_string(governor.status()))},
                   {"samples", summary.count}});
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
        const std::uint64_t accepted[] = {summary.count};
        const auto selected =
            select_witness_paths(buffers, accepted, options.witness.per_kind);
        result.witnesses =
            replay_witnesses(replay_gen, selected, options.witness.max_bytes);
    }
    if (coverage) {
        const CoverageShard* shard_ptr = &*shard;
        const std::uint64_t accepted = summary.count;
        result.coverage = merge_coverage({&shard_ptr, 1}, {&accepted, 1});
    }
    result.estimate = summary.mean();
    result.samples = summary.count;
    result.successes = summary.successes;
    result.strategy = strategy.name();
    result.criterion = criterion.name();
    result.status = governor.status();
    result.stop_cause = governor.stop_cause();
    result.achieved_half_width = criterion.achieved_half_width(summary);
    // Partial or not, a requested checkpoint is always written so the run
    // can be continued (or audited) later.
    if (!control.checkpoint_path.empty()) save_checkpoint();
    result.peak_rss_bytes = peak_rss_bytes();
    result.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    if (report != nullptr) {
        if (report->stop_trajectory.empty() ||
            report->stop_trajectory.back().samples != summary.count) {
            report->stop_trajectory.push_back(
                {summary.count, required, summary.successes});
        }
        report->value = result.estimate;
        report->samples = result.samples;
        report->successes = result.successes;
        report->strategy = result.strategy;
        report->criterion = result.criterion;
        report->seed = seed;
        report->workers = 1;
        report->terminals = terminal_histogram(result.terminals);
        // Stream 0 denotes the master stream (parallel workers use splits).
        report->worker_stats = {
            telemetry::WorkerStats{0, 0, result.samples, result.samples}};
        if (coverage) report->coverage = result.coverage;
        fill_run_status(report, result.status, result.stop_cause,
                        result.achieved_half_width, result.path_errors,
                        result.error_log);
    }
    return result;
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

std::vector<telemetry::CurvePoint> curve_points(const stat::CurveSummary& summary) {
    std::vector<telemetry::CurvePoint> out;
    out.reserve(summary.size());
    for (std::size_t i = 0; i < summary.size(); ++i) {
        out.push_back({summary.bounds()[i], summary.successes(i), summary.estimate(i)});
    }
    return out;
}

CurveResult estimate_curve(const eda::Network& net, const TimedReachability& property,
                           Strategy& strategy, const stat::StopCriterion& criterion,
                           const CurveOptions& curve, std::uint64_t seed,
                           const SimOptions& options, telemetry::RunReport* report) {
    validate_curve_request(property, curve);
    const auto start = std::chrono::steady_clock::now();
    // Paths only need to run to the largest requested bound; the hit time of
    // a path simulated to u_max decides every smaller bound at once.
    TimedReachability horizon = property;
    horizon.bound = curve.bounds.back();
    const bool coverage = options.coverage;
    std::optional<eda::ElementIndex> element_index;
    std::optional<CoverageShard> shard;
    SimOptions sim_options = options;
    if (coverage) {
        element_index.emplace(net.model());
        shard.emplace(*element_index);
        sim_options.coverage_shard = &*shard;
    }
    const ObserverGuard observe(strategy, coverage ? &*shard : nullptr);
    PathGenerator gen(net, horizon, strategy, sim_options);
    const Rng master(seed);
    stat::CurveSummary summary(curve.bounds);
    stat::BernoulliSummary last; // the largest bound; drives progress/trajectory
    CurveResult result;
    const std::uint64_t required = criterion.fixed_sample_count().value_or(0);
    std::uint64_t next_mark = 1; // stop-criterion trajectory at powers of two

    // Run hardening; curve runs already use per-path streams, so resume only
    // needs to restore the accepted state and continue at the cursor.
    const RunControlOptions& control = options.control;
    const bool tolerate = control.fault.kind == FaultPolicyKind::Tolerate;
    RunGovernor governor(control, start);
    std::uint64_t total_steps = 0;
    std::uint64_t path_index = 0;
    if (control.resume != nullptr) {
        const RunCheckpoint& ck = *control.resume;
        ck.validate(control.model_hash, seed, property.text, strategy.name(),
                    criterion.name(), curve.bounds);
        summary.restore(ck.cursor, ck.curve_tree);
        path_index = ck.cursor;
        last.count = ck.cursor;
        last.successes = ck.successes;
        total_steps = ck.total_steps;
        for (std::size_t i = 0; i < ck.terminal_tags.size() && i < kPathTerminalCount; ++i) {
            result.terminals[i] = ck.terminal_tags[i];
        }
        result.error_log = ck.error_log;
        result.path_errors = result.terminals[static_cast<std::size_t>(PathTerminal::Error)];
        while (next_mark <= ck.cursor) next_mark *= 2;
    }
    // Journal hooks mirror the parallel curve runner (one worker ring,
    // merged after the loop); see estimate() above.
    journal::Journal* jnl = options.journal;
    if (jnl != nullptr) jnl->begin_workers(1);
    const std::uint64_t journal_base = path_index;
    LiveRunMetrics live(options.metrics, control.budget);
    auto save_checkpoint = [&] {
        const std::size_t bytes =
            make_run_checkpoint(control, seed, property.text, strategy.name(),
                                criterion.name(), summary.count(), last.successes,
                                total_steps, result.terminals, result.error_log,
                                curve.bounds, summary.tree())
                .save(control.checkpoint_path);
        live.add_checkpoint(bytes);
        if (jnl != nullptr) {
            jnl->emit(journal::Level::Debug, "checkpoint", "checkpoint written",
                      {{"samples", summary.count()},
                       {"bytes", static_cast<std::uint64_t>(bytes)}});
        }
    };
    std::uint64_t next_checkpoint =
        control.checkpoint_every > 0 ? summary.count() + control.checkpoint_every : 0;

    const ProgressFn& progress = options.progress.callback;
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
                              ? options.trace_lane->intern("sim.estimate_curve")
                              : tracer::kNoName);

    while (!criterion.should_stop_curve(summary) &&
           !governor.should_stop(summary.count(), total_steps, result.path_errors)) {
        // Per-path RNG streams: path j simulates with split(seed, j)
        // whatever the worker count, so curve results never depend on it.
        Rng rng = master.split(path_index);
        PathOutcome out;
        if (tolerate) {
            try {
                out = gen.run(rng);
            } catch (const std::exception& e) {
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
        ++path_index;
        summary.add(out.satisfied, out.end_time);
        last.add(out.satisfied);
        live.add_samples(1);
        ++result.terminals[static_cast<std::size_t>(out.terminal)];
        if (out.terminal == PathTerminal::Error) ++result.path_errors;
        total_steps += out.steps;
        if (summary.count() == next_mark) {
            if (report != nullptr) {
                report->stop_trajectory.push_back(
                    {summary.count(), required, last.successes});
            }
            if (jnl != nullptr) {
                jnl->emit(journal::Level::Trace, "mark",
                          "stop-criterion trajectory mark",
                          {{"samples", summary.count()},
                           {"successes", last.successes}});
            }
            next_mark *= 2;
        }
        if (next_checkpoint != 0 && summary.count() >= next_checkpoint) {
            save_checkpoint();
            next_checkpoint += control.checkpoint_every;
        }
        if (progress || (live && summary.count() % kProgressCheckStride == 0)) {
            const auto now = std::chrono::steady_clock::now();
            if (std::chrono::duration<double>(now - last_progress).count() >=
                options.progress.min_interval_seconds) {
                const ProgressSnapshot snap = make_progress_snapshot(
                    summary.count(), last.successes, required, elapsed(),
                    progress_options);
                live.on_snapshot(snap);
                if (progress) progress(snap);
                last_progress = now;
            }
        }
    }
    if (progress || live) {
        const ProgressSnapshot snap = make_progress_snapshot(
            summary.count(), last.successes, required, elapsed(), progress_options);
        live.on_snapshot(snap);
        if (progress) progress(snap);
    }
    run_span.end();
    if (jnl != nullptr) {
        const std::uint64_t journal_accepted[] = {summary.count() - journal_base};
        jnl->merge_workers(journal_accepted, journal_base);
        jnl->emit(journal::Level::Info, "stop", governor.stop_cause(),
                  {{"status", std::string(sim::to_string(governor.status()))},
                   {"samples", summary.count()}});
    }

    if (coverage) {
        const CoverageShard* shard_ptr = &*shard;
        const std::uint64_t accepted = summary.count();
        result.coverage = merge_coverage({&shard_ptr, 1}, {&accepted, 1});
    }
    result.points = curve_points(summary);
    result.samples = summary.count();
    result.band = stat::to_string(curve.band);
    result.simultaneous_eps = stat::simultaneous_half_width(curve.band, curve.delta,
                                                            summary.size(), result.samples);
    result.strategy = strategy.name();
    result.criterion = criterion.name();
    result.status = governor.status();
    result.stop_cause = governor.stop_cause();
    // The curve's achieved guarantee is the simultaneous band half-width.
    result.achieved_half_width = result.simultaneous_eps;
    if (!control.checkpoint_path.empty()) save_checkpoint();
    result.peak_rss_bytes = peak_rss_bytes();
    result.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    if (report != nullptr) {
        if (report->stop_trajectory.empty() ||
            report->stop_trajectory.back().samples != result.samples) {
            report->stop_trajectory.push_back({result.samples, required, last.successes});
        }
        report->value = result.points.back().estimate;
        report->samples = result.samples;
        report->successes = last.successes;
        report->strategy = result.strategy;
        report->criterion = result.criterion;
        report->seed = seed;
        report->workers = 1;
        report->terminals = terminal_histogram(result.terminals);
        report->worker_stats = {
            telemetry::WorkerStats{0, 0, result.samples, result.samples}};
        report->curve = {result.band, result.simultaneous_eps, result.points};
        if (coverage) report->coverage = result.coverage;
        fill_run_status(report, result.status, result.stop_cause,
                        result.achieved_half_width, result.path_errors,
                        result.error_log);
    }
    return result;
}

CurveResult estimate_curve(const eda::Network& net, const TimedReachability& property,
                           StrategyKind strategy, const stat::StopCriterion& criterion,
                           const CurveOptions& curve, std::uint64_t seed,
                           const SimOptions& options, telemetry::RunReport* report) {
    const auto strat = make_strategy(strategy);
    return estimate_curve(net, property, *strat, criterion, curve, seed, options, report);
}

} // namespace slimsim::sim
