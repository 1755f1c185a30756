#include "sim/parallel_runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "sim/coverage.hpp"
#include "sim/live_metrics.hpp"
#include "stat/collector.hpp"
#include "support/memprobe.hpp"

namespace slimsim::sim {

namespace {

/// A worker's unfinished block of samples, handed to the collector with one
/// push_block call. Blocks are sized by time, not count: the worker reads
/// the clock once per hand-off and steers the next block toward kTargetNs of
/// path simulation (growing at most 2x per hand-off, shrinking at once), so
/// ~0.4 us paths travel in hundreds per lock acquisition while ~30 us paths
/// still leave one or a few at a time. Where a block ends never changes
/// which samples are accepted (stat/collector.hpp). A block unfinished when
/// the run stops is dropped with the rest of the overshoot.
class SampleBlock {
public:
    SampleBlock(stat::SampleCollector& collector, std::size_t worker)
        : collector_(collector), worker_(worker), last_(Clock::now()) {}

    void add(const stat::TaggedSample& sample) {
        samples_.push_back(sample);
        if (samples_.size() >= size_) hand_off();
    }

private:
    using Clock = std::chrono::steady_clock;
    static constexpr std::int64_t kTargetNs = 100'000;
    static constexpr std::size_t kMaxSize = 1024;

    void hand_off() {
        const auto now = Clock::now();
        const std::int64_t ns = std::max<std::int64_t>(
            1, std::chrono::duration_cast<std::chrono::nanoseconds>(now - last_).count());
        collector_.push_block(worker_, samples_);
        const std::size_t n = samples_.size();
        const auto ideal = static_cast<std::size_t>(static_cast<std::int64_t>(n) * kTargetNs / ns);
        size_ = std::clamp<std::size_t>(ideal, 1, std::min(kMaxSize, 2 * n));
        samples_.clear();
        last_ = now;
    }

    stat::SampleCollector& collector_;
    std::size_t worker_;
    std::vector<stat::TaggedSample> samples_;
    std::size_t size_ = 1;
    Clock::time_point last_;
};

/// Rejects requests the threaded loop cannot serve; `curve` is null for a
/// scalar run. Curve runs ignore ParallelOptions::collection.
void validate_threaded(const TimedReachability& property, StrategyKind strategy,
                       const CurveOptions* curve, const ParallelOptions& options) {
    if (strategy == StrategyKind::Input) {
        throw Error("the input strategy cannot be used in parallel runs");
    }
    if (options.workers < 1) throw Error("worker count must be at least 1");
    if (curve != nullptr) {
        validate_curve_request(property, *curve);
        return;
    }
    if (options.sim.coverage && options.collection != CollectionMode::RoundRobin) {
        throw Error("coverage profiling requires round-robin collection");
    }
    if (options.sim.control.per_path_streams() &&
        options.collection != CollectionMode::RoundRobin) {
        throw Error("checkpoint/resume requires round-robin collection");
    }
}

/// The threaded sampling loop behind estimate_parallel() and
/// estimate_curve_parallel(); `curve`, `curve_summary` and `last` as in the
/// sequential loop (runner.cpp).
EstimationResult run_threaded(const eda::Network& net, const TimedReachability& property,
                              StrategyKind strategy, const stat::StopCriterion& criterion,
                              const CurveOptions* curve, stat::CurveSummary* curve_summary,
                              std::uint64_t seed, const ParallelOptions& options,
                              telemetry::RunReport* report) {
    const bool coverage = options.sim.coverage;
    const RunControlOptions& control = options.sim.control;
    // Curves, coverage and checkpoint/resume switch to per-path RNG streams
    // and sample-granular ordered draining: the accepted prefix (and so the
    // estimate, the profile and the checkpoint cursor) is then the same for
    // every worker count.
    const bool per_path = curve != nullptr || coverage || control.per_path_streams();
    const bool tolerate = control.fault.kind == FaultPolicyKind::Tolerate;

    const auto start = std::chrono::steady_clock::now();
    // A curve's paths only need to run to its largest bound.
    TimedReachability horizon = property;
    if (curve != nullptr) horizon.bound = curve->bounds.back();
    const Rng master(seed);
    const std::size_t k = options.workers;
    stat::SampleCollector collector(k);
    collector.set_metrics(options.sim.metrics);
    std::atomic<bool> stop{false};

    stat::BernoulliSummary last;
    // Terminal counts over *accepted* samples: deterministic in (seed, k)
    // under round-robin collection, unlike counts over generated paths.
    std::vector<std::uint64_t> terminal_tags;
    std::uint64_t total_steps = 0;
    std::uint64_t base = 0; // resumed global path cursor
    std::vector<std::string> resumed_log;
    if (control.resume != nullptr) {
        const RunCheckpoint& ck = *control.resume;
        ck.validate(control.model_hash, seed, property.text, to_string(strategy),
                    criterion.name(), curve != nullptr ? curve->bounds : std::vector<double>{});
        base = ck.cursor;
        if (curve_summary != nullptr) curve_summary->restore(ck.cursor, ck.curve_tree);
        last.count = ck.cursor;
        last.successes = ck.successes;
        total_steps = ck.total_steps;
        terminal_tags = ck.terminal_tags;
        resumed_log = ck.error_log;
    }
    RunGovernor governor(control, start);
    // Live metrics: workers only touch their own per-shard counter cells;
    // gauges/round counters are updated from this consuming thread.
    LiveRunMetrics live(options.sim.metrics, control.budget);
    // Journal: workers write quarantines into their own rings (merged into
    // global path order after join); serial events — marks, checkpoints,
    // the stop record — fire from this consuming thread only.
    journal::Journal* jnl = options.sim.journal;
    if (jnl != nullptr) jnl->begin_workers(k);

    // One shard per worker; worker w records its paths in generation order
    // (its local path i is global path w + i*k), so merge_coverage can walk
    // the accepted prefix in global path order after the threads join.
    std::optional<eda::ElementIndex> element_index;
    std::vector<std::unique_ptr<CoverageShard>> shards;
    if (coverage) {
        element_index.emplace(net.model());
        shards.reserve(k);
        for (std::size_t w = 0; w < k; ++w) {
            shards.push_back(std::make_unique<CoverageShard>(*element_index));
        }
    }

    std::mutex merge_mutex;
    std::vector<std::uint64_t> generated(k, 0);
    std::vector<WorkerFaults> worker_faults(k);
    std::exception_ptr worker_error;

    // Lanes are created in worker order *before* the threads start, so lane
    // ids (the exported tid values) are deterministic in (seed, workers).
    std::vector<tracer::Lane*> lanes(k, nullptr);
    if (options.tracer != nullptr && options.tracer->enabled()) {
        for (std::size_t w = 0; w < k; ++w) {
            lanes[w] = options.tracer->lane("worker " + std::to_string(w));
        }
        collector.set_trace(options.tracer->lane("collector"));
    }

    // Witnesses are captured for scalar runs only.
    const std::size_t witness_k = curve != nullptr ? 0 : options.sim.witness.per_kind;
    std::vector<WitnessBuffer> witness_buffers;
    witness_buffers.reserve(k);
    for (std::size_t w = 0; w < k; ++w) {
        witness_buffers.emplace_back(witness_k);
    }

    std::vector<std::thread> threads;
    threads.reserve(k);
    for (std::size_t w = 0; w < k; ++w) {
        threads.emplace_back([&, w] {
            try {
                Rng rng = master.split(w);
                const auto strat = make_strategy(strategy);
                SimOptions sim_options = options.sim;
                sim_options.trace_lane = lanes[w];
                if (sim_options.metrics != nullptr) {
                    sim_options.metrics_shard = w % sim_options.metrics->shards();
                }
                if (coverage) {
                    sim_options.coverage_shard = shards[w].get();
                    strat->set_observer(shards[w].get());
                }
                const PathGenerator gen(net, horizon, *strat, sim_options);
                SampleBlock block(collector, w);
                WitnessBuffer& witnesses = witness_buffers[w];
                const bool capture = witnesses.active();
                Rng pre_path(0);
                std::uint64_t local_generated = 0;
                while (!stop.load(std::memory_order_relaxed)) {
                    // With per-path streams worker w owns the global path
                    // indices base+w, base+w+k, ... (base = resume cursor)
                    // and path j simulates with split(j), so sample r of
                    // worker w is the same path for every worker count —
                    // and for every interruption point.
                    if (per_path) rng = master.split(base + w + local_generated * k);
                    if (capture && !witnesses.saturated()) pre_path = rng;
                    PathOutcome out;
                    if (tolerate) {
                        try {
                            out = gen.run(rng);
                        } catch (const std::exception& e) {
                            // Fault isolation: the throwing path becomes an
                            // Error-tagged unsatisfied sample; the message is
                            // quarantined with its local index so the
                            // consumer can filter to accepted samples.
                            out = PathOutcome{false, PathTerminal::Error, 0.0, 0};
                            live.add_quarantined();
                            if (jnl != nullptr) {
                                jnl->worker(w).emit(journal::Level::Debug,
                                                    local_generated, "quarantine",
                                                    e.what());
                            }
                            std::lock_guard lock(merge_mutex);
                            if (worker_faults[w].size() < kMaxQuarantinedErrors) {
                                worker_faults[w].emplace_back(local_generated, e.what());
                            }
                        }
                    } else {
                        out = gen.run(rng);
                    }
                    // Error outcomes never become witnesses: replay would
                    // rethrow the fault.
                    if (capture && out.terminal != PathTerminal::Error) {
                        witnesses.offer(local_generated, pre_path, out);
                    }
                    ++local_generated;
                    block.add(stat::TaggedSample{out.satisfied,
                                                 static_cast<std::uint8_t>(out.terminal),
                                                 out.end_time, out.steps});
                }
                std::lock_guard lock(merge_mutex);
                generated[w] = local_generated;
            } catch (...) {
                std::lock_guard lock(merge_mutex);
                if (!worker_error) worker_error = std::current_exception();
                stop.store(true);
            }
        });
    }

    const std::uint64_t required = criterion.fixed_sample_count().value_or(0);
    std::uint64_t next_mark = 1;
    while (next_mark <= base) next_mark *= 2;
    auto save_checkpoint = [&] {
        // The consuming thread owns the summaries and terminal_tags;
        // accepted counts and fault lists are read under their own locks.
        const auto accepted_now = collector.consumed_per_worker();
        std::vector<std::string> log;
        {
            std::lock_guard lock(merge_mutex);
            log = merge_fault_log(resumed_log, worker_faults, accepted_now, base, k);
        }
        const std::size_t bytes =
            make_run_checkpoint(control, seed, property.text, to_string(strategy),
                                criterion.name(), last, total_steps,
                                terminal_array(terminal_tags), log, curve_summary)
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
    // Progress callbacks fire from this consuming thread only, so they can
    // never perturb the deterministic (seed, workers) sample order.
    const ProgressFn& progress = options.sim.progress.callback;
    // ETA snapshots account for active budget caps (sim/observe.hpp).
    ProgressOptions progress_options = options.sim.progress;
    progress_options.budget_max_seconds = control.budget.max_wall_seconds;
    progress_options.budget_max_samples = control.budget.max_samples;
    auto last_progress = start;
    auto elapsed = [&] {
        return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    };
    // Trajectory marks at the first accepted count >= each power of two:
    // taken from the drain predicates below after every accepted sample
    // (per-path streams: the exact power-of-two counts a sequential run
    // hits, at any k) or every round (round-robin: deterministic in
    // (seed, k)), so the trajectory and the diagnostics and journal derived
    // from it never depend on how many rounds one drain call takes.
    auto mark_trajectory = [&] {
        if (last.count < next_mark) return;
        if (report != nullptr) {
            report->stop_trajectory.push_back({last.count, required, last.successes});
        }
        if (jnl != nullptr) {
            jnl->emit(journal::Level::Trace, "mark", "stop-criterion trajectory mark",
                      {{"samples", last.count}, {"successes", last.successes}});
        }
        while (next_mark <= last.count) next_mark *= 2;
    };
    auto criterion_met = [&] {
        return curve_summary != nullptr ? criterion.should_stop_curve(*curve_summary)
                                        : criterion.should_stop(last);
    };
    // The criterion is consulted before the governor so a budget landing on
    // the convergence sample still reports Converged. Both run under the
    // collector mutex and must not call back into the collector
    // (steps/tags are accumulators the drain updates before done() runs).
    const std::function<bool()> done = [&] {
        mark_trajectory();
        return criterion_met() ||
               governor.should_stop(last.count, total_steps,
                                    tag_count(terminal_tags, PathTerminal::Error));
    };
    while (!stop.load(std::memory_order_relaxed)) {
        std::size_t consumed = 0;
        if (per_path) {
            // Sample-granular ordered draining: with per-path streams the
            // accepted prefix — possibly ending mid-round — is the same for
            // every worker count.
            consumed = collector.drain_ordered(last, curve_summary, &terminal_tags, done,
                                               &total_steps);
        } else if (options.collection == CollectionMode::RoundRobin) {
            // Every complete round in one call, stopping after the exact
            // round where done() turns true: the accepted sample set is the
            // first R rounds, deterministic in (seed, k).
            consumed = collector.drain_rounds(last, &terminal_tags, done, &total_steps);
        } else {
            // First-come draining has no per-sample hook; the mark lands at
            // whatever count the drain reached (not deterministic — neither
            // is this collection mode).
            consumed = collector.drain_unordered(last, &terminal_tags, &total_steps);
            if (consumed > 0) mark_trajectory();
        }
        if (consumed > 0) {
            live.add_samples(consumed);
            live.sync_rounds(collector.stats().rounds);
        }
        if ((progress || live) && consumed > 0) {
            const auto now = std::chrono::steady_clock::now();
            if (std::chrono::duration<double>(now - last_progress).count() >=
                options.sim.progress.min_interval_seconds) {
                const ProgressSnapshot snap = make_progress_snapshot(
                    last.count, last.successes, required, elapsed(), progress_options);
                live.on_snapshot(snap);
                if (progress) progress(snap);
                last_progress = now;
            }
        }
        if (consumed > 0 && criterion_met()) {
            stop.store(true);
            break;
        }
        if (governor.should_stop(last.count, total_steps,
                                 tag_count(terminal_tags, PathTerminal::Error))) {
            stop.store(true);
            break;
        }
        if (next_checkpoint != 0 && last.count >= next_checkpoint) {
            save_checkpoint();
            while (next_checkpoint <= last.count) {
                next_checkpoint += control.checkpoint_every;
            }
        }
        if (consumed == 0) std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    for (auto& t : threads) t.join();
    std::exception_ptr pending_error;
    {
        std::lock_guard lock(merge_mutex);
        pending_error = worker_error;
    }
    // The partial summary is still valuable when a worker aborted the run
    // (FailFast): emit the final progress snapshot and finalize the report
    // before rethrowing — only witness replay, coverage merge and the final
    // checkpoint are skipped.
    if (progress || live) {
        const ProgressSnapshot snap = make_progress_snapshot(
            last.count, last.successes, required, elapsed(), progress_options);
        live.on_snapshot(snap);
        if (progress) progress(snap);
    }
    if (jnl != nullptr) {
        jnl->merge_workers(collector.consumed_per_worker(), base);
        jnl->emit(journal::Level::Info, "stop", governor.stop_cause(),
                  {{"status", std::string(sim::to_string(governor.status()))},
                   {"samples", last.count}});
    }

    EstimationResult result;
    result.estimate = last.mean();
    result.samples = last.count;
    result.successes = last.successes;
    result.strategy = to_string(strategy);
    result.criterion = criterion.name();
    result.terminals = terminal_array(terminal_tags);
    result.status = governor.status();
    result.stop_cause = governor.stop_cause();
    // A curve's achieved guarantee is the simultaneous band half-width.
    result.achieved_half_width =
        curve != nullptr ? stat::simultaneous_half_width(curve->band, curve->delta,
                                                         curve_summary->size(), last.count)
                         : criterion.achieved_half_width(last);
    result.path_errors = tag_count(terminal_tags, PathTerminal::Error);

    const std::vector<std::uint64_t> accepted = collector.consumed_per_worker();
    {
        std::lock_guard lock(merge_mutex);
        result.error_log = merge_fault_log(resumed_log, worker_faults, accepted, base, k);
    }
    if (pending_error == nullptr) {
        if (coverage) {
            std::vector<const CoverageShard*> shard_ptrs;
            shard_ptrs.reserve(shards.size());
            for (const auto& s : shards) shard_ptrs.push_back(s.get());
            result.coverage = merge_coverage(shard_ptrs, accepted);
        }
        if (witness_k > 0) {
            // Replay the selected paths on this thread with a fresh strategy
            // instance of the same kind (strategies are stateless) and with
            // instruments stripped, so replay does not double-count telemetry.
            SimOptions replay_options = options.sim;
            replay_options.trace_lane = nullptr;
            replay_options.coverage = false;
            replay_options.coverage_shard = nullptr;
            replay_options.metrics = nullptr;
            replay_options.journal = nullptr;
            const auto replay_strat = make_strategy(strategy);
            const PathGenerator replay_gen(net, property, *replay_strat, replay_options);
            const auto selected = select_witness_paths(witness_buffers, accepted, witness_k);
            result.witnesses =
                replay_witnesses(replay_gen, selected, options.sim.witness.max_bytes);
        }
        if (!control.checkpoint_path.empty()) save_checkpoint();
    } else {
        result.status = RunStatus::Degraded;
        result.stop_cause = "fail-fast worker abort";
    }
    result.peak_rss_bytes = peak_rss_bytes();
    result.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

    fill_report_common(report, result, curve, curve_summary, required, seed, generated,
                       accepted);
    if (report != nullptr) {
        report->collector = collector.stats();
        if (coverage && pending_error == nullptr) report->coverage = result.coverage;
    }
    if (pending_error) std::rethrow_exception(pending_error);
    return result;
}

} // namespace

EstimationResult estimate_parallel(const eda::Network& net,
                                   const TimedReachability& property, StrategyKind strategy,
                                   const stat::StopCriterion& criterion, std::uint64_t seed,
                                   const ParallelOptions& options,
                                   telemetry::RunReport* report) {
    validate_threaded(property, strategy, nullptr, options);
    return run_threaded(net, property, strategy, criterion, nullptr, nullptr, seed, options,
                        report);
}

EstimationResult estimate_parallel(const eda::Network& net,
                                   const TimedReachability& property, StrategyKind strategy,
                                   const stat::StopCriterion& criterion, std::uint64_t seed,
                                   const ParallelOptions& options) {
    return estimate_parallel(net, property, strategy, criterion, seed, options, nullptr);
}

CurveResult estimate_curve_parallel(const eda::Network& net,
                                    const TimedReachability& property,
                                    StrategyKind strategy,
                                    const stat::StopCriterion& criterion,
                                    const CurveOptions& curve, std::uint64_t seed,
                                    const ParallelOptions& options,
                                    telemetry::RunReport* report) {
    validate_threaded(property, strategy, &curve, options);
    stat::CurveSummary summary(curve.bounds);
    return curve_result(run_threaded(net, property, strategy, criterion, &curve, &summary,
                                     seed, options, report),
                        curve, summary);
}

} // namespace slimsim::sim
