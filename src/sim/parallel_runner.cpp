#include "sim/parallel_runner.hpp"

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "sim/consumer.hpp"
#include "sim/coverage.hpp"
#include "sim/executor.hpp"
#include "support/block_pacer.hpp"

namespace slimsim::sim {

namespace {

/// A worker's unfinished block of samples, handed to the collector with one
/// push_block call and sized by a BlockPacer. Where a block ends never
/// changes which samples are accepted (stat/collector.hpp). A block
/// unfinished when the run stops is dropped with the rest of the overshoot.
class SampleBlock {
public:
    SampleBlock(stat::SampleCollector& collector, std::size_t worker)
        : collector_(collector), worker_(worker) {}

    void add(const stat::TaggedSample& sample) {
        samples_.push_back(sample);
        if (samples_.size() >= pacer_.size()) {
            pacer_.handed_off(samples_.size());
            collector_.push_block(worker_, samples_);
            samples_.clear();
        }
    }

private:
    stat::SampleCollector& collector_;
    std::size_t worker_;
    std::vector<stat::TaggedSample> samples_;
    BlockPacer pacer_;
};

/// Rejects requests the threaded loop cannot serve; `curve` is null for a
/// scalar run.
void validate_threaded(const TimedReachability& property, StrategyKind strategy,
                       const CurveOptions* curve, const ParallelOptions& options) {
    if (strategy == StrategyKind::Input) {
        throw Error("the input strategy cannot be used in parallel runs");
    }
    if (options.workers < 1) throw Error("worker count must be at least 1");
    if (curve != nullptr) validate_curve_request(property, *curve);
}

} // namespace

EstimationResult run_in_process(const eda::Network& net, const TimedReachability& property,
                                Strategy* inline_strategy, StrategyKind kind,
                                const stat::StopCriterion& criterion, const CurveOptions* curve,
                                stat::CurveSummary* curve_summary, std::uint64_t seed,
                                const ParallelOptions& options, telemetry::RunReport* report) {
    const bool inline_run = inline_strategy != nullptr;
    const std::size_t k = inline_run ? 1 : options.workers;
    const bool coverage = options.sim.coverage;
    // Curves, coverage and checkpoint/resume switch to per-path RNG streams
    // and sample-granular ordered draining: the accepted prefix (and so the
    // estimate, the profile and the checkpoint cursor) is then the same for
    // every worker count, and a resumed run continues the exact path
    // sequence the interrupted run would have produced.
    const bool per_path = curve != nullptr || coverage || options.sim.control.per_path_streams();
    const bool tolerate = options.sim.control.fault.kind == FaultPolicyKind::Tolerate;

    // A curve's paths only need to run to its largest bound; the hit time
    // of a path simulated to u_max decides every smaller bound at once.
    TimedReachability horizon = property;
    if (curve != nullptr) horizon.bound = curve->bounds.back();
    const Rng master(seed);
    std::optional<stat::SampleCollector> collector;
    if (!inline_run) {
        collector.emplace(k);
        collector->set_metrics(options.sim.metrics);
    }
    RunConsumer consumer(property, inline_run ? inline_strategy->name() : to_string(kind),
                         criterion, curve, curve_summary, seed, options.sim, k,
                         collector ? &*collector : nullptr, report);
    const std::uint64_t base = consumer.base();

    // One shard per producer; producer w records its paths in generation
    // order (its local path i is global path w + i*k), so merge_coverage
    // can walk the accepted prefix in global path order afterwards.
    std::optional<eda::ElementIndex> element_index;
    std::vector<std::unique_ptr<CoverageShard>> shards;
    if (coverage) {
        element_index.emplace(net.model());
        shards.reserve(k);
        for (std::size_t w = 0; w < k; ++w) {
            shards.push_back(std::make_unique<CoverageShard>(*element_index));
        }
    }

    // Lanes are created in worker order *before* the threads start, so lane
    // ids (the exported tid values) are deterministic in (seed, workers).
    std::vector<tracer::Lane*> lanes(k, nullptr);
    if (inline_run) {
        lanes[0] = options.sim.trace_lane;
    } else if (options.tracer != nullptr && options.tracer->enabled()) {
        for (std::size_t w = 0; w < k; ++w) {
            lanes[w] = options.tracer->lane("worker " + std::to_string(w));
        }
        collector->set_trace(options.tracer->lane("collector"));
    }

    // Witnesses are captured for scalar runs only.
    const std::size_t witness_k = curve != nullptr ? 0 : options.sim.witness.per_kind;
    std::vector<WitnessBuffer> witness_buffers(k, WitnessBuffer(witness_k));

    // Producer w: simulates its paths through one PathExecutor while
    // `running()` holds, counting them in `generated` and handing each
    // outcome to `emit`. Decision observation stays scoped to the loop: the
    // inline producer's witness replay reuses its strategy and must not
    // pollute the decision histograms.
    const auto produce = [&](std::size_t w, Strategy& strategy, Rng stream,
                             std::uint64_t& generated, auto running, auto emit) {
        const ObserverGuard observe(strategy, coverage ? shards[w].get() : nullptr);
        SimOptions sim_options = options.sim;
        sim_options.trace_lane = lanes[w];
        if (sim_options.metrics != nullptr) {
            sim_options.metrics_shard = w % sim_options.metrics->shards();
        }
        if (coverage) sim_options.coverage_shard = shards[w].get();
        const PathGenerator gen(net, horizon, strategy, sim_options);
        PathExecutor executor(gen, master, stream, per_path, base + w, k, tolerate,
                              witness_k > 0 ? &witness_buffers[w] : nullptr);
        while (running()) {
            const PathOutcome out = executor.run(generated);
            // Kept only if the sample is accepted.
            if (out.terminal == PathTerminal::Error) {
                consumer.quarantine(w, generated, executor.error().c_str());
            }
            ++generated;
            emit(out);
        }
    };

    // The two producer kinds differ only in what they hand produce(): the
    // inline producer continues the master stream Rng(seed) with the
    // caller's strategy (so Input and custom strategies work) on the
    // caller's trace lane, inside the run span; worker thread w continues
    // Rng(seed).split(w) with its own strategy of `kind` on lane "worker w".
    std::vector<std::uint64_t> generated(k, 0);
    std::exception_ptr failure;
    bool consumer_failed = false; // else a producer's FailFast fault
    if (inline_run) {
        const tracer::Span run_span(
            lanes[0], lanes[0] != nullptr ? lanes[0]->intern(curve != nullptr
                                                                 ? "sim.estimate_curve"
                                                                 : "sim.estimate")
                                          : tracer::kNoName);
        try {
            produce(0, *inline_strategy, master, generated[0],
                    [&] { return !consumer.stopped(); },
                    [&](const PathOutcome& out) {
                        try {
                            consumer.consume(out);
                        } catch (...) {
                            consumer_failed = true;
                            throw;
                        }
                    });
        } catch (...) {
            failure = std::current_exception();
        }
    } else {
        std::atomic<bool> stop{false};
        std::mutex error_mutex;
        std::vector<std::thread> threads;
        threads.reserve(k);
        for (std::size_t w = 0; w < k; ++w) {
            threads.emplace_back([&, w] {
                // Counted on this thread's stack: neighbouring counters in
                // `generated` would share a cache line.
                std::uint64_t local_generated = 0;
                try {
                    const auto strategy = make_strategy(kind);
                    SampleBlock block(*collector, w);
                    produce(w, *strategy, master.split(w), local_generated,
                            [&] { return !stop.load(std::memory_order_relaxed); },
                            [&](const PathOutcome& out) {
                                block.add(stat::TaggedSample{
                                    out.satisfied, static_cast<std::uint8_t>(out.terminal),
                                    out.end_time, out.steps});
                            });
                } catch (...) {
                    const std::lock_guard lock(error_mutex);
                    if (!failure) failure = std::current_exception();
                    stop.store(true);
                }
                generated[w] = local_generated;
            });
        }

        // Per-path runs drain sample by sample in global path order, so the
        // accepted prefix — possibly ending mid-round — is the same for
        // every worker count; the others take whole rounds, deterministic
        // in (seed, k).
        try {
            while (!stop.load(std::memory_order_relaxed) && !consumer.stopped()) {
                if (consumer.drain(per_path) == 0 && !consumer.stopped()) {
                    std::this_thread::sleep_for(std::chrono::microseconds(200));
                }
            }
        } catch (...) {
            // A consumer failure (an unwritable periodic checkpoint) ends the
            // run like a producer abort, as it does inline; the workers are
            // joined first.
            const std::lock_guard lock(error_mutex);
            if (!failure) {
                failure = std::current_exception();
                consumer_failed = true;
            }
        }
        stop.store(true);
        for (auto& t : threads) t.join();
    }

    // An abort (a producer's FailFast fault, or a consumer failure) still
    // finalizes the partial summary and the report before rethrowing; only
    // the witness replay, the coverage merge and the final checkpoint are
    // skipped.
    EstimationResult run;
    if (failure == nullptr) {
        const std::vector<std::uint64_t> accepted = consumer.accepted_per_worker();
        if (coverage) {
            std::vector<const CoverageShard*> shard_ptrs;
            shard_ptrs.reserve(shards.size());
            for (const auto& s : shards) shard_ptrs.push_back(s.get());
            run.coverage = merge_coverage(shard_ptrs, accepted);
        }
        if (witness_k > 0) {
            // Replayed on this thread, by the inline producer's strategy or a
            // fresh instance of the workers' kind (strategies are stateless).
            std::unique_ptr<Strategy> replay_owner;
            Strategy& replay = inline_run ? *inline_strategy
                                          : *(replay_owner = make_strategy(kind));
            run.witnesses = replay_run_witnesses(net, property, replay, options.sim,
                                                 witness_buffers, accepted);
        }
    } else {
        run.status = RunStatus::Degraded;
        run.stop_cause = consumer_failed ? "consumer failure" : "fail-fast worker abort";
    }
    run = consumer.finish(std::move(run), generated, failure == nullptr);
    if (failure) std::rethrow_exception(failure);
    return run;
}

EstimationResult estimate_parallel(const eda::Network& net,
                                   const TimedReachability& property, StrategyKind strategy,
                                   const stat::StopCriterion& criterion, std::uint64_t seed,
                                   const ParallelOptions& options,
                                   telemetry::RunReport* report) {
    validate_threaded(property, strategy, nullptr, options);
    return run_in_process(net, property, nullptr, strategy, criterion, nullptr, nullptr, seed,
                          options, report);
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
    return curve_result(run_in_process(net, property, nullptr, strategy, criterion, &curve,
                                       &summary, seed, options, report),
                        curve, summary);
}

} // namespace slimsim::sim
