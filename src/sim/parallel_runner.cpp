#include "sim/parallel_runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "sim/consumer.hpp"
#include "sim/coverage.hpp"

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
/// scalar run.
void validate_threaded(const TimedReachability& property, StrategyKind strategy,
                       const CurveOptions* curve, const ParallelOptions& options) {
    if (strategy == StrategyKind::Input) {
        throw Error("the input strategy cannot be used in parallel runs");
    }
    if (options.workers < 1) throw Error("worker count must be at least 1");
    if (curve != nullptr) validate_curve_request(property, *curve);
}

/// The threaded venue behind estimate_parallel() and
/// estimate_curve_parallel(): k worker threads producing samples for the
/// run consumer (sim/consumer.hpp); `curve` and `curve_summary` as in the
/// sequential venue (runner.cpp).
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

    // A curve's paths only need to run to its largest bound.
    TimedReachability horizon = property;
    if (curve != nullptr) horizon.bound = curve->bounds.back();
    const Rng master(seed);
    const std::size_t k = options.workers;
    stat::SampleCollector collector(k);
    collector.set_metrics(options.sim.metrics);
    RunConsumer consumer(property, to_string(strategy), criterion, curve, curve_summary, seed,
                         options.sim, k, &collector, report);
    const std::uint64_t base = consumer.base();
    std::atomic<bool> stop{false};

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

    std::vector<std::uint64_t> generated(k, 0);
    std::mutex error_mutex;
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
                    try {
                        out = gen.run(rng);
                    } catch (const std::exception& e) {
                        if (!tolerate) throw;
                        // Fault isolation: the throwing path becomes an
                        // Error-tagged unsatisfied sample; the consumer keeps
                        // its message only if the sample is accepted.
                        out = PathOutcome{false, PathTerminal::Error, 0.0, 0};
                        consumer.quarantine(w, local_generated, e.what());
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
                generated[w] = local_generated;
            } catch (...) {
                const std::lock_guard lock(error_mutex);
                if (!worker_error) worker_error = std::current_exception();
                stop.store(true);
            }
        });
    }

    // Per-path runs drain sample by sample in global path order, so the
    // accepted prefix — possibly ending mid-round — is the same for every
    // worker count; the others take whole rounds, deterministic in (seed, k).
    while (!stop.load(std::memory_order_relaxed) && !consumer.stopped()) {
        if (consumer.drain(per_path) == 0 && !consumer.stopped()) {
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    }
    stop.store(true);
    for (auto& t : threads) t.join();

    // A worker abort (FailFast) still finalizes the partial summary and the
    // report before rethrowing; only the witness replay, the coverage merge
    // and the final checkpoint are skipped.
    EstimationResult run;
    if (worker_error == nullptr) {
        const std::vector<std::uint64_t> accepted = consumer.accepted_per_worker();
        if (coverage) {
            std::vector<const CoverageShard*> shard_ptrs;
            shard_ptrs.reserve(shards.size());
            for (const auto& s : shards) shard_ptrs.push_back(s.get());
            run.coverage = merge_coverage(shard_ptrs, accepted);
        }
        if (witness_k > 0) {
            // Replayed on this thread with a fresh strategy instance of the
            // same kind (strategies are stateless).
            const auto replay_strat = make_strategy(strategy);
            run.witnesses = replay_run_witnesses(net, property, *replay_strat, options.sim,
                                                 witness_buffers, accepted);
        }
    } else {
        run.status = RunStatus::Degraded;
        run.stop_cause = "fail-fast worker abort";
    }
    run = consumer.finish(std::move(run), generated, worker_error == nullptr);
    if (worker_error) std::rethrow_exception(worker_error);
    return run;
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
