// Internal to sim/ and sim/supervise/: the producing half of every
// estimation venue (paper, Sec. III-C); the deciding half is the
// RunConsumer (sim/consumer.hpp). One PathExecutor per producer — the
// inline producer and the worker threads of run_in_process(), and the
// supervised worker process — turns "local path i" into a PathOutcome and
// owns the rules they share:
//   * streams: local path i of producer w of k is global path
//     j = base + w + i*k and simulates with Rng(seed).split(j), so every
//     path's draws are fixed by (seed, j) alone; the inline producer is
//     the case k = 1;
//   * fault isolation: under FaultPolicy::Tolerate a throwing path becomes
//     an Error-tagged unsatisfied outcome and its message is kept;
//   * witnesses: the pre-path RNG snapshot, taken only while the producer's
//     witness buffer has room.
#pragma once

#include "sim/parallel_runner.hpp"

namespace slimsim::sim {

class PathExecutor {
public:
    /// `gen` and `master` (Rng(seed)) must outlive the executor; local path
    /// i is global path first + i*stride; `witnesses` may be null (no
    /// capture).
    PathExecutor(const PathGenerator& gen, const Rng& master, std::uint64_t first,
                 std::uint64_t stride, bool tolerate, WitnessBuffer* witnesses)
        : gen_(gen), master_(master), first_(first), stride_(stride), tolerate_(tolerate),
          witnesses_(witnesses) {}

    /// Simulates local path `local`; call in local order. Under FailFast a
    /// throwing path's exception propagates.
    [[nodiscard]] PathOutcome run(std::uint64_t local) {
        rng_ = master_.split(first_ + local * stride_);
        const bool snapshot = witnesses_ != nullptr && !witnesses_->saturated();
        if (snapshot) pre_path_ = rng_;
        PathOutcome out;
        try {
            out = gen_.run(rng_);
        } catch (const std::exception& e) {
            if (!tolerate_) throw;
            error_ = e.what();
            // Never a witness: its replay would rethrow the fault.
            return PathOutcome{false, PathTerminal::Error, 0.0, 0};
        }
        if (snapshot) witnesses_->offer(local, pre_path_, out);
        return out;
    }

    /// The message of the last Error-tagged outcome.
    [[nodiscard]] const std::string& error() const { return error_; }

private:
    const PathGenerator& gen_;
    const Rng& master_;
    Rng rng_{0};
    std::uint64_t first_;
    std::uint64_t stride_;
    bool tolerate_;
    WitnessBuffer* witnesses_;
    Rng pre_path_{0};
    std::string error_;
};

/// The in-process venue behind estimate(), estimate_curve(),
/// estimate_parallel() and estimate_curve_parallel(). With `inline_strategy`
/// set, one producer runs inline on the calling thread and hands each path
/// to RunConsumer::consume; otherwise options.workers threads, each with its
/// own strategy of `kind`, feed a SampleCollector the calling thread drains
/// through RunConsumer::drain. Both give the same result for every worker
/// count.
/// `kind` is unused inline. `curve` and `curve_summary` are null for a
/// scalar run. An abort — a producer's FailFast fault, or the consumer
/// failing to write a periodic checkpoint — stops and joins every producer
/// and finalizes the partial result and the report (status degraded) before
/// the exception is rethrown.
[[nodiscard]] EstimationResult run_in_process(
    const eda::Network& net, const TimedReachability& property, Strategy* inline_strategy,
    StrategyKind kind, const stat::StopCriterion& criterion, const CurveOptions* curve,
    stat::CurveSummary* curve_summary, std::uint64_t seed, const ParallelOptions& options,
    telemetry::RunReport* report);

} // namespace slimsim::sim
