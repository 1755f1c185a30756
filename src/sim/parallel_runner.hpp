// Parallel Monte Carlo estimation (paper, Sec. III-C): the in-process venue
// (sim/executor.hpp) with k worker threads.
//
// Worker w of k simulates the global paths j = w, w+k, w+2k, ..., each with
// its own RNG stream Rng(seed).split(j), and hands the samples to a
// stat::SampleCollector. The run consumer (sim/consumer.hpp) takes them in
// global path order, which removes the completion-order bias of naive
// parallel collection [21] and makes the accepted prefix — and so the
// result — the same for every worker count. bench_parallel's bias demo
// contrasts this with first-come consumption. A worker's FailFast abort
// finalizes the partial report (status degraded) before it is rethrown.
#pragma once

#include "sim/runner.hpp"

namespace slimsim::sim {

struct ParallelOptions {
    std::size_t workers = 4;
    SimOptions sim;
    /// Optional execution tracer: one lane per worker ("worker N") plus a
    /// "collector" lane with round-boundary instant events. Worker lanes
    /// are created in worker order before the threads start, so lane ids
    /// are deterministic. sim.trace_lane is ignored in parallel runs (each
    /// worker gets its own lane).
    tracer::Tracer* tracer = nullptr;
};

/// Estimates P( <> [0,u] goal ) with k parallel workers. Each worker uses
/// its own Strategy instance of the given kind (the Input strategy is not
/// supported in parallel runs). Path j simulates with RNG stream
/// Rng(seed).split(j), so the result is the same for every worker count.
/// When `report` is non-null, sampling statistics are recorded: the terminal
/// histogram and per-worker accepted counts are computed over *accepted*
/// samples and are deterministic in (seed, workers); generated-path counts
/// and collector high-water marks land in the report's runtime section.
[[nodiscard]] EstimationResult estimate_parallel(const eda::Network& net,
                                                 const TimedReachability& property,
                                                 StrategyKind strategy,
                                                 const stat::StopCriterion& criterion,
                                                 std::uint64_t seed,
                                                 const ParallelOptions& options,
                                                 telemetry::RunReport* report);

/// Thin wrapper over the reporting overload (no report).
[[nodiscard]] EstimationResult estimate_parallel(const eda::Network& net,
                                                 const TimedReachability& property,
                                                 StrategyKind strategy,
                                                 const stat::StopCriterion& criterion,
                                                 std::uint64_t seed,
                                                 const ParallelOptions& options = {});

/// Parallel multi-bound curve estimation, with estimate_parallel's streams
/// and consumption: the accepted set, the stop point, and hence every curve
/// point are byte-identical for every worker count. Witness capture is not
/// supported in curve mode (sim.witness is ignored).
[[nodiscard]] CurveResult estimate_curve_parallel(const eda::Network& net,
                                                  const TimedReachability& property,
                                                  StrategyKind strategy,
                                                  const stat::StopCriterion& criterion,
                                                  const CurveOptions& curve,
                                                  std::uint64_t seed,
                                                  const ParallelOptions& options = {},
                                                  telemetry::RunReport* report = nullptr);

} // namespace slimsim::sim
