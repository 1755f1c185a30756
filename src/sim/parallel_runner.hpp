// Parallel Monte Carlo estimation (paper, Sec. III-C): the in-process venue
// (sim/executor.hpp) with k worker threads.
//
// k worker threads generate paths independently (worker i simulates with the
// RNG stream split(seed, i)); samples are consumed in *rounds* — one sample
// from every worker per round — via stat::SampleCollector, which removes the
// completion-order bias of naive parallel collection [21] and makes the
// result deterministic in (seed, worker count). bench_parallel's bias demo
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
/// supported in parallel runs). Worker i simulates with RNG stream
/// split(seed, i). When `report` is non-null, sampling statistics are
/// recorded: the terminal histogram and per-worker accepted counts are
/// computed over *accepted* samples and are deterministic in
/// (seed, workers); generated-path counts and collector high-water marks
/// land in the report's runtime section.
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

/// Parallel multi-bound curve estimation. Unlike estimate_parallel, RNG
/// streams are per *path*, not per worker: worker w of k simulates paths
/// j = w, w+k, w+2k, ... each with stream split(seed, j), and the collector
/// consumes at sample granularity in global path order (drain_ordered), so
/// the accepted set, the stop point, and hence every curve point are
/// byte-identical for every worker count — a strictly stronger guarantee
/// than estimate_parallel's per-fixed-k determinism. Witness capture is not
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
