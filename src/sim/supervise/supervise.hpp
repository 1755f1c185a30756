// Process-isolated worker supervision (docs/supervision.md).
//
// estimate_supervised() runs an estimation campaign across N worker
// *subprocesses* instead of threads: each worker is a re-exec of this
// binary in --worker-mode, speaking SLIMWIRE v1 (sim/supervise/wire.hpp)
// over a socketpair. Worker slot w of k owns the global path indices
// base + w, base + w + k, ... and simulates path j with the relocatable
// per-path RNG stream Rng(seed).split(j) — so when a worker crashes,
// stalls past its heartbeat deadline, or sends a corrupt frame, the
// coordinator kills it and hands the *unacknowledged* tail of its index
// set to a replacement that regenerates exactly the same samples. Samples
// are taken from a SampleCollector in global path order by the run consumer,
// so the final estimate, terminal histogram and report are byte-identical
// to a single-process run at every (seed, process count, crash schedule).
//
// Failure handling is bounded: each slot gets worker_retries restarts with
// exponential backoff; when a slot exhausts its retries the run stops with
// RunStatus::Degraded and the partial result — never an exception. A
// worker reporting a *deterministic* error (model failure under
// FaultPolicy::FailFast) aborts the whole run like the in-process runners.
//
// The deterministic fault-injection surface (--inject / FaultInjection)
// exists so all of the above is testable in CI: injections key on global
// path indices, so the failure schedule — and therefore the restart count,
// journal events and supervisor metrics — is exact, not probabilistic.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/runner.hpp"

namespace slimsim::sim::supervise {

/// A deterministic fault to inject into the worker owning the given path.
enum class InjectKind : std::uint8_t {
    WorkerCrash, // _exit before simulating the path
    WorkerStall, // stop sending frames before the path (heartbeat expires)
    FrameCorrupt, // send the path's sample in a checksum-corrupted frame
};

[[nodiscard]] std::string to_string(InjectKind kind);

struct FaultInjection {
    InjectKind kind = InjectKind::WorkerCrash;
    /// Global path index the fault triggers at (the worker owning this path
    /// fails there; the replacement regenerates it).
    std::uint64_t path = 0;
};

/// Parses "worker-crash@PATH" | "worker-stall@PATH" | "frame-corrupt@PATH";
/// throws Error naming --inject on malformed specs.
[[nodiscard]] FaultInjection parse_injection(const std::string& spec);

struct SuperviseOptions {
    /// Worker subprocesses (>= 1). Results are byte-identical across
    /// process counts: supervised runs always use per-path RNG streams.
    std::size_t processes = 1;
    /// A worker with no frame activity for this long is declared stalled,
    /// killed and restarted. Must exceed the longest single-path wall time.
    double worker_timeout_seconds = 10.0;
    /// Restarts allowed per worker slot before the run degrades.
    std::size_t worker_retries = 3;
    /// Restart backoff: initial delay, doubled per restart of the slot,
    /// capped at the max.
    double backoff_initial_seconds = 0.05;
    double backoff_max_seconds = 2.0;
    /// Executable to re-exec as --worker-mode; empty = /proc/self/exe.
    std::string worker_exe;
    /// SLIM model file the workers load; its CompiledModel::content_hash()
    /// is verified against the coordinator's before any path is simulated.
    std::string model_path;
    /// Deterministic fault schedule (tests/CI chaos job).
    std::vector<FaultInjection> injections;
    /// Simulation + hardening options, exactly as for the in-process
    /// runners. Witness capture, coverage and tracing are not supported in
    /// supervised mode (the CLI and API reject those combinations).
    SimOptions sim;
};

/// Scalar supervised estimation; mirrors estimate_parallel with
/// deterministic per-path streams.
[[nodiscard]] EstimationResult estimate_supervised(const eda::Network& net,
                                                   const TimedReachability& property,
                                                   StrategyKind strategy,
                                                   const stat::StopCriterion& criterion,
                                                   std::uint64_t seed,
                                                   const SuperviseOptions& options,
                                                   telemetry::RunReport* report = nullptr);

/// Multi-bound curve estimation across worker subprocesses; mirrors
/// estimate_curve_parallel.
[[nodiscard]] CurveResult estimate_curve_supervised(const eda::Network& net,
                                                    const TimedReachability& property,
                                                    StrategyKind strategy,
                                                    const stat::StopCriterion& criterion,
                                                    const CurveOptions& curve,
                                                    std::uint64_t seed,
                                                    const SuperviseOptions& options,
                                                    telemetry::RunReport* report = nullptr);

/// Worker-subprocess entry point: speaks SLIMWIRE v1 on `fd` (HELLO, then
/// SETUP, then an unbounded stream of SAMPLES/HEARTBEAT frames until
/// killed). The CLI dispatches here when invoked as `--worker-mode FD`
/// before parsing anything else. Returns the process exit code.
int run_worker_mode(int fd);

} // namespace slimsim::sim::supervise
