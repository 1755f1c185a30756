// The unified analysis surface: one request/result pair and one entry point
// for every analysis mode the engine offers — quantitative estimation
// (sequential or parallel), qualitative SPRT hypothesis testing, and the
// exhaustive CTMC flow. Mirrors the uniform query interface of UPPAAL-SMC:
// callers build an AnalysisRequest, call run_analysis(), and get an
// AnalysisResult carrying both the mode-specific result struct and a
// structured telemetry::RunReport (rendered as versioned JSON by the CLI's
// --json flag).
//
// The legacy entry points (sim::estimate, sim::estimate_parallel,
// sim::test_hypothesis, ctmc::run_ctmc_flow) remain available as the
// underlying engines; run_analysis is the surface new code and the CLI use.
#pragma once

#include <functional>

#include "ctmc/flow.hpp"
#include "rare/splitting.hpp"
#include "sim/hypothesis.hpp"
#include "sim/parallel_runner.hpp"
#include "sim/supervise/supervise.hpp"
#include "support/metrics.hpp"

namespace slimsim {

/// Embedded HTTP exporter options (docs/observability.md): while the
/// analysis runs, a loopback server serves /metrics (Prometheus text from
/// the live metrics registry), /status (JSON: run identity, config digest,
/// latest progress snapshot) and /healthz. The server starts before the
/// engine dispatch and shuts down when run_analysis returns — on run end,
/// error, or the SIGINT path's normal unwind.
struct ServeOptions {
    bool enabled = false;
    /// Loopback TCP port; 0 binds an ephemeral port (the CLI prints it to
    /// stderr via on_bound).
    std::uint16_t port = 0;
    /// Invoked once with the bound port before sampling starts.
    std::function<void(std::uint16_t)> on_bound;
};

enum class AnalysisMode : std::uint8_t {
    Estimate,          // sequential Monte Carlo estimation
    EstimateParallel,  // round-based parallel Monte Carlo estimation
    HypothesisTest,    // Wald SPRT: is P >= threshold?
    CtmcFlow,          // exhaustive: state space -> CTMC -> uniformization
    EstimateSplitting, // rare events: fixed importance splitting
};

[[nodiscard]] std::string to_string(AnalysisMode mode);

/// One analysis query. Mode-specific fields are ignored by other modes.
struct AnalysisRequest {
    AnalysisMode mode = AnalysisMode::Estimate;

    /// The path property (sim::make_reachability and friends). The CTMC
    /// flow requires kind == Reach with lo == 0.
    sim::PathFormula property;

    /// Label recorded in the run report (the CLI passes the model path).
    std::string model_label = "<model>";

    // Simulation-based modes.
    sim::StrategyKind strategy = sim::StrategyKind::Progressive;
    stat::CriterionKind criterion = stat::CriterionKind::ChernoffHoeffding;
    double delta = 0.05; // 1 - confidence
    double eps = 0.01;   // error bound
    std::uint64_t seed = 1;
    std::size_t workers = 1; // threads: EstimateParallel, EstimateSplitting, HypothesisTest
    /// Per-path simulation options. `sim.control` carries the run-hardening
    /// surface (docs/robustness.md): budgets, fault policy, interrupt flag
    /// and checkpoint/resume. Hardening is rejected for CtmcFlow; resume
    /// cannot be combined with coverage or witness capture.
    /// Budget-exhausted or interrupted runs return a *partial* result whose
    /// status/stop_cause/achieved_half_width say how far they got — they do
    /// not throw. The budget is also what caps a HypothesisTest: SPRT has no
    /// sample cap of its own, and a test stopped by a budget is Inconclusive.
    sim::SimOptions sim;

    /// Multi-bound curve estimation (Estimate / EstimateParallel): when
    /// non-empty, the engine estimates P( <> [0,u] goal ) for every bound of
    /// this strictly ascending grid from ONE shared path set — each path
    /// runs to the largest bound and its first goal-hit time decides every
    /// bound at once. Bounds must lie in (0, property.bound]; requires a
    /// Reach property with lo == 0. Results land in AnalysisResult::curve
    /// and the report's "curve" section; the headline value is the largest
    /// bound's estimate. The stop criterion is built with
    /// stat::per_bound_delta(curve_band, delta, K) so the whole curve
    /// carries simultaneous 1-delta confidence. Per-path RNG streams make
    /// curve results byte-identical across worker counts. Witness capture is
    /// not supported in curve mode.
    std::vector<double> curve_bounds;
    stat::BandKind curve_band = stat::BandKind::DKW;

    // HypothesisTest: stat::Sprt(threshold, indifference, delta) is the stop
    // criterion of the estimation venues; curve_bounds are ignored.
    double threshold = 0.5;
    double indifference = 0.01;

    // CtmcFlow.
    ctmc::FlowOptions flow;

    /// EstimateSplitting (docs/rare-events.md): the level function — either
    /// an expression over data elements (splitting.level, resolved via
    /// rare::make_level_function) or automatic placement (splitting.auto_
    /// levels: a pilot run derives levels from the error-state profile) —
    /// plus the splitting factor and root count. Root trees merge in global
    /// root order, so splitting results are byte-identical for every
    /// `workers` count at a fixed seed. Curve bounds, witness capture and
    /// checkpoint/resume are rejected in this mode; budgets, SIGINT draining
    /// and the fault policy apply through `sim.control` like every
    /// estimation mode.
    struct SplittingQuery {
        std::string level;       // level expression text ("" with auto_levels)
        bool auto_levels = false;
        std::size_t factor = 8;
        std::size_t base_runs = 4096;
        std::size_t max_total_paths = 10'000'000;
        std::size_t pilot_runs = 256;
    };
    SplittingQuery splitting;

    /// Collect the report's engine counters and histograms (read from the
    /// metrics registry; for CtmcFlow its counters and phases). Off: every
    /// other report section is filled all the same and, without a registry,
    /// simulation pays no instrumentation cost.
    bool telemetry = true;

    /// Optional execution tracer (docs/tracing.md). Estimate and a
    /// one-worker HypothesisTest record on a "main" lane, EstimateParallel
    /// and a threaded HypothesisTest on per-worker lanes plus a "collector"
    /// lane, CtmcFlow on a "ctmc" lane. The caller exports the
    /// trace afterwards (Tracer::to_chrome_json; the CLI's --trace flag).
    tracer::Tracer* tracer = nullptr;

    /// Witness capture (estimation and hypothesis-test modes): retain the first
    /// witness.per_kind accepting and non-accepting paths, replayed into
    /// AnalysisResult::estimation.witnesses. Deterministic in
    /// (seed, workers).
    sim::WitnessOptions witness;

    /// Live progress streaming (estimation modes): invoked from the
    /// consuming thread, throttled to progress.min_interval_seconds; the
    /// confidence parameters for the CI half-width / ETA are taken from
    /// delta and eps above.
    sim::ProgressOptions progress;

    /// Coverage & occupancy profiling (estimation and hypothesis-test
    /// modes): per-mode visit counts and time-in-mode occupancy,
    /// per-transition fire counts, strategy decision histograms and a
    /// coverage-saturation series over the accepted paths (docs/coverage.md).
    /// Profiling switches the run to per-PATH RNG streams, so the profile —
    /// and the result — is byte-identical across worker counts at a fixed
    /// seed. Rejected for CtmcFlow and EstimateSplitting.
    bool coverage = false;

    /// Front-end phases (parse/instantiate) timed by the caller while
    /// loading the model; prepended to the report's phase breakdown.
    std::vector<telemetry::Phase> frontend_phases;

    /// Optional live metrics registry (support/metrics.hpp). When set, the
    /// estimation engines register and update their instruments in it —
    /// path/step/fire counters, collector queue depth and drain latency,
    /// live estimate/half-width/ETA gauges, budget headroom, checkpoint and
    /// quarantine counters. Instruments only count: results stay
    /// byte-identical with metrics on or off at every (seed, workers).
    /// When null and telemetry or serve.enabled is set, run_analysis uses a
    /// private registry with one shard per worker. The report's engine
    /// counters are the registry's totals at run end minus those at run
    /// start (none for CtmcFlow or supervised runs), so two runs sharing
    /// one registry concurrently each report the other's events too.
    metrics::Registry* metrics = nullptr;

    /// Optional structured run journal (support/journal.hpp, docs/
    /// observability.md): run lifecycle, stop-criterion marks, checkpoint
    /// writes, fault quarantines and splitting level events, rendered as
    /// JSONL (the CLI's --log flag) and served live via /journal?tail=N.
    /// The journal only observes: results are byte-identical with it on or
    /// off, and its deterministic fields are byte-identical across worker
    /// counts under per-path streams.
    journal::Journal* journal = nullptr;

    /// Embedded HTTP exporter (estimation modes and beyond — the endpoints
    /// serve whatever the registry and status board hold for any mode).
    ServeOptions serve;

    /// Process-isolated supervised execution (docs/supervision.md): when
    /// processes > 0, an Estimate / EstimateParallel / HypothesisTest request
    /// runs across that many worker *subprocesses* under a crash-tolerant
    /// coordinator instead of in-process threads. Workers are fresh execs of the
    /// slimsim binary that re-load the model from `model_path` (defaults
    /// to model_label, which the CLI sets to the model file path); a
    /// worker that crashes, stalls past worker_timeout_seconds or corrupts
    /// a frame is killed and its unacknowledged path range reassigned to a
    /// replacement (up to worker_retries restarts per slot, exponential
    /// backoff). Per-path RNG streams keep the result byte-identical to
    /// the in-process runners at every (seed, processes, crash schedule);
    /// exhausted retries degrade to a partial result (RunStatus::Degraded),
    /// never an exception. `injections` is the deterministic fault schedule
    /// (--inject). Rejected with coverage, witness capture and tracing.
    struct SupervisionRequest {
        std::size_t processes = 0; // 0 = in-process execution (default)
        double worker_timeout_seconds = 10.0;
        std::size_t worker_retries = 3;
        std::vector<sim::supervise::FaultInjection> injections;
        std::string worker_exe;  // "" = /proc/self/exe
        std::string model_path;  // "" = model_label
    };
    SupervisionRequest supervision;
};

/// The uniform result: the headline value, the mode-specific result struct
/// (others default-constructed), and the structured run report.
struct AnalysisResult {
    AnalysisMode mode = AnalysisMode::Estimate;

    /// Estimate / CTMC probability; for HypothesisTest the observed
    /// success ratio (the verdict is in `hypothesis` and the report).
    double value = 0.0;

    sim::EstimationResult estimation;  // Estimate / EstimateParallel / HypothesisTest
    sim::CurveResult curve;            // estimation modes with curve_bounds set
    sim::HypothesisResult hypothesis;  // HypothesisTest
    ctmc::FlowResult flow;             // CtmcFlow
    rare::SplittingResult splitting;   // EstimateSplitting

    /// Coverage profile (enabled=false unless request.coverage was set).
    /// Identical to the report's "coverage" section.
    telemetry::CoverageReport coverage;

    telemetry::RunReport report;

    /// One-paragraph human-readable summary (the CLI's default output).
    [[nodiscard]] std::string to_string() const;
};

// --- compile-once model API ------------------------------------------------
//
// Compilation (expression lowering, hash-consing, per-location
// precomputation; docs/compiled-model.md) happens once per model; the
// returned handle is immutable, thread-safe, and reusable across any number
// of run_analysis() calls and worker threads. compile() is cached
// process-wide by the model's deterministic content hash, so repeated
// compilations of an identical model return the same handle.

/// Compiles an instantiated model (or returns the cached compilation).
[[nodiscard]] eda::CompiledModelPtr
compile(std::shared_ptr<const slim::InstanceModel> model);

/// Front-end pipeline + compile: SLIM source -> parse -> resolve ->
/// instantiate -> validate -> compile. Throws slimsim::Error on any error.
[[nodiscard]] eda::CompiledModelPtr compile_source(std::string_view source,
                                                   std::string filename = "<input>",
                                                   eda::LoadPhases* phases = nullptr);
[[nodiscard]] eda::CompiledModelPtr compile_file(const std::string& path,
                                                 eda::LoadPhases* phases = nullptr);

/// Runs the requested analysis on `net`. Deterministic in
/// (request.seed, request.workers) for every mode. Throws slimsim::Error on
/// invalid requests (e.g. CTMC flow on a timed model or a non-Reach
/// property, Input strategy in parallel runs).
[[nodiscard]] AnalysisResult run_analysis(const eda::Network& net,
                                          const AnalysisRequest& request);

/// Runs the requested analysis on a pre-compiled model: no per-call
/// compilation work beyond wrapping the handle in a Network view.
[[nodiscard]] AnalysisResult run_analysis(const eda::CompiledModelPtr& model,
                                          const AnalysisRequest& request);

} // namespace slimsim
