#include "api/analysis.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>

#include "stat/diagnostics.hpp"
#include "support/diagnostics.hpp"
#include "support/http_server.hpp"
#include "support/json.hpp"
#include "support/memprobe.hpp"

namespace slimsim {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

std::string hex16(std::uint64_t v) {
    std::ostringstream os;
    os << std::hex << std::setw(16) << std::setfill('0') << v;
    return os.str();
}

/// Latest progress snapshot shared between the runners' consuming thread
/// (writer, via the chained progress callback) and the HTTP server thread
/// (reader, /status).
class StatusBoard {
public:
    void update(const sim::ProgressSnapshot& snap) {
        std::lock_guard lock(mutex_);
        snap_ = snap;
        have_ = true;
    }
    [[nodiscard]] std::optional<sim::ProgressSnapshot> latest() const {
        std::lock_guard lock(mutex_);
        if (!have_) return std::nullopt;
        return snap_;
    }

private:
    mutable std::mutex mutex_;
    sim::ProgressSnapshot snap_;
    bool have_ = false;
};

/// Immutable run identity captured *before* the server starts, so /status
/// never reads report fields the runners mutate concurrently.
struct StatusIdentity {
    std::string mode;
    std::string model;
    std::string property;
    std::string strategy;
    std::string criterion;
    std::string content_hash; // empty when no compiled model
    std::uint64_t seed = 0;
    std::size_t workers = 1;
    std::size_t processes = 0; // supervised runs: worker subprocess count
    double delta = 0.0;
    double eps = 0.0;
};

/// /status document: run identity + config digest + the latest snapshot.
std::string status_json(const StatusIdentity& id, const StatusBoard& board) {
    json::Value doc = json::Value::object();
    doc["status"] = "running";
    doc["mode"] = id.mode;
    doc["model"] = id.model;
    doc["property"] = id.property;
    json::Value digest = json::Value::object();
    digest["seed"] = id.seed;
    digest["workers"] = static_cast<std::uint64_t>(id.workers);
    if (id.processes > 0)
        digest["processes"] = static_cast<std::uint64_t>(id.processes);
    digest["strategy"] = id.strategy;
    digest["criterion"] = id.criterion;
    digest["delta"] = id.delta;
    digest["eps"] = id.eps;
    if (!id.content_hash.empty()) digest["content_hash"] = id.content_hash;
    doc["config"] = std::move(digest);
    if (const auto snap = board.latest()) {
        json::Value progress = json::Value::object();
        progress["samples"] = snap->samples;
        progress["successes"] = snap->successes;
        progress["estimate"] = snap->estimate;
        progress["half_width"] = snap->half_width;
        progress["required"] = snap->required;
        progress["elapsed_seconds"] = snap->elapsed_seconds;
        progress["eta_seconds"] = snap->eta_seconds;
        doc["progress"] = std::move(progress);
    } else {
        doc["progress"] = nullptr;
    }
    return doc.dump() + "\n";
}

/// Parses "tail=N" out of a query string ("a=b&tail=5"). Absent leaves
/// `tail` untouched and returns true; a malformed value returns false.
bool parse_tail(const std::string& query, std::size_t& tail) {
    std::size_t pos = 0;
    while (pos <= query.size() && !query.empty()) {
        std::size_t amp = query.find('&', pos);
        if (amp == std::string::npos) amp = query.size();
        const std::string_view pair(query.data() + pos, amp - pos);
        if (pair.substr(0, 5) == "tail=") {
            const std::string_view v = pair.substr(5);
            if (v.empty() || v.size() > 18) return false;
            std::size_t n = 0;
            for (const char c : v) {
                if (c < '0' || c > '9') return false;
                n = n * 10 + static_cast<std::size_t>(c - '0');
            }
            tail = n;
        }
        pos = amp + 1;
    }
    return true;
}

} // namespace

eda::CompiledModelPtr compile(std::shared_ptr<const slim::InstanceModel> model) {
    return eda::compile_model(std::move(model));
}

eda::CompiledModelPtr compile_source(std::string_view source, std::string filename,
                                     eda::LoadPhases* phases) {
    return eda::compile_model(
        eda::load_instance_model(source, std::move(filename), phases));
}

eda::CompiledModelPtr compile_file(const std::string& path, eda::LoadPhases* phases) {
    std::ifstream in(path);
    if (!in) throw Error("cannot open model file `" + path + "`");
    std::ostringstream buf;
    buf << in.rdbuf();
    return compile_source(buf.str(), path, phases);
}

std::string to_string(AnalysisMode mode) {
    switch (mode) {
    case AnalysisMode::Estimate: return "estimate";
    case AnalysisMode::EstimateParallel: return "estimate-parallel";
    case AnalysisMode::HypothesisTest: return "hypothesis-test";
    case AnalysisMode::CtmcFlow: return "ctmc-flow";
    case AnalysisMode::EstimateSplitting: return "estimate-splitting";
    }
    return "?";
}

std::string AnalysisResult::to_string() const {
    std::ostringstream os;
    switch (mode) {
    case AnalysisMode::Estimate:
    case AnalysisMode::EstimateParallel: {
        if (!curve.points.empty()) {
            os << "P( " << report.property << " ) ~= " << value
               << " at the largest bound\n"
               << curve.to_string() << "\n"
               << "terminals:";
            for (const auto& [name, n] : sim::terminal_histogram(curve.terminals)) {
                os << " " << name << "=" << n;
            }
            break;
        }
        os << "P( " << report.property << " ) ~= " << value << "\n"
           << estimation.to_string() << "\n"
           << "terminals:";
        for (const auto& [name, n] : sim::terminal_histogram(estimation.terminals)) {
            os << " " << name << "=" << n;
        }
        break;
    }
    case AnalysisMode::HypothesisTest:
        os << "P( " << report.property << " ) >= " << hypothesis.threshold << " ?\n"
           << hypothesis.to_string();
        break;
    case AnalysisMode::CtmcFlow: os << "ctmc flow: " << flow.to_string(); break;
    case AnalysisMode::EstimateSplitting:
        os << "P( " << report.property << " ) ~= " << value
           << "  (importance splitting)\n"
           << splitting.to_string() << "\n"
           << "terminals:";
        for (const auto& [name, n] : sim::terminal_histogram(splitting.terminals)) {
            os << " " << name << "=" << n;
        }
        break;
    }
    return os.str();
}

AnalysisResult run_analysis(const eda::Network& net, const AnalysisRequest& request) {
    const auto start = std::chrono::steady_clock::now();
    AnalysisResult result;
    result.mode = request.mode;

    telemetry::RunReport& report = result.report;
    report.mode = to_string(request.mode);
    report.model = request.model_label;
    report.property = request.property.text;
    report.seed = request.seed;
    // The modes whose samples go through the run consumer (sim/consumer.hpp)
    // in any of its venues: estimation and the SPRT hypothesis test.
    const bool consumer_mode = request.mode == AnalysisMode::Estimate ||
                               request.mode == AnalysisMode::EstimateParallel ||
                               request.mode == AnalysisMode::HypothesisTest;
    const bool supervised = request.supervision.processes > 0 && consumer_mode;
    report.workers = supervised ? request.supervision.processes
                     : request.mode == AnalysisMode::Estimate ||
                             request.mode == AnalysisMode::CtmcFlow
                         ? 1
                         : std::max<std::size_t>(1, request.workers);
    report.phases = request.frontend_phases;
    report.params.emplace_back("bound", request.property.bound);

    if (const eda::CompiledModelPtr& cm = net.compiled(); cm != nullptr) {
        const eda::CompileStats& cs = cm->stats();
        report.compiled_model.present = true;
        report.compiled_model.programs = cs.programs;
        report.compiled_model.unique_programs = cs.unique_programs;
        report.compiled_model.nodes = cs.nodes;
        report.compiled_model.bytecode_bytes = cs.bytecode_bytes;
        report.compiled_model.content_hash = hex16(cm->content_hash());
    }

    if (request.coverage && !consumer_mode) {
        throw Error("--coverage is an estimation-mode option (not --ctmc / --split; "
                    "--split-auto fills the report's coverage section from the "
                    "pilot run)");
    }
    if (request.supervision.processes > 0) {
        if (!consumer_mode) {
            throw Error("--processes is an estimation-mode option (not --ctmc / "
                        "--split)");
        }
        if (request.coverage) {
            throw Error("--processes cannot be combined with --coverage");
        }
        if (request.witness.per_kind > 0) {
            throw Error("--processes cannot be combined with --witness");
        }
        if (request.tracer != nullptr && request.tracer->enabled()) {
            throw Error("--processes cannot be combined with --trace");
        }
    }
    const sim::RunControlOptions& control = request.sim.control;
    if (control.hardened() && request.mode == AnalysisMode::CtmcFlow) {
        throw Error("run budgets, --fault, --checkpoint and --resume are not "
                    "available in the CTMC flow");
    }
    if (control.resume != nullptr) {
        // A resumed run replays only the tail of the path set, so artifacts
        // built over *all* accepted paths cannot be completed.
        if (request.coverage) {
            throw Error("--resume cannot be combined with coverage profiling");
        }
        if (request.witness.per_kind > 0) {
            throw Error("--resume cannot be combined with witness capture");
        }
    }
    if (!request.curve_bounds.empty() && request.witness.per_kind > 0 &&
        (request.mode == AnalysisMode::Estimate ||
         request.mode == AnalysisMode::EstimateParallel)) {
        throw Error("curve estimation cannot be combined with witness capture");
    }

    sim::SimOptions sim_options = request.sim;
    sim_options.coverage = request.coverage;
    sim_options.witness = request.witness;
    sim_options.progress = request.progress;
    sim_options.progress.delta = request.delta;
    sim_options.progress.eps = request.eps;
    tracer::Tracer* tracer =
        request.tracer != nullptr && request.tracer->enabled() ? request.tracer : nullptr;

    // Metrics registry + embedded HTTP exporter (docs/observability.md). A
    // private registry is created for telemetry or serving without a
    // caller-provided one; instruments only count, so results stay
    // byte-identical with metrics on or off. The report's engine counters
    // are this run's share of the registry's totals, taken only when the
    // run's paths are generated in this process: CTMC and supervised runs
    // carry none, even on a registry that earlier runs filled.
    std::optional<metrics::Registry> local_registry;
    metrics::Registry* registry = request.metrics;
    if (registry == nullptr && (request.telemetry || request.serve.enabled)) {
        local_registry.emplace(std::max<std::size_t>(1, report.workers));
        registry = &*local_registry;
    }
    sim_options.metrics = registry;
    const bool engine_report = request.telemetry && registry != nullptr && !supervised &&
                               request.mode != AnalysisMode::CtmcFlow;
    const sim::EngineCounts engine_start =
        engine_report ? sim::engine_counts(*registry) : sim::EngineCounts{};

    // Structured run journal (docs/observability.md): lifecycle bookends
    // here, runner/splitting events inside the engines. The run_start line
    // deliberately carries no worker count, so the journal's deterministic
    // fields are byte-identical across worker counts.
    journal::Journal* jnl = request.journal;
    sim_options.journal = jnl;
    if (jnl != nullptr) {
        jnl->emit(journal::Level::Info, "run_start", report.model,
                  {{"mode", report.mode},
                   {"property", report.property},
                   {"seed", report.seed}});
    }

    StatusBoard board;
    sim::SeriesStore series;
    // A private registry that is not served only feeds the report's engine
    // counters; nobody reads its live view, so it gets no snapshot chain
    // (which would have the runners read the clock after every sample).
    const bool live_view = request.metrics != nullptr || request.serve.enabled;
    metrics::Gauge* live_drift =
        live_view ? &registry->gauge("slimsim_diag_estimate_drift",
                                     "Live estimate drift vs the previous progress "
                                     "snapshot, in current CI half-widths")
                  : nullptr;
    if (live_view) {
        // Chain, don't replace: the board, the /series history and the live
        // drift gauge all ride the existing snapshot machinery
        // (consuming-thread only), so serving cannot perturb the
        // deterministic sample order.
        const sim::ProgressFn prev = sim_options.progress.callback;
        auto prev_estimate = std::make_shared<std::optional<double>>();
        sim_options.progress.callback = [&board, &series, live_drift, prev_estimate,
                                         prev](const sim::ProgressSnapshot& s) {
            if (live_drift != nullptr && prev_estimate->has_value() &&
                s.half_width > 0.0) {
                live_drift->set(std::abs(s.estimate - **prev_estimate) / s.half_width);
            }
            *prev_estimate = s.estimate;
            series.push(s);
            board.update(s);
            if (prev) prev(s);
        };
    }

    http::Server server;
    if (request.serve.enabled) {
        StatusIdentity id;
        id.mode = report.mode;
        id.model = report.model;
        id.property = report.property;
        id.strategy = sim::to_string(request.strategy);
        id.criterion = stat::to_string(request.criterion);
        id.content_hash = report.compiled_model.content_hash;
        id.seed = report.seed;
        id.workers = report.workers;
        id.processes = supervised ? request.supervision.processes : 0;
        id.delta = request.delta;
        id.eps = request.eps;
        const std::uint16_t port = server.start(
            request.serve.port,
            [registry, jnl, id = std::move(id), &board,
             &series](const http::Request& req) -> http::Response {
                if (req.path == "/metrics") {
                    return {200, "text/plain; version=0.0.4; charset=utf-8",
                            registry->expose()};
                }
                if (req.path == "/status") {
                    return {200, "application/json; charset=utf-8",
                            status_json(id, board)};
                }
                if (req.path == "/healthz") {
                    return {200, "text/plain; charset=utf-8", "ok\n"};
                }
                if (req.path == "/series") {
                    return {200, "application/json; charset=utf-8",
                            series.to_json() + "\n"};
                }
                if (req.path == "/journal") {
                    if (jnl == nullptr) {
                        return {404, "text/plain; charset=utf-8",
                                "journal not enabled (run with --log)\n"};
                    }
                    std::size_t tail = 64;
                    if (!parse_tail(req.query, tail)) {
                        return {400, "text/plain; charset=utf-8",
                                "bad tail parameter (expected tail=N)\n"};
                    }
                    return {200, "application/x-ndjson; charset=utf-8",
                            jnl->tail_jsonl(tail)};
                }
                return {404, "text/plain; charset=utf-8", "not found\n"};
            });
        if (request.serve.on_bound) request.serve.on_bound(port);
    }

    // Supervised execution reuses the run-consumer arm: the coordinator
    // replaces the in-process engine, everything around it (criterion,
    // curve grid, progress chain, journal, metrics, report) is shared.
    auto supervise_options = [&] {
        sim::supervise::SuperviseOptions so;
        so.processes = request.supervision.processes;
        so.worker_timeout_seconds = request.supervision.worker_timeout_seconds;
        so.worker_retries = request.supervision.worker_retries;
        so.injections = request.supervision.injections;
        so.worker_exe = request.supervision.worker_exe;
        so.model_path = request.supervision.model_path.empty()
                            ? request.model_label
                            : request.supervision.model_path;
        so.sim = sim_options;
        return so;
    };

    switch (request.mode) {
    case AnalysisMode::Estimate:
    case AnalysisMode::EstimateParallel:
    case AnalysisMode::HypothesisTest: {
        const bool hypothesis = request.mode == AnalysisMode::HypothesisTest;
        const bool curve_mode = !hypothesis && !request.curve_bounds.empty();
        report.params.emplace_back("delta", request.delta);
        std::unique_ptr<stat::StopCriterion> criterion;
        if (hypothesis) {
            report.params.emplace_back("indifference", request.indifference);
            report.params.emplace_back("threshold", request.threshold);
            // SPRT's statistic is a function of (count, successes) only, so
            // checkpoints need no field for it. Like estimation, a threaded
            // test consults it at round ends under per-worker streams
            // (deterministic in (seed, workers)), and after every sample under
            // per-path streams (--checkpoint, --processes): same at any count.
            criterion = std::make_unique<stat::Sprt>(request.threshold,
                                                     request.indifference, request.delta);
        } else {
            report.params.emplace_back("eps", request.eps);
            // Curve mode tightens the per-bound delta so the whole grid
            // carries simultaneous 1-delta confidence (no-op for DKW).
            criterion = stat::make_criterion(
                request.criterion,
                curve_mode ? stat::per_bound_delta(request.curve_band, request.delta,
                                                   request.curve_bounds.size())
                           : request.delta,
                request.eps);
        }
        sim_options.progress.min_samples = criterion->min_sample_count();
        // The threaded venue records on per-worker lanes, the sequential
        // one on a "main" lane.
        const bool threaded = request.mode == AnalysisMode::EstimateParallel ||
                              (hypothesis && request.workers > 1);
        if (tracer != nullptr && !threaded) sim_options.trace_lane = tracer->lane("main");
        sim::ParallelOptions po;
        po.workers = request.workers;
        po.sim = sim_options;
        po.tracer = tracer;
        sim::CurveOptions co;
        co.bounds = request.curve_bounds;
        co.band = request.curve_band;
        co.delta = request.delta;
        const sim::TimedReachability& prop = request.property;
        const auto t0 = std::chrono::steady_clock::now();
        if (curve_mode) {
            result.curve =
                supervised ? sim::supervise::estimate_curve_supervised(
                                 net, prop, request.strategy, *criterion, co, request.seed,
                                 supervise_options(), &report)
                : threaded ? sim::estimate_curve_parallel(net, prop, request.strategy,
                                                          *criterion, co, request.seed, po,
                                                          &report)
                           : sim::estimate_curve(net, prop, request.strategy, *criterion, co,
                                                 request.seed, sim_options, &report);
            result.value = result.curve.points.back().estimate;
        } else {
            result.estimation =
                supervised ? sim::supervise::estimate_supervised(net, prop, request.strategy,
                                                                 *criterion, request.seed,
                                                                 supervise_options(), &report)
                : threaded ? sim::estimate_parallel(net, prop, request.strategy, *criterion,
                                                    request.seed, po, &report)
                           : sim::estimate(net, prop, request.strategy, *criterion,
                                           request.seed, sim_options, &report);
            result.value = result.estimation.estimate;
        }
        report.phases.push_back({"simulate", seconds_since(t0)});
        if (hypothesis) {
            result.hypothesis = sim::hypothesis_result(
                result.estimation, static_cast<const stat::Sprt&>(*criterion),
                request.threshold, request.indifference, request.delta);
            report.verdict = sim::to_string(result.hypothesis.verdict);
        }
        break;
    }
    case AnalysisMode::EstimateSplitting: {
        if (!request.curve_bounds.empty()) {
            throw Error("--split cannot be combined with curve estimation");
        }
        if (request.witness.per_kind > 0) {
            throw Error("--split cannot be combined with witness capture");
        }
        report.params.emplace_back("split_factor",
                                   static_cast<double>(request.splitting.factor));
        report.params.emplace_back("split_roots",
                                   static_cast<double>(request.splitting.base_runs));
        rare::LevelSpec spec;
        if (request.splitting.auto_levels) {
            spec.auto_levels = true;
            spec.text = "auto";
        } else {
            spec.expression =
                rare::make_level_function(net.model(), request.splitting.level);
            spec.text = request.splitting.level;
        }
        rare::SplittingOptions so;
        so.splitting_factor = request.splitting.factor;
        so.base_runs = request.splitting.base_runs;
        so.max_total_paths = request.splitting.max_total_paths;
        so.pilot_runs = request.splitting.pilot_runs;
        so.delta = request.delta;
        so.workers = report.workers;
        so.sim = sim_options;
        const auto t0 = std::chrono::steady_clock::now();
        // The splitting sections of the report are deterministic result
        // content, so they are filled even when full telemetry is off.
        result.splitting = rare::estimate_splitting(net, request.property,
                                                    request.strategy, spec, request.seed,
                                                    so, &report);
        report.phases.push_back({"simulate", seconds_since(t0)});
        result.value = result.splitting.estimate;
        result.coverage = result.splitting.pilot_coverage;
        break;
    }
    case AnalysisMode::CtmcFlow: {
        if (request.property.kind != sim::FormulaKind::Reach || request.property.lo != 0.0) {
            throw Error("the CTMC flow supports P( <> [0,u] goal ) only");
        }
        report.params.emplace_back("precision", request.flow.transient.precision);
        ctmc::FlowOptions flow_options = request.flow;
        if (tracer != nullptr) flow_options.trace_lane = tracer->lane("ctmc");
        // The flow's report entries are engine counters and phases, which
        // telemetry decides.
        result.flow = ctmc::run_ctmc_flow(net, *request.property.goal,
                                          request.property.bound, flow_options,
                                          request.telemetry ? &report : nullptr);
        result.value = result.flow.probability;
        break;
    }
    }

    // The exporter stops with the run (the Server destructor also stops it
    // when the dispatch above throws).
    server.stop();

    // Every engine fills the report's result sections itself, except the
    // CTMC flow without telemetry, which leaves only the value to this.
    report.value = result.value;
    if (request.coverage) {
        result.coverage = !result.curve.points.empty() ? result.curve.coverage
                                                       : result.estimation.coverage;
    }
    // Estimator health diagnostics (docs/observability.md): a pure function
    // of deterministic report fields, so the section is byte-identical
    // across worker counts and with the journal/metrics on or off.
    if (request.mode == AnalysisMode::Estimate ||
        request.mode == AnalysisMode::EstimateParallel ||
        request.mode == AnalysisMode::EstimateSplitting) {
        report.diagnostics = stat::diagnose_run(report);
        if (live_view) {
            registry
                ->gauge("slimsim_diag_warnings",
                        "Diagnostics items with warning or critical severity")
                .set(static_cast<double>(report.diagnostics.warnings));
            std::map<std::string, int> seen;
            for (const auto& item : report.diagnostics.items) {
                const int n = seen[item.check]++;
                std::string labels = metrics::label("check", item.check);
                // Repeated checks (one splitting-level item per level) get a
                // seq label so the gauge children stay distinct.
                if (n > 0) labels += "," + metrics::label("seq", std::to_string(n));
                registry
                    ->gauge("slimsim_diag_check",
                            "Diagnostic check value (see the run report's "
                            "diagnostics section)",
                            labels)
                    .set(item.value);
                registry
                    ->gauge("slimsim_diag_severity",
                            "Diagnostic severity (0 ok, 1 warning, 2 critical)",
                            labels)
                    .set(item.severity == "critical"  ? 2.0
                         : item.severity == "warning" ? 1.0
                                                      : 0.0);
            }
        }
    }

    if (engine_report) {
        sim::add_engine_counts(report, engine_start, sim::engine_counts(*registry));
    }
    report.wall_seconds = seconds_since(start);
    report.peak_rss_bytes = peak_rss_bytes();
    if (jnl != nullptr) {
        jnl->emit(journal::Level::Info, "run_end", "analysis complete",
                  {{"status", report.run_status.status},
                   {"value", report.value},
                   {"samples", report.samples},
                   {"diag_warnings", report.diagnostics.warnings}});
    }
    return result;
}

AnalysisResult run_analysis(const eda::CompiledModelPtr& model,
                            const AnalysisRequest& request) {
    return run_analysis(eda::Network(model), request);
}

} // namespace slimsim
