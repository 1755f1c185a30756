// The slimsim benchmark binary: one process per measurement.
//
//   perfbench measure   WORKLOAD SEED INDEX SCALE SETUPS
//   perfbench trace     WORKLOAD SEED SCALE TRACE_JSON
//   perfbench reference WORKLOAD
//
// `measure` compiles the workload's model, answers its query once through
// slimsim::run_analysis with every observability feature off, checks the
// answer against the workload's oracle, then compiles the model SETUPS - 1
// more times (each a compile-cache miss). It prints one JSON line: set-up
// times, time to answer, CPU time, paths consumed and the peak RSS of the
// answer. A fresh process per answer keeps RSS high-water marks from
// carrying over.
//
// `trace` is the per-layer run. It times calls into each module's public
// functions from here — the front end, PathGenerator, the Network step
// primitives, a SampleCollector replay, the CTMC pipeline and importance
// splitting — records a span around each call on a support/tracer lane,
// writes the spans to TRACE_JSON at the end and prints one JSON line of
// per-layer metrics plus the exact counts the determinism guard compares.
//
// `reference` recomputes the pinned oracle values (slow; see README.md).
//
// Inputs come only from the src/models generators and the seed; run.py
// drives this binary and aggregates its lines.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/analysis.hpp"
#include "ctmc/bisim.hpp"
#include "ctmc/imc.hpp"
#include "ctmc/state_space.hpp"
#include "ctmc/uniformization.hpp"
#include "models/failover.hpp"
#include "models/gps.hpp"
#include "models/launcher.hpp"
#include "models/sensor_filter.hpp"
#include "slim/instantiate.hpp"
#include "slim/parser.hpp"
#include "slim/resolver.hpp"
#include "slim/validate.hpp"
#include "stat/collector.hpp"
#include "stat/curve.hpp"
#include "support/json.hpp"
#include "support/tracer/tracer.hpp"

namespace {

using namespace slimsim;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto tv = [](const timeval& t) {
        return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// Peak RSS of this process image (VmHWM). getrusage's ru_maxrss would
/// carry the high-water mark of the process that forked this one across
/// exec, so a small answer launched from a larger parent reads the parent.
double peak_rss_mib() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0; // kB
    }
    throw std::runtime_error("VmHWM not found in /proc/self/status");
}

// Keeps probe results observable so timed loops are not optimized away.
std::atomic<double> g_sink{0.0};
void sink(double v) {
    g_sink.store(g_sink.load(std::memory_order_relaxed) + v, std::memory_order_relaxed);
}

// --- workloads -------------------------------------------------------------

enum class Scale { Full, Tiny };

// Pinned oracle values; `perfbench reference WORKLOAD` recomputes them.
// Exact CTMC flow values (uniformization precision 1e-10).
constexpr double kTable1Exact = 0.041728521969449;
constexpr double kFailoverExact = 3.57847540560341e-05;
// High-precision simulation references (seed 20240601, 3 workers) and the
// Chernoff-Hoeffding / DKW half-width they were computed at (delta 0.05).
constexpr double kGpsReference = 0.997646027858518;
constexpr double kGpsReferenceEps = 0.0002;
constexpr double kFig5ReferenceEps = 0.0007;
constexpr double kFig5Reference[16] = {
    0.009826, 0.035913, 0.073962, 0.120534, 0.172373, 0.227437, 0.283649, 0.339799,
    0.394683, 0.447488, 0.498010, 0.545624, 0.590094, 0.631233, 0.669307, 0.704067};

// A 16-point curve at delta 0.05 leaves its eps band for roughly 1% of
// correct answers, so the curve is checked against its DKW band at this
// delta instead (about 2 eps), around a reference band at the same delta.
constexpr double kCurveCheckDelta = 1e-6;

// Multiple of the splitting estimator's reported 95% half-width that a
// correct answer stays within (7.8 sigma).
constexpr double kSplittingHalfWidths = 4.0;

/// DKW half-width of an n-path empirical CDF at kCurveCheckDelta.
double curve_check_band(double n) {
    return std::sqrt(std::log(2.0 / kCurveCheckDelta) / (2.0 * n));
}

constexpr std::size_t kWorkers = 3;
constexpr std::size_t kCurvePoints = 16;
constexpr std::size_t kSplitFactor = 32;
constexpr double kDelta = 0.05;

struct Workload {
    std::string name;
    std::string source;
    std::string goal;
    double bound = 0.0; // seconds of model time
    AnalysisMode mode = AnalysisMode::EstimateParallel;
    sim::StrategyKind strategy = sim::StrategyKind::Progressive;
    double eps = 0.01;
    bool curve = false;
    std::size_t split_roots = 0;
};

std::vector<double> curve_grid(double u_max) {
    std::vector<double> grid;
    for (std::size_t i = 1; i <= kCurvePoints; ++i) {
        grid.push_back(u_max * static_cast<double>(i) / static_cast<double>(kCurvePoints));
    }
    return grid;
}

Workload make_workload(const std::string& name, Scale scale) {
    const bool tiny = scale == Scale::Tiny;
    Workload w;
    w.name = name;
    if (name == "gps_scalar") {
        w.source = models::gps_source();
        w.goal = models::gps_goal();
        w.bound = 1800.0;
        w.eps = tiny ? 0.01 : 0.0028;
    } else if (name == "table1_r7" || name == "table1_ctmc_r7") {
        w.source = models::sensor_filter_source(7);
        w.goal = models::sensor_filter_goal();
        w.bound = 100.0 * 3600.0;
        w.strategy = sim::StrategyKind::Asap;
        w.eps = tiny ? 0.02 : 0.006;
        if (name == "table1_ctmc_r7") w.mode = AnalysisMode::CtmcFlow;
    } else if (name == "fig5_curve") {
        models::LauncherOptions opt;
        opt.recoverable_dpu = true;
        w.source = models::launcher_source(opt);
        w.goal = models::launcher_goal();
        w.bound = 120.0 * 60.0;
        w.eps = tiny ? 0.03 : 0.006;
        w.curve = true;
    } else if (name == "failover_rare") {
        models::FailoverOptions opt;
        opt.pump_fail_per_hour = 0.003;
        w.source = models::failover_source(opt);
        w.goal = models::failover_goal();
        w.bound = 2.0 * 3600.0;
        w.mode = AnalysisMode::EstimateSplitting;
        w.strategy = sim::StrategyKind::Asap;
        w.split_roots = tiny ? 20'000 : 100'000;
        w.eps = 0.006; // only used by the consumer replay probe
    } else {
        throw std::invalid_argument("unknown workload `" + name + "`");
    }
    return w;
}

AnalysisRequest make_request(const Workload& w, const eda::CompiledModelPtr& cm,
                             std::uint64_t seed) {
    AnalysisRequest req;
    req.mode = w.mode;
    req.property = sim::make_reachability(cm->model(), w.goal, w.bound);
    req.model_label = w.name;
    req.strategy = w.strategy;
    req.criterion = stat::CriterionKind::ChernoffHoeffding;
    req.delta = kDelta;
    req.eps = w.eps;
    req.seed = seed;
    req.workers = kWorkers;
    req.telemetry = false;
    if (w.curve) {
        req.curve_bounds = curve_grid(w.bound);
        req.curve_band = stat::BandKind::DKW;
    }
    if (w.mode == AnalysisMode::CtmcFlow) req.flow.minimize = true;
    if (w.mode == AnalysisMode::EstimateSplitting) {
        req.splitting.auto_levels = true;
        req.splitting.factor = kSplitFactor;
        req.splitting.base_runs = w.split_roots;
    }
    return req;
}

sim::RunStatus status_of(const AnalysisResult& r) {
    switch (r.mode) {
    case AnalysisMode::EstimateSplitting: return r.splitting.status;
    case AnalysisMode::CtmcFlow: return sim::RunStatus::Converged;
    default: return r.curve.points.empty() ? r.estimation.status : r.curve.status;
    }
}

/// Paths the answer consumed; for the CTMC flow, explored IMC states.
double work_units(const AnalysisResult& r) {
    switch (r.mode) {
    case AnalysisMode::EstimateSplitting: return static_cast<double>(r.splitting.total_paths);
    case AnalysisMode::CtmcFlow: return static_cast<double>(r.flow.build.states);
    default:
        return static_cast<double>(r.curve.points.empty() ? r.estimation.samples
                                                          : r.curve.samples);
    }
}

/// The workload's correctness oracle; returns "" when the answer is right.
std::string check_answer(const Workload& w, const AnalysisResult& r) {
    char buf[256];
    if (status_of(r) != sim::RunStatus::Converged) {
        return "run status " + sim::to_string(status_of(r));
    }
    if (w.name == "table1_ctmc_r7") {
        if (std::abs(r.value - kTable1Exact) > 1e-9) {
            std::snprintf(buf, sizeof buf, "ctmc p=%.12g, exact %.12g", r.value, kTable1Exact);
            return buf;
        }
    } else if (w.name == "table1_r7") {
        if (std::abs(r.value - kTable1Exact) > w.eps) {
            std::snprintf(buf, sizeof buf, "p=%.6g outside %.6g +- %g", r.value, kTable1Exact,
                          w.eps);
            return buf;
        }
    } else if (w.name == "gps_scalar") {
        if (std::abs(r.value - kGpsReference) > w.eps + kGpsReferenceEps) {
            std::snprintf(buf, sizeof buf, "p=%.6g outside %.6g +- %g", r.value,
                          kGpsReference, w.eps + kGpsReferenceEps);
            return buf;
        }
    } else if (w.name == "fig5_curve") {
        if (r.curve.points.size() != kCurvePoints) return "curve has wrong point count";
        const double ref_n = static_cast<double>(
            stat::ChernoffHoeffding::sample_count(kDelta, kFig5ReferenceEps));
        const double tol = curve_check_band(static_cast<double>(r.curve.samples)) +
                           curve_check_band(ref_n);
        for (std::size_t i = 0; i < kCurvePoints; ++i) {
            const double p = r.curve.points[i].estimate;
            if (i > 0 && p < r.curve.points[i - 1].estimate) return "curve not monotone";
            if (std::abs(p - kFig5Reference[i]) > tol) {
                std::snprintf(buf, sizeof buf, "curve[%zu]=%.6g outside %.6g +- %g", i, p,
                              kFig5Reference[i], tol);
                return buf;
            }
        }
    } else if (w.name == "failover_rare") {
        const double hw = r.splitting.relative_half_width * r.value;
        if (!(hw > 0.0) || std::abs(r.value - kFailoverExact) > kSplittingHalfWidths * hw) {
            std::snprintf(buf, sizeof buf, "p=%.6g outside %.6g +- %g half-widths (%.3g)",
                          r.value, kFailoverExact, kSplittingHalfWidths, hw);
            return buf;
        }
    }
    return "";
}

std::uint64_t answer_seed(std::uint64_t seed, std::uint64_t index) {
    return seed * 1'000'003ULL + index;
}

void print_line(const json::Value& v) {
    std::string s = v.dump();
    s += '\n';
    std::fwrite(s.data(), 1, s.size(), stdout);
    std::fflush(stdout);
}

// --- measure ---------------------------------------------------------------

int cmd_measure(const std::string& name, std::uint64_t seed, std::uint64_t index,
                Scale scale, std::size_t setups) {
    const Workload w = make_workload(name, scale);
    json::Value setup = json::Value::array();
    auto timed_compile = [&] {
        const auto t0 = Clock::now();
        eda::CompiledModelPtr cm = compile_source(w.source, w.name);
        setup.push_back(seconds_since(t0));
        return cm;
    };

    eda::CompiledModelPtr cm = timed_compile();
    const AnalysisRequest req = make_request(w, cm, answer_seed(seed, index));
    const double cpu0 = cpu_seconds();
    const auto t0 = Clock::now();
    const AnalysisResult r = run_analysis(cm, req);
    const double answer = seconds_since(t0);
    const double cpu = cpu_seconds() - cpu0;
    const double rss = peak_rss_mib(); // before the remaining set-ups
    const std::string error = check_answer(w, r);

    // The compile cache holds weak handles: with the last handle released,
    // every further compilation is a miss.
    cm.reset();
    for (std::size_t i = 1; i < setups; ++i) (void)timed_compile();

    json::Value out = json::Value::object();
    out["ok"] = error.empty();
    out["error"] = error;
    out["setup_s"] = std::move(setup);
    out["answer_s"] = answer;
    out["cpu_s"] = cpu;
    out["paths"] = work_units(r);
    out["value"] = r.value;
    out["peak_rss_mb"] = rss;
    print_line(out);
    return 0;
}

// --- trace -----------------------------------------------------------------

/// Spans around calls into the library, on one lane of a support/tracer.
class SpanLog {
public:
    SpanLog() : lane_(tracer_.lane("perfbench")) {}

    /// Runs `f` inside a span named `name`; returns its wall seconds.
    template <class F>
    double span(std::string_view name, F&& f) {
        const tracer::NameId id = lane_->intern(name);
        lane_->begin(id);
        const auto t0 = Clock::now();
        f();
        const double dt = seconds_since(t0);
        lane_->end();
        return dt;
    }

    void write(const std::string& path) const {
        std::ofstream out(path);
        out << tracer_.to_chrome_json().dump() << '\n';
    }

private:
    tracer::Tracer tracer_;
    tracer::Lane* lane_;
};

/// Nanoseconds per call of a timed pass over `calls` calls. `pass` runs the
/// calls and returns the seconds it measured itself (so per-pass set-up such
/// as copying states stays outside the clock). Warms once, then repeats
/// until ~40 ms have been measured.
double ns_per_call(std::size_t calls, const std::function<double()>& pass) {
    if (calls == 0) return 0.0;
    (void)pass();
    const double one = std::max(pass(), 1e-7);
    const auto reps = static_cast<std::size_t>(std::clamp(0.04 / one, 1.0, 2000.0));
    double total = 0.0;
    for (std::size_t i = 0; i < reps; ++i) total += pass();
    return total * 1e9 / static_cast<double>(reps * calls);
}

struct Metrics {
    json::Value values = json::Value::object();
    json::Value counts = json::Value::object();
    json::Value errors = json::Value::array();
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void set(const std::string& name, double v) { values[name] = v; }
    void count(const std::string& name, std::uint64_t v) {
        values[name] = v;
        counts[name] = v;
    }
    void op(const std::string& what, const std::string& error) {
        ++attempted;
        if (!error.empty()) {
            ++failed;
            errors.push_back(what + ": " + error);
        }
    }
    void fail(const std::string& what) { errors.push_back(what); }
};

struct Compiled {
    Workload workload;
    eda::CompiledModelPtr cm;
    sim::TimedReachability property;
};

Compiled compile_workload(const std::string& name, Scale scale) {
    Compiled c{make_workload(name, scale), nullptr, {}};
    c.cm = compile_source(c.workload.source, c.workload.name);
    c.property = sim::make_reachability(c.cm->model(), c.workload.goal, c.workload.bound);
    return c;
}

/// slim / eda compile: each front-end stage through its public function.
/// Five cache-missing repetitions; the median of each stage is reported.
eda::CompiledModelPtr probe_frontend(SpanLog& log, const Workload& w, Metrics& m) {
    constexpr int kReps = 5;
    std::vector<double> parse, resolve, inst, compile;
    eda::CompiledModelPtr cm;
    for (int i = 0; i < kReps; ++i) {
        cm.reset();
        slim::ModelFile file;
        parse.push_back(
            log.span("slim.parse", [&] { file = slim::parse_model(w.source, w.name); }));
        std::shared_ptr<slim::ResolvedModel> resolved;
        resolve.push_back(log.span("slim.resolve", [&] {
            resolved = std::make_shared<slim::ResolvedModel>(slim::resolve(std::move(file)));
        }));
        std::shared_ptr<slim::InstanceModel> model;
        inst.push_back(log.span("slim.instantiate", [&] {
            model = std::make_shared<slim::InstanceModel>(slim::instantiate(resolved));
            slim::validate_or_throw(*model);
        }));
        compile.push_back(log.span("eda.compile", [&] { cm = eda::compile_model(model); }));
    }
    auto median = [](std::vector<double> v) {
        std::sort(v.begin(), v.end());
        return v[v.size() / 2];
    };
    m.set("slim.parse_s", median(parse));
    m.set("slim.resolve_s", median(resolve));
    m.set("slim.instantiate_s", median(inst));
    m.set("eda.compile_s", median(compile));
    return cm;
}

struct PathProbe {
    std::vector<stat::TaggedSample> outcomes; // per path, in stream order
    double path_s = 0.0;                      // mean wall seconds per path
};

/// sim path: single-thread PathGenerator::run over the per-path streams
/// Rng(seed).split(j), j < paths.
PathProbe probe_paths(SpanLog& log, const Compiled& c, std::uint64_t seed,
                      std::size_t paths, Metrics& m) {
    const eda::Network net(c.cm);
    const auto strategy = sim::make_strategy(c.workload.strategy);
    const sim::PathGenerator gen(net, c.property, *strategy);
    const Rng master(seed);
    PathProbe probe;
    probe.outcomes.reserve(paths);
    std::uint64_t steps = 0;
    const double wall = log.span("sim.paths", [&] {
        for (std::uint64_t j = 0; j < paths; ++j) {
            Rng rng = master.split(j);
            const sim::PathOutcome out = gen.run(rng);
            steps += out.steps;
            probe.outcomes.push_back(stat::TaggedSample{
                out.satisfied, static_cast<std::uint8_t>(out.terminal), out.end_time,
                out.steps});
        }
    });
    probe.path_s = wall / static_cast<double>(paths);
    m.set("sim.path_us", probe.path_s * 1e6);
    m.set("sim.steps_per_path", static_cast<double>(steps) / static_cast<double>(paths));
    m.counts["sim.steps"] = steps; // exact numerator of sim.steps_per_path
    m.set("sim.step_ns", steps > 0 ? wall * 1e9 / static_cast<double>(steps) : 0.0);
    return probe;
}

/// Exact successes-per-bound of the fig5 curve from the single-thread
/// replay of its per-path streams (the replay is the sim path probe over
/// exactly curve.samples paths).
std::string cross_check_curve(const std::vector<stat::TaggedSample>& outcomes,
                              const sim::CurveResult& curve, const std::vector<double>& grid) {
    if (outcomes.size() != curve.samples) return "replay size differs from curve samples";
    std::vector<double> hits;
    for (const auto& o : outcomes) {
        if (o.value) hits.push_back(o.time);
    }
    std::sort(hits.begin(), hits.end());
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const auto expected = static_cast<std::uint64_t>(
            std::upper_bound(hits.begin(), hits.end(), grid[i]) - hits.begin());
        if (curve.points[i].successes != expected) {
            return "bound " + std::to_string(i) + ": engine " +
                   std::to_string(curve.points[i].successes) + " vs replay " +
                   std::to_string(expected);
        }
    }
    return "";
}

/// eda step: each public Network call (and Strategy::choose) looped over
/// NetworkStates captured along paths replayed with PathGenerator::step,
/// with a benchmark-owned warm SimScratch.
void probe_steps(SpanLog& log, const Compiled& c, std::uint64_t seed,
                 std::size_t max_states, Metrics& m) {
    const eda::Network net(c.cm);
    const auto strategy = sim::make_strategy(c.workload.strategy);
    const sim::PathGenerator gen(net, c.property, *strategy);

    std::vector<eda::NetworkState> states;
    log.span("sim.capture_states", [&] {
        const Rng master(seed ^ 0x9e3779b97f4a7c15ULL);
        for (std::uint64_t j = 0; states.size() < max_states && j < 1'000'000; ++j) {
            Rng rng = master.split(j);
            eda::NetworkState s = net.initial_state();
            std::size_t steps = 0;
            while (states.size() < max_states) {
                states.push_back(s);
                if (gen.step(s, rng, steps).has_value()) break;
            }
        }
    });
    const std::size_t n = states.size();

    // Distinct discrete configurations among the captured states, interned
    // by a fresh scratch (deterministic: independent of repetition counts).
    {
        eda::SimScratch fresh;
        for (const auto& s : states) {
            sink(static_cast<double>(net.markovian_rates(s, fresh).size()));
        }
        m.count("eda.interned_configs", fresh.interner.size());
    }

    eda::SimScratch scratch;
    Rng rng(seed + 17);
    std::vector<double> horizons(n);
    std::vector<std::vector<eda::Candidate>> cands(n);
    std::vector<std::optional<sim::ScheduledChoice>> choices(n);
    for (std::size_t i = 0; i < n; ++i) {
        horizons[i] = net.invariant_horizon(states[i], scratch);
        const auto span = net.candidates(states[i], horizons[i], scratch);
        cands[i].assign(span.begin(), span.end());
        choices[i] = strategy->choose(net, states[i], cands[i], horizons[i], rng);
    }

    // Inputs of the mutating calls, prepared once and copied per pass.
    // Elapse by the strategy's delay when it waits, else by the mean sojourn
    // of the Markovian race (what untimed models elapse by).
    std::vector<eda::NetworkState> exec_states, markov_states, elapse_states;
    std::vector<eda::Candidate> exec_cands;
    std::vector<eda::ProcessId> markov_procs;
    std::vector<double> elapse_by;
    for (std::size_t i = 0; i < n; ++i) {
        const auto rates = net.markovian_rates(states[i], scratch);
        double total_rate = 0.0;
        for (const auto& r : rates) total_rate += r.total_rate;
        if (!rates.empty()) {
            markov_states.push_back(states[i]);
            markov_procs.push_back(rates.front().process);
        }
        const bool waits = choices[i].has_value() && std::isfinite(choices[i]->delay) &&
                           choices[i]->delay > 0.0;
        if (waits || total_rate > 0.0) {
            elapse_states.push_back(states[i]);
            elapse_by.push_back(waits ? choices[i]->delay : 1.0 / total_rate);
        }
        if (choices[i].has_value() && std::isfinite(choices[i]->delay) &&
            choices[i]->candidate >= 0) {
            eda::NetworkState pre = states[i];
            if (choices[i]->delay > 0.0) net.elapse(pre, choices[i]->delay);
            exec_states.push_back(std::move(pre));
            exec_cands.push_back(cands[i][static_cast<std::size_t>(choices[i]->candidate)]);
        }
    }

    // Times one pass; the pass's checksum is sunk outside the clock.
    auto timed = [](const std::function<double()>& body) {
        const auto t0 = Clock::now();
        const double checksum = body();
        const double dt = seconds_since(t0);
        sink(checksum);
        return dt;
    };
    std::vector<eda::NetworkState> work;
    log.span("eda.step_probes", [&] {
        m.set("eda.invariant_horizon_ns", ns_per_call(n, [&] {
                  return timed([&] {
                      double acc = 0.0;
                      for (const auto& s : states) acc += net.invariant_horizon(s, scratch);
                      return acc;
                  });
              }));
        m.set("eda.candidates_ns", ns_per_call(n, [&] {
                  return timed([&] {
                      double acc = 0.0;
                      for (std::size_t i = 0; i < n; ++i) {
                          acc += static_cast<double>(
                              net.candidates(states[i], horizons[i], scratch).size());
                      }
                      return acc;
                  });
              }));
        m.set("eda.markovian_rates_ns", ns_per_call(n, [&] {
                  return timed([&] {
                      double acc = 0.0;
                      for (const auto& s : states) {
                          acc += static_cast<double>(net.markovian_rates(s, scratch).size());
                      }
                      return acc;
                  });
              }));
        m.set("sim.choose_ns", ns_per_call(n, [&] {
                  return timed([&] {
                      double acc = 0.0;
                      for (std::size_t i = 0; i < n; ++i) {
                          const auto ch =
                              strategy->choose(net, states[i], cands[i], horizons[i], rng);
                          acc += ch.has_value() ? ch->delay : 0.0;
                      }
                      return acc;
                  });
              }));
        m.set("eda.execute_ns", ns_per_call(exec_states.size(), [&] {
                  work = exec_states;
                  return timed([&] {
                      double acc = 0.0;
                      for (std::size_t i = 0; i < work.size(); ++i) {
                          acc += static_cast<double>(
                              net.execute(work[i], exec_cands[i], rng, scratch).fired.size());
                      }
                      return acc;
                  });
              }));
        m.set("eda.execute_markovian_ns", ns_per_call(markov_states.size(), [&] {
                  work = markov_states;
                  return timed([&] {
                      double acc = 0.0;
                      for (std::size_t i = 0; i < work.size(); ++i) {
                          acc += static_cast<double>(
                              net.execute_markovian(work[i], markov_procs[i], rng, scratch)
                                  .fired.size());
                      }
                      return acc;
                  });
              }));
        m.set("eda.elapse_ns", ns_per_call(elapse_states.size(), [&] {
                  work = elapse_states;
                  return timed([&] {
                      double acc = 0.0;
                      for (std::size_t i = 0; i < work.size(); ++i) {
                          net.elapse(work[i], elapse_by[i]);
                          acc += work[i].time;
                      }
                      return acc;
                  });
              }));
    });
}

/// stat consumer: recorded outcomes replayed through a public
/// SampleCollector from kWorkers producer threads while this thread drains
/// exactly as the parallel runners do (drain_rounds one round at a time, or
/// drain_ordered into a CurveSummary) and consults the stop criterion.
void probe_consumer(SpanLog& log, const Workload& w,
                    const std::vector<stat::TaggedSample>& outcomes, Metrics& m) {
    const std::vector<double> grid = w.curve ? curve_grid(w.bound) : std::vector<double>{};
    const stat::ChernoffHoeffding criterion(
        w.curve ? stat::per_bound_delta(stat::BandKind::DKW, kDelta, grid.size()) : kDelta,
        w.eps);
    const std::size_t needed = *criterion.fixed_sample_count();
    const std::size_t per_worker = needed / kWorkers + 2;

    stat::SampleCollector collector(kWorkers);
    std::atomic<bool> stop{false};
    std::vector<double> push_seconds(kWorkers, 0.0);
    std::vector<std::size_t> pushed(kWorkers, 0);
    std::vector<std::thread> producers;
    producers.reserve(kWorkers);
    for (std::size_t p = 0; p < kWorkers; ++p) {
        producers.emplace_back([&, p] {
            const auto t0 = Clock::now();
            std::size_t k = 0;
            for (; k < per_worker && !stop.load(std::memory_order_relaxed); ++k) {
                collector.push(p, outcomes[(p + k * kWorkers) % outcomes.size()]);
            }
            push_seconds[p] = seconds_since(t0);
            pushed[p] = k;
        });
    }

    stat::BernoulliSummary summary;
    stat::CurveSummary curve = w.curve ? stat::CurveSummary(grid) : stat::CurveSummary();
    std::vector<std::uint64_t> tags;
    std::uint64_t steps = 0;
    bool converged = false;
    const double wall = log.span("stat.consume", [&] {
        const auto give_up = Clock::now() + std::chrono::seconds(60);
        while (Clock::now() < give_up) {
            std::size_t consumed = 0;
            if (w.curve) {
                consumed = collector.drain_ordered(
                    summary, &curve, &tags, [&] { return criterion.should_stop_curve(curve); },
                    &steps);
                converged = criterion.should_stop_curve(curve);
            } else {
                consumed = collector.drain_rounds(summary, 1, &tags, &steps);
                converged = criterion.should_stop(summary);
            }
            if (consumed > 0 && converged) break;
            if (consumed == 0) std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    });
    stop.store(true);
    for (auto& t : producers) t.join();
    if (!converged) m.fail("consumer replay did not reach the stop criterion");

    double push_s = 0.0;
    std::size_t pushes = 0;
    for (std::size_t p = 0; p < kWorkers; ++p) {
        push_s += push_seconds[p];
        pushes += pushed[p];
    }
    m.set("stat.consume_samples_per_s", static_cast<double>(summary.count) / wall);
    m.set("stat.push_ns", pushes > 0 ? push_s * 1e9 / static_cast<double>(pushes) : 0.0);
}

/// Runtime-section consumer metrics of a traced parallel answer.
void consumer_report(const AnalysisResult& r, double answer_s, double path_s, Metrics& m) {
    std::uint64_t generated = 0;
    for (const auto& ws : r.report.worker_stats) generated += ws.generated;
    const double accepted = static_cast<double>(r.report.samples);
    m.set("sim.paths_generated", static_cast<double>(generated));
    m.set("sim.accepted_ratio", generated > 0 ? accepted / static_cast<double>(generated) : 0.0);
    m.set("stat.collector_rounds", static_cast<double>(r.report.collector.rounds));
    m.set("stat.max_buffered", static_cast<double>(r.report.collector.max_buffered));
    m.set("sim.parallel_efficiency",
          static_cast<double>(generated) * path_s / (static_cast<double>(kWorkers) * answer_s));
}

/// ctmc: the exhaustive pipeline stage by stage.
void probe_ctmc(SpanLog& log, const Compiled& c, double exact, Metrics& m) {
    const eda::Network net(c.cm);
    ctmc::BuildStats stats;
    ctmc::Imc imc;
    m.set("ctmc.build_s", log.span("ctmc.build_state_space", [&] {
              imc = ctmc::build_state_space(net, *c.property.goal, {}, &stats);
          }));
    ctmc::CtmcModel chain;
    m.set("ctmc.eliminate_s",
          log.span("ctmc.eliminate_vanishing", [&] { chain = ctmc::eliminate_vanishing(imc); }));
    ctmc::CtmcModel lumped;
    m.set("ctmc.minimize_s", log.span("ctmc.minimize", [&] { lumped = ctmc::minimize(chain); }));
    double p = 0.0;
    m.set("ctmc.transient_s", log.span("ctmc.transient_reachability", [&] {
              p = ctmc::transient_reachability(lumped, c.property.bound);
          }));
    m.count("ctmc.states", stats.states);
    m.count("ctmc.transitions", chain.transition_count());
    m.count("ctmc.lumped_states", lumped.state_count());
    m.op("ctmc pipeline on " + c.workload.name,
         std::abs(p - exact) > 1e-9 ? "p=" + std::to_string(p) + " differs from exact" : "");
}

/// rare: SplittingResult fields of a splitting answer, and
/// PathGenerator::step timed on the same model's states.
void probe_rare(SpanLog& log, const Compiled& c, const AnalysisResult& r,
                std::uint64_t seed, std::size_t paths, Metrics& m) {
    const rare::SplittingResult& s = r.splitting;
    m.count("rare.total_paths", s.total_paths);
    m.count("rare.goal_hits", s.goal_hits);
    m.set("rare.paths_per_root", static_cast<double>(s.total_paths) /
                                     static_cast<double>(std::max<std::size_t>(1, s.base_runs)));
    m.set("rare.work_variance", s.relative_half_width * s.relative_half_width *
                                    static_cast<double>(s.total_paths));

    const eda::Network net(c.cm);
    const auto strategy = sim::make_strategy(c.workload.strategy);
    const sim::PathGenerator gen(net, c.property, *strategy);
    const Rng master(seed + 1);
    double step_s = 0.0;
    std::uint64_t calls = 0;
    log.span("sim.step_calls", [&] {
        for (std::uint64_t j = 0; j < paths; ++j) {
            Rng rng = master.split(j);
            eda::NetworkState state = net.initial_state();
            std::size_t steps = 0;
            const auto t0 = Clock::now();
            do {
                ++calls;
            } while (!gen.step(state, rng, steps).has_value());
            step_s += seconds_since(t0);
        }
    });
    m.set("sim.step_call_ns", step_s * 1e9 / static_cast<double>(calls));
}

AnalysisResult traced_answer(SpanLog& log, const Compiled& c, std::uint64_t seed,
                             const std::string& span, double* wall, Metrics& m) {
    AnalysisRequest req = make_request(c.workload, c.cm, seed);
    req.telemetry = true;
    AnalysisResult r;
    const double dt = log.span(span, [&] { r = run_analysis(c.cm, req); });
    if (wall != nullptr) *wall = dt;
    m.op(span + " on " + c.workload.name, check_answer(c.workload, r));
    return r;
}

int cmd_trace(const std::string& name, std::uint64_t seed, Scale scale,
              const std::string& trace_path) {
    const bool tiny = scale == Scale::Tiny;
    SpanLog log;
    Metrics m;
    const Workload w = make_workload(name, scale);

    // Front end and compile (cache misses); the last handle is kept.
    Compiled c{w, probe_frontend(log, w, m), {}};
    c.property = sim::make_reachability(c.cm->model(), w.goal, w.bound);

    // The traced answer: telemetry on, everything else off, at the first
    // answer seed of the untraced runs. It is this process's first answer,
    // as each untraced answer is: a repeat would find the allocator warm
    // (the CTMC answer runs ~25% faster the second time in a process).
    const std::uint64_t s0 = answer_seed(seed, 0);
    double answer_s = 0.0;
    const AnalysisResult r = traced_answer(log, c, s0, "run_analysis", &answer_s, m);

    // sim path; for fig5 the replay covers exactly the curve's path set.
    const std::size_t probe_paths_n =
        w.curve ? r.curve.samples : (tiny ? 2'000 : (name == "gps_scalar" ? 200'000 : 20'000));
    const PathProbe paths = probe_paths(log, c, s0, probe_paths_n, m);
    if (w.curve) {
        m.op("fig5 cross-check", cross_check_curve(paths.outcomes, r.curve, curve_grid(w.bound)));
    }

    probe_steps(log, c, seed, tiny ? 512 : 4096, m);
    probe_consumer(log, w, paths.outcomes, m);

    // Consumer runtime section: the workload's own parallel answer; the CTMC
    // workload samples nothing, so its companion is the table1_r7 answer on
    // the same model; splitting merges root trees without a SampleCollector.
    if (w.mode == AnalysisMode::EstimateParallel) {
        consumer_report(r, answer_s, paths.path_s, m);
    } else if (w.mode == AnalysisMode::CtmcFlow) {
        const Compiled sim_twin = compile_workload("table1_r7", scale);
        double twin_s = 0.0;
        const AnalysisResult twin = traced_answer(log, sim_twin, s0, "run_analysis.companion",
                                                  &twin_s, m);
        consumer_report(twin, twin_s, paths.path_s, m);
    } else {
        const double total = static_cast<double>(r.splitting.total_paths);
        m.set("sim.paths_generated", total);
        m.set("sim.accepted_ratio", 1.0);
        m.set("stat.collector_rounds", 0.0);
        m.set("stat.max_buffered", 0.0);
        m.set("sim.parallel_efficiency",
              total * paths.path_s / (static_cast<double>(kWorkers) * answer_s));
    }

    // ctmc: on this workload's model when it is untimed, else on the
    // table1_ctmc_r7 input.
    if (name == "failover_rare") {
        probe_ctmc(log, c, kFailoverExact, m);
    } else if (name == "table1_r7" || name == "table1_ctmc_r7") {
        probe_ctmc(log, c, kTable1Exact, m);
    } else {
        probe_ctmc(log, compile_workload("table1_ctmc_r7", scale), kTable1Exact, m);
    }

    // rare: this workload's splitting answer, else the failover_rare input.
    if (w.mode == AnalysisMode::EstimateSplitting) {
        probe_rare(log, c, r, s0, tiny ? 2'000 : 20'000, m);
    } else {
        const Compiled rare_home = compile_workload("failover_rare", scale);
        const AnalysisResult rr =
            traced_answer(log, rare_home, s0, "run_analysis.rare", nullptr, m);
        probe_rare(log, rare_home, rr, s0, tiny ? 2'000 : 20'000, m);
    }

    log.write(trace_path);
    json::Value out = json::Value::object();
    out["ok"] = m.errors.size() == 0;
    out["errors"] = m.errors;
    out["attempted"] = m.attempted;
    out["failed"] = m.failed;
    out["answer_s"] = answer_s;
    out["metrics"] = m.values;
    out["counts"] = m.counts;
    print_line(out);
    return 0;
}

// --- reference -------------------------------------------------------------

int cmd_reference(const std::string& name) {
    Compiled c = compile_workload(name, Scale::Full);
    AnalysisRequest req = make_request(c.workload, c.cm, 20'240'601);
    if (name == "table1_r7" || name == "table1_ctmc_r7" || name == "failover_rare") {
        req.mode = AnalysisMode::CtmcFlow;
        req.flow.minimize = true;
    } else if (name == "gps_scalar") {
        req.eps = kGpsReferenceEps;
    } else {
        req.eps = kFig5ReferenceEps;
    }
    const AnalysisResult r = run_analysis(c.cm, req);
    std::printf("%s reference (eps %g): %.15g\n", name.c_str(),
                req.mode == AnalysisMode::CtmcFlow ? 0.0 : req.eps, r.value);
    for (const auto& p : r.curve.points) std::printf("  u=%g: %.6f\n", p.bound, p.estimate);
    return 0;
}

Scale parse_scale(const std::string& s) {
    if (s == "full") return Scale::Full;
    if (s == "tiny") return Scale::Tiny;
    throw std::invalid_argument("scale must be full or tiny");
}

} // namespace

int main(int argc, char** argv) {
    try {
        const std::vector<std::string> a(argv + 1, argv + argc);
        if (a.size() == 6 && a[0] == "measure") {
            return cmd_measure(a[1], std::stoull(a[2]), std::stoull(a[3]), parse_scale(a[4]),
                               std::stoul(a[5]));
        }
        if (a.size() == 5 && a[0] == "trace") {
            return cmd_trace(a[1], std::stoull(a[2]), parse_scale(a[3]), a[4]);
        }
        if (a.size() == 2 && a[0] == "reference") return cmd_reference(a[1]);
        std::fprintf(stderr,
                     "usage: perfbench measure WORKLOAD SEED INDEX full|tiny SETUPS\n"
                     "       perfbench trace WORKLOAD SEED full|tiny TRACE_JSON\n"
                     "       perfbench reference WORKLOAD\n");
        return 2;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
