#include "sim/runner.hpp"

#include <optional>
#include <sstream>

#include "sim/consumer.hpp"
#include "sim/coverage.hpp"
#include "support/diagnostics.hpp"

namespace slimsim::sim {

std::string EstimationResult::to_string() const {
    std::ostringstream os;
    os << "p^ = " << estimate << " (" << successes << "/" << samples << " paths, strategy "
       << strategy << ", " << criterion << ", " << wall_seconds << " s)";
    if (status != RunStatus::Converged) {
        os << " [" << sim::to_string(status) << ": " << stop_cause << "]";
    }
    return os.str();
}

void quarantine_error(std::vector<std::string>& log, std::uint64_t path_index,
                      const char* what) {
    if (log.size() >= kMaxQuarantinedErrors) return;
    log.push_back("path " + std::to_string(path_index) + ": " + what);
}

void fill_run_status(telemetry::RunReport* report, RunStatus status,
                     const std::string& stop_cause, double achieved_half_width,
                     std::uint64_t path_errors, const std::vector<std::string>& error_log) {
    if (report == nullptr) return;
    report->run_status.status = sim::to_string(status);
    report->run_status.stop_cause = stop_cause;
    report->run_status.achieved_half_width = achieved_half_width;
    report->run_status.path_errors = path_errors;
    report->run_status.error_log = error_log;
}

namespace {

/// The sequential venue behind estimate() and estimate_curve(): one inline
/// loop producing paths for the run consumer (sim/consumer.hpp). `curve`
/// and `curve_summary` are both null for a scalar run; a curve run
/// simulates to the largest bound.
EstimationResult run_sequential(const eda::Network& net, const TimedReachability& property,
                                Strategy& strategy, const stat::StopCriterion& criterion,
                                const CurveOptions* curve, stat::CurveSummary* curve_summary,
                                std::uint64_t seed, const SimOptions& options,
                                telemetry::RunReport* report) {
    RunConsumer consumer(property, strategy.name(), criterion, curve, curve_summary, seed,
                         options, 1, nullptr, report);
    // A curve's paths only need to run to its largest bound; the hit time
    // of a path simulated to u_max decides every smaller bound at once.
    TimedReachability horizon = property;
    if (curve != nullptr) horizon.bound = curve->bounds.back();
    const bool coverage = options.coverage;
    std::optional<eda::ElementIndex> element_index;
    std::optional<CoverageShard> shard;
    SimOptions sim_options = options;
    if (coverage) {
        element_index.emplace(net.model());
        shard.emplace(*element_index);
        sim_options.coverage_shard = &*shard;
    }
    PathGenerator gen(net, horizon, strategy, sim_options);
    const Rng master(seed);
    Rng rng(seed);

    // Curves, coverage and checkpoint/resume use per-path RNG streams: path
    // j always simulates with Rng(seed).split(j). The accepted path set then
    // matches a threaded run at any worker count (sim/coverage.hpp), and a
    // resumed run continues the exact path sequence the interrupted run
    // would have produced (docs/robustness.md).
    const bool per_path = curve != nullptr || coverage || options.control.per_path_streams();
    const bool tolerate = options.control.fault.kind == FaultPolicyKind::Tolerate;
    const std::uint64_t base = consumer.base();
    std::uint64_t path_index = base;

    // Witnesses are captured for scalar runs only.
    const bool capture = curve == nullptr && options.witness.per_kind > 0;
    WitnessBuffer witness_buffer(options.witness.per_kind);

    tracer::Span run_span(options.trace_lane,
                          options.trace_lane != nullptr
                              ? options.trace_lane->intern(curve != nullptr
                                                               ? "sim.estimate_curve"
                                                               : "sim.estimate")
                              : tracer::kNoName);

    Rng pre_path(0);
    {
        // Decision observation stays scoped to the sampling loop: the
        // witness replay below reuses `strategy` and must not pollute the
        // decision histograms.
        const ObserverGuard observe(strategy, coverage ? &*shard : nullptr);
        while (!consumer.stopped()) {
            if (per_path) rng = master.split(path_index);
            if (capture && !witness_buffer.saturated()) pre_path = rng;
            PathOutcome out;
            try {
                out = gen.run(rng);
            } catch (const std::exception& e) {
                if (!tolerate) throw;
                // Deterministic fault isolation: the throwing path becomes
                // an Error-tagged unsatisfied sample and its message is
                // quarantined (bounded).
                out = PathOutcome{false, PathTerminal::Error, 0.0, 0};
                consumer.quarantine(0, path_index - base, e.what());
            }
            // Error outcomes must not become witnesses: replaying one would
            // rethrow the fault.
            if (capture && out.terminal != PathTerminal::Error) {
                witness_buffer.offer(path_index, pre_path, out);
            }
            ++path_index;
            consumer.consume(out);
        }
    }
    run_span.end();

    EstimationResult run;
    const std::vector<std::uint64_t> accepted = consumer.accepted_per_worker();
    if (capture) {
        run.witnesses = replay_run_witnesses(net, property, strategy, options,
                                             {&witness_buffer, 1}, accepted);
    }
    if (coverage) {
        const CoverageShard* shard_ptr = &*shard;
        run.coverage = merge_coverage({&shard_ptr, 1}, accepted);
    }
    return consumer.finish(std::move(run), accepted);
}

} // namespace

EstimationResult estimate(const eda::Network& net, const TimedReachability& property,
                          Strategy& strategy, const stat::StopCriterion& criterion,
                          std::uint64_t seed, const SimOptions& options,
                          telemetry::RunReport* report) {
    return run_sequential(net, property, strategy, criterion, nullptr, nullptr, seed,
                          options, report);
}

EstimationResult estimate(const eda::Network& net, const TimedReachability& property,
                          Strategy& strategy, const stat::StopCriterion& criterion,
                          std::uint64_t seed, const SimOptions& options) {
    return estimate(net, property, strategy, criterion, seed, options, nullptr);
}

EstimationResult estimate(const eda::Network& net, const TimedReachability& property,
                          StrategyKind strategy, const stat::StopCriterion& criterion,
                          std::uint64_t seed, const SimOptions& options,
                          telemetry::RunReport* report) {
    const auto strat = make_strategy(strategy);
    return estimate(net, property, *strat, criterion, seed, options, report);
}

std::string CurveResult::to_string() const {
    std::ostringstream os;
    os << "curve over " << points.size() << " bounds (" << samples
       << " shared paths, strategy " << strategy << ", " << criterion << ", " << band
       << " band +-" << simultaneous_eps << ", " << wall_seconds << " s)";
    if (status != RunStatus::Converged) {
        os << " [" << sim::to_string(status) << ": " << stop_cause << "]";
    }
    for (const auto& p : points) {
        os << "\n  u = " << p.bound << "  p^ = " << p.estimate << "  (" << p.successes
           << "/" << samples << ")";
    }
    return os.str();
}

void validate_curve_request(const TimedReachability& property, const CurveOptions& curve) {
    if (property.kind != FormulaKind::Reach || property.lo != 0.0) {
        throw Error("curve estimation supports plain timed reachability "
                    "P( <> [0,u] goal ) only");
    }
    if (curve.bounds.empty()) throw Error("curve estimation needs at least one bound");
    double prev = 0.0;
    for (const double b : curve.bounds) {
        if (!(b > prev)) throw Error("curve bounds must be positive and strictly ascending");
        prev = b;
    }
    if (curve.bounds.back() > property.bound) {
        throw Error("curve bounds must not exceed the property's time bound");
    }
}

CurveResult estimate_curve(const eda::Network& net, const TimedReachability& property,
                           Strategy& strategy, const stat::StopCriterion& criterion,
                           const CurveOptions& curve, std::uint64_t seed,
                           const SimOptions& options, telemetry::RunReport* report) {
    validate_curve_request(property, curve);
    stat::CurveSummary summary(curve.bounds);
    return curve_result(run_sequential(net, property, strategy, criterion, &curve, &summary,
                                       seed, options, report),
                        curve, summary);
}

CurveResult estimate_curve(const eda::Network& net, const TimedReachability& property,
                           StrategyKind strategy, const stat::StopCriterion& criterion,
                           const CurveOptions& curve, std::uint64_t seed,
                           const SimOptions& options, telemetry::RunReport* report) {
    const auto strat = make_strategy(strategy);
    return estimate_curve(net, property, *strat, criterion, curve, seed, options, report);
}

} // namespace slimsim::sim
