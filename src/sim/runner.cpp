#include "sim/runner.hpp"

#include <sstream>

#include "sim/consumer.hpp"
#include "sim/executor.hpp"
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

EstimationResult estimate(const eda::Network& net, const TimedReachability& property,
                          Strategy& strategy, const stat::StopCriterion& criterion,
                          std::uint64_t seed, const SimOptions& options,
                          telemetry::RunReport* report) {
    return run_in_process(net, property, &strategy, StrategyKind::Asap, criterion, nullptr,
                          nullptr, seed, {1, options, nullptr}, report);
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
    return curve_result(run_in_process(net, property, &strategy, StrategyKind::Asap, criterion,
                                       &curve, &summary, seed, {1, options, nullptr}, report),
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
