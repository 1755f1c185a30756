#include "support/metrics_text.hpp"

#include <string>
#include <vector>

namespace slimsim::telemetry {

namespace {

using metrics::label;

/// Every family name prometheus_text may emit; appended live-registry
/// families with these names are skipped so the merged exposition never
/// repeats a `# TYPE` header.
const std::vector<std::string>& report_family_names() {
    static const std::vector<std::string> kNames = {
        "slimsim_info",
        "slimsim_param",
        "slimsim_result_value",
        "slimsim_samples_total",
        "slimsim_successes_total",
        "slimsim_terminal_paths_total",
        "slimsim_curve_simultaneous_eps",
        "slimsim_curve_estimate",
        "slimsim_curve_successes_total",
        "slimsim_splitting_estimate",
        "slimsim_splitting_factor",
        "slimsim_splitting_roots_total",
        "slimsim_splitting_paths_total",
        "slimsim_splitting_clones_total",
        "slimsim_splitting_goal_hits_total",
        "slimsim_splitting_max_level",
        "slimsim_splitting_variance_per_root",
        "slimsim_splitting_relative_half_width",
        "slimsim_splitting_pilot_paths_total",
        "slimsim_splitting_level_crossings_total",
        "slimsim_splitting_level_clones_total",
        "slimsim_coverage_paths_total",
        "slimsim_coverage_elements_known",
        "slimsim_coverage_elements_covered",
        "slimsim_coverage_unreached_modes",
        "slimsim_coverage_never_fired_transitions",
        "slimsim_coverage_mode_visits_total",
        "slimsim_coverage_mode_occupancy_seconds",
        "slimsim_coverage_transition_fires_total",
        "slimsim_coverage_decisions_total",
        "slimsim_run_info",
        "slimsim_workers",
        "slimsim_wall_seconds",
        "slimsim_phase_seconds",
        "slimsim_counter_total",
        "slimsim_histogram_events_total",
        "slimsim_collector_rounds_total",
        "slimsim_collector_discarded_total",
        "slimsim_collector_max_buffered",
        "slimsim_peak_rss_bytes",
    };
    return kNames;
}

} // namespace

std::string prometheus_text(const RunReport& report, const metrics::Registry* live) {
    metrics::Exposition x;

    // --- deterministic section (see header) -------------------------------
    std::string info = label("model", report.model) + "," +
                       label("property", report.property);
    if (!report.strategy.empty()) info += "," + label("strategy", report.strategy);
    if (!report.criterion.empty()) info += "," + label("criterion", report.criterion);
    if (!report.verdict.empty()) info += "," + label("verdict", report.verdict);
    info += "," + label("seed", std::to_string(report.seed));
    x.gauge("slimsim_info", info, 1.0);

    if (!report.params.empty()) {
        x.family("slimsim_param", "gauge");
        for (const auto& [name, v] : report.params) {
            x.sample(label("name", name), json::format_double(v));
        }
    }

    x.gauge("slimsim_result_value", "", report.value);
    x.counter("slimsim_samples_total", "", report.samples);
    x.counter("slimsim_successes_total", "", report.successes);

    if (!report.terminals.empty()) {
        x.family("slimsim_terminal_paths_total", "counter");
        for (const auto& [name, n] : report.terminals) {
            x.sample(label("terminal", name), std::to_string(n));
        }
    }

    if (!report.curve.points.empty()) {
        x.gauge("slimsim_curve_simultaneous_eps", "", report.curve.simultaneous_eps);
        x.family("slimsim_curve_estimate", "gauge");
        for (const auto& p : report.curve.points) {
            x.sample(label("bound", json::format_double(p.bound)),
                     json::format_double(p.estimate));
        }
        x.family("slimsim_curve_successes_total", "counter");
        for (const auto& p : report.curve.points) {
            x.sample(label("bound", json::format_double(p.bound)),
                     std::to_string(p.successes));
        }
    }

    if (report.splitting.enabled) {
        // Final splitting figures from the report: deterministic in
        // (seed, workers), so they live in the deterministic section; the
        // live registry's same-named families are skipped on render.
        const SplittingReport& sp = report.splitting;
        x.gauge("slimsim_splitting_estimate", "", report.value);
        x.gauge("slimsim_splitting_factor", "", static_cast<double>(sp.factor));
        x.counter("slimsim_splitting_roots_total", "", sp.roots);
        x.counter("slimsim_splitting_paths_total", "", sp.total_paths);
        x.counter("slimsim_splitting_goal_hits_total", "", sp.goal_hits);
        x.gauge("slimsim_splitting_max_level", "", static_cast<double>(sp.max_level));
        x.gauge("slimsim_splitting_variance_per_root", "", sp.variance_per_root);
        x.gauge("slimsim_splitting_relative_half_width", "", sp.relative_half_width);
        if (sp.pilot_paths > 0) {
            x.counter("slimsim_splitting_pilot_paths_total", "", sp.pilot_paths);
        }
        std::uint64_t total_clones = 0;
        for (const auto& l : sp.levels) total_clones += l.clones;
        x.counter("slimsim_splitting_clones_total", "", total_clones);
        if (!sp.levels.empty()) {
            x.family("slimsim_splitting_level_crossings_total", "counter");
            for (const auto& l : sp.levels) {
                x.sample(label("level", std::to_string(l.level)),
                         std::to_string(l.crossings));
            }
            x.family("slimsim_splitting_level_clones_total", "counter");
            for (const auto& l : sp.levels) {
                x.sample(label("level", std::to_string(l.level)),
                         std::to_string(l.clones));
            }
        }
    }

    if (report.coverage.enabled) {
        const CoverageReport& cov = report.coverage;
        x.counter("slimsim_coverage_paths_total", "", cov.paths);
        x.gauge("slimsim_coverage_elements_known", "",
                static_cast<double>(cov.total_elements()));
        x.gauge("slimsim_coverage_elements_covered", "",
                static_cast<double>(cov.covered_elements()));
        x.gauge("slimsim_coverage_unreached_modes", "",
                static_cast<double>(cov.unreached_modes().size()));
        x.gauge("slimsim_coverage_never_fired_transitions", "",
                static_cast<double>(cov.never_fired_transitions().size()));
        x.family("slimsim_coverage_mode_visits_total", "counter");
        for (const auto& m : cov.modes) {
            x.sample(label("mode", m.name), std::to_string(m.visits));
        }
        x.family("slimsim_coverage_mode_occupancy_seconds", "gauge");
        for (const auto& m : cov.modes) {
            x.sample(label("mode", m.name), json::format_double(m.occupancy_seconds));
        }
        x.family("slimsim_coverage_transition_fires_total", "counter");
        for (const auto& t : cov.transitions) {
            x.sample(label("transition", t.name) + "," +
                         label("error", t.error_event ? "true" : "false"),
                     std::to_string(t.fires));
        }
        if (!cov.choice_points.empty()) {
            x.family("slimsim_coverage_decisions_total", "counter");
            for (const auto& cp : cov.choice_points) {
                for (const auto& a : cp.alternatives) {
                    x.sample(label("choice_point", cp.key) + "," +
                                 label("alternative", a.name),
                             std::to_string(a.count));
                }
            }
        }
    }

    // --- runtime section ---------------------------------------------------
    x.raw(std::string(kMetricsRuntimeMarker) + "\n");
    x.gauge("slimsim_run_info",
            label("mode", report.mode) + "," +
                label("schema_version", std::to_string(RunReport::kSchemaVersion)),
            1.0);
    x.gauge("slimsim_workers", "", static_cast<double>(report.workers));
    x.gauge("slimsim_wall_seconds", "", report.wall_seconds);
    if (!report.phases.empty()) {
        x.family("slimsim_phase_seconds", "gauge");
        for (const auto& p : report.phases) x.sample(label("phase", p.name), json::format_double(p.seconds));
    }
    if (!report.counters.empty()) {
        x.family("slimsim_counter_total", "counter");
        for (const auto& [name, n] : report.counters) {
            x.sample(label("name", name), std::to_string(n));
        }
    }
    if (!report.histograms.empty()) {
        x.family("slimsim_histogram_events_total", "counter");
        for (const auto& [name, bins] : report.histograms) {
            for (const auto& [bucket, n] : bins) {
                x.sample(label("name", name) + "," + label("bucket", bucket),
                         std::to_string(n));
            }
        }
    }
    if (report.collector.rounds > 0 || report.collector.accepted > 0) {
        x.counter("slimsim_collector_rounds_total", "", report.collector.rounds);
        x.counter("slimsim_collector_discarded_total", "", report.collector.discarded);
        x.gauge("slimsim_collector_max_buffered", "",
                static_cast<double>(report.collector.max_buffered));
    }
    x.gauge("slimsim_peak_rss_bytes", "", static_cast<double>(report.peak_rss_bytes));

    if (live != nullptr) live->render(x, report_family_names());
    return x.take();
}

std::string prometheus_deterministic_section(std::string_view text) {
    const std::size_t pos = text.find(kMetricsRuntimeMarker);
    if (pos == std::string_view::npos) return std::string(text);
    return std::string(text.substr(0, pos));
}

} // namespace slimsim::telemetry
