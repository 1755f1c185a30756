// Prometheus text-exposition (version 0.0.4) rendering of a run report, so
// long-running estimation jobs are scrapeable by standard infrastructure
// (CLI --metrics-out, docs/coverage.md, docs/observability.md).
//
// The exposition is split in two by a marker comment: everything *above*
// kMetricsRuntimeMarker is deterministic — result values, terminal counts,
// curve points and the coverage profile, none of which depend on wall
// clocks; for coverage/curve runs at a fixed seed the section is
// byte-identical for every worker count. Everything below the marker
// (workers, wall clock, phase data, engine counters, RSS, and any
// appended live-registry families) is runtime- or scheduling-dependent.
//
// Rendering goes through metrics::Exposition — the same writer the live
// /metrics endpoint uses (support/metrics.hpp) — so the file and HTTP
// expositions are one code path.
#pragma once

#include <string>
#include <string_view>

#include "support/metrics.hpp"
#include "support/telemetry.hpp"

namespace slimsim::telemetry {

inline constexpr std::string_view kMetricsRuntimeMarker = metrics::kRuntimeMarker;

/// Renders `report` as Prometheus text exposition: every metric family is
/// announced by a `# TYPE` line before its samples and family names are
/// unique (instruments become labels, not name fragments). When `live` is
/// non-null its families are appended below the runtime marker, skipping any
/// family name the report already emitted.
[[nodiscard]] std::string prometheus_text(const RunReport& report,
                                          const metrics::Registry* live = nullptr);

/// The deterministic prefix of an exposition produced by prometheus_text
/// (everything before kMetricsRuntimeMarker; the whole text if absent).
[[nodiscard]] std::string prometheus_deterministic_section(std::string_view text);

} // namespace slimsim::telemetry
