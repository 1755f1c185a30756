// Shared bench harness: repetition/warmup timing and the BENCH_<name>.json
// machine-readable result file every bench binary emits alongside its
// human-readable table. CI's bench-smoke job parses these files; keeping the
// schema tiny and stable ({bench, params, rows, timings}) lets throughput
// regressions (e.g. the tracing-disabled overhead bound) be tracked across
// commits by diffing JSON instead of scraping stdout.
#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "support/json.hpp"

namespace slimsim::benchio {

/// Wall-clock statistics over `reps` timed repetitions of a workload
/// (after `warmup` untimed ones).
struct Timing {
    std::vector<double> seconds; // one entry per timed repetition
    double min_seconds = 0.0;
    double mean_seconds = 0.0;
    double max_seconds = 0.0;

    /// {"reps": N, "min_s": ..., "mean_s": ..., "max_s": ..., "all_s": [...]}
    [[nodiscard]] json::Value to_json() const;
};

/// Runs `fn` warmup + reps times, timing the last `reps` runs. Warmup
/// repetitions absorb first-touch costs (page faults, lazily built tables)
/// so min_seconds approximates steady-state cost.
[[nodiscard]] Timing measure(const std::function<void()>& fn, int reps = 3,
                             int warmup = 1);

/// Times two workloads with their repetitions interleaved in pairs (a b,
/// b a, a b, ...) so slow drift of the host (thermal, co-tenants) biases
/// both the same way and neither side always runs first. Use when the
/// *ratio* of the two timings is the reported result, e.g. an
/// instrumentation-overhead bound. seconds[i] of both results form pair i.
[[nodiscard]] std::pair<Timing, Timing>
measure_interleaved(const std::function<void()>& a, const std::function<void()>& b,
                    int reps = 3, int warmup = 1);

/// The overhead of `treated` over `base` in percent, as the median over
/// the pairs of measure_interleaved of treated/base - 1. Unlike a ratio of
/// minimums, one lucky or unlucky repetition on either side cannot move
/// it, which matters for short runs on a shared host.
[[nodiscard]] double paired_median_overhead_percent(const Timing& base,
                                                    const Timing& treated);

/// Accumulates one bench binary's results and writes BENCH_<name>.json on
/// write() (or from the destructor if never written). The document is
/// {"bench": name, "schema": 1, "params": {...}, "rows": [...]} plus any
/// members the bench sets directly on root(). Output goes to the current
/// directory unless the SLIMSIM_BENCH_DIR environment variable names
/// another one.
class Report {
public:
    explicit Report(std::string name);
    Report(const Report&) = delete;
    Report& operator=(const Report&) = delete;
    ~Report();

    /// The whole document, for benches that want custom sections.
    [[nodiscard]] json::Value& root() { return doc_; }

    /// Sets params[key] = value (run configuration: eps, max-r, ...).
    void param(const std::string& key, json::Value value);

    /// Appends one result row (an object built by the bench).
    void add_row(json::Value row);

    /// Writes BENCH_<name>.json; returns the path written. Idempotent.
    std::string write();

private:
    std::string name_;
    json::Value doc_;
    bool written_ = false;
};

} // namespace slimsim::benchio
