#include "support/telemetry.hpp"

#include <sstream>

namespace slimsim::telemetry {

namespace {

/// CSV field quoting: always quoted, internal quotes doubled (RFC 4180), so
/// element names containing commas or spaces stay one column.
std::string csv_quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"') out += "\"\"";
        else out.push_back(c);
    }
    out += "\"";
    return out;
}

} // namespace

std::uint64_t CoverageReport::covered_elements() const {
    std::uint64_t n = 0;
    for (const auto& m : modes) n += covered(m) ? 1 : 0;
    for (const auto& t : transitions) n += t.fires > 0 ? 1 : 0;
    return n;
}

std::vector<std::string> CoverageReport::unreached_modes() const {
    std::vector<std::string> out;
    for (const auto& m : modes) {
        if (!covered(m)) out.push_back(m.name);
    }
    return out;
}

std::vector<std::string> CoverageReport::never_fired_transitions() const {
    std::vector<std::string> out;
    for (const auto& t : transitions) {
        if (t.fires == 0) out.push_back(t.name);
    }
    return out;
}

json::Value CoverageReport::to_json() const {
    json::Value doc = json::Value::object();
    doc["paths"] = paths;
    json::Value elements = json::Value::object();
    elements["total"] = total_elements();
    elements["covered"] = covered_elements();
    doc["elements"] = std::move(elements);

    json::Value ms = json::Value::array();
    for (const auto& m : modes) {
        json::Value entry = json::Value::object();
        entry["name"] = m.name;
        entry["visits"] = m.visits;
        entry["occupancy_seconds"] = m.occupancy_seconds;
        ms.push_back(std::move(entry));
    }
    doc["modes"] = std::move(ms);

    json::Value ts = json::Value::array();
    for (const auto& t : transitions) {
        json::Value entry = json::Value::object();
        entry["name"] = t.name;
        entry["fires"] = t.fires;
        entry["error_event"] = t.error_event;
        ts.push_back(std::move(entry));
    }
    doc["transitions"] = std::move(ts);

    json::Value cps = json::Value::array();
    for (const auto& cp : choice_points) {
        json::Value entry = json::Value::object();
        entry["key"] = cp.key;
        entry["decisions"] = cp.decisions;
        json::Value alts = json::Value::array();
        for (const auto& a : cp.alternatives) {
            json::Value alt = json::Value::object();
            alt["name"] = a.name;
            alt["count"] = a.count;
            alts.push_back(std::move(alt));
        }
        entry["alternatives"] = std::move(alts);
        cps.push_back(std::move(entry));
    }
    doc["choice_points"] = std::move(cps);

    json::Value sat = json::Value::array();
    for (const auto& p : saturation) {
        json::Value entry = json::Value::object();
        entry["paths"] = p.paths;
        entry["covered"] = p.covered;
        sat.push_back(std::move(entry));
    }
    doc["saturation"] = std::move(sat);

    json::Value unreached = json::Value::array();
    for (const auto& name : unreached_modes()) unreached.push_back(name);
    doc["unreached_modes"] = std::move(unreached);
    json::Value never = json::Value::array();
    for (const auto& name : never_fired_transitions()) never.push_back(name);
    doc["never_fired_transitions"] = std::move(never);
    return doc;
}

std::string CoverageReport::to_csv() const {
    std::string out = "kind,name,count,occupancy_seconds\n";
    for (const auto& m : modes) {
        out += "mode," + csv_quote(m.name) + "," + std::to_string(m.visits) + "," +
               json::format_double(m.occupancy_seconds) + "\n";
    }
    for (const auto& t : transitions) {
        out += std::string(t.error_event ? "error-event," : "transition,") +
               csv_quote(t.name) + "," + std::to_string(t.fires) + ",\n";
    }
    for (const auto& cp : choice_points) {
        for (const auto& a : cp.alternatives) {
            out += "decision," + csv_quote(cp.key + " => " + a.name) + "," +
                   std::to_string(a.count) + ",\n";
        }
    }
    for (const auto& p : saturation) {
        out += "saturation," + csv_quote("paths=" + std::to_string(p.paths)) + "," +
               std::to_string(p.covered) + ",\n";
    }
    return out;
}

std::string CoverageReport::summary_text() const {
    std::ostringstream os;
    std::uint64_t modes_covered = 0;
    for (const auto& m : modes) modes_covered += covered(m) ? 1 : 0;
    std::uint64_t fired = 0;
    std::uint64_t decisions = 0;
    for (const auto& t : transitions) fired += t.fires > 0 ? 1 : 0;
    for (const auto& cp : choice_points) decisions += cp.decisions;
    os << "coverage: " << covered_elements() << "/" << total_elements()
       << " elements over " << paths << " paths (" << modes_covered << "/" << modes.size()
       << " modes, " << fired << "/" << transitions.size() << " transitions)\n";
    os << "  choice points: " << choice_points.size() << " (" << decisions
       << " strategy decisions)\n";
    const auto unreached = unreached_modes();
    if (!unreached.empty()) {
        os << "  warning: " << unreached.size() << " mode(s) never reached:\n";
        for (const auto& name : unreached) os << "    " << name << "\n";
    }
    const auto never = never_fired_transitions();
    if (!never.empty()) {
        os << "  warning: " << never.size() << " transition(s) never fired:\n";
        for (const auto& name : never) os << "    " << name << "\n";
    }
    if (unreached.empty() && never.empty()) {
        os << "  all modes reached and all transitions fired\n";
    }
    return os.str();
}

json::Value RunReport::to_json() const {
    json::Value doc = json::Value::object();
    doc["schema"] = "slimsim-run-report";
    doc["version"] = kSchemaVersion;
    doc["mode"] = mode;
    doc["model"] = model;
    doc["property"] = property;

    json::Value analysis = json::Value::object();
    if (!strategy.empty()) analysis["strategy"] = strategy;
    if (!criterion.empty()) analysis["criterion"] = criterion;
    analysis["seed"] = seed;
    analysis["workers"] = workers;
    for (const auto& [name, v] : params) analysis[name] = v;
    doc["analysis"] = std::move(analysis);

    json::Value result = json::Value::object();
    result["value"] = value;
    if (!verdict.empty()) result["verdict"] = verdict;
    result["samples"] = samples;
    result["successes"] = successes;
    doc["result"] = std::move(result);

    // How the run ended (docs/robustness.md). Deterministic except when the
    // stop cause itself is wall-clock dependent (--max-seconds, SIGINT).
    {
        json::Value rs = json::Value::object();
        rs["status"] = run_status.status;
        if (!run_status.stop_cause.empty()) rs["stop_cause"] = run_status.stop_cause;
        rs["achieved_half_width"] = run_status.achieved_half_width;
        if (run_status.path_errors > 0) rs["path_errors"] = run_status.path_errors;
        if (!run_status.error_log.empty()) {
            json::Value log = json::Value::array();
            for (const auto& msg : run_status.error_log) log.push_back(msg);
            rs["error_log"] = std::move(log);
        }
        doc["run_status"] = std::move(rs);
    }

    if (!terminals.empty()) {
        json::Value t = json::Value::object();
        for (const auto& [name, n] : terminals) t[name] = n;
        doc["terminals"] = std::move(t);
    }

    // Per-worker *accepted* sample counts are deterministic in
    // (seed, workers); *generated* counts depend on thread scheduling and
    // go into the "runtime" section below.
    if (!worker_stats.empty()) {
        json::Value ws = json::Value::array();
        for (const auto& w : worker_stats) {
            json::Value entry = json::Value::object();
            entry["worker"] = w.worker;
            entry["rng_stream"] = w.rng_stream;
            entry["samples"] = w.accepted;
            ws.push_back(std::move(entry));
        }
        doc["workers"] = std::move(ws);
    }

    if (collector.rounds > 0 || collector.accepted > 0) {
        json::Value c = json::Value::object();
        c["rounds"] = collector.rounds;
        c["accepted"] = collector.accepted;
        doc["collector"] = std::move(c);
    }

    if (!stop_trajectory.empty()) {
        json::Value traj = json::Value::array();
        for (const auto& p : stop_trajectory) {
            json::Value entry = json::Value::object();
            entry["samples"] = p.samples;
            entry["required"] = p.required;
            entry["successes"] = p.successes;
            traj.push_back(std::move(entry));
        }
        json::Value sc = json::Value::object();
        sc["trajectory"] = std::move(traj);
        doc["stop_criterion"] = std::move(sc);
    }

    // The curve section is deterministic in (seed, workers) like the result
    // section — with per-path RNG streams it is in fact identical for every
    // worker count.
    if (!curve.points.empty()) {
        json::Value pts = json::Value::array();
        for (const auto& p : curve.points) {
            json::Value entry = json::Value::object();
            entry["bound"] = p.bound;
            entry["estimate"] = p.estimate;
            entry["successes"] = p.successes;
            pts.push_back(std::move(entry));
        }
        json::Value c = json::Value::object();
        c["band"] = curve.band;
        c["simultaneous_eps"] = curve.simultaneous_eps;
        c["points"] = std::move(pts);
        doc["curve"] = std::move(c);
    }

    // The supervision section (docs/supervision.md) is deterministic under
    // a deterministic fault-injection schedule; real-world failures make it
    // run-dependent, which is why byte-identity comparisons exclude it (the
    // result/terminals/curve sections above stay identical regardless).
    if (supervision.enabled) {
        json::Value sv = json::Value::object();
        sv["processes"] = supervision.processes;
        sv["spawns"] = supervision.spawns;
        sv["restarts"] = supervision.restarts;
        sv["reassigned_paths"] = supervision.reassigned_paths;
        sv["injected_faults"] = supervision.injected_faults;
        json::Value by = json::Value::object();
        for (const auto& [reason, n] : supervision.restarts_by_reason) by[reason] = n;
        sv["restarts_by_reason"] = std::move(by);
        sv["worker_timeout_seconds"] = supervision.worker_timeout_seconds;
        sv["worker_retries"] = supervision.worker_retries;
        doc["supervision"] = std::move(sv);
    }

    // The splitting section is deterministic in the seed alone: root trees
    // merge into the estimate in global root order (docs/rare-events.md).
    if (splitting.enabled) {
        json::Value sp = json::Value::object();
        sp["level"] = splitting.level;
        sp["factor"] = splitting.factor;
        sp["roots"] = splitting.roots;
        sp["total_paths"] = splitting.total_paths;
        sp["goal_hits"] = splitting.goal_hits;
        sp["max_level"] = splitting.max_level;
        sp["variance_per_root"] = splitting.variance_per_root;
        sp["relative_half_width"] = splitting.relative_half_width;
        if (splitting.pilot_paths > 0) {
            sp["pilot_paths"] = splitting.pilot_paths;
            json::Value th = json::Value::array();
            for (const auto t : splitting.auto_thresholds) th.push_back(t);
            sp["auto_thresholds"] = std::move(th);
        }
        json::Value rows = json::Value::array();
        for (const auto& row : splitting.levels) {
            json::Value entry = json::Value::object();
            entry["level"] = row.level;
            entry["crossings"] = row.crossings;
            entry["clones"] = row.clones;
            rows.push_back(std::move(entry));
        }
        sp["levels"] = std::move(rows);
        doc["splitting"] = std::move(sp);
    }

    // The coverage profile is deterministic in the seed alone (coverage
    // runs use per-path RNG streams; occupancy is model time), so it lives
    // in the deterministic part of the document.
    if (coverage.enabled) doc["coverage"] = coverage.to_json();

    // Compile-time facts are a pure function of the model text and live in
    // the deterministic part of the document.
    if (compiled_model.present) {
        json::Value cmj = json::Value::object();
        cmj["content_hash"] = compiled_model.content_hash;
        cmj["programs"] = compiled_model.programs;
        cmj["unique_programs"] = compiled_model.unique_programs;
        cmj["nodes"] = compiled_model.nodes;
        cmj["bytecode_bytes"] = compiled_model.bytecode_bytes;
        doc["compiled_model"] = std::move(cmj);
    }

    // Estimator health checks (stat/diagnostics) are computed from the
    // deterministic fields above, so the section itself is deterministic.
    if (diagnostics.enabled) {
        json::Value dg = json::Value::object();
        dg["warnings"] = diagnostics.warnings;
        json::Value checks = json::Value::array();
        for (const auto& item : diagnostics.items) {
            json::Value entry = json::Value::object();
            entry["check"] = item.check;
            entry["severity"] = item.severity;
            entry["value"] = item.value;
            if (!item.hint.empty()) entry["hint"] = item.hint;
            checks.push_back(std::move(entry));
        }
        dg["checks"] = std::move(checks);
        doc["diagnostics"] = std::move(dg);
    }

    // Engine counters/histograms count events over *generated* paths;
    // with one worker that is deterministic, with several it depends on
    // when the stop flag lands, so they move under "runtime".
    const bool shared_instruments = workers > 1;
    json::Value counter_obj = json::Value::object();
    for (const auto& [name, n] : counters) counter_obj[name] = n;
    json::Value histo_obj = json::Value::object();
    for (const auto& [name, bins] : histograms) {
        json::Value h = json::Value::object();
        for (const auto& [label, n] : bins) h[label] = n;
        histo_obj[name] = std::move(h);
    }
    if (!shared_instruments) {
        if (counter_obj.size() > 0) doc["counters"] = std::move(counter_obj);
        if (histo_obj.size() > 0) doc["histograms"] = std::move(histo_obj);
    }

    // Everything below is wall-clock or scheduling dependent: two runs with
    // the same (seed, workers) may differ here and nowhere else.
    json::Value runtime = json::Value::object();
    runtime["wall_seconds"] = wall_seconds;
    if (!phases.empty()) {
        json::Value ph = json::Value::object();
        for (const auto& p : phases) ph[p.name] = p.seconds;
        runtime["phases"] = std::move(ph);
    }
    if (shared_instruments) {
        json::Value gen = json::Value::array();
        for (const auto& w : worker_stats) gen.push_back(w.generated);
        runtime["generated"] = std::move(gen);
        json::Value c = json::Value::object();
        c["discarded"] = collector.discarded;
        c["max_buffered"] = collector.max_buffered;
        runtime["collector"] = std::move(c);
        if (counter_obj.size() > 0) runtime["counters"] = std::move(counter_obj);
        if (histo_obj.size() > 0) runtime["histograms"] = std::move(histo_obj);
    }
    doc["runtime"] = std::move(runtime);

    json::Value resources = json::Value::object();
    resources["peak_rss_bytes"] = peak_rss_bytes;
    doc["resources"] = std::move(resources);
    return doc;
}

std::string RunReport::to_text() const {
    std::ostringstream os;
    os << "run report (schema v" << kSchemaVersion << ")\n";
    os << "  mode:       " << mode << "\n";
    os << "  model:      " << model << "\n";
    os << "  property:   " << property << "\n";
    if (!strategy.empty()) os << "  strategy:   " << strategy << "\n";
    if (!criterion.empty()) os << "  criterion:  " << criterion << "\n";
    os << "  seed:       " << seed << "   workers: " << workers << "\n";
    for (const auto& [name, v] : params) os << "  " << name << ": " << v << "\n";
    os << "  value:      " << value;
    if (!verdict.empty()) os << "  (" << verdict << ")";
    os << "\n";
    os << "  samples:    " << samples << " (" << successes << " successes)\n";
    os << "  status:     " << run_status.status;
    if (!run_status.stop_cause.empty()) os << " (" << run_status.stop_cause << ")";
    if (run_status.achieved_half_width > 0.0) {
        os << "  achieved +-" << run_status.achieved_half_width;
    }
    os << "\n";
    if (run_status.path_errors > 0) {
        os << "  path errors: " << run_status.path_errors << " quarantined";
        os << " (" << run_status.error_log.size() << " messages kept)\n";
        for (const auto& msg : run_status.error_log) os << "    " << msg << "\n";
    }
    if (!terminals.empty()) {
        os << "  terminals:  ";
        bool first = true;
        for (const auto& [name, n] : terminals) {
            if (!first) os << "  ";
            os << name << "=" << n;
            first = false;
        }
        os << "\n";
    }
    if (!worker_stats.empty()) {
        os << "  workers:\n";
        for (const auto& w : worker_stats) {
            os << "    [" << w.worker << "] stream=" << w.rng_stream
               << " generated=" << w.generated << " accepted=" << w.accepted << "\n";
        }
    }
    if (collector.rounds > 0 || collector.discarded > 0) {
        os << "  collector:  rounds=" << collector.rounds
           << " accepted=" << collector.accepted << " discarded=" << collector.discarded
           << " max_buffered=" << collector.max_buffered << "\n";
    }
    if (!stop_trajectory.empty()) {
        os << "  stop criterion trajectory (n / required):";
        for (const auto& p : stop_trajectory) {
            os << " " << p.samples << "/" << (p.required == 0 ? std::string("-")
                                                              : std::to_string(p.required));
        }
        os << "\n";
    }
    if (!curve.points.empty()) {
        os << "  curve (" << curve.band << ", +-" << curve.simultaneous_eps << "):\n";
        for (const auto& p : curve.points) {
            os << "    u=" << p.bound << "  p^=" << p.estimate << "  successes="
               << p.successes << "\n";
        }
    }
    if (supervision.enabled) {
        os << "  supervision: processes=" << supervision.processes
           << " spawns=" << supervision.spawns << " restarts=" << supervision.restarts
           << " reassigned_paths=" << supervision.reassigned_paths << "\n";
        os << "    restarts by reason:";
        for (const auto& [reason, n] : supervision.restarts_by_reason) {
            os << " " << reason << "=" << n;
        }
        os << "\n";
    }
    if (splitting.enabled) {
        os << "  splitting:  level=" << splitting.level << " factor=" << splitting.factor
           << " roots=" << splitting.roots << " paths=" << splitting.total_paths
           << " goal_hits=" << splitting.goal_hits << " max_level="
           << splitting.max_level << "\n";
        os << "    variance/root=" << splitting.variance_per_root
           << "  rel. half-width=" << splitting.relative_half_width << "\n";
        if (splitting.pilot_paths > 0) {
            os << "    auto placement: " << splitting.pilot_paths
               << " pilot paths, thresholds [";
            bool first = true;
            for (const auto t : splitting.auto_thresholds) {
                if (!first) os << " ";
                os << t;
                first = false;
            }
            os << "]\n";
        }
        for (const auto& row : splitting.levels) {
            os << "    level " << row.level << ": crossings=" << row.crossings
               << " clones=" << row.clones << "\n";
        }
    }
    if (coverage.enabled) {
        os << "  " << coverage.summary_text();
    }
    if (diagnostics.enabled) {
        os << "  diagnostics: " << diagnostics.warnings << " warning(s) over "
           << diagnostics.items.size() << " check(s)\n";
        for (const auto& item : diagnostics.items) {
            if (item.severity == "ok") continue;
            os << "    [" << item.severity << "] " << item.check << " = "
               << item.value;
            if (!item.hint.empty()) os << " — " << item.hint;
            os << "\n";
        }
    }
    if (compiled_model.present) {
        os << "  compiled:   " << compiled_model.unique_programs << "/"
           << compiled_model.programs << " unique programs, " << compiled_model.nodes
           << " nodes, " << compiled_model.bytecode_bytes << " bytecode bytes, hash "
           << compiled_model.content_hash << "\n";
    }
    for (const auto& [name, n] : counters) {
        os << "  counter " << name << " = " << n << "\n";
    }
    for (const auto& [name, bins] : histograms) {
        os << "  histogram " << name << ":";
        for (const auto& [label, n] : bins) os << " [" << label << "]=" << n;
        os << "\n";
    }
    if (!phases.empty()) {
        os << "  phases:     ";
        bool first = true;
        for (const auto& p : phases) {
            if (!first) os << "  ";
            os << p.name << "=" << p.seconds << "s";
            first = false;
        }
        os << "\n";
    }
    os << "  wall:       " << wall_seconds << " s\n";
    os << "  peak rss:   " << peak_rss_bytes << " bytes\n";
    return os.str();
}

json::Value deterministic_view(const json::Value& report) {
    json::Value out = json::Value::object();
    for (const auto& [key, value] : report.members()) {
        if (key == "runtime" || key == "resources") continue;
        out[key] = value;
    }
    return out;
}

} // namespace slimsim::telemetry
