// slimsim - statistical model checker for SLIM (AADL dialect) models.
//
// Usage:
//   slimsim MODEL.slim --goal EXPR --bound TIME [options]
//
// Estimates P( <> [0,TIME] EXPR ) by Monte Carlo simulation (the paper's
// tool), or exactly via the CTMC flow for untimed models (--ctmc).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>

#include "api/analysis.hpp"
#include "eda/network.hpp"
#include <filesystem>
#include <fstream>

#include "support/atomic_file.hpp"

#include "props/pattern.hpp"
#include "support/journal.hpp"
#include "support/metrics_text.hpp"
#include "safety/fmea.hpp"
#include "sim/vcd.hpp"
#include "slim/parser.hpp"
#include "slim/printer.hpp"
#include "slim/summary.hpp"
#include "slim/validate.hpp"

namespace {

using namespace slimsim;

void usage() {
    std::puts(
        "slimsim - statistical model checker for SLIM (AADL dialect) models\n"
        "\n"
        "usage: slimsim MODEL.slim (--goal EXPR --bound TIME | --property PATTERN)\n"
        "               [options]\n"
        "\n"
        "property:\n"
        "  --goal EXPR          Boolean goal over data elements (e.g. 'gps.measurement')\n"
        "  --bound TIME         upper time bound, e.g. '1800', '30 min', '2 hour'\n"
        "  --property PATTERN   one of:\n"
        "                         probability of reaching EXPR within TIME\n"
        "                         probability of reaching EXPR between T1 and T2\n"
        "                         probability of EXPR until EXPR within TIME\n"
        "                         probability of maintaining EXPR for TIME\n"
        "                         P( <> [LO,HI] EXPR ) | P( [] [0,T] EXPR )\n"
        "                         P( (EXPR) U [LO,HI] (EXPR) )\n"
        "\n"
        "analysis (default: Monte Carlo simulation):\n"
        "  --strategy NAME      asap | progressive (default) | local | maxtime | input\n"
        "  --delta D            1 - confidence, in (0,1) (default 0.05)\n"
        "  --eps E              error bound, in (0,1) (default 0.01)\n"
        "  --criterion NAME     ch (default) | gauss | chow-robbins\n"
        "  --seed N             RNG seed (default 1)\n"
        "  --workers K          parallel workers (default 1 = sequential)\n"
        "  --curve U1,U2,...    estimate the whole curve P( <> [0,u] goal ) at the\n"
        "                       given ascending bounds from ONE shared path set\n"
        "  --curve-grid N       same, over a uniform N-point grid up to --bound\n"
        "  --curve-band NAME    simultaneous confidence band over the grid:\n"
        "                       dkw (default) | bonferroni\n"
        "  --curve-csv FILE     also write the curve as CSV\n"
        "                       (header: bound,estimate,successes,samples)\n"
        "  --paths N            print N simulated paths instead of estimating\n"
        "  --deadlock POLICY    falsify (default) | error\n"
        "  --timelock POLICY    falsify (default) | error\n"
        "  --memory POLICY      restart (default) | continue\n"
        "  --ctmc               exhaustive CTMC flow (untimed models only)\n"
        "  --no-minimize        skip bisimulation minimization in the CTMC flow\n"
        "  --test THRESHOLD     qualitative mode: SPRT test of P >= THRESHOLD\n"
        "  --indifference W     SPRT indifference half-width (default 0.01)\n"
        "  --fmea               FMEA table for the failure condition (the goal)\n"
        "\n"
        "rare events (docs/rare-events.md):\n"
        "  --split EXPR         estimate a rare event by fixed importance\n"
        "                       splitting: EXPR is an integer level function\n"
        "                       over data elements that grows toward the goal\n"
        "                       (e.g. 'sys.failed_count')\n"
        "  --split-auto         derive the level function automatically from\n"
        "                       the error-model state profile via a pilot run\n"
        "  --split-factor N     clones per first upward level crossing\n"
        "                       (default 8)\n"
        "  --split-roots N      root paths at level 0 (default 4096)\n"
        "  --split-max-paths N  budget on total simulated paths across all\n"
        "                       levels (default 10000000); on exhaustion the\n"
        "                       partial estimate is returned (exit 0)\n"
        "  --split-pilot N      pilot paths for --split-auto level placement\n"
        "                       (default 256)\n"
        "  --cut-sets K         minimal static cut sets up to order K\n"
        "  --validate           parse, instantiate and validate only\n"
        "  --info               print the instantiated model inventory\n"
        "  --print              print the normalized (pretty-printed) model\n"
        "  --vcd FILE           dump one simulated path as a VCD waveform\n"
        "\n"
        "reporting:\n"
        "  --json FILE          write the structured run report as versioned JSON\n"
        "                       ('-' for stdout; schema: docs/run-report.md)\n"
        "  --report             print the human-readable run report\n"
        "  --no-telemetry       skip the report's engine counters/histograms\n"
        "  --compile-stats      print the compiled model's statistics (programs,\n"
        "                       hash-consing dedup, bytecode size, content hash;\n"
        "                       docs/compiled-model.md)\n"
        "\n"
        "observability (docs/tracing.md):\n"
        "  --trace FILE         write a Chrome trace-event JSON timeline of the\n"
        "                       run (open in Perfetto / chrome://tracing)\n"
        "  --witness DIR        save the first accepting and non-accepting paths\n"
        "                       as text + VCD witness files under DIR\n"
        "  --progress           stream live progress (samples, estimate, CI\n"
        "                       half-width, ETA) to stderr while estimating\n"
        "  --coverage [FILE.csv]\n"
        "                       profile model coverage over the accepted paths:\n"
        "                       mode visits and time-in-mode occupancy, transition\n"
        "                       fire counts, strategy decision histograms and the\n"
        "                       coverage-saturation series; warns about unreached\n"
        "                       modes and never-fired transitions; optionally also\n"
        "                       written as CSV (docs/coverage.md)\n"
        "  --metrics-out FILE   write run metrics in Prometheus text exposition\n"
        "                       format (result/coverage gauges + engine counters;\n"
        "                       docs/coverage.md)\n"
        "  --serve-metrics PORT serve live run introspection over HTTP on\n"
        "                       127.0.0.1:PORT while the analysis runs:\n"
        "                       /metrics (Prometheus text), /status (JSON\n"
        "                       progress snapshot), /healthz. PORT 0 binds an\n"
        "                       ephemeral port, printed to stderr\n"
        "                       (docs/observability.md); with --log the server\n"
        "                       also exposes /series (progress time series) and\n"
        "                       /journal?tail=N (journal tail as JSONL)\n"
        "  --log FILE           write a structured run journal as JSONL: run\n"
        "                       lifecycle, stop-criterion marks, checkpoint\n"
        "                       writes, fault quarantines and splitting level\n"
        "                       events (docs/observability.md)\n"
        "  --log-level LEVEL    journal verbosity: info | debug | trace\n"
        "                       (default info; needs --log)\n"
        "\n"
        "run hardening (docs/robustness.md):\n"
        "  --max-seconds T      wall-clock budget; on exhaustion the partial\n"
        "                       estimate is returned with its achieved half-width\n"
        "                       (one-line warning, exit 0)\n"
        "  --max-samples N      accepted-sample budget\n"
        "  --max-steps N        budget on discrete steps over accepted paths\n"
        "  --max-path-steps N   per-path step cap (Zeno guard; default 1000000)\n"
        "  --fault POLICY       failfast (default) | tolerate: a throwing path\n"
        "                       becomes an error-tagged sample instead of\n"
        "                       aborting the run\n"
        "  --max-path-errors N  tolerate only: error samples beyond N stop the\n"
        "                       run as degraded (default 100)\n"
        "  --checkpoint FILE    write a resumable snapshot when the run stops\n"
        "                       (also on SIGINT/SIGTERM and budget exhaustion)\n"
        "  --checkpoint-every N also snapshot every N accepted samples\n"
        "  --resume FILE        continue a checkpointed run; byte-identical to\n"
        "                       the uninterrupted run at any worker count\n"
        "\n"
        "process isolation (docs/supervision.md):\n"
        "  --processes N        run the estimation across N supervised worker\n"
        "                       subprocesses: a worker that crashes, stalls or\n"
        "                       corrupts a frame is killed and restarted, its\n"
        "                       unacknowledged paths reassigned; the result is\n"
        "                       byte-identical to the in-process run at every\n"
        "                       process count and crash schedule\n"
        "  --worker-timeout T   heartbeat deadline before a silent worker is\n"
        "                       declared stalled and replaced (default 10s)\n"
        "  --worker-retries R   restarts per worker slot before the run degrades\n"
        "                       to a partial result (default 3)\n"
        "  --inject KIND@PATH   deterministic fault injection for testing:\n"
        "                       worker-crash@N | worker-stall@N | frame-corrupt@N\n"
        "                       fires when the worker owning global path N\n"
        "                       reaches it (repeatable)\n");
}

/// Validates confidence-style flags at the CLI boundary so a bad value
/// yields one diagnostic naming the flag instead of a bare engine error.
double parse_unit_interval(const std::string& text, const char* flag) {
    double value = 0.0;
    std::size_t used = 0;
    try {
        value = std::stod(text, &used);
    } catch (const std::exception&) {
        used = 0;
    }
    if (used != text.size() || !(value > 0.0 && value < 1.0)) {
        throw Error(std::string(flag) + " expects a value in (0,1), got `" + text + "`");
    }
    return value;
}

/// Integer flags (counts, budgets): one diagnostic naming the flag instead
/// of a bare std::stoul exception or a silently-wrapped negative.
std::uint64_t parse_count(const std::string& text, const char* flag,
                          std::uint64_t min_value = 1) {
    std::uint64_t value = 0;
    std::size_t used = 0;
    try {
        if (text.empty() || text[0] == '-') throw Error("negative");
        value = std::stoull(text, &used);
    } catch (const std::exception&) {
        used = 0;
    }
    if (used != text.size() || value < min_value) {
        throw Error(std::string(flag) + " expects an integer >= " +
                    std::to_string(min_value) + ", got `" + text + "`");
    }
    return value;
}

double parse_duration(const std::string& text) {
    std::istringstream is(text);
    double value = 0.0;
    if (!(is >> value)) throw Error("cannot parse duration `" + text + "`");
    std::string unit;
    is >> unit;
    std::string rest;
    if (is >> rest) throw Error("unexpected `" + rest + "` in duration `" + text + "`");
    if (unit.empty() || unit == "sec" || unit == "s") return value;
    if (unit == "msec" || unit == "ms") return value * 1e-3;
    if (unit == "min") return value * 60.0;
    if (unit == "hour" || unit == "h") return value * 3600.0;
    if (unit == "day") return value * 86400.0;
    throw Error("unknown time unit `" + unit + "`");
}

/// Interactive step resolution (the paper's Input strategy).
std::optional<sim::ScheduledChoice> interactive_choice(const eda::Network& net,
                                                       const eda::NetworkState& state,
                                                       std::span<const eda::Candidate> cands,
                                                       double horizon) {
    std::printf("\n-- state: %s\n", sim::describe_state(net, state).c_str());
    std::printf("-- invariant horizon: %g\n", horizon);
    for (std::size_t i = 0; i < cands.size(); ++i) {
        std::printf("  [%zu] %s\n", i, cands[i].describe(net.model()).c_str());
    }
    std::printf("enter: INDEX DELAY (fire candidate after delay), 'd DELAY' (delay only),"
                " or 'q' (give up)\n> ");
    std::fflush(stdout);
    std::string line;
    while (std::getline(std::cin, line)) {
        std::istringstream is(line);
        std::string first;
        if (!(is >> first)) {
            std::printf("> ");
            std::fflush(stdout);
            continue;
        }
        if (first == "q") return std::nullopt;
        if (first == "d") {
            double d = 0.0;
            if (is >> d && d >= 0.0 && d <= horizon) return sim::ScheduledChoice{d, -1};
        } else {
            const int idx = std::atoi(first.c_str());
            double d = 0.0;
            if (!(is >> d)) d = cands.empty() ? 0.0 : 0.0;
            if (idx >= 0 && static_cast<std::size_t>(idx) < cands.size() &&
                cands[static_cast<std::size_t>(idx)].enabled.contains(d)) {
                return sim::ScheduledChoice{d, idx};
            }
        }
        std::printf("invalid input; try again\n> ");
        std::fflush(stdout);
    }
    return std::nullopt;
}

int run(int argc, char** argv) {
    std::string model_path;
    std::string goal_text;
    std::string property_text;
    double bound = -1.0;
    std::string strategy_name = "progressive";
    double delta = 0.05;
    double eps = 0.01;
    std::string criterion_name = "ch";
    std::uint64_t seed = 1;
    std::size_t workers = 1;
    std::size_t trace_paths = 0;
    bool use_ctmc = false;
    bool minimize = true;
    bool validate_only = false;
    bool compile_stats = false;
    double test_threshold = -1.0;
    double indifference = 0.01;
    bool run_fmea = false;
    int cut_set_order = 0;
    bool show_info = false;
    bool print_normalized = false;
    std::string vcd_path;
    std::string json_path;
    std::string trace_path;
    std::string witness_dir;
    std::string curve_list;
    std::size_t curve_grid = 0;
    std::string curve_band_name = "dkw";
    std::string curve_csv_path;
    bool show_progress = false;
    bool show_report = false;
    bool telemetry = true;
    bool coverage = false;
    std::string coverage_csv_path;
    std::string metrics_path;
    std::string log_path;
    std::string log_level_name;
    bool serve_enabled = false;
    std::uint64_t serve_port = 0;
    std::string checkpoint_path;
    std::string resume_path;
    std::uint64_t checkpoint_every = 0;
    std::string split_level;
    bool split_auto = false;
    std::size_t split_factor = 8;
    std::size_t split_roots = 4096;
    std::size_t split_max_paths = 10'000'000;
    std::size_t split_pilot = 256;
    std::size_t processes = 0;
    double worker_timeout = 10.0;
    std::uint64_t worker_retries = 3;
    bool worker_timeout_set = false;
    bool worker_retries_set = false;
    std::vector<sim::supervise::FaultInjection> injections;
    sim::RunBudget budget;
    sim::FaultPolicy fault;
    sim::SimOptions sim_options;

    auto need_value = [&](int& i, const char* flag) -> std::string {
        if (i + 1 >= argc) throw Error(std::string("missing value for ") + flag);
        return argv[++i];
    };

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (arg == "--goal") {
            goal_text = need_value(i, "--goal");
        } else if (arg == "--bound") {
            const std::string text = need_value(i, "--bound");
            bound = parse_duration(text);
            if (!(bound > 0.0)) {
                throw Error("--bound expects a positive duration, got `" + text + "`");
            }
        } else if (arg == "--property") {
            property_text = need_value(i, "--property");
        } else if (arg == "--strategy") {
            strategy_name = need_value(i, "--strategy");
        } else if (arg == "--delta") {
            delta = parse_unit_interval(need_value(i, "--delta"), "--delta");
        } else if (arg == "--eps") {
            eps = parse_unit_interval(need_value(i, "--eps"), "--eps");
        } else if (arg == "--criterion") {
            criterion_name = need_value(i, "--criterion");
        } else if (arg == "--seed") {
            seed = parse_count(need_value(i, "--seed"), "--seed", 0);
        } else if (arg == "--workers") {
            workers = parse_count(need_value(i, "--workers"), "--workers");
        } else if (arg == "--processes") {
            processes = parse_count(need_value(i, "--processes"), "--processes");
        } else if (arg == "--worker-timeout") {
            worker_timeout = parse_duration(need_value(i, "--worker-timeout"));
            if (worker_timeout <= 0.0) {
                throw Error("--worker-timeout expects a positive duration");
            }
            worker_timeout_set = true;
        } else if (arg == "--worker-retries") {
            worker_retries = parse_count(need_value(i, "--worker-retries"),
                                         "--worker-retries", 0);
            worker_retries_set = true;
        } else if (arg == "--inject") {
            injections.push_back(
                sim::supervise::parse_injection(need_value(i, "--inject")));
        } else if (arg == "--curve") {
            curve_list = need_value(i, "--curve");
        } else if (arg == "--curve-grid") {
            curve_grid = parse_count(need_value(i, "--curve-grid"), "--curve-grid");
        } else if (arg == "--curve-band") {
            curve_band_name = need_value(i, "--curve-band");
        } else if (arg == "--curve-csv") {
            curve_csv_path = need_value(i, "--curve-csv");
        } else if (arg == "--paths") {
            trace_paths = parse_count(need_value(i, "--paths"), "--paths");
        } else if (arg == "--max-seconds") {
            budget.max_wall_seconds = parse_duration(need_value(i, "--max-seconds"));
            if (budget.max_wall_seconds <= 0.0) {
                throw Error("--max-seconds expects a positive duration");
            }
        } else if (arg == "--max-samples") {
            budget.max_samples = parse_count(need_value(i, "--max-samples"),
                                             "--max-samples");
        } else if (arg == "--max-steps") {
            budget.max_total_steps = parse_count(need_value(i, "--max-steps"),
                                                 "--max-steps");
        } else if (arg == "--max-path-steps") {
            sim_options.max_steps = parse_count(need_value(i, "--max-path-steps"),
                                                "--max-path-steps");
        } else if (arg == "--fault") {
            const std::string policy = need_value(i, "--fault");
            if (policy == "tolerate") {
                fault.kind = sim::FaultPolicyKind::Tolerate;
            } else if (policy != "failfast") {
                throw Error("--fault expects failfast | tolerate, got `" + policy + "`");
            }
        } else if (arg == "--max-path-errors") {
            fault.max_path_errors =
                parse_count(need_value(i, "--max-path-errors"), "--max-path-errors", 0);
        } else if (arg == "--checkpoint") {
            checkpoint_path = need_value(i, "--checkpoint");
        } else if (arg == "--checkpoint-every") {
            checkpoint_every = parse_count(need_value(i, "--checkpoint-every"),
                                           "--checkpoint-every");
        } else if (arg == "--resume") {
            resume_path = need_value(i, "--resume");
        } else if (arg == "--trace") {
            trace_path = need_value(i, "--trace");
        } else if (arg == "--witness") {
            witness_dir = need_value(i, "--witness");
        } else if (arg == "--progress") {
            show_progress = true;
        } else if (arg == "--coverage") {
            coverage = true;
            // The CSV path is optional; only a *.csv value is consumed so a
            // following flag or model path is never swallowed.
            if (i + 1 < argc) {
                const std::string next = argv[i + 1];
                if (next.size() > 4 && next.substr(next.size() - 4) == ".csv") {
                    coverage_csv_path = argv[++i];
                }
            }
        } else if (arg == "--metrics-out") {
            metrics_path = need_value(i, "--metrics-out");
        } else if (arg == "--log") {
            log_path = need_value(i, "--log");
        } else if (arg == "--log-level") {
            log_level_name = need_value(i, "--log-level");
        } else if (arg == "--serve-metrics") {
            serve_enabled = true;
            serve_port = parse_count(need_value(i, "--serve-metrics"),
                                     "--serve-metrics", 0);
            if (serve_port > 65535) {
                throw Error("--serve-metrics: port must be in [0, 65535]");
            }
        } else if (arg == "--split") {
            split_level = need_value(i, "--split");
        } else if (arg == "--split-auto") {
            split_auto = true;
        } else if (arg == "--split-factor") {
            split_factor = parse_count(need_value(i, "--split-factor"), "--split-factor");
        } else if (arg == "--split-roots") {
            split_roots = parse_count(need_value(i, "--split-roots"), "--split-roots");
        } else if (arg == "--split-max-paths") {
            split_max_paths = parse_count(need_value(i, "--split-max-paths"),
                                          "--split-max-paths");
        } else if (arg == "--split-pilot") {
            split_pilot = parse_count(need_value(i, "--split-pilot"), "--split-pilot");
        } else if (arg == "--ctmc") {
            use_ctmc = true;
        } else if (arg == "--test") {
            test_threshold = std::stod(need_value(i, "--test"));
        } else if (arg == "--indifference") {
            indifference = std::stod(need_value(i, "--indifference"));
        } else if (arg == "--fmea") {
            run_fmea = true;
        } else if (arg == "--cut-sets") {
            cut_set_order =
                static_cast<int>(parse_count(need_value(i, "--cut-sets"), "--cut-sets"));
        } else if (arg == "--no-minimize") {
            minimize = false;
        } else if (arg == "--compile-stats") {
            compile_stats = true;
        } else if (arg == "--validate") {
            validate_only = true;
        } else if (arg == "--info") {
            show_info = true;
        } else if (arg == "--print") {
            print_normalized = true;
        } else if (arg == "--vcd") {
            vcd_path = need_value(i, "--vcd");
        } else if (arg == "--json") {
            json_path = need_value(i, "--json");
        } else if (arg == "--report") {
            show_report = true;
        } else if (arg == "--no-telemetry") {
            telemetry = false;
        } else if (arg == "--deadlock") {
            sim_options.deadlock = need_value(i, "--deadlock") == std::string("error")
                                       ? sim::StuckPolicy::Error
                                       : sim::StuckPolicy::Falsify;
        } else if (arg == "--timelock") {
            sim_options.timelock = need_value(i, "--timelock") == std::string("error")
                                       ? sim::StuckPolicy::Error
                                       : sim::StuckPolicy::Falsify;
        } else if (arg == "--memory") {
            sim_options.memory = need_value(i, "--memory") == std::string("continue")
                                     ? sim::MemoryPolicy::Continue
                                     : sim::MemoryPolicy::Restart;
        } else if (!arg.empty() && arg[0] == '-') {
            throw Error("unknown option `" + arg + "` (see --help)");
        } else if (model_path.empty()) {
            model_path = arg;
        } else {
            throw Error("unexpected argument `" + arg + "`");
        }
    }

    if (model_path.empty()) {
        usage();
        return 2;
    }

    if (print_normalized) {
        std::ifstream in(model_path);
        if (!in) throw Error("cannot open model file `" + model_path + "`");
        std::ostringstream buf;
        buf << in.rdbuf();
        std::fputs(slim::print_model(slim::parse_model(buf.str(), model_path)).c_str(),
                   stdout);
        return 0;
    }

    eda::LoadPhases load_phases;
    const eda::Network net = eda::build_network_from_file(model_path, &load_phases);
    const auto& m = net.model();
    std::printf("model: %zu instances, %zu processes, %zu variables, %zu sync actions\n",
                m.instances.size(), m.processes.size(), m.vars.size(), m.actions.size());
    for (const auto& d : slim::validate(m)) {
        std::fprintf(stderr, "%s\n", d.to_string().c_str());
    }
    if (compile_stats) {
        const eda::CompiledModelPtr& cm = net.compiled();
        const eda::CompileStats& cs = cm->stats();
        std::printf("compiled model: %zu programs (%zu unique after hash-consing), "
                    "%zu nodes, %zu bytecode bytes\n",
                    cs.programs, cs.unique_programs, cs.nodes, cs.bytecode_bytes);
        std::printf("content hash: %016llx\n",
                    static_cast<unsigned long long>(cm->content_hash()));
    }
    if (show_info) {
        std::fputs(slim::model_summary(m).c_str(), stdout);
        return 0;
    }
    if (validate_only) {
        std::puts("validation ok");
        return 0;
    }

    sim::PathFormula prop;
    if (!property_text.empty()) {
        const props::ParsedPattern pat = props::parse_pattern(property_text);
        switch (pat.kind) {
        case props::PatternKind::Reach:
            prop = sim::make_reachability_interval(m, pat.goal_text, pat.lo, pat.bound);
            break;
        case props::PatternKind::Until:
            prop = sim::make_until(m, pat.hold_text, pat.goal_text, pat.lo, pat.bound);
            break;
        case props::PatternKind::Globally:
            prop = sim::make_globally(m, pat.goal_text, pat.bound);
            break;
        }
        bound = pat.bound;
    } else {
        if (goal_text.empty() || bound <= 0.0) {
            throw Error("a property is required: --goal EXPR --bound TIME (or --property)");
        }
        prop = sim::make_reachability(m, goal_text, bound);
    }

    if (!vcd_path.empty()) {
        const auto kind = sim::strategy_from_string(strategy_name);
        if (!kind) throw Error("unknown strategy `" + strategy_name + "`");
        auto strat = sim::make_strategy(*kind);
        const sim::PathGenerator gen(net, prop, *strat, sim_options);
        std::ofstream out(vcd_path);
        if (!out) throw Error("cannot open `" + vcd_path + "` for writing");
        Rng rng(seed);
        const sim::PathOutcome res = sim::write_vcd(gen, rng, out);
        std::printf("wrote %s: path %s (%s) after %zu steps, t=%g\n", vcd_path.c_str(),
                    res.satisfied ? "SATISFIED" : "not satisfied",
                    sim::to_string(res.terminal).c_str(), res.steps, res.end_time);
        return 0;
    }

    if (trace_paths > 0 || strategy_name == "input") {
        std::unique_ptr<sim::Strategy> strat;
        if (strategy_name == "input") {
            strat = sim::make_input_strategy(interactive_choice);
        } else {
            const auto kind = sim::strategy_from_string(strategy_name);
            if (!kind) throw Error("unknown strategy `" + strategy_name + "`");
            strat = sim::make_strategy(*kind);
        }
        const sim::PathGenerator gen(net, prop, *strat, sim_options);
        Rng rng(seed);
        const std::size_t n = trace_paths == 0 ? 1 : trace_paths;
        for (std::size_t i = 0; i < n; ++i) {
            sim::Trace trace;
            const sim::PathOutcome out = gen.run_traced(rng, trace);
            std::printf("--- path %zu: %s (%s) after %zu steps, t=%g\n", i + 1,
                        out.satisfied ? "SATISFIED" : "not satisfied",
                        sim::to_string(out.terminal).c_str(), out.steps, out.end_time);
            std::fputs(trace.to_string().c_str(), stdout);
        }
        return 0;
    }

    const auto kind = sim::strategy_from_string(strategy_name);
    if (!kind) throw Error("unknown strategy `" + strategy_name + "`");

    if (cut_set_order > 0) {
        const auto sets = safety::minimal_cut_sets(net, prop.goal, cut_set_order);
        std::printf("minimal cut sets (order <= %d) for `%s`:\n%s(%zu sets)\n",
                    cut_set_order, prop.text.c_str(),
                    safety::format_cut_sets(sets).c_str(), sets.size());
        if (!run_fmea) return 0;
    }
    if (run_fmea) {
        safety::FmeaOptions fo;
        fo.delta = delta;
        fo.eps = eps;
        fo.strategy = *kind;
        fo.sim = sim_options;
        const auto rows = safety::fmea(net, prop.goal, prop.bound, seed, fo);
        std::fputs(safety::format_fmea(rows).c_str(), stdout);
        return 0;
    }

    // Everything below is a proper analysis: one AnalysisRequest, one
    // run_analysis() call, one structured run report.
    AnalysisRequest req;
    req.property = prop;
    req.model_label = model_path;
    req.strategy = *kind;
    req.delta = delta;
    req.eps = eps;
    req.seed = seed;
    req.sim = sim_options;
    req.telemetry = telemetry;
    req.frontend_phases = {{"parse", load_phases.parse_seconds},
                           {"instantiate", load_phases.instantiate_seconds}};

    if (criterion_name == "gauss") {
        req.criterion = stat::CriterionKind::Gauss;
    } else if (criterion_name == "chow-robbins") {
        req.criterion = stat::CriterionKind::ChowRobbins;
    } else if (criterion_name != "ch" && criterion_name != "chernoff-hoeffding") {
        throw Error("unknown criterion `" + criterion_name + "`");
    }

    // Curve mode: a grid of bounds, all estimated from one shared path set.
    if (!curve_list.empty() && curve_grid > 0) {
        throw Error("--curve and --curve-grid are mutually exclusive");
    }
    if (!curve_list.empty()) {
        std::stringstream items(curve_list);
        std::string item;
        while (std::getline(items, item, ',')) {
            if (!item.empty()) req.curve_bounds.push_back(parse_duration(item));
        }
        if (req.curve_bounds.empty()) throw Error("--curve expects at least one bound");
    } else if (curve_grid > 0) {
        for (std::size_t i = 1; i <= curve_grid; ++i) {
            req.curve_bounds.push_back(prop.bound * static_cast<double>(i) /
                                       static_cast<double>(curve_grid));
        }
    }
    // Rare-event splitting mode (docs/rare-events.md).
    const bool splitting_mode = split_auto || !split_level.empty();
    if (split_auto && !split_level.empty()) {
        throw Error("--split and --split-auto are mutually exclusive");
    }
    if (splitting_mode && (use_ctmc || test_threshold >= 0.0)) {
        throw Error("--split is an estimation mode (not --ctmc / --test)");
    }

    if (!req.curve_bounds.empty()) {
        if (use_ctmc || test_threshold >= 0.0) {
            throw Error("--curve is an estimation mode (not --ctmc / --test)");
        }
        if (curve_band_name == "bonferroni") {
            req.curve_band = stat::BandKind::Bonferroni;
        } else if (curve_band_name != "dkw") {
            throw Error("unknown curve band `" + curve_band_name +
                        "` (dkw | bonferroni)");
        }
    } else if (!curve_csv_path.empty()) {
        throw Error("--curve-csv needs --curve or --curve-grid");
    }

    req.coverage = coverage;

    // Process-isolated supervision (docs/supervision.md).
    if (processes == 0 &&
        (worker_timeout_set || worker_retries_set || !injections.empty())) {
        throw Error("--worker-timeout, --worker-retries and --inject need "
                    "--processes N");
    }
    if (processes > 0) {
        req.supervision.processes = processes;
        req.supervision.worker_timeout_seconds = worker_timeout;
        req.supervision.worker_retries = worker_retries;
        req.supervision.injections = injections;
        req.supervision.model_path = model_path;
    }

    if (use_ctmc) {
        req.mode = AnalysisMode::CtmcFlow;
        req.flow.minimize = minimize;
    } else if (test_threshold >= 0.0) {
        req.mode = AnalysisMode::HypothesisTest;
        req.workers = workers;
        req.threshold = test_threshold;
        req.indifference = indifference;
    } else if (splitting_mode) {
        req.mode = AnalysisMode::EstimateSplitting;
        req.workers = workers;
        req.splitting.level = split_level;
        req.splitting.auto_levels = split_auto;
        req.splitting.factor = split_factor;
        req.splitting.base_runs = split_roots;
        req.splitting.max_total_paths = split_max_paths;
        req.splitting.pilot_runs = split_pilot;
    } else if (workers > 1) {
        req.mode = AnalysisMode::EstimateParallel;
        req.workers = workers;
    } else {
        req.mode = AnalysisMode::Estimate;
    }

    // Run hardening (docs/robustness.md): budgets, fault policy,
    // checkpoint/resume and cooperative SIGINT/SIGTERM interruption.
    const bool hardening = budget.active() ||
                           fault.kind == sim::FaultPolicyKind::Tolerate ||
                           !checkpoint_path.empty() || checkpoint_every > 0 ||
                           !resume_path.empty();
    // Apart from --checkpoint-every's, run_analysis and the splitting engine
    // reject these pairs too, but only after the CLI has read the --resume
    // checkpoint and created the witness directory; the CLI rejects them
    // before it touches either.
    if (hardening && use_ctmc) {
        throw Error("--max-seconds/--max-samples/--max-steps, --fault, --checkpoint "
                    "and --resume are estimation-mode options (not --ctmc)");
    }
    if (checkpoint_every > 0 && checkpoint_path.empty()) {
        throw Error("--checkpoint-every needs --checkpoint FILE");
    }
    if (splitting_mode &&
        (!checkpoint_path.empty() || checkpoint_every > 0 || !resume_path.empty())) {
        throw Error("--split does not support --checkpoint / --resume");
    }
    if (!resume_path.empty() && coverage) {
        throw Error("--resume cannot be combined with --coverage");
    }
    if (!resume_path.empty() && !witness_dir.empty()) {
        throw Error("--resume cannot be combined with --witness");
    }
    if (splitting_mode && !witness_dir.empty()) {
        throw Error("--split cannot be combined with witness capture");
    }
    if (processes > 0 && !witness_dir.empty()) {
        throw Error("--processes cannot be combined with --witness");
    }
    if (!req.curve_bounds.empty() && !witness_dir.empty()) {
        throw Error("--curve/--curve-grid cannot be combined with --witness");
    }
    sim::RunControlOptions& control = req.sim.control;
    control.budget = budget;
    control.fault = fault;
    control.checkpoint_path = checkpoint_path;
    control.checkpoint_every = checkpoint_every;
    std::optional<sim::RunCheckpoint> resume_ck; // must outlive run_analysis
    if (!checkpoint_path.empty() || !resume_path.empty()) {
        // The compiled model's content hash (not a file-byte hash): resuming
        // accepts reformatted model files and rejects behavioral changes.
        control.model_hash = net.compiled()->content_hash();
    }
    if (!resume_path.empty()) {
        resume_ck = sim::RunCheckpoint::load(resume_path);
        control.resume = &*resume_ck;
    }
    if (req.mode != AnalysisMode::CtmcFlow) {
        sim::install_signal_handlers();
        control.interrupt = sim::interrupt_flag();
    }

    // Live metrics registry (docs/observability.md): one shard per worker so
    // the hot path stays contention-free. --metrics-out and --serve-metrics
    // share it — file and HTTP expositions are one code path. Must outlive
    // run_analysis (the engines hold instrument pointers into it).
    std::optional<metrics::Registry> registry;
    if (serve_enabled || !metrics_path.empty()) {
        registry.emplace(
            std::max({std::size_t{1}, workers, processes}));
        req.metrics = &*registry;
    }
    // Structured run journal (docs/observability.md). The journal must
    // outlive run_analysis (the engines hold a pointer into it).
    if (!log_level_name.empty() && log_path.empty()) {
        throw Error("--log-level needs --log FILE");
    }
    std::optional<journal::Journal> journal_store;
    support::AtomicFile log_file;
    if (!log_path.empty()) {
        log_file.open(log_path, "--log");
        journal_store.emplace(log_level_name.empty()
                                  ? journal::Level::Info
                                  : journal::parse_level(log_level_name));
        req.journal = &*journal_store;
    }
    if (serve_enabled) {
        req.serve.enabled = true;
        req.serve.port = static_cast<std::uint16_t>(serve_port);
        req.serve.on_bound = [](std::uint16_t port) {
            std::fprintf(stderr, "serving metrics on http://127.0.0.1:%u/metrics\n",
                         static_cast<unsigned>(port));
        };
    }

    // Open the output files / directories up front so a bad path fails
    // before the analysis runs. All run artifacts stream into a temp file
    // and are renamed over the final name only when complete
    // (support/atomic_file.hpp): a crash mid-run never leaves a torn
    // artifact behind a trusted path.
    support::AtomicFile json_file;
    if (!json_path.empty() && json_path != "-") {
        json_file.open(json_path, "--json");
    }
    support::AtomicFile curve_csv_file;
    if (!curve_csv_path.empty()) {
        curve_csv_file.open(curve_csv_path, "--curve-csv");
    }
    support::AtomicFile coverage_csv_file;
    if (!coverage_csv_path.empty()) {
        coverage_csv_file.open(coverage_csv_path, "--coverage");
    }
    support::AtomicFile metrics_file;
    if (!metrics_path.empty()) {
        metrics_file.open(metrics_path, "--metrics-out");
    }
    support::AtomicFile trace_file;
    tracer::Tracer tracer(tracer::Tracer::Options{!trace_path.empty(), 1 << 16});
    if (!trace_path.empty()) {
        trace_file.open(trace_path, "--trace");
        req.tracer = &tracer;
    }
    if (!witness_dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(witness_dir, ec);
        if (ec) {
            throw Error("cannot create witness directory `" + witness_dir +
                        "`: " + ec.message());
        }
        req.witness.per_kind = 2;
    }
    if (show_progress) {
        req.progress.callback = [](const sim::ProgressSnapshot& p) {
            std::string eta = "?";
            if (p.eta_seconds >= 0.0) {
                char buf[32];
                std::snprintf(buf, sizeof buf, "%.1fs", p.eta_seconds);
                eta = buf;
            }
            std::fprintf(stderr,
                         "\r%12llu samples   p^ = %.6f +- %.6f   elapsed %.1fs   eta %s   ",
                         static_cast<unsigned long long>(p.samples), p.estimate,
                         p.half_width, p.elapsed_seconds, eta.c_str());
        };
    }

    const AnalysisResult res = run_analysis(net, req);
    if (show_progress) std::fputc('\n', stderr);

    if (!trace_path.empty()) {
        trace_file.stream() << tracer.to_chrome_json().dump(1) << "\n";
        trace_file.commit();
        std::printf("wrote execution trace %s (open in Perfetto / chrome://tracing)\n",
                    trace_path.c_str());
    }
    if (!witness_dir.empty()) {
        // Witness export: text from the replayed trace, VCD by replaying the
        // captured pre-path RNG state once more through the VCD writer.
        auto witness_strat = sim::make_strategy(*kind);
        const sim::PathGenerator witness_gen(net, prop, *witness_strat, sim_options);
        std::size_t n_accepting = 0;
        std::size_t n_rejecting = 0;
        for (const sim::Witness& w : res.estimation.witnesses) {
            const bool acc = w.outcome.satisfied;
            const std::string base =
                witness_dir + "/" + (acc ? "accepting-" : "rejecting-") +
                std::to_string(acc ? ++n_accepting : ++n_rejecting);
            std::ofstream text(base + ".txt");
            if (!text) throw Error("cannot open `" + base + ".txt` for writing");
            text << "# slimsim witness path\n"
                 << "# model: " << model_path << "\n"
                 << "# property: " << prop.text << "\n"
                 << "# worker " << w.worker << ", path " << w.path_index
                 << ", terminal " << sim::to_string(w.outcome.terminal) << ", "
                 << (acc ? "satisfied" : "not satisfied") << ", " << w.outcome.steps
                 << " steps, end t=" << w.outcome.end_time << "\n"
                 << w.trace.to_string();
            std::ofstream vcd(base + ".vcd");
            if (!vcd) throw Error("cannot open `" + base + ".vcd` for writing");
            Rng replay_rng = w.rng;
            (void)sim::write_vcd(witness_gen, replay_rng, vcd);
        }
        std::printf("wrote %zu witness path(s) (%zu accepting, %zu non-accepting) to %s\n",
                    res.estimation.witnesses.size(), n_accepting, n_rejecting,
                    witness_dir.c_str());
    }
    if (!curve_csv_path.empty()) {
        curve_csv_file.stream() << "bound,estimate,successes,samples\n";
        for (const auto& p : res.curve.points) {
            curve_csv_file.stream() << p.bound << ',' << p.estimate << ','
                                    << p.successes << ',' << res.curve.samples << '\n';
        }
        curve_csv_file.commit();
        std::printf("wrote curve CSV %s (%zu bounds)\n", curve_csv_path.c_str(),
                    res.curve.points.size());
    }
    if (compile_stats) {
        // Runtime companion of the compile-time summary printed at load: how
        // many distinct discrete configurations the workers interned.
        for (const auto& [name, n] : res.report.counters) {
            if (name == "sim.interned_states") {
                std::printf("interned discrete states: %llu\n",
                            static_cast<unsigned long long>(n));
            }
        }
    }
    std::printf("%s\n", res.to_string().c_str());
    if (req.mode != AnalysisMode::CtmcFlow) {
        // A budget, signal or error-budget stop is a *partial* result, not a
        // failure: one warning line, exit 0 (docs/robustness.md; a test the
        // budget stopped undecided exits 3 as inconclusive).
        const bool curve_mode = !res.curve.points.empty();
        const bool split_mode = req.mode == AnalysisMode::EstimateSplitting;
        const sim::RunStatus status =
            split_mode ? res.splitting.status
            : curve_mode ? res.curve.status
                         : res.estimation.status;
        const std::string& cause =
            split_mode ? res.splitting.stop_cause
            : curve_mode ? res.curve.stop_cause
                         : res.estimation.stop_cause;
        if (status != sim::RunStatus::Converged) {
            std::fprintf(stderr, "warning: run %s: %s\n",
                         sim::to_string(status).c_str(), cause.c_str());
        }
        if (!checkpoint_path.empty()) {
            std::printf("wrote checkpoint %s (continue with --resume %s)\n",
                        checkpoint_path.c_str(), checkpoint_path.c_str());
        }
    }
    if (coverage) {
        std::fputs(res.coverage.summary_text().c_str(), stdout);
        if (!coverage_csv_path.empty()) {
            coverage_csv_file.stream() << res.coverage.to_csv();
            coverage_csv_file.commit();
            std::printf("wrote coverage CSV %s\n", coverage_csv_path.c_str());
        }
    }
    if (!metrics_path.empty()) {
        metrics_file.stream() << telemetry::prometheus_text(res.report, req.metrics);
        metrics_file.commit();
        std::printf("wrote Prometheus metrics %s\n", metrics_path.c_str());
    }
    if (journal_store) {
        log_file.stream() << journal_store->to_jsonl(false);
        log_file.commit();
        std::printf("wrote run journal %s (%zu events", log_path.c_str(),
                    journal_store->size());
        if (journal_store->dropped() > 0) {
            std::printf(", %llu dropped past ring capacity",
                        static_cast<unsigned long long>(journal_store->dropped()));
        }
        std::puts(")");
    }
    if (show_report) std::fputs(res.report.to_text().c_str(), stdout);
    if (!json_path.empty()) {
        const std::string doc = res.report.to_json().dump(2) + "\n";
        if (json_path == "-") {
            std::fputs(doc.c_str(), stdout);
        } else {
            json_file.stream() << doc;
            json_file.commit();
        }
    }
    if (req.mode == AnalysisMode::HypothesisTest &&
        res.hypothesis.verdict == sim::HypothesisVerdict::Inconclusive) {
        return 3;
    }
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    // Supervised-run worker entry (docs/supervision.md): the coordinator
    // execs `slimsim --worker-mode FD` with a socketpair end on FD. Checked
    // before anything else so no CLI plumbing runs in worker subprocesses.
    if (argc >= 3 && std::strcmp(argv[1], "--worker-mode") == 0) {
        return slimsim::sim::supervise::run_worker_mode(std::atoi(argv[2]));
    }
    try {
        return run(argc, argv);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
