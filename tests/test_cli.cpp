// End-to-end tests of the slimsim command-line tool (run as a subprocess).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "models/failover.hpp"
#include "models/gps.hpp"
#include "models/sensor_filter.hpp"
#include "support/json.hpp"
#include "support/memprobe.hpp"
#include "support/metrics_text.hpp"

namespace {

#ifndef SLIMSIM_CLI_PATH
#error "SLIMSIM_CLI_PATH must be defined by the build"
#endif

struct CliResult {
    int exit_code = -1;
    std::string output;
};

CliResult run_cli(const std::string& args) {
    const std::string cmd = std::string(SLIMSIM_CLI_PATH) + " " + args + " 2>&1";
    std::FILE* pipe = popen(cmd.c_str(), "r");
    EXPECT_NE(pipe, nullptr);
    CliResult res;
    std::array<char, 4096> buf{};
    while (std::fgets(buf.data(), buf.size(), pipe) != nullptr) res.output += buf.data();
    const int status = pclose(pipe);
    res.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return res;
}

class CliTest : public ::testing::Test {
protected:
    // ctest may run several test processes in the same directory
    // concurrently; use process-unique fixture file names.
    static std::string gps_file() {
        static const std::string name =
            "cli_gps_" + std::to_string(getpid()) + ".slim";
        return name;
    }
    static std::string sf_file() {
        static const std::string name = "cli_sf_" + std::to_string(getpid()) + ".slim";
        return name;
    }
    static std::string panic_file() {
        static const std::string name =
            "cli_panic_" + std::to_string(getpid()) + ".slim";
        return name;
    }
    static std::string failover_file() {
        static const std::string name =
            "cli_failover_" + std::to_string(getpid()) + ".slim";
        return name;
    }

    static void SetUpTestSuite() {
        std::ofstream(gps_file()) << slimsim::models::gps_source();
        std::ofstream(sf_file()) << slimsim::models::sensor_filter_source(1);
        std::ofstream(panic_file()) << slimsim::models::sensor_filter_panic_source();
        std::ofstream(failover_file()) << slimsim::models::failover_source();
    }

    static void TearDownTestSuite() {
        std::remove(gps_file().c_str());
        std::remove(sf_file().c_str());
        std::remove(panic_file().c_str());
        std::remove(failover_file().c_str());
    }

    static std::string read_file(const std::string& path) {
        std::ifstream in(path, std::ios::binary);
        EXPECT_TRUE(in.is_open()) << path;
        return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
    }
};

TEST_F(CliTest, HelpExitsCleanly) {
    const CliResult res = run_cli("--help");
    EXPECT_EQ(res.exit_code, 0);
    EXPECT_NE(res.output.find("usage:"), std::string::npos);
    EXPECT_NE(res.output.find("--strategy"), std::string::npos);
}

TEST_F(CliTest, MissingModelShowsUsage) {
    const CliResult res = run_cli("");
    EXPECT_EQ(res.exit_code, 2);
}

TEST_F(CliTest, ValidateMode) {
    const CliResult res = run_cli(gps_file() + "  --validate");
    EXPECT_EQ(res.exit_code, 0);
    EXPECT_NE(res.output.find("validation ok"), std::string::npos);
    EXPECT_NE(res.output.find("2 processes"), std::string::npos);
}

TEST_F(CliTest, EstimateWithGoalAndBound) {
    const CliResult res =
        run_cli(gps_file() + "  --goal gps.measurement --bound '30 min' --eps 0.05 "
                "--strategy asap --seed 3");
    EXPECT_EQ(res.exit_code, 0);
    EXPECT_NE(res.output.find("P( <> [0,1800] gps.measurement )"), std::string::npos);
    EXPECT_NE(res.output.find("strategy asap"), std::string::npos);
}

TEST_F(CliTest, EstimateWithPattern) {
    const CliResult res = run_cli(
        gps_file() +
        " --property 'probability of reaching gps.measurement within 30 min' "
        "--eps 0.05");
    EXPECT_EQ(res.exit_code, 0);
    EXPECT_NE(res.output.find("~="), std::string::npos);
}

TEST_F(CliTest, PathsMode) {
    const CliResult res =
        run_cli(gps_file() + "  --goal gps.measurement --bound 1800 --paths 2 --seed 5");
    EXPECT_EQ(res.exit_code, 0);
    EXPECT_NE(res.output.find("--- path 1:"), std::string::npos);
    EXPECT_NE(res.output.find("--- path 2:"), std::string::npos);
    EXPECT_NE(res.output.find("path ends:"), std::string::npos);
}

TEST_F(CliTest, TraceFileMode) {
    const std::string trace = "cli_trace_" + std::to_string(getpid()) + ".json";
    const CliResult res =
        run_cli(gps_file() + "  --goal gps.measurement --bound 1800 --eps 0.1 "
                "--seed 5 --trace " + trace);
    EXPECT_EQ(res.exit_code, 0);
    EXPECT_NE(res.output.find("wrote execution trace"), std::string::npos);
    std::ifstream in(trace);
    ASSERT_TRUE(in.good());
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(text.find("sim.path"), std::string::npos);
    std::remove(trace.c_str());
}

TEST_F(CliTest, WitnessMode) {
    const std::string dir = "cli_witness_" + std::to_string(getpid());
    // Bound 60 s sits inside the [10,120] s acquisition window: the default
    // progressive strategy yields both accepting and rejecting paths.
    const CliResult res =
        run_cli(gps_file() + "  --goal gps.measurement --bound 60 --eps 0.1 "
                "--seed 5 --witness " + dir);
    EXPECT_EQ(res.exit_code, 0);
    EXPECT_NE(res.output.find("witness path(s)"), std::string::npos);
    // Both outcomes occur at this bound; each kind is exported as text and
    // as VCD.
    EXPECT_TRUE(std::ifstream(dir + "/accepting-1.txt").good());
    EXPECT_TRUE(std::ifstream(dir + "/accepting-1.vcd").good());
    EXPECT_TRUE(std::ifstream(dir + "/rejecting-1.txt").good());
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
}

TEST_F(CliTest, CurveRejectsWitness) {
    const std::string dir = "cli_curve_witness_" + std::to_string(getpid());
    for (const char* curve : {"--curve '10 min,30 min'", "--curve-grid 3"}) {
        const CliResult res =
            run_cli(gps_file() + "  --goal gps.measurement --bound '30 min' --eps 0.05 " +
                    curve + " --witness " + dir);
        EXPECT_EQ(res.exit_code, 1) << curve << ": " << res.output;
        EXPECT_NE(res.output.find("error: --curve/--curve-grid cannot be combined with "
                                  "--witness"),
                  std::string::npos)
            << res.output;
        std::size_t error_lines = 0;
        std::istringstream lines(res.output);
        for (std::string line; std::getline(lines, line);) {
            if (line.rfind("error:", 0) == 0) ++error_lines;
        }
        EXPECT_EQ(error_lines, 1u) << res.output;
        // Rejected before the witness directory is created.
        EXPECT_FALSE(std::filesystem::exists(dir)) << curve;
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
    }
}

TEST_F(CliTest, ProgressFlag) {
    const CliResult res =
        run_cli(gps_file() + "  --goal gps.measurement --bound 1800 --eps 0.1 "
                "--seed 5 --progress");
    EXPECT_EQ(res.exit_code, 0);
    EXPECT_NE(res.output.find("samples"), std::string::npos);
    EXPECT_NE(res.output.find("p^ ="), std::string::npos);
}

TEST_F(CliTest, CtmcMode) {
    const CliResult res =
        run_cli(sf_file() + "  --goal failed --bound '100 hour' --ctmc");
    EXPECT_EQ(res.exit_code, 0);
    EXPECT_NE(res.output.find("ctmc flow: p = 0.77"), std::string::npos);
}

TEST_F(CliTest, CtmcRejectsTimedModel) {
    const CliResult res =
        run_cli(gps_file() + "  --goal gps.measurement --bound 1800 --ctmc");
    EXPECT_EQ(res.exit_code, 1);
    EXPECT_NE(res.output.find("error:"), std::string::npos);
}

TEST_F(CliTest, HypothesisMode) {
    const CliResult res =
        run_cli(gps_file() + "  --goal gps.measurement --bound '30 min' --test 0.5 "
                "--strategy asap");
    EXPECT_EQ(res.exit_code, 0);
    EXPECT_NE(res.output.find("accept (P >= threshold)"), std::string::npos);
}

TEST_F(CliTest, CutSetsMode) {
    const CliResult res =
        run_cli(sf_file() + "  --goal 'sensor0.reading > 5' --bound 3600 --cut-sets 1");
    EXPECT_EQ(res.exit_code, 0);
    EXPECT_NE(res.output.find("sensor0:failed"), std::string::npos);
}

TEST_F(CliTest, ParallelWorkers) {
    const CliResult res =
        run_cli(gps_file() + "  --goal gps.measurement --bound 1800 --eps 0.05 "
                "--workers 3 --seed 9");
    EXPECT_EQ(res.exit_code, 0);
    EXPECT_NE(res.output.find("~="), std::string::npos);
}

TEST_F(CliTest, InfoMode) {
    const CliResult res = run_cli(gps_file() + "  --info");
    EXPECT_EQ(res.exit_code, 0);
    EXPECT_NE(res.output.find("instances (2):"), std::string::npos);
    EXPECT_NE(res.output.find("fault injections: 3"), std::string::npos);
}

TEST_F(CliTest, PrintMode) {
    const CliResult res = run_cli(gps_file() + "  --print");
    EXPECT_EQ(res.exit_code, 0);
    EXPECT_NE(res.output.find("system implementation GPS.Imp"), std::string::npos);
    EXPECT_NE(res.output.find("fault injections"), std::string::npos);
    // The normalized output is itself a valid model.
    std::ofstream("cli_printed_" + std::to_string(getpid()) + ".slim" "") << res.output;
    const CliResult revalidate = run_cli("cli_printed_" + std::to_string(getpid()) + ".slim" " --validate");
    EXPECT_EQ(revalidate.exit_code, 0);
}

TEST_F(CliTest, VcdMode) {
    const CliResult res =
        run_cli(gps_file() + "  --goal gps.measurement --bound 1800 --vcd cli_path.vcd "
                "--seed 4 --strategy asap");
    EXPECT_EQ(res.exit_code, 0);
    EXPECT_NE(res.output.find("wrote cli_path.vcd"), std::string::npos);
    std::ifstream vcd("cli_path.vcd");
    ASSERT_TRUE(vcd.good());
    std::string first;
    std::getline(vcd, first);
    EXPECT_NE(first.find("$comment"), std::string::npos);
}

TEST_F(CliTest, InvalidEpsFailsWithDiagnostic) {
    const CliResult res =
        run_cli(gps_file() + "  --goal gps.measurement --bound 1800 --eps 1.5");
    EXPECT_EQ(res.exit_code, 1);
    EXPECT_NE(res.output.find("error:"), std::string::npos);
    EXPECT_NE(res.output.find("--eps"), std::string::npos);
    EXPECT_NE(res.output.find("(0,1)"), std::string::npos);
}

TEST_F(CliTest, InvalidDeltaFailsWithDiagnostic) {
    const CliResult res =
        run_cli(gps_file() + "  --goal gps.measurement --bound 1800 --delta 0");
    EXPECT_EQ(res.exit_code, 1);
    EXPECT_NE(res.output.find("error:"), std::string::npos);
    EXPECT_NE(res.output.find("--delta"), std::string::npos);
    // Non-numeric input gets the same one-line diagnostic, not a stod abort.
    const CliResult junk =
        run_cli(gps_file() + "  --goal gps.measurement --bound 1800 --delta banana");
    EXPECT_EQ(junk.exit_code, 1);
    EXPECT_NE(junk.output.find("--delta"), std::string::npos);
}

TEST_F(CliTest, CurveGridMode) {
    const std::string csv = "cli_curve_" + std::to_string(getpid()) + ".csv";
    const CliResult res =
        run_cli(gps_file() + "  --goal gps.measurement --bound '30 min' --eps 0.1 "
                "--seed 3 --curve-grid 4 --curve-csv " + csv);
    EXPECT_EQ(res.exit_code, 0);
    EXPECT_NE(res.output.find("curve over 4 bounds"), std::string::npos);
    EXPECT_NE(res.output.find("wrote curve CSV"), std::string::npos);
    std::ifstream in(csv);
    ASSERT_TRUE(in.good());
    std::string header;
    std::getline(in, header);
    EXPECT_EQ(header, "bound,estimate,successes,samples");
    std::size_t rows = 0;
    for (std::string line; std::getline(in, line);) {
        if (!line.empty()) ++rows;
    }
    EXPECT_EQ(rows, 4u);
    std::remove(csv.c_str());
}

TEST_F(CliTest, CurveExplicitBounds) {
    const CliResult res =
        run_cli(gps_file() + "  --goal gps.measurement --bound 1800 --eps 0.1 "
                "--seed 3 --curve '600,1200,30 min'");
    EXPECT_EQ(res.exit_code, 0);
    EXPECT_NE(res.output.find("curve over 3 bounds"), std::string::npos);
    EXPECT_NE(res.output.find("u = 1800"), std::string::npos);
}

TEST_F(CliTest, CurveRejectsConflictsAndBadBands) {
    const CliResult both =
        run_cli(gps_file() + "  --goal gps.measurement --bound 1800 --eps 0.1 "
                "--curve 600 --curve-grid 4");
    EXPECT_EQ(both.exit_code, 1);
    EXPECT_NE(both.output.find("error:"), std::string::npos);
    const CliResult band =
        run_cli(gps_file() + "  --goal gps.measurement --bound 1800 --eps 0.1 "
                "--curve-grid 4 --curve-band nope");
    EXPECT_EQ(band.exit_code, 1);
    EXPECT_NE(band.output.find("unknown curve band"), std::string::npos);
    const CliResult csv_alone =
        run_cli(gps_file() + "  --goal gps.measurement --bound 1800 --eps 0.1 "
                "--curve-csv out.csv");
    EXPECT_EQ(csv_alone.exit_code, 1);
}

TEST_F(CliTest, CoverageSummaryFlagsDeadModel) {
    // Under ASAP the panic transition can never fire (the monitor reacts to
    // the first failure with zero delay), so the coverage summary must warn
    // about it and the unreached panic mode.
    const CliResult res =
        run_cli(panic_file() + "  --goal panicked --bound '4 hour' --strategy asap "
                "--delta 0.1 --eps 0.05 --seed 7 --coverage");
    EXPECT_EQ(res.exit_code, 0);
    EXPECT_NE(res.output.find("coverage:"), std::string::npos);
    EXPECT_NE(res.output.find("never fired"), std::string::npos);
    EXPECT_NE(res.output.find("never reached"), std::string::npos);
    EXPECT_NE(res.output.find("panic"), std::string::npos);
}

TEST_F(CliTest, CoverageOutputsDeterministicAcrossWorkerCounts) {
    // The coverage CSV, the JSON coverage section, and the deterministic
    // prefix of the Prometheus exposition must be byte-identical for
    // workers 1, 2 and 4 at a fixed seed.
    const std::string tag = std::to_string(getpid());
    struct Artifacts {
        std::string csv, prom_prefix, coverage_json;
    };
    auto run_with_workers = [&](int workers) {
        const std::string csv = "cli_cov_" + tag + ".csv";
        const std::string prom = "cli_cov_" + tag + ".prom";
        const std::string json = "cli_cov_" + tag + ".json";
        const CliResult res = run_cli(
            panic_file() + "  --goal panicked --bound '4 hour' --delta 0.1 --eps 0.05 "
            "--seed 7 --workers " + std::to_string(workers) + " --coverage " + csv +
            " --metrics-out " + prom + " --json " + json);
        EXPECT_EQ(res.exit_code, 0) << res.output;
        Artifacts a;
        a.csv = read_file(csv);
        a.prom_prefix =
            slimsim::telemetry::prometheus_deterministic_section(read_file(prom));
        const auto doc = slimsim::json::Value::parse(read_file(json));
        a.coverage_json = doc.at("coverage").dump(2);
        std::remove(csv.c_str());
        std::remove(prom.c_str());
        std::remove(json.c_str());
        return a;
    };
    const Artifacts one = run_with_workers(1);
    EXPECT_NE(one.csv.find("kind,name,count,occupancy_seconds"), std::string::npos);
    EXPECT_NE(one.prom_prefix.find("slimsim_coverage_paths_total"), std::string::npos);
    for (const int workers : {2, 4}) {
        const Artifacts w = run_with_workers(workers);
        EXPECT_EQ(w.csv, one.csv) << workers << " workers";
        EXPECT_EQ(w.prom_prefix, one.prom_prefix) << workers << " workers";
        EXPECT_EQ(w.coverage_json, one.coverage_json) << workers << " workers";
    }
}

TEST_F(CliTest, CoverageUnwritablePathFailsWithDiagnostic) {
    const CliResult cov =
        run_cli(panic_file() + "  --goal panicked --bound 3600 --coverage "
                "/nonexistent-dir/cov.csv");
    EXPECT_EQ(cov.exit_code, 1);
    EXPECT_NE(cov.output.find("--coverage"), std::string::npos);
    EXPECT_NE(cov.output.find("cannot open"), std::string::npos);

    const CliResult prom =
        run_cli(panic_file() + "  --goal panicked --bound 3600 --metrics-out "
                "/nonexistent-dir/run.prom");
    EXPECT_EQ(prom.exit_code, 1);
    EXPECT_NE(prom.output.find("--metrics-out"), std::string::npos);
    EXPECT_NE(prom.output.find("cannot open"), std::string::npos);
}

TEST_F(CliTest, CoverageRejectedOutsideEstimationModes) {
    const CliResult res =
        run_cli(sf_file() + "  --goal failed --bound '100 hour' --ctmc --coverage");
    EXPECT_EQ(res.exit_code, 1);
    EXPECT_NE(res.output.find("--coverage"), std::string::npos);
}

TEST_F(CliTest, CountFlagsRejectBadValuesWithDiagnostics) {
    // --workers 0 used to fall through to a silent sequential run; now every
    // count flag validates at the CLI boundary and names itself.
    const CliResult zero =
        run_cli(gps_file() + "  --goal gps.measurement --bound 1800 --workers 0");
    EXPECT_EQ(zero.exit_code, 1);
    EXPECT_NE(zero.output.find("error:"), std::string::npos);
    EXPECT_NE(zero.output.find("--workers"), std::string::npos);
    const CliResult junk =
        run_cli(gps_file() + "  --goal gps.measurement --bound 1800 --workers banana");
    EXPECT_EQ(junk.exit_code, 1);
    EXPECT_NE(junk.output.find("--workers"), std::string::npos);
    const CliResult negative =
        run_cli(gps_file() + "  --goal gps.measurement --bound 1800 --max-samples -5");
    EXPECT_EQ(negative.exit_code, 1);
    EXPECT_NE(negative.output.find("--max-samples"), std::string::npos);
    const CliResult paths =
        run_cli(gps_file() + "  --goal gps.measurement --bound 1800 --paths 0");
    EXPECT_EQ(paths.exit_code, 1);
    EXPECT_NE(paths.output.find("--paths"), std::string::npos);
}

TEST_F(CliTest, BudgetExhaustionWarnsButExitsZero) {
    const std::string json = "cli_budget_" + std::to_string(getpid()) + ".json";
    const CliResult res =
        run_cli(gps_file() + "  --goal gps.measurement --bound 1800 --eps 0.02 "
                "--seed 3 --max-samples 100 --json " + json);
    EXPECT_EQ(res.exit_code, 0) << res.output;
    EXPECT_NE(res.output.find("warning: run budget_exhausted"), std::string::npos);
    EXPECT_NE(res.output.find("--max-samples"), std::string::npos);
    const auto doc = slimsim::json::Value::parse(read_file(json));
    EXPECT_EQ(doc.at("run_status").at("status").as_string(), "budget_exhausted");
    EXPECT_EQ(doc.at("result").at("samples").as_int(), 100);
    EXPECT_GT(doc.at("run_status").at("achieved_half_width").as_double(), 0.0);
    std::remove(json.c_str());
}

TEST_F(CliTest, CheckpointResumeReproducesTheFullRun) {
    const std::string tag = std::to_string(getpid());
    const std::string ref_ck = "cli_ref_" + tag + ".ckpt";
    const std::string ref_json = "cli_ref_" + tag + ".json";
    const std::string cut_ck = "cli_cut_" + tag + ".ckpt";
    const std::string res_json = "cli_res_" + tag + ".json";
    const std::string common =
        gps_file() + "  --goal gps.measurement --bound 1800 --eps 0.05 --seed 9 ";

    // Reference: uninterrupted run (a --checkpoint flag forces the same
    // per-path RNG streams the resumed run uses).
    const CliResult ref = run_cli(common + "--checkpoint " + ref_ck + " --json " +
                                  ref_json);
    EXPECT_EQ(ref.exit_code, 0) << ref.output;
    EXPECT_NE(ref.output.find("wrote checkpoint"), std::string::npos);

    // Interrupted at 80 samples, then resumed with a different worker count.
    const CliResult cut = run_cli(common + "--max-samples 80 --checkpoint " + cut_ck);
    EXPECT_EQ(cut.exit_code, 0) << cut.output;
    EXPECT_NE(cut.output.find("warning: run budget_exhausted"), std::string::npos);
    const CliResult resumed =
        run_cli(common + "--workers 4 --resume " + cut_ck + " --json " + res_json);
    EXPECT_EQ(resumed.exit_code, 0) << resumed.output;

    const auto ref_doc = slimsim::json::Value::parse(read_file(ref_json));
    const auto res_doc = slimsim::json::Value::parse(read_file(res_json));
    EXPECT_EQ(res_doc.at("result").dump(0), ref_doc.at("result").dump(0));
    EXPECT_EQ(res_doc.at("terminals").dump(0), ref_doc.at("terminals").dump(0));
    for (const std::string& f : {ref_ck, ref_json, cut_ck, res_json}) {
        std::remove(f.c_str());
    }
}

TEST_F(CliTest, ResumeRejectsAMismatchedRun) {
    const std::string tag = std::to_string(getpid());
    const std::string ck = "cli_mismatch_" + tag + ".ckpt";
    const CliResult make =
        run_cli(gps_file() + "  --goal gps.measurement --bound 1800 --eps 0.05 "
                "--seed 9 --max-samples 20 --checkpoint " + ck);
    EXPECT_EQ(make.exit_code, 0) << make.output;
    const CliResult wrong =
        run_cli(gps_file() + "  --goal gps.measurement --bound 1800 --eps 0.05 "
                "--seed 10 --resume " + ck);
    EXPECT_EQ(wrong.exit_code, 1);
    EXPECT_NE(wrong.output.find("error:"), std::string::npos);
    EXPECT_NE(wrong.output.find("--seed"), std::string::npos);
    std::remove(ck.c_str());
}

TEST_F(CliTest, FaultPolicyGovernsZenoModels) {
    // An immediate self-loop: every path trips the Zeno guard.
    const std::string zeno = "cli_zeno_" + std::to_string(getpid()) + ".slim";
    std::ofstream(zeno) << R"(
        root S.I;
        system S
        features never: out data port bool default false;
        end S;
        system implementation S.I
        modes a: initial mode;
        transitions a -[]-> a;
        end S.I;
    )";
    const std::string common =
        zeno + " --goal never --bound 1 --strategy asap --delta 0.1 --eps 0.1 "
               "--max-path-steps 100 ";
    // Default fail-fast: the path fault aborts the run with one diagnostic.
    const CliResult failfast = run_cli(common);
    EXPECT_EQ(failfast.exit_code, 1);
    EXPECT_NE(failfast.output.find("error:"), std::string::npos);
    EXPECT_NE(failfast.output.find("Zeno"), std::string::npos);
    // Tolerate: error-tagged samples, a degraded-run warning, exit 0.
    const CliResult tolerate = run_cli(common + "--fault tolerate --max-path-errors 5");
    EXPECT_EQ(tolerate.exit_code, 0) << tolerate.output;
    EXPECT_NE(tolerate.output.find("warning: run degraded"), std::string::npos);
    EXPECT_NE(tolerate.output.find("--max-path-errors"), std::string::npos);
    std::remove(zeno.c_str());
}

TEST_F(CliTest, HardeningFlagsRejectedOutsideEstimationModes) {
    const CliResult ctmc =
        run_cli(sf_file() + "  --goal failed --bound '100 hour' --ctmc --max-samples 10");
    EXPECT_EQ(ctmc.exit_code, 1);
    EXPECT_NE(ctmc.output.find("estimation-mode"), std::string::npos);
    const CliResult every =
        run_cli(gps_file() + "  --goal gps.measurement --bound 1800 "
                "--checkpoint-every 10");
    EXPECT_EQ(every.exit_code, 1);
    EXPECT_NE(every.output.find("--checkpoint-every"), std::string::npos);
}

TEST_F(CliTest, SplittingModeEstimatesAndReports) {
    const std::string json = "cli_split_" + std::to_string(getpid()) + ".json";
    const CliResult res = run_cli(
        failover_file() +
        "  --goal failed --bound '2 hour' --seed 3 --split-roots 256 "
        "--split-factor 4 --split '(if primary.broken then 1 else 0) + "
        "(if backup.broken then 1 else 0)' --json " + json);
    EXPECT_EQ(res.exit_code, 0) << res.output;
    EXPECT_NE(res.output.find("importance splitting"), std::string::npos);
    EXPECT_NE(res.output.find("p^ ="), std::string::npos);
    const auto doc = slimsim::json::Value::parse(read_file(json));
    EXPECT_EQ(doc.at("mode").as_string(), "estimate-splitting");
    EXPECT_EQ(doc.at("splitting").at("roots").as_int(), 256);
    EXPECT_EQ(doc.at("splitting").at("factor").as_int(), 4);
    EXPECT_GT(doc.at("splitting").at("total_paths").as_int(), 256);
    std::remove(json.c_str());
}

TEST_F(CliTest, SplittingDeterministicAcrossWorkerCounts) {
    const std::string args =
        failover_file() +
        "  --goal failed --bound '2 hour' --seed 9 --split-roots 256 "
        "--split '(if primary.broken then 1 else 0) + "
        "(if backup.broken then 1 else 0)'";
    const CliResult seq = run_cli(args);
    const CliResult par = run_cli(args + " --workers 4");
    EXPECT_EQ(seq.exit_code, 0) << seq.output;
    EXPECT_EQ(par.exit_code, 0) << par.output;
    const auto headline = [](const std::string& out) {
        const std::size_t pos = out.find("p^ =");
        EXPECT_NE(pos, std::string::npos) << out;
        return out.substr(pos, out.find('\n', pos) - pos);
    };
    EXPECT_EQ(headline(seq.output), headline(par.output));
}

TEST_F(CliTest, SplittingAutoMode) {
    const std::string json = "cli_split_auto_" + std::to_string(getpid()) + ".json";
    const CliResult res = run_cli(
        failover_file() +
        "  --goal failed --bound '2 hour' --seed 5 --split-auto "
        "--split-roots 256 --split-pilot 64 --json " + json);
    EXPECT_EQ(res.exit_code, 0) << res.output;
    const auto doc = slimsim::json::Value::parse(read_file(json));
    EXPECT_EQ(doc.at("splitting").at("level").as_string(), "auto");
    EXPECT_EQ(doc.at("splitting").at("pilot_paths").as_int(), 64);
    // The pilot's coverage/occupancy profile rides in the report.
    EXPECT_NE(doc.find("coverage"), nullptr);
    std::remove(json.c_str());
}

TEST_F(CliTest, SplittingBadLevelExpressionFailsWithOneLineDiagnostic) {
    for (const char* bad : {"'ghost + 1'", "'primary.broken'", "'1 +'"}) {
        const CliResult res = run_cli(
            failover_file() + "  --goal failed --bound '2 hour' --split " +
            std::string(bad));
        EXPECT_EQ(res.exit_code, 1) << res.output;
        // Exactly one diagnostic line, prefixed with the flag name — the
        // multi-line resolution summary must have been collapsed.
        std::size_t error_lines = 0;
        std::istringstream lines(res.output);
        for (std::string line; std::getline(lines, line);) {
            if (line.rfind("error:", 0) == 0) {
                ++error_lines;
                EXPECT_EQ(line.rfind("error: --split: ", 0), 0u) << line;
            }
        }
        EXPECT_EQ(error_lines, 1u) << res.output;
    }
}

TEST_F(CliTest, SplittingRejectsConflictingModes) {
    const std::string base =
        failover_file() + "  --goal failed --bound '2 hour' --split-auto";
    for (const char* extra :
         {"--ctmc", "--test 0.5", "--curve-grid 4", "--coverage",
          "--witness wdir", "--checkpoint ck.bin", "--resume ck.bin",
          "--split '(if primary.broken then 1 else 0)'"}) {
        const CliResult res = run_cli(base + " " + extra);
        EXPECT_EQ(res.exit_code, 1) << extra << ": " << res.output;
        EXPECT_NE(res.output.find("--split"), std::string::npos) << res.output;
    }
}

TEST_F(CliTest, SplittingPathBudgetWarnsButExitsZero) {
    const std::string json = "cli_split_budget_" + std::to_string(getpid()) + ".json";
    const CliResult res = run_cli(
        failover_file() +
        "  --goal failed --bound '2 hour' --seed 3 --split-roots 4096 "
        "--split-factor 8 --split-max-paths 500 "
        "--split '(if primary.broken then 1 else 0) + "
        "(if backup.broken then 1 else 0)' --json " + json);
    EXPECT_EQ(res.exit_code, 0) << res.output;
    EXPECT_NE(res.output.find("warning: run budget_exhausted"), std::string::npos)
        << res.output;
    EXPECT_NE(res.output.find("--split-max-paths"), std::string::npos);
    const auto doc = slimsim::json::Value::parse(read_file(json));
    EXPECT_EQ(doc.at("run_status").at("status").as_string(), "budget_exhausted");
    EXPECT_LE(doc.at("splitting").at("total_paths").as_int(), 500);
    std::remove(json.c_str());
}

// Runs an arbitrary shell pipeline and extracts the CLI's exit code from a
// trailing "CLI_EXIT:N" marker (popen only reports the pipeline's status).
CliResult run_shell(const std::string& pipeline) {
    std::FILE* pipe = popen(pipeline.c_str(), "r");
    EXPECT_NE(pipe, nullptr);
    CliResult res;
    std::array<char, 4096> buf{};
    while (std::fgets(buf.data(), buf.size(), pipe) != nullptr) res.output += buf.data();
    pclose(pipe);
    const std::size_t marker = res.output.rfind("CLI_EXIT:");
    if (marker != std::string::npos)
        res.exit_code = std::atoi(res.output.c_str() + marker + 9);
    return res;
}

// A model whose every path self-loops for ~4M discrete steps (~1 s): the
// interrupt flag is only polled between samples, so a signal sent mid-run
// reliably lands inside a path — wide deterministic windows for the
// signal-hardening tests below.
std::string slow_path_file() {
    static const std::string name = "cli_slow_" + std::to_string(getpid()) + ".slim";
    static const bool written = [] {
        std::ofstream(name) << R"(
            root S.I;
            system S
            features broken: out data port bool default false;
            end S;
            system implementation S.I end S.I;
            error model EM
            features ok: initial state; bad: error state;
            end EM;
            error model implementation EM.I
            events f: error event occurrence poisson 2000.0 per sec;
            transitions ok -[f]-> ok;
            end EM.I;
            fault injections
              component root uses error model EM.I;
              component root in state bad effect broken := true;
            end fault injections;
        )";
        return true;
    }();
    (void)written;
    return name;
}

TEST_F(CliTest, SigtermDrainsToInterruptedRunWithArtifacts) {
    const std::string json = "cli_term_" + std::to_string(getpid()) + ".json";
    const std::string cmd = std::string(SLIMSIM_CLI_PATH) + " " + slow_path_file() +
                            " --goal broken --bound 2000 --eps 0.05 --seed 1"
                            " --max-path-steps 100000000 --json " + json +
                            " 2>&1 & pid=$!; sleep 0.3; kill -TERM $pid;"
                            " wait $pid; echo CLI_EXIT:$?";
    const CliResult res = run_shell(cmd);
    EXPECT_EQ(res.exit_code, 0) << res.output;
    EXPECT_NE(res.output.find("warning: run interrupted"), std::string::npos)
        << res.output;
    const auto doc = slimsim::json::Value::parse(read_file(json));
    EXPECT_EQ(doc.at("run_status").at("status").as_string(), "interrupted");
    std::remove(json.c_str());
}

TEST_F(CliTest, SecondSigtermAbortsImmediatelyWith130) {
    const std::string json = "cli_term2_" + std::to_string(getpid()) + ".json";
    // The second signal arrives while the first one's drain is still inside
    // the current (~1 s) path; the handler _exit(130)s without artifacts.
    const std::string cmd = std::string(SLIMSIM_CLI_PATH) + " " + slow_path_file() +
                            " --goal broken --bound 2000 --eps 0.05 --seed 1"
                            " --max-path-steps 100000000 --json " + json +
                            " 2>&1 & pid=$!; sleep 0.3; kill -TERM $pid;"
                            " sleep 0.05; kill -TERM $pid 2>/dev/null;"
                            " wait $pid; echo CLI_EXIT:$?";
    const CliResult res = run_shell(cmd);
    EXPECT_EQ(res.exit_code, 130) << res.output;
    EXPECT_FALSE(std::filesystem::exists(json));
    std::remove(json.c_str());
}

TEST_F(CliTest, CorruptCheckpointYieldsOneLineResumeError) {
    const std::string tag = std::to_string(getpid());
    const std::string ck = "cli_corrupt_" + tag + ".ckpt";
    const CliResult make =
        run_cli(gps_file() + "  --goal gps.measurement --bound 1800 --eps 0.05 "
                "--seed 9 --max-samples 20 --checkpoint " + ck);
    ASSERT_EQ(make.exit_code, 0) << make.output;

    std::string bytes = read_file(ck);
    ASSERT_GT(bytes.size(), 8u);
    bytes[bytes.size() / 2] ^= 0x5a; // flip a byte in the middle
    std::ofstream(ck, std::ios::binary | std::ios::trunc) << bytes;

    const CliResult res =
        run_cli(gps_file() + "  --goal gps.measurement --bound 1800 --eps 0.05 "
                "--seed 9 --resume " + ck);
    EXPECT_EQ(res.exit_code, 1) << res.output;
    EXPECT_NE(res.output.find("error: --resume"), std::string::npos) << res.output;
    // One diagnostic line, not an unhandled-exception dump.
    std::size_t error_lines = 0;
    std::istringstream lines(res.output);
    for (std::string line; std::getline(lines, line);)
        if (line.rfind("error:", 0) == 0) ++error_lines;
    EXPECT_EQ(error_lines, 1u) << res.output;
    EXPECT_EQ(res.output.find("terminate"), std::string::npos) << res.output;
    std::remove(ck.c_str());
}

TEST_F(CliTest, ProcessesFlagRunsSupervisedAndReportsIt) {
    const std::string json = "cli_procs_" + std::to_string(getpid()) + ".json";
    const CliResult res =
        run_cli(gps_file() + "  --goal gps.measurement --bound 1800 --eps 0.05 "
                "--seed 9 --processes 2 --json " + json);
    EXPECT_EQ(res.exit_code, 0) << res.output;
    const auto doc = slimsim::json::Value::parse(read_file(json));
    EXPECT_EQ(doc.at("version").as_int(), 6);
    EXPECT_EQ(doc.at("supervision").at("processes").as_int(), 2);
    EXPECT_EQ(doc.at("supervision").at("restarts").as_int(), 0);
    std::remove(json.c_str());
}

TEST_F(CliTest, SupervisionFlagsRequireProcesses) {
    for (const char* extra :
         {"--worker-timeout 5", "--worker-retries 2", "--inject worker-crash@3"}) {
        const CliResult res =
            run_cli(gps_file() + "  --goal gps.measurement --bound 1800 " + extra);
        EXPECT_EQ(res.exit_code, 1) << extra;
        EXPECT_NE(res.output.find("--processes"), std::string::npos) << res.output;
    }
}

TEST_F(CliTest, ProcessesRejectsConflictingModes) {
    const std::string base =
        gps_file() + "  --goal gps.measurement --bound 1800 --processes 2 ";
    for (const char* extra : {"--coverage", "--ctmc", "--test 0.5"}) {
        const CliResult res = run_cli(base + extra);
        EXPECT_EQ(res.exit_code, 1) << extra << ": " << res.output;
        EXPECT_NE(res.output.find("--processes"), std::string::npos) << res.output;
    }
}

TEST_F(CliTest, UnknownOptionFails) {
    const CliResult res = run_cli(gps_file() + "  --frobnicate");
    EXPECT_EQ(res.exit_code, 1);
    EXPECT_NE(res.output.find("unknown option"), std::string::npos);
}

TEST_F(CliTest, MissingFileFails) {
    const CliResult res = run_cli("no_such_model.slim --validate");
    EXPECT_EQ(res.exit_code, 1);
    EXPECT_NE(res.output.find("cannot open"), std::string::npos);
}

TEST_F(CliTest, PeakRssIsTheChildsOwnNotTheForkingParents) {
    // getrusage's ru_maxrss survives exec: a process forked while this one
    // holds a large resident allocation would report that size as its own
    // peak. The report's resources.peak_rss_bytes must be the child's own,
    // so it must not grow with the parent's allocation.
    const std::string json = "cli_peak_rss_" + std::to_string(getpid()) + ".json";
    const std::string model = gps_file();
    auto child_peak = [&]() -> std::size_t {
        const pid_t pid = fork();
        if (pid == 0) {
            const char* argv[] = {SLIMSIM_CLI_PATH, model.c_str(), "--goal",
                                  "gps.measurement", "--bound", "1800", "--eps", "0.1",
                                  "--json", json.c_str(), nullptr};
            ::execv(SLIMSIM_CLI_PATH, const_cast<char* const*>(argv));
            ::_exit(127);
        }
        int status = 0;
        EXPECT_EQ(::waitpid(pid, &status, 0), pid);
        EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
        const auto doc = slimsim::json::Value::parse(read_file(json));
        std::remove(json.c_str());
        return static_cast<std::size_t>(doc.at("resources").at("peak_rss_bytes").as_int());
    };
    const std::size_t alone = child_peak();
    ASSERT_GT(alone, 0u);

    constexpr std::size_t kHog = 96u << 20;
    std::vector<char> hog(kHog, 1); // touched: resident
    const std::size_t parent_peak = slimsim::peak_rss_bytes();
    ASSERT_GT(parent_peak, kHog);
    const std::size_t beside_hog = child_peak();
    EXPECT_EQ(hog[kHog / 2], 1); // keeps the allocation alive until here
    EXPECT_LT(beside_hog, alone + kHog / 2);
    EXPECT_LT(beside_hog, parent_peak);
}

} // namespace
