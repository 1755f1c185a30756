// Tests of the estimator health diagnostics (stat/diagnostics), the run
// journal's cross-worker determinism, and the /series time-series store
// (docs/observability.md): synthetic reports exercise each check's trigger
// condition, end-to-end runs prove the journal's deterministic fields and
// the diagnostics section are byte-identical across worker counts, and a
// seeded degenerate-splitting config is provably flagged with a hint.
#include "stat/diagnostics.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/analysis.hpp"
#include "sim/observe.hpp"
#include "support/journal.hpp"

namespace slimsim {
namespace {

using telemetry::DiagnosticItem;
using telemetry::DiagnosticsReport;
using telemetry::RunReport;

const DiagnosticItem* find_check(const DiagnosticsReport& report,
                                 const std::string& check) {
    for (const auto& item : report.items) {
        if (item.check == check) return &item;
    }
    return nullptr;
}

// --- drift ------------------------------------------------------------------

TEST(Diagnostics, DriftingEstimateIsFlagged) {
    RunReport report;
    report.samples = 1000;
    report.successes = 500;
    report.run_status.achieved_half_width = 0.01;
    // At the midpoint the estimate was 0.2; it ended at 0.5 — a 30
    // half-width drift.
    report.stop_trajectory = {{250, 0, 50}, {500, 0, 100}, {1000, 0, 500}};
    const DiagnosticsReport diag = stat::diagnose_run(report);
    ASSERT_TRUE(diag.enabled);
    const DiagnosticItem* drift = find_check(diag, "estimate-drift");
    ASSERT_NE(drift, nullptr);
    EXPECT_EQ(drift->severity, "warning");
    EXPECT_GT(drift->value, 1.0);
    EXPECT_NE(drift->hint.find("--eps"), std::string::npos);
    EXPECT_GE(diag.warnings, 1u);
}

TEST(Diagnostics, StableEstimateIsOk) {
    RunReport report;
    report.samples = 1000;
    report.successes = 500;
    report.run_status.achieved_half_width = 0.05;
    report.stop_trajectory = {{500, 0, 251}, {1000, 0, 500}};
    const DiagnosticsReport diag = stat::diagnose_run(report);
    const DiagnosticItem* drift = find_check(diag, "estimate-drift");
    ASSERT_NE(drift, nullptr);
    EXPECT_EQ(drift->severity, "ok");
    EXPECT_TRUE(drift->hint.empty());
}

// --- CI calibration ---------------------------------------------------------

TEST(Diagnostics, OverdispersedBatchesAreFlagged) {
    RunReport report;
    report.samples = 800;
    report.successes = 400;
    report.run_status.achieved_half_width = 1.0; // mute the drift check
    // Eight 100-sample segments alternating between 90% and 10% success:
    // far more between-batch variance than iid Bernoulli sampling allows.
    std::uint64_t samples = 0;
    std::uint64_t successes = 0;
    for (int i = 0; i < 8; ++i) {
        samples += 100;
        successes += (i % 2 == 0) ? 90 : 10;
        report.stop_trajectory.push_back({samples, 0, successes});
    }
    const DiagnosticsReport diag = stat::diagnose_run(report);
    const DiagnosticItem* cal = find_check(diag, "ci-calibration");
    ASSERT_NE(cal, nullptr);
    EXPECT_EQ(cal->severity, "warning");
    EXPECT_GT(cal->value, 2.0);
    EXPECT_NE(cal->hint.find("effective sample size"), std::string::npos);
    const DiagnosticItem* ess = find_check(diag, "effective-sample-size");
    ASSERT_NE(ess, nullptr);
    EXPECT_LT(ess->value, 100.0); // ~800 / 73
}

TEST(Diagnostics, WellCalibratedBatchesAreOk) {
    RunReport report;
    report.samples = 800;
    report.successes = 400;
    report.run_status.achieved_half_width = 1.0;
    std::uint64_t samples = 0;
    std::uint64_t successes = 0;
    for (int i = 0; i < 8; ++i) {
        samples += 100;
        successes += 50;
        report.stop_trajectory.push_back({samples, 0, successes});
    }
    const DiagnosticsReport diag = stat::diagnose_run(report);
    const DiagnosticItem* cal = find_check(diag, "ci-calibration");
    ASSERT_NE(cal, nullptr);
    EXPECT_EQ(cal->severity, "ok");
}

TEST(Diagnostics, TooFewBatchesStaySilent) {
    RunReport report;
    report.samples = 300;
    report.successes = 150;
    report.stop_trajectory = {{100, 0, 50}, {200, 0, 100}, {300, 0, 150}};
    const DiagnosticsReport diag = stat::diagnose_run(report);
    EXPECT_EQ(find_check(diag, "ci-calibration"), nullptr);
}

// --- splitting health -------------------------------------------------------

TEST(Diagnostics, StarvedSplittingLevelIsFlagged) {
    RunReport report;
    report.splitting.enabled = true;
    report.splitting.roots = 1000;
    report.splitting.goal_hits = 3;
    // 5 of 1000 roots crossed level 1: 0.5% — starved.
    report.splitting.levels = {{1, 5, 40}};
    const DiagnosticsReport diag = stat::diagnose_run(report);
    const DiagnosticItem* level = find_check(diag, "splitting-level");
    ASSERT_NE(level, nullptr);
    EXPECT_EQ(level->severity, "warning");
    EXPECT_NE(level->hint.find("--split"), std::string::npos);
    EXPECT_NE(level->hint.find("starved"), std::string::npos);
}

TEST(Diagnostics, SaturatedSplittingLevelIsFlagged) {
    RunReport report;
    report.splitting.enabled = true;
    report.splitting.roots = 1000;
    report.splitting.goal_hits = 900;
    // 950 of 1000 roots crossed level 1: the level is nearly free.
    report.splitting.levels = {{1, 950, 0}};
    const DiagnosticsReport diag = stat::diagnose_run(report);
    const DiagnosticItem* level = find_check(diag, "splitting-level");
    ASSERT_NE(level, nullptr);
    EXPECT_EQ(level->severity, "warning");
    EXPECT_NE(level->hint.find("--split-auto"), std::string::npos);
}

TEST(Diagnostics, ZeroGoalHitsAreCritical) {
    RunReport report;
    report.splitting.enabled = true;
    report.splitting.roots = 1000;
    report.splitting.goal_hits = 0;
    const DiagnosticsReport diag = stat::diagnose_run(report);
    const DiagnosticItem* hits = find_check(diag, "splitting-goal-hits");
    ASSERT_NE(hits, nullptr);
    EXPECT_EQ(hits->severity, "critical");
    EXPECT_NE(hits->hint.find("--split"), std::string::npos);
}

// --- curve band -------------------------------------------------------------

TEST(Diagnostics, LooseCurveBandAndEmptyBoundsAreFlagged) {
    RunReport report;
    report.params = {{"eps", 0.01}};
    report.curve.simultaneous_eps = 0.05;
    report.curve.points = {{1.0, 0, 0.0}, {2.0, 7, 0.1}};
    const DiagnosticsReport diag = stat::diagnose_run(report);
    const DiagnosticItem* band = find_check(diag, "curve-band");
    ASSERT_NE(band, nullptr);
    EXPECT_EQ(band->severity, "warning");
    const DiagnosticItem* empty = find_check(diag, "curve-empty-bounds");
    ASSERT_NE(empty, nullptr);
    EXPECT_EQ(empty->severity, "warning");
    EXPECT_EQ(empty->value, 1.0);
}

// --- series store -----------------------------------------------------------

sim::ProgressSnapshot snapshot_at(std::uint64_t samples) {
    sim::ProgressSnapshot s;
    s.samples = samples;
    s.successes = samples / 2;
    s.estimate = 0.5;
    return s;
}

TEST(SeriesStore, CoarsensByDoublingTheStride) {
    sim::SeriesStore store(8);
    for (std::uint64_t i = 1; i <= 100; ++i) store.push(snapshot_at(i));
    const std::vector<sim::ProgressSnapshot> points = store.points();
    ASSERT_GE(points.size(), 2u);
    EXPECT_LE(points.size(), 9u); // capacity + the exact latest snapshot
    // Oldest first, strictly increasing, latest exact.
    for (std::size_t i = 1; i < points.size(); ++i) {
        EXPECT_LT(points[i - 1].samples, points[i].samples);
    }
    EXPECT_EQ(points.back().samples, 100u);
    const std::string json = store.to_json();
    EXPECT_NE(json.find("\"stride\":"), std::string::npos);
    EXPECT_NE(json.find("\"points\":["), std::string::npos);
}

TEST(SeriesStore, LatestIsAlwaysRetained) {
    sim::SeriesStore store(4);
    for (std::uint64_t i = 1; i <= 7; ++i) store.push(snapshot_at(i));
    EXPECT_EQ(store.points().back().samples, 7u);
    store.push(snapshot_at(1000));
    EXPECT_EQ(store.points().back().samples, 1000u);
}

// --- end-to-end determinism -------------------------------------------------

// Markovian single-fault model: P( <> [0,2] broken ) = 1 - e^{-1}.
constexpr const char* kModel = R"(
    root S.I;
    system S
    features broken: out data port bool default false;
    end S;
    system implementation S.I end S.I;
    error model EM
    features ok: initial state; bad: error state;
    end EM;
    error model implementation EM.I
    events f: error event occurrence poisson 0.5 per sec;
    transitions ok -[f]-> bad;
    end EM.I;
    fault injections
      component root uses error model EM.I;
      component root in state bad effect broken := true;
    end fault injections;
)";

/// Two rarely-failing components; the goal needs both failed. With the
/// failure count as the level function, level 1 is crossed by well under 1%
/// of roots at this bound: a seeded degenerate-level configuration.
constexpr const char* kRareModel = R"(
    root S.I;
    system Leaf
    features broken: out data port bool default false;
    end Leaf;
    system implementation Leaf.I end Leaf.I;
    system S
    features all_broken: out data port bool default false;
    end S;
    system implementation S.I
    subcomponents
      c0: system Leaf.I;
      c1: system Leaf.I;
    flows
      all_broken := c0.broken and c1.broken;
    end S.I;
    error model EM
    features ok: initial state; bad: error state;
    end EM;
    error model implementation EM.I
    events f: error event occurrence poisson 0.001 per sec;
    transitions ok -[f]-> bad;
    end EM.I;
    fault injections
      component c0 uses error model EM.I;
      component c0 in state bad effect broken := true;
      component c1 uses error model EM.I;
      component c1 in state bad effect broken := true;
    end fault injections;
)";

// The journal's deterministic fields and the diagnostics section must be
// byte-identical across worker counts under per-path streams (the ISSUE's
// acceptance bar for the observability surface) — and across venues: the
// sequential venue journals exactly what the threaded one does, and a run
// with periodic checkpoints writes them at the same accepted counts at
// every worker count.
TEST(JournalDeterminism, DeterministicViewIsByteIdenticalAcrossWorkers) {
    const eda::Network net = eda::build_network_from_source(kModel);
    struct Input {
        AnalysisMode mode;
        std::size_t workers;
        std::uint64_t checkpoint_every;
    };
    const std::vector<std::vector<Input>> groups = {
        {{AnalysisMode::EstimateParallel, 1, 0},
         {AnalysisMode::EstimateParallel, 2, 0},
         {AnalysisMode::EstimateParallel, 4, 0},
         {AnalysisMode::Estimate, 1, 0}},
        {{AnalysisMode::EstimateParallel, 1, 50},
         {AnalysisMode::EstimateParallel, 2, 50},
         {AnalysisMode::EstimateParallel, 4, 50}},
    };
    const std::string checkpoint = ::testing::TempDir() + "journal_determinism.ckpt";
    for (const auto& group : groups) {
        std::string reference_journal;
        DiagnosticsReport reference_diag;
        for (const Input& in : group) {
            journal::Journal journal(journal::Level::Trace);
            AnalysisRequest req;
            req.property = sim::make_reachability(net.model(), "broken", 2.0);
            req.model_label = "fault.slim";
            req.mode = in.mode;
            req.workers = in.workers;
            req.delta = 0.1;
            req.eps = 0.05;
            req.seed = 7;
            req.sim.control.deterministic_streams = true;
            if (in.checkpoint_every > 0) {
                req.sim.control.checkpoint_path = checkpoint;
                req.sim.control.checkpoint_every = in.checkpoint_every;
            }
            req.journal = &journal;
            const AnalysisResult res = run_analysis(net, req);
            ASSERT_TRUE(res.report.diagnostics.enabled);

            std::string jsonl = journal.to_jsonl(/*deterministic_view=*/true);
            EXPECT_NE(jsonl.find("\"event\":\"run_start\""), std::string::npos);
            EXPECT_NE(jsonl.find("\"event\":\"mark\""), std::string::npos);
            EXPECT_NE(jsonl.find("\"event\":\"run_end\""), std::string::npos);
            EXPECT_EQ(jsonl.find("\"event\":\"checkpoint\"") != std::string::npos,
                      in.checkpoint_every > 0);
            // The deterministic view zeroes wall-clock fields.
            EXPECT_EQ(jsonl.find("\"t\":0,"), jsonl.find("\"t\":"));
            // run_start names the mode; everything else must match.
            const std::string mode = "\"mode\":\"" + to_string(in.mode) + "\"";
            jsonl.replace(jsonl.find(mode), mode.size(), "\"mode\":\"\"");
            const std::string label =
                to_string(in.mode) + " at " + std::to_string(in.workers) + " worker(s)";
            if (reference_journal.empty()) {
                reference_journal = jsonl;
                reference_diag = res.report.diagnostics;
                continue;
            }
            EXPECT_EQ(jsonl, reference_journal) << label;
            const DiagnosticsReport& diag = res.report.diagnostics;
            EXPECT_EQ(diag.warnings, reference_diag.warnings) << label;
            ASSERT_EQ(diag.items.size(), reference_diag.items.size()) << label;
            for (std::size_t i = 0; i < diag.items.size(); ++i) {
                EXPECT_EQ(diag.items[i].check, reference_diag.items[i].check);
                EXPECT_EQ(diag.items[i].severity, reference_diag.items[i].severity);
                EXPECT_EQ(diag.items[i].value, reference_diag.items[i].value);
                EXPECT_EQ(diag.items[i].hint, reference_diag.items[i].hint);
            }
        }
    }
}

// Turning the journal on must not move a single sample.
TEST(JournalDeterminism, ResultsAreByteIdenticalWithJournalOnAndOff) {
    const eda::Network net = eda::build_network_from_source(kModel);
    for (const std::size_t workers : {std::size_t{1}, std::size_t{3}}) {
        AnalysisRequest req;
        req.property = sim::make_reachability(net.model(), "broken", 2.0);
        req.mode = workers > 1 ? AnalysisMode::EstimateParallel
                               : AnalysisMode::Estimate;
        req.workers = workers;
        req.delta = 0.1;
        req.eps = 0.05;
        req.seed = 11;
        const AnalysisResult plain = run_analysis(net, req);

        journal::Journal journal(journal::Level::Trace);
        req.journal = &journal;
        const AnalysisResult logged = run_analysis(net, req);
        EXPECT_EQ(plain.estimation.samples, logged.estimation.samples);
        EXPECT_EQ(plain.estimation.successes, logged.estimation.successes);
        EXPECT_EQ(plain.value, logged.value);
        EXPECT_GT(journal.size(), 0u);
    }
}

// The report carries the diagnostics section under schema v5.
TEST(JournalDeterminism, ReportJsonCarriesDiagnosticsSection) {
    const eda::Network net = eda::build_network_from_source(kModel);
    AnalysisRequest req;
    req.property = sim::make_reachability(net.model(), "broken", 2.0);
    req.delta = 0.1;
    req.eps = 0.05;
    const AnalysisResult res = run_analysis(net, req);
    const std::string doc = res.report.to_json().dump();
    EXPECT_NE(doc.find("\"version\":6"), std::string::npos);
    EXPECT_NE(doc.find("\"diagnostics\":{"), std::string::npos);
    EXPECT_NE(doc.find("\"checks\":["), std::string::npos);
}

// The acceptance-criterion config: a seeded splitting run whose level 1 is
// provably starved, flagged with an actionable --split hint end to end.
TEST(SplittingDiagnostics, DegenerateLevelIsFlaggedWithAHint) {
    const eda::Network net = eda::build_network_from_source(kRareModel);
    AnalysisRequest req;
    req.property = sim::make_reachability(net.model(), "all_broken", 1.0);
    req.mode = AnalysisMode::EstimateSplitting;
    req.seed = 5;
    req.splitting.level =
        "(if c0.broken then 1 else 0) + (if c1.broken then 1 else 0)";
    req.splitting.factor = 4;
    req.splitting.base_runs = 2048;
    const AnalysisResult res = run_analysis(net, req);
    const DiagnosticsReport& diag = res.report.diagnostics;
    ASSERT_TRUE(diag.enabled);
    EXPECT_GE(diag.warnings, 1u);
    bool flagged = false;
    for (const auto& item : diag.items) {
        if (item.severity == "ok") continue;
        if ((item.check == "splitting-level" &&
             item.hint.find("--split") != std::string::npos) ||
            (item.check == "splitting-goal-hits" &&
             item.hint.find("--split") != std::string::npos)) {
            flagged = true;
        }
    }
    EXPECT_TRUE(flagged) << res.report.to_json().dump(2);
}

} // namespace
} // namespace slimsim
