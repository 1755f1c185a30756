// Tests of the model coverage, occupancy & decision profiler: the stable
// element numbering (eda::ElementIndex), shard recording + deterministic
// merging, the strategy-sensitivity scenario (a goal unreachable under ASAP
// but reached under Progressive, with dead-model warnings), byte-identity
// across worker counts, the CSV rendering and the Prometheus text
// exposition.
#include "sim/coverage.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "api/analysis.hpp"
#include "models/sensor_filter.hpp"
#include "support/diagnostics.hpp"
#include "support/metrics_text.hpp"

namespace slimsim {
namespace {

class CoverageTest : public ::testing::Test {
protected:
    CoverageTest()
        : net(eda::build_network_from_source(models::sensor_filter_panic_source(),
                                             "sensor_filter_panic.slim")) {}

    eda::Network net;
    static constexpr double kBound = 4.0 * 3600.0; // 4 hours

    [[nodiscard]] AnalysisRequest base_request(sim::StrategyKind strategy) const {
        AnalysisRequest req;
        req.property = sim::make_reachability(net.model(),
                                              models::sensor_filter_panic_goal(), kBound);
        req.model_label = "sensor_filter_panic.slim";
        req.strategy = strategy;
        req.delta = 0.1;
        req.eps = 0.05;
        req.seed = 7;
        req.coverage = true;
        return req;
    }
};

TEST_F(CoverageTest, ElementIndexNumbersModelElements) {
    const eda::ElementIndex index(net.model());
    // Monitor modes (m_0_0, dead, panic) plus two error models (ok, failed).
    EXPECT_GE(index.mode_count(), 7u);
    // Three monitor transitions plus one fault transition per error model.
    EXPECT_GE(index.transition_count(), 5u);
    EXPECT_EQ(index.alternative_count(), index.transition_count()); // no sync actions

    std::set<std::string> mode_names;
    for (std::uint32_t id = 0; id < index.mode_count(); ++id) {
        EXPECT_TRUE(mode_names.insert(index.mode_name(id)).second)
            << "duplicate mode name " << index.mode_name(id);
    }
    EXPECT_TRUE(mode_names.count("<root>.panic")) << "root modes use the process name";
    EXPECT_TRUE(mode_names.count("<root>.dead"));

    std::set<std::string> transition_names;
    bool saw_error = false;
    bool saw_monitor = false;
    for (std::uint32_t id = 0; id < index.transition_count(); ++id) {
        EXPECT_TRUE(transition_names.insert(index.transition_name(id)).second)
            << "duplicate transition name " << index.transition_name(id);
        // Destination modes stay within the mode id space.
        EXPECT_LT(index.transition_dst_mode(id), index.mode_count());
        if (index.transition_is_error(id)) saw_error = true;
        if (index.transition_name(id).find("panic") != std::string::npos) {
            saw_monitor = true;
            EXPECT_FALSE(index.transition_is_error(id));
        }
    }
    EXPECT_TRUE(saw_error) << "fault transitions are error-event activations";
    EXPECT_TRUE(saw_monitor);
}

TEST_F(CoverageTest, AsapNeverFiresThePanicTransition) {
    // ASAP reacts to the first failure with zero delay, so the panic guard
    // (both failure signatures at once) never becomes enabled: the goal is
    // unreachable and the profiler must flag the dead transition and mode.
    const AnalysisResult res = run_analysis(net, base_request(sim::StrategyKind::Asap));
    EXPECT_EQ(res.value, 0.0);
    ASSERT_TRUE(res.coverage.enabled);
    EXPECT_GT(res.coverage.paths, 0u);

    const auto never = res.coverage.never_fired_transitions();
    EXPECT_FALSE(never.empty());
    EXPECT_TRUE(std::any_of(never.begin(), never.end(), [](const std::string& n) {
        return n.find("panic") != std::string::npos;
    })) << "the panic transition must be reported as never fired";

    const auto unreached = res.coverage.unreached_modes();
    EXPECT_TRUE(std::find(unreached.begin(), unreached.end(), "<root>.panic") !=
                unreached.end());

    // The warnings surface in the human-readable summary.
    const std::string summary = res.coverage.summary_text();
    EXPECT_NE(summary.find("never fired"), std::string::npos);
    EXPECT_NE(summary.find("never reached"), std::string::npos);
}

TEST_F(CoverageTest, ProgressiveReachesThePanicMode) {
    const AnalysisResult res =
        run_analysis(net, base_request(sim::StrategyKind::Progressive));
    EXPECT_GT(res.value, 0.0);
    ASSERT_TRUE(res.coverage.enabled);

    std::uint64_t panic_fires = 0;
    for (const auto& t : res.coverage.transitions) {
        if (t.name.find("panic") != std::string::npos) panic_fires += t.fires;
    }
    EXPECT_GT(panic_fires, 0u);

    bool panic_reached = false;
    for (const auto& m : res.coverage.modes) {
        if (m.name == "<root>.panic") panic_reached = m.visits > 0;
    }
    EXPECT_TRUE(panic_reached);
    // Under Progressive every element of this model is exercised.
    EXPECT_EQ(res.coverage.covered_elements(), res.coverage.total_elements());
}

TEST_F(CoverageTest, OccupancyAccountsModelTimePerProcess) {
    const AnalysisResult res =
        run_analysis(net, base_request(sim::StrategyKind::Progressive));
    const std::size_t processes = net.model().processes.size();
    double total = 0.0;
    for (const auto& m : res.coverage.modes) total += m.occupancy_seconds;
    EXPECT_GT(total, 0.0);
    // Each process occupies exactly one mode at a time and every path lasts
    // at most the bound (model time), so the total is bounded by
    // paths * processes * bound.
    EXPECT_LE(total, static_cast<double>(res.coverage.paths) *
                         static_cast<double>(processes) * kBound * (1.0 + 1e-9));
}

TEST_F(CoverageTest, DecisionHistogramsAreConsistent) {
    const AnalysisResult res =
        run_analysis(net, base_request(sim::StrategyKind::Progressive));
    ASSERT_FALSE(res.coverage.choice_points.empty());
    for (const auto& cp : res.coverage.choice_points) {
        EXPECT_FALSE(cp.key.empty());
        std::uint64_t sum = 0;
        for (const auto& alt : cp.alternatives) sum += alt.count;
        EXPECT_EQ(sum, cp.decisions) << "choice point " << cp.key;
        EXPECT_GT(cp.decisions, 0u);
    }
    // The double-failure choice point offers the dead and panic transitions
    // simultaneously; under Progressive both alternatives get picked.
    const bool saw_panic_choice = std::any_of(
        res.coverage.choice_points.begin(), res.coverage.choice_points.end(),
        [](const telemetry::CoverageChoicePoint& cp) {
            return cp.key.find("panic") != std::string::npos &&
                   cp.alternatives.size() >= 2;
        });
    EXPECT_TRUE(saw_panic_choice);
}

TEST_F(CoverageTest, SaturationSeriesIsMonotone) {
    const AnalysisResult res =
        run_analysis(net, base_request(sim::StrategyKind::Progressive));
    ASSERT_FALSE(res.coverage.saturation.empty());
    std::uint64_t prev_paths = 0;
    std::uint64_t prev_covered = 0;
    for (const auto& p : res.coverage.saturation) {
        EXPECT_GT(p.paths, prev_paths);
        EXPECT_GE(p.covered, prev_covered);
        prev_paths = p.paths;
        prev_covered = p.covered;
    }
    EXPECT_EQ(res.coverage.saturation.back().paths, res.coverage.paths);
    EXPECT_EQ(res.coverage.saturation.back().covered, res.coverage.covered_elements());
    EXPECT_LE(res.coverage.covered_elements(), res.coverage.total_elements());
}

TEST_F(CoverageTest, ByteIdenticalAcrossWorkerCounts) {
    const AnalysisResult seq =
        run_analysis(net, base_request(sim::StrategyKind::Progressive));
    for (const std::size_t workers : {2u, 4u}) {
        AnalysisRequest par = base_request(sim::StrategyKind::Progressive);
        par.mode = AnalysisMode::EstimateParallel;
        par.workers = workers;
        const AnalysisResult res = run_analysis(net, par);
        EXPECT_EQ(res.value, seq.value) << workers << " workers";
        EXPECT_EQ(res.coverage.paths, seq.coverage.paths);
        // The serialized coverage sections are byte-identical: same counts,
        // same occupancy doubles, same saturation series.
        EXPECT_EQ(res.report.to_json().at("coverage").dump(2),
                  seq.report.to_json().at("coverage").dump(2))
            << workers << " workers";
    }
}

TEST_F(CoverageTest, SequentialMergeMatchesManualReplay) {
    // Drive a shard by hand over the exact per-path streams a coverage run
    // uses and check the merged profile against the engine's.
    const AnalysisRequest req = base_request(sim::StrategyKind::Asap);
    const AnalysisResult res = run_analysis(net, req);
    const eda::ElementIndex index(net.model());
    sim::CoverageShard shard(index);
    const auto strat = sim::make_strategy(sim::StrategyKind::Asap);
    strat->set_observer(&shard);
    sim::SimOptions options;
    options.coverage = true;
    options.coverage_shard = &shard;
    const sim::PathGenerator gen(net, req.property, *strat, options);
    const Rng master(7);
    for (std::uint64_t j = 0; j < res.coverage.paths; ++j) {
        Rng rng = master.split(j);
        (void)gen.run(rng);
    }
    ASSERT_EQ(shard.path_count(), res.coverage.paths);
    const sim::CoverageShard* shard_ptr = &shard;
    const std::uint64_t accepted = res.coverage.paths;
    const telemetry::CoverageReport manual =
        sim::merge_coverage({&shard_ptr, 1}, {&accepted, 1});
    EXPECT_EQ(manual.to_json().dump(2), res.coverage.to_json().dump(2));
}

TEST_F(CoverageTest, CsvRendering) {
    const AnalysisResult res = run_analysis(net, base_request(sim::StrategyKind::Asap));
    const std::string csv = res.coverage.to_csv();
    std::istringstream is(csv);
    std::string header;
    ASSERT_TRUE(std::getline(is, header));
    EXPECT_EQ(header, "kind,name,count,occupancy_seconds");
    std::map<std::string, std::size_t> kinds;
    std::string line;
    while (std::getline(is, line)) {
        ASSERT_FALSE(line.empty());
        // kind is a bare token; the name field after it is RFC 4180 quoted.
        const std::size_t comma = line.find(',');
        ASSERT_NE(comma, std::string::npos);
        ASSERT_EQ(line[comma + 1], '"') << line;
        ++kinds[line.substr(0, comma)];
    }
    EXPECT_EQ(kinds["mode"], res.coverage.modes.size());
    EXPECT_GT(kinds["transition"], 0u);
    EXPECT_GT(kinds["error-event"], 0u);
    EXPECT_GT(kinds["decision"], 0u);
    EXPECT_EQ(kinds["saturation"], res.coverage.saturation.size());
}

/// Prometheus text-format lint: every sample line's family must have been
/// declared by a preceding # TYPE line, and no family is declared twice.
void lint_exposition(const std::string& text) {
    std::set<std::string> declared;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty()) continue;
        if (line.rfind("# TYPE ", 0) == 0) {
            std::istringstream fields(line.substr(7));
            std::string family, type;
            ASSERT_TRUE(fields >> family >> type) << line;
            EXPECT_TRUE(type == "gauge" || type == "counter") << line;
            EXPECT_TRUE(declared.insert(family).second)
                << "family declared twice: " << family;
            continue;
        }
        if (line[0] == '#') continue;
        const std::size_t name_end = line.find_first_of("{ ");
        ASSERT_NE(name_end, std::string::npos) << line;
        EXPECT_TRUE(declared.count(line.substr(0, name_end)))
            << "sample before # TYPE: " << line;
    }
}

TEST_F(CoverageTest, PrometheusExpositionIsWellFormed) {
    const AnalysisResult res =
        run_analysis(net, base_request(sim::StrategyKind::Progressive));
    const std::string text = telemetry::prometheus_text(res.report);
    lint_exposition(text);
    EXPECT_NE(text.find("slimsim_coverage_paths_total"), std::string::npos);
    EXPECT_NE(text.find("slimsim_coverage_mode_occupancy_seconds"), std::string::npos);
    EXPECT_NE(text.find("slimsim_coverage_decisions_total"), std::string::npos);
    EXPECT_NE(text.find(telemetry::kMetricsRuntimeMarker), std::string::npos);
    // Counter families end in _total (exposition-format convention).
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
        if (line.rfind("# TYPE ", 0) != 0) continue;
        std::istringstream fields(line.substr(7));
        std::string family, type;
        fields >> family >> type;
        if (type == "counter") {
            EXPECT_TRUE(family.size() > 6 &&
                        family.compare(family.size() - 6, 6, "_total") == 0)
                << family;
        }
    }
}

TEST_F(CoverageTest, PrometheusDeterministicSectionStableAcrossWorkers) {
    const AnalysisResult seq =
        run_analysis(net, base_request(sim::StrategyKind::Progressive));
    AnalysisRequest par = base_request(sim::StrategyKind::Progressive);
    par.mode = AnalysisMode::EstimateParallel;
    par.workers = 3;
    const AnalysisResult res = run_analysis(net, par);
    EXPECT_EQ(telemetry::prometheus_deterministic_section(
                  telemetry::prometheus_text(seq.report)),
              telemetry::prometheus_deterministic_section(
                  telemetry::prometheus_text(res.report)));
}

TEST_F(CoverageTest, RejectedOutsideEstimationModes) {
    AnalysisRequest req = base_request(sim::StrategyKind::Progressive);
    req.mode = AnalysisMode::CtmcFlow;
    try {
        (void)run_analysis(net, req);
        ADD_FAILURE() << "coverage profiling of a CTMC flow was accepted";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("coverage"), std::string::npos) << e.what();
    }
}

TEST_F(CoverageTest, ObserverGuardRestoresPreviousObserver) {
    const eda::ElementIndex index(net.model());
    sim::CoverageShard outer(index);
    sim::CoverageShard inner(index);
    const auto strat = sim::make_strategy(sim::StrategyKind::Asap);
    strat->set_observer(&outer);
    {
        const sim::ObserverGuard guard(*strat, &inner);
        EXPECT_EQ(strat->observer(), &inner);
    }
    EXPECT_EQ(strat->observer(), &outer);
}

TEST_F(CoverageTest, DisabledByDefault) {
    AnalysisRequest req = base_request(sim::StrategyKind::Progressive);
    req.coverage = false;
    const AnalysisResult res = run_analysis(net, req);
    EXPECT_FALSE(res.coverage.enabled);
    EXPECT_EQ(res.report.to_json().find("coverage"), nullptr);
}

} // namespace
} // namespace slimsim
