// Unit tests for the run report, the engine instruments it reads from the
// metrics registry (counters, the power-of-two steps-per-path histogram,
// the sampled path timer), and the JSON document model backing --json.
#include "support/telemetry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <initializer_list>
#include <limits>
#include <numeric>
#include <thread>
#include <vector>

#include "api/analysis.hpp"
#include "sim/path_generator.hpp"
#include "sim/strategy.hpp"
#include "support/diagnostics.hpp"
#include "support/metrics.hpp"

namespace slimsim {
namespace {

using Entry = std::pair<std::string, std::uint64_t>;

// Markovian single-fault model: every path fires at most one transition.
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

/// Runs `paths` paths through one generator metered into `registry`.
void run_metered_paths(metrics::Registry& registry, std::size_t paths) {
    const eda::Network net = eda::build_network_from_source(kModel);
    const sim::TimedReachability prop = sim::make_reachability(net.model(), "broken", 2.0);
    const auto strategy = sim::make_strategy(sim::StrategyKind::Asap);
    sim::SimOptions options;
    options.metrics = &registry;
    const sim::PathGenerator gen(net, prop, *strategy, options);
    Rng rng(3);
    for (std::size_t i = 0; i < paths; ++i) (void)gen.run(rng);
}

std::uint64_t counter(const telemetry::RunReport& report, std::string_view name) {
    for (const auto& [n, v] : report.counters) {
        if (n == name) return v;
    }
    ADD_FAILURE() << "no counter " << name;
    return 0;
}

// Registry counters only grow; a report counts from its own start snapshot,
// so every run's engine counters start at zero.
TEST(Counter, AddsAndResets) {
    metrics::Registry reg(2);
    metrics::Counter& c = reg.counter("slimsim_paths_completed_total", "Paths.");
    c.add(0);
    c.add(1, 41);
    EXPECT_EQ(c.total(), 42u);
    const sim::EngineCounts start = sim::engine_counts(reg);
    c.add(0, 3);
    telemetry::RunReport report;
    sim::add_engine_counts(report, start, sim::engine_counts(reg));
    ASSERT_EQ(report.counters.size(), 1u);
    EXPECT_EQ(report.counters[0], (Entry{"sim.paths", 3}));
}

TEST(Counter, ConcurrentIncrementsAreLossless) {
    // Two threads per shard: cells shared by workers stay lossless too.
    metrics::Registry reg(2);
    metrics::Counter& c = reg.counter("slimsim_path_steps_total", "Steps.");
    std::vector<std::thread> threads;
    threads.reserve(4);
    for (std::size_t t = 0; t < 4; ++t) {
        threads.emplace_back([&c, t] {
            for (int i = 0; i < 10'000; ++i) c.add(t % 2);
        });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(c.total(), 40'000u);
}

// The path timer: a metered generator reads the clock for every 64th path
// only (paths 0, 64 and 128 of 130).
TEST(Timer, ScopedTimerRecordsSections) {
    metrics::Registry reg;
    run_metered_paths(reg, 130);
    EXPECT_EQ(reg.totals("slimsim_paths_completed_total"),
              std::vector<std::uint64_t>{130});
    const std::vector<std::uint64_t> timed = reg.totals("slimsim_path_seconds");
    ASSERT_FALSE(timed.empty());
    EXPECT_EQ(std::accumulate(timed.begin(), timed.end(), std::uint64_t{0}), 3u);
    EXPECT_NE(reg.expose().find("slimsim_path_seconds_count 3\n"), std::string::npos);
}

TEST(Timer, NullScopedTimerIsNoop) {
    // Without a registry the generator registers and records nothing.
    metrics::Registry reg;
    const eda::Network net = eda::build_network_from_source(kModel);
    const sim::TimedReachability prop = sim::make_reachability(net.model(), "broken", 2.0);
    const auto strategy = sim::make_strategy(sim::StrategyKind::Asap);
    const sim::PathGenerator gen(net, prop, *strategy);
    Rng rng(3);
    for (int i = 0; i < 10; ++i) (void)gen.run(rng);
    for (const auto& v : sim::engine_counts(reg)) EXPECT_TRUE(v.empty());
}

TEST(Timer, NegativeDeltaClampsToZero) {
    // A caller differencing a non-steady clock can produce a negative delta;
    // it must not unwind the accumulated sum.
    metrics::Registry reg;
    metrics::Histogram& h = reg.histogram("t_seconds", "", metrics::time_buckets());
    h.observe(0, 1e-3);
    h.observe(0, -5e-3);
    EXPECT_EQ(h.count(), 2u);
    EXPECT_DOUBLE_EQ(h.sum(), 1e-3);
}

/// Bins `values` the way a path generator does and adds them in one batch.
void add_counts(metrics::Histogram& h, std::initializer_list<std::uint64_t> values) {
    std::array<std::uint64_t, metrics::kCountBuckets> per_bucket{};
    std::uint64_t sum = 0;
    for (const std::uint64_t v : values) {
        ++per_bucket[metrics::count_bucket(v)];
        sum += v;
    }
    h.add_binned(0, per_bucket, sum);
}

TEST(Histogram, PowerOfTwoBuckets) {
    metrics::Registry reg;
    metrics::Histogram& h = reg.count_histogram("slimsim_steps_per_path", "Steps.");
    add_counts(h, {0, 1, 2, 3, 4, 7, 8});
    EXPECT_EQ(h.count(), 7u);
    EXPECT_EQ(h.sum_units(), 25u);
    telemetry::RunReport report;
    sim::add_engine_counts(report, {}, sim::engine_counts(reg));
    ASSERT_EQ(report.histograms.size(), 1u);
    EXPECT_EQ(report.histograms[0].first, "sim.steps_per_path");
    const auto& bins = report.histograms[0].second;
    ASSERT_EQ(bins.size(), 5u);
    EXPECT_EQ(bins[0], (Entry{"0", 1}));
    EXPECT_EQ(bins[1], (Entry{"1", 1}));
    EXPECT_EQ(bins[2], (Entry{"2-3", 2}));
    EXPECT_EQ(bins[3], (Entry{"4-7", 2}));
    EXPECT_EQ(bins[4], (Entry{"8-15", 1}));
    EXPECT_EQ(metrics::count_bucket_label(4), "8-15");

    // The top bucket takes everything from 2^62 up, and the sum stays exact
    // where nanosecond scaling would have wrapped.
    const std::uint64_t huge = std::numeric_limits<std::uint64_t>::max() / 2;
    add_counts(h, {huge});
    EXPECT_EQ(h.sum_units(), 25u + huge);
    const auto top = h.bucket_totals();
    EXPECT_EQ(top.back(), 1u);
    EXPECT_EQ(metrics::count_bucket_label(top.size() - 1),
              "4611686018427387904-9223372036854775807");
    const std::string text = reg.expose();
    EXPECT_NE(text.find("slimsim_steps_per_path_bucket{le=\"3\"} 4\n"), std::string::npos)
        << text;
    EXPECT_NE(text.find("slimsim_steps_per_path_sum " + std::to_string(25u + huge) + "\n"),
              std::string::npos)
        << text;
}

TEST(Recorder, InstrumentsAreStableAcrossLookups) {
    metrics::Registry reg;
    metrics::Counter& a = reg.counter("sim_paths_total", "");
    a.add(0, 3);
    metrics::Counter& b = reg.counter("sim_paths_total", "");
    EXPECT_EQ(&a, &b);
    // References survive registry growth.
    for (int i = 0; i < 100; ++i) {
        reg.counter("c" + std::to_string(i) + "_total", "").add(0);
    }
    a.add(0);
    EXPECT_EQ(reg.totals("sim_paths_total"), std::vector<std::uint64_t>{4});
    EXPECT_TRUE(reg.totals("absent_total").empty());
}

TEST(Recorder, SnapshotsAreSortedByName) {
    metrics::Registry reg;
    reg.counter("slimsim_transition_fires_live_total", "",
                metrics::label("kind", "strategy"))
        .add(0, 2);
    reg.counter("slimsim_interned_configs_total", "").add(0, 1);
    telemetry::RunReport report;
    report.counters.emplace_back("zeta", 9);
    sim::add_engine_counts(report, {}, sim::engine_counts(reg));
    ASSERT_EQ(report.counters.size(), 3u);
    EXPECT_EQ(report.counters[0], (Entry{"sim.interned_states", 1}));
    EXPECT_EQ(report.counters[1], (Entry{"sim.strategy_steps", 2}));
    EXPECT_EQ(report.counters[2].first, "zeta");
}

// The telemetry flag decides whether the report carries engine counters.
TEST(Recorder, EnabledFlag) {
    AnalysisRequest req;
    const eda::Network net = eda::build_network_from_source(kModel);
    req.property = sim::make_reachability(net.model(), "broken", 2.0);
    req.eps = 0.1;
    EXPECT_FALSE(run_analysis(net, req).report.counters.empty());
    req.telemetry = false;
    const AnalysisResult off = run_analysis(net, req);
    EXPECT_TRUE(off.report.counters.empty());
    EXPECT_TRUE(off.report.histograms.empty());
}

TEST(Json, ScalarsRoundTrip) {
    EXPECT_EQ(json::Value(true).dump(), "true");
    EXPECT_EQ(json::Value(nullptr).dump(), "null");
    EXPECT_EQ(json::Value(-3).dump(), "-3");
    EXPECT_EQ(json::Value(18'446'744'073'709'551'615ull).dump(),
              "18446744073709551615");
    EXPECT_EQ(json::Value(0.25).dump(), "0.25");
    EXPECT_EQ(json::Value("a\"b\n").dump(), "\"a\\\"b\\n\"");
}

TEST(Json, ObjectsKeepInsertionOrder) {
    json::Value obj = json::Value::object();
    obj["zeta"] = 1;
    obj["alpha"] = 2;
    EXPECT_EQ(obj.dump(), "{\"zeta\":1,\"alpha\":2}");
    // Structural equality ignores member order.
    json::Value other = json::Value::object();
    other["alpha"] = 2;
    other["zeta"] = 1;
    EXPECT_EQ(obj, other);
}

TEST(Json, ParseDumpRoundTrip) {
    const std::string text =
        R"({"a":[1,2.5,"x",true,null],"b":{"nested":-7},"c":"é"})";
    const json::Value doc = json::Value::parse(text);
    EXPECT_EQ(doc.at("a").size(), 5u);
    EXPECT_EQ(doc.at("a").at(1).as_double(), 2.5);
    EXPECT_EQ(doc.at("b").at("nested").as_int(), -7);
    EXPECT_EQ(doc.at("c").as_string(), "\xc3\xa9");
    EXPECT_EQ(json::Value::parse(doc.dump()), doc);
    EXPECT_EQ(json::Value::parse(doc.dump(2)), doc);
}

TEST(Json, ParseRejectsMalformedInput) {
    EXPECT_THROW((void)json::Value::parse("{"), Error);
    EXPECT_THROW((void)json::Value::parse("[1,]"), Error);
    EXPECT_THROW((void)json::Value::parse("42 garbage"), Error);
    EXPECT_THROW((void)json::Value::parse(""), Error);
}

TEST(Json, FindAndMissingKeys) {
    json::Value obj = json::Value::object();
    obj["present"] = 1;
    EXPECT_NE(obj.find("present"), nullptr);
    EXPECT_EQ(obj.find("absent"), nullptr);
    EXPECT_THROW((void)obj.at("absent"), Error);
}

TEST(RunReport, JsonHasSchemaAndVersion) {
    telemetry::RunReport report;
    report.mode = "estimate";
    report.model = "m.slim";
    report.property = "<> [0,2] broken";
    report.strategy = "progressive";
    report.criterion = "chernoff-hoeffding";
    report.seed = 7;
    report.workers = 1;
    report.params.emplace_back("delta", 0.05);
    report.value = 0.5;
    report.samples = 10;
    report.successes = 5;
    report.terminals = {{"goal", 5}, {"time-bound", 5}};
    report.worker_stats = {{0, 0, 10, 10}};
    report.stop_trajectory = {{10, 10}};
    report.phases = {{"simulate", 0.1}};
    report.wall_seconds = 0.2;
    report.peak_rss_bytes = 1024;

    const json::Value doc = report.to_json();
    EXPECT_EQ(doc.at("schema").as_string(), "slimsim-run-report");
    EXPECT_EQ(doc.at("version").as_uint(), telemetry::RunReport::kSchemaVersion);
    EXPECT_EQ(doc.at("mode").as_string(), "estimate");
    EXPECT_EQ(doc.at("analysis").at("seed").as_uint(), 7u);
    EXPECT_EQ(doc.at("result").at("samples").as_uint(), 10u);
    EXPECT_EQ(doc.at("terminals").at("goal").as_uint(), 5u);
    EXPECT_EQ(doc.at("workers").at(0).at("rng_stream").as_uint(), 0u);
    EXPECT_NE(doc.find("runtime"), nullptr);
    EXPECT_NE(doc.find("resources"), nullptr);

    // The deterministic view drops exactly the wall-clock sections.
    const json::Value det = telemetry::deterministic_view(doc);
    EXPECT_EQ(det.find("runtime"), nullptr);
    EXPECT_EQ(det.find("resources"), nullptr);
    EXPECT_EQ(det.at("result").at("value").as_double(), 0.5);

    // Text rendering mentions the headline facts.
    const std::string text = report.to_text();
    EXPECT_NE(text.find("estimate"), std::string::npos);
    EXPECT_NE(text.find("goal=5"), std::string::npos);
}

TEST(RunReport, AbsorbMergesRecorderSnapshots) {
    metrics::Registry reg;
    run_metered_paths(reg, 130);

    telemetry::RunReport report;
    report.counters.emplace_back("ctmc.imc_states", 99);
    sim::add_engine_counts(report, {}, sim::engine_counts(reg));
    std::vector<std::string> names;
    for (const auto& [name, n] : report.counters) names.push_back(name);
    EXPECT_EQ(names, (std::vector<std::string>{
                         "ctmc.imc_states", // sorted, pre-fill kept
                         "sim.interned_states", "sim.markovian_steps", "sim.paths",
                         "sim.pure_delays", "sim.steps", "sim.strategy_steps"}));
    EXPECT_EQ(counter(report, "ctmc.imc_states"), 99u);
    EXPECT_EQ(counter(report, "sim.paths"), 130u);
    EXPECT_EQ(counter(report, "sim.steps"), counter(report, "sim.markovian_steps") +
                                                counter(report, "sim.strategy_steps") +
                                                counter(report, "sim.pure_delays"));
    EXPECT_GT(counter(report, "sim.interned_states"), 0u);
    ASSERT_EQ(report.histograms.size(), 1u);
    EXPECT_EQ(report.histograms[0].first, "sim.steps_per_path");
    std::uint64_t paths = 0;
    for (const auto& [label, n] : report.histograms[0].second) {
        EXPECT_TRUE(label == "0" || label == "1") << label; // at most one fire
        paths += n;
    }
    EXPECT_EQ(paths, 130u);
    // The path timer sampled 1 path in 64.
    EXPECT_NE(reg.expose().find("slimsim_path_seconds_count 3\n"), std::string::npos);
}

TEST(RunReport, ParallelReportsMoveSharedInstrumentsToRuntime) {
    telemetry::RunReport report;
    report.workers = 4;
    report.counters.emplace_back("sim.paths", 100);
    report.worker_stats = {{0, 0, 25, 25}, {1, 1, 25, 25}};
    const json::Value doc = report.to_json();
    EXPECT_EQ(doc.find("counters"), nullptr);
    EXPECT_NE(doc.at("runtime").find("counters"), nullptr);
    EXPECT_EQ(doc.at("runtime").at("generated").size(), 2u);
}

} // namespace
} // namespace slimsim
