#include "sim/trace.hpp"

#include <gtest/gtest.h>

#include "models/gps.hpp"
#include "sim/runner.hpp"

namespace slimsim::sim {
namespace {

TEST(TraceTest, RecordsAndFormats) {
    Trace t;
    t.record(0.0, "start");
    t.record(1.5, "something happened");
    ASSERT_EQ(t.steps().size(), 2u);
    EXPECT_DOUBLE_EQ(t.steps()[1].time, 1.5);
    const std::string text = t.to_string();
    EXPECT_NE(text.find("[t=0]"), std::string::npos);
    EXPECT_NE(text.find("[t=1.5] something happened"), std::string::npos);
}

TEST(TraceTest, DescribeStateListsProcessesAndValues) {
    const eda::Network net = eda::build_network_from_source(models::gps_source());
    const eda::NetworkState s = net.initial_state();
    const std::string text = describe_state(net, s);
    EXPECT_NE(text.find("gps@acquisition"), std::string::npos);
    EXPECT_NE(text.find("gps#error@ok"), std::string::npos);
    EXPECT_NE(text.find("gps.measurement=false"), std::string::npos);
    // Timer variables are elided.
    EXPECT_EQ(text.find("@timer="), std::string::npos);
}

TEST(TraceTest, DescribeStepNamesTransition) {
    const eda::Network net = eda::build_network_from_source(models::gps_source());
    eda::NetworkState s = net.initial_state();
    Rng rng(1);
    net.elapse(s, 20.0);
    eda::SimScratch scratch;
    const auto cands = net.candidates(s, 120.0, scratch);
    ASSERT_FALSE(cands.empty());
    const eda::StepInfo info = net.execute(s, cands[0], rng, scratch);
    const std::string text = describe_step(net, info);
    EXPECT_NE(text.find("gps: acquisition -> active"), std::string::npos);
}

TEST(TraceTest, DescribeStepOnMarkovian) {
    const eda::Network net = eda::build_network_from_source(models::gps_source());
    eda::NetworkState s = net.initial_state();
    Rng rng(2);
    eda::SimScratch scratch;
    const auto rates = net.markovian_rates(s, scratch);
    ASSERT_EQ(rates.size(), 1u);
    const eda::StepInfo info = net.execute_markovian(s, rates[0].process, rng, scratch);
    const std::string text = describe_step(net, info);
    EXPECT_NE(text.find("gps#error: ok ->"), std::string::npos);
    EXPECT_NE(text.find("(rate"), std::string::npos);
}

TEST(TraceTest, CandidateDescribe) {
    const eda::Network net = eda::build_network_from_source(models::gps_source());
    const eda::NetworkState s = net.initial_state();
    eda::SimScratch scratch;
    const auto cands = net.candidates(s, 120.0, scratch);
    ASSERT_EQ(cands.size(), 1u);
    const std::string text = cands[0].describe(net.model());
    EXPECT_NE(text.find("tau gps"), std::string::npos);
    EXPECT_NE(text.find("[10, 120]"), std::string::npos);
}

TEST(TraceTest, FullPathTraceIsChronological) {
    const eda::Network net =
        eda::build_network_from_source(models::gps_restart_source(true));
    const auto prop =
        sim::make_reachability(net.model(), models::gps_restart_goal(), 2700.0);
    auto strat = make_strategy(StrategyKind::Asap);
    const PathGenerator gen(net, prop, *strat);
    Rng rng(12);
    Trace trace;
    (void)gen.run_traced(rng, trace);
    ASSERT_GE(trace.steps().size(), 2u);
    for (std::size_t i = 1; i < trace.steps().size(); ++i) {
        EXPECT_GE(trace.steps()[i].time, trace.steps()[i - 1].time - 1e-12);
    }
}

} // namespace
} // namespace slimsim::sim
