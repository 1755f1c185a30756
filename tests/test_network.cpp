#include "eda/network.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace slimsim::eda {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

Network net_of(const std::string& src) { return build_network_from_source(src); }

TEST(Network, InitialState) {
    const Network net = net_of(R"(
        root S.I;
        system S end S;
        system implementation S.I
        subcomponents n: data int default 5;
        modes a: initial mode; b: mode;
        end S.I;
    )");
    const NetworkState s = net.initial_state();
    EXPECT_EQ(s.locations, (std::vector<int>{0}));
    EXPECT_EQ(s.values[net.model().var("n")], Value(std::int64_t{5}));
    EXPECT_EQ(s.time, 0.0);
    EXPECT_TRUE(s.instance_active(0));
}

TEST(Network, InvariantHorizon) {
    const Network net = net_of(R"(
        root S.I;
        system S end S;
        system implementation S.I
        subcomponents x: data clock;
        modes a: initial mode while x <= 7;
        transitions a -[when x >= 7]-> a;
        end S.I;
    )");
    NetworkState s = net.initial_state();
    SimScratch scratch;
    EXPECT_DOUBLE_EQ(net.invariant_horizon(s, scratch), 7.0);
    net.elapse(s, 3.0);
    EXPECT_DOUBLE_EQ(net.invariant_horizon(s, scratch), 4.0);
    EXPECT_DOUBLE_EQ(s.time, 3.0);
    EXPECT_DOUBLE_EQ(s.values[net.model().var("x")].as_real(), 3.0);
}

TEST(Network, HorizonUnboundedWithoutInvariants) {
    const Network net = net_of(R"(
        root S.I;
        system S end S;
        system implementation S.I
        modes a: initial mode;
        end S.I;
    )");
    const NetworkState s = net.initial_state();
    SimScratch scratch;
    EXPECT_EQ(net.invariant_horizon(s, scratch), kInf);
    EXPECT_TRUE(net.candidates(s, kInf, scratch).empty());
    EXPECT_TRUE(net.markovian_rates(s, scratch).empty());
}

TEST(Network, CandidateWindows) {
    const Network net = net_of(R"(
        root S.I;
        system S end S;
        system implementation S.I
        subcomponents x: data clock;
        modes a: initial mode while x <= 10; b: mode;
        transitions a -[when x >= 4 and x <= 6]-> b;
        end S.I;
    )");
    const NetworkState s = net.initial_state();
    SimScratch scratch;
    const double h = net.invariant_horizon(s, scratch);
    EXPECT_DOUBLE_EQ(h, 10.0);
    const auto cands = net.candidates(s, h, scratch);
    ASSERT_EQ(cands.size(), 1u);
    EXPECT_EQ(cands[0].kind, Candidate::Kind::Tau);
    ASSERT_EQ(cands[0].enabled.parts().size(), 1u);
    EXPECT_DOUBLE_EQ(cands[0].enabled.parts()[0].lo, 4.0);
    EXPECT_DOUBLE_EQ(cands[0].enabled.parts()[0].hi, 6.0);
}

TEST(Network, ExecuteAppliesEffectsAndResetsTimer) {
    const Network net = net_of(R"(
        root S.I;
        system S end S;
        system implementation S.I
        subcomponents
          n: data int default 0;
        modes a: initial mode; b: mode;
        transitions a -[when @timer >= 2 then n := n + 41]-> b;
        end S.I;
    )");
    NetworkState s = net.initial_state();
    Rng rng(1);
    net.elapse(s, 2.5);
    SimScratch scratch;
    const auto cands = net.candidates(s, 10.0, scratch);
    ASSERT_EQ(cands.size(), 1u);
    net.execute(s, cands[0], rng, scratch);
    EXPECT_EQ(s.locations[0], 1);
    EXPECT_EQ(s.values[net.model().var("n")], Value(std::int64_t{41}));
    EXPECT_DOUBLE_EQ(s.values[net.model().var("@timer")].as_real(), 0.0);
}

TEST(Network, SynchronizationFiresJointly) {
    const Network net = net_of(R"(
        root Top.I;
        system Sender
        features done: out event port;
        end Sender;
        system implementation Sender.I
        subcomponents sent: data bool default false;
        modes a: initial mode; b: mode;
        transitions a -[done then sent := true]-> b;
        end Sender.I;
        system Receiver
        features go: in event port;
        end Receiver;
        system implementation Receiver.I
        subcomponents got: data bool default false;
        modes idle: initial mode; busy: mode;
        transitions idle -[go then got := true]-> busy;
        end Receiver.I;
        system Top end Top;
        system implementation Top.I
        subcomponents
          s: system Sender.I;
          r: system Receiver.I;
        connections
          event port s.done -> r.go;
        end Top.I;
    )");
    NetworkState s = net.initial_state();
    Rng rng(1);
    SimScratch scratch;
    const auto cands = net.candidates(s, kInf, scratch);
    ASSERT_EQ(cands.size(), 1u);
    EXPECT_EQ(cands[0].kind, Candidate::Kind::Sync);
    const StepInfo info = net.execute(s, cands[0], rng, scratch);
    EXPECT_EQ(info.fired.size(), 2u); // both processes moved
    EXPECT_EQ(s.values[net.model().var("s.sent")], Value(true));
    EXPECT_EQ(s.values[net.model().var("r.got")], Value(true));
}

TEST(Network, SyncBlockedWhenReceiverNotReady) {
    const Network net = net_of(R"(
        root Top.I;
        system Sender
        features done: out event port;
        end Sender;
        system implementation Sender.I
        modes a: initial mode; b: mode;
        transitions a -[done]-> b;
        end Sender.I;
        system Receiver
        features go: in event port;
        end Receiver;
        system implementation Receiver.I
        subcomponents armed: data bool default false;
        modes idle: initial mode; busy: mode;
        transitions idle -[go when armed]-> busy;
        end Receiver.I;
        system Top end Top;
        system implementation Top.I
        subcomponents
          s: system Sender.I;
          r: system Receiver.I;
        connections
          event port s.done -> r.go;
        end Top.I;
    )");
    const NetworkState s = net.initial_state();
    // Receiver's guard is false, so the CSP synchronization cannot happen.
    SimScratch scratch;
    EXPECT_TRUE(net.candidates(s, kInf, scratch).empty());
}

TEST(Network, MarkovianRaceAndExecution) {
    const Network net = net_of(R"(
        root S.I;
        system S end S;
        system implementation S.I end S.I;
        error model EM
        features ok: initial state; bad: error state; worse: error state;
        end EM;
        error model implementation EM.I
        events
          f1: error event occurrence poisson 3 per sec;
          f2: error event occurrence poisson 1 per sec;
        transitions
          ok -[f1]-> bad;
          ok -[f2]-> worse;
        end EM.I;
        fault injections
          component root uses error model EM.I;
        end fault injections;
    )");
    NetworkState s = net.initial_state();
    SimScratch scratch;
    const auto rates = net.markovian_rates(s, scratch);
    ASSERT_EQ(rates.size(), 1u);
    EXPECT_DOUBLE_EQ(rates[0].total_rate, 4.0);

    // Branch probabilities proportional to rates: ~3/4 to `bad`.
    Rng rng(1234);
    int to_bad = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        NetworkState copy = s;
        net.execute_markovian(copy, rates[0].process, rng, scratch);
        if (copy.locations[rates[0].process] == 1) ++to_bad;
    }
    EXPECT_NEAR(static_cast<double>(to_bad) / n, 0.75, 0.02);
}

TEST(Network, InjectionAppliesAndRestores) {
    const Network net = net_of(R"(
        root Top.I;
        system Leaf
        features v: out data port bool default true;
        end Leaf;
        system implementation Leaf.I end Leaf.I;
        system Top end Top;
        system implementation Top.I
        subcomponents a: system Leaf.I;
        end Top.I;
        error model EM
        features ok: initial state; bad: error state;
        end EM;
        error model implementation EM.I
        events
          f: error event occurrence poisson 1 per sec;
          r: error event;
        transitions
          ok -[f]-> bad;
          bad -[r when @timer >= 1]-> ok;
        end EM.I;
        fault injections
          component a uses error model EM.I;
          component a in state bad effect v := false;
        end fault injections;
    )");
    NetworkState s = net.initial_state();
    Rng rng(7);
    const VarId v = net.model().var("a.v");
    EXPECT_EQ(s.values[v], Value(true));
    // Fault fires -> injection forces v=false.
    SimScratch scratch;
    const auto rates = net.markovian_rates(s, scratch);
    ASSERT_EQ(rates.size(), 1u);
    net.execute_markovian(s, rates[0].process, rng, scratch);
    EXPECT_EQ(s.values[v], Value(false));
    // Recovery -> v restored to its default.
    net.elapse(s, 1.5);
    const auto cands = net.candidates(s, 10.0, scratch);
    ASSERT_EQ(cands.size(), 1u);
    net.execute(s, cands[0], rng, scratch);
    EXPECT_EQ(s.values[v], Value(true));
}

TEST(Network, BroadcastPropagation) {
    const Network net = net_of(R"(
        root Top.I;
        system Leaf end Leaf;
        system implementation Leaf.I end Leaf.I;
        system Top end Top;
        system implementation Top.I
        subcomponents
          a: system Leaf.I;
          b: system Leaf.I;
          c: system Leaf.I;
        end Top.I;
        error model Src
        features ok: initial state; bad: error state; fail: out propagation;
        end Src;
        error model implementation Src.I
        events f: error event occurrence poisson 1 per sec;
        transitions
          ok -[f]-> bad;
          bad -[fail]-> bad;
        end Src.I;
        error model Dst
        features ok: initial state; dead: error state; fail: in propagation;
        end Dst;
        error model implementation Dst.I
        transitions ok -[fail]-> dead;
        end Dst.I;
        fault injections
          component a uses error model Src.I;
          component b uses error model Dst.I;
          component c uses error model Dst.I;
        end fault injections;
    )");
    NetworkState s = net.initial_state();
    Rng rng(5);
    // Fire the fault in a.
    SimScratch scratch;
    net.execute_markovian(s, net.markovian_rates(s, scratch)[0].process, rng, scratch);
    // Now a#error can broadcast `fail`; both b and c listen.
    const auto cands = net.candidates(s, kInf, scratch);
    ASSERT_EQ(cands.size(), 1u);
    EXPECT_EQ(cands[0].kind, Candidate::Kind::BroadcastSend);
    const StepInfo info = net.execute(s, cands[0], rng, scratch);
    EXPECT_EQ(info.fired.size(), 3u); // sender + two receivers
    const auto pb = net.model().instances[net.model().instance("b")].error_process;
    const auto pc = net.model().instances[net.model().instance("c")].error_process;
    EXPECT_EQ(s.locations[pb], 1);
    EXPECT_EQ(s.locations[pc], 1);
}

TEST(Network, BroadcastDoesNotBlockOnUnreadyReceiver) {
    const Network net = net_of(R"(
        root Top.I;
        system Leaf end Leaf;
        system implementation Leaf.I end Leaf.I;
        system Top end Top;
        system implementation Top.I
        subcomponents
          a: system Leaf.I;
          b: system Leaf.I;
        end Top.I;
        error model Src
        features ok: initial state; bad: error state; fail: out propagation;
        end Src;
        error model implementation Src.I
        events f: error event occurrence poisson 1 per sec;
        transitions
          ok -[f]-> bad;
          bad -[fail]-> bad;
        end Src.I;
        error model Dst
        features ok: initial state; dead: error state; fail: in propagation;
        end Dst;
        error model implementation Dst.I
        transitions dead -[fail]-> dead; -- only listens in `dead`
        end Dst.I;
        fault injections
          component a uses error model Src.I;
          component b uses error model Dst.I;
        end fault injections;
    )");
    NetworkState s = net.initial_state();
    Rng rng(5);
    SimScratch scratch;
    net.execute_markovian(s, net.markovian_rates(s, scratch)[0].process, rng, scratch);
    const auto cands = net.candidates(s, kInf, scratch);
    ASSERT_EQ(cands.size(), 1u); // the send is enabled even with no receiver
    const StepInfo info = net.execute(s, cands[0], rng, scratch);
    EXPECT_EQ(info.fired.size(), 1u); // sender alone
}

TEST(Network, DynamicReconfigurationFreezesAndActivates) {
    const Network net = net_of(R"(
        root Top.I;
        system Worker end Worker;
        system implementation Worker.I
        subcomponents
          c: data clock;
          restarted: data int [0..100] default 0;
        modes run: initial mode;
        transitions
          run -[@activation then restarted := restarted + 1]-> run;
        end Worker.I;
        system Top end Top;
        system implementation Top.I
        subcomponents w: system Worker.I in modes (on);
        modes
          on: initial mode;
          off: mode;
        transitions
          on -[when @timer >= 1]-> off;
          off -[when @timer >= 1]-> on;
        end Top.I;
    )");
    NetworkState s = net.initial_state();
    Rng rng(2);
    const VarId c = net.model().var("w.c");
    const VarId restarted = net.model().var("w.restarted");
    const auto w_inst = net.model().instance("w");

    EXPECT_TRUE(s.instance_active(w_inst));
    net.elapse(s, 1.0);
    EXPECT_DOUBLE_EQ(s.values[c].as_real(), 1.0);

    // Parent switches off: w deactivates, its clock freezes.
    SimScratch scratch;
    auto cands = net.candidates(s, 10.0, scratch);
    ASSERT_EQ(cands.size(), 1u);
    net.execute(s, cands[0], rng, scratch);
    EXPECT_FALSE(s.instance_active(w_inst));
    net.elapse(s, 1.0);
    EXPECT_DOUBLE_EQ(s.values[c].as_real(), 1.0); // frozen

    // Parent switches back on: @activation fires, counter increments.
    cands = net.candidates(s, 10.0, scratch);
    ASSERT_EQ(cands.size(), 1u);
    net.execute(s, cands[0], rng, scratch);
    EXPECT_TRUE(s.instance_active(w_inst));
    EXPECT_EQ(s.values[restarted], Value(std::int64_t{1}));
}

TEST(Network, RangeViolationThrows) {
    const Network net = net_of(R"(
        root S.I;
        system S end S;
        system implementation S.I
        subcomponents n: data int [0..3] default 3;
        modes a: initial mode;
        transitions a -[when n <= 3 then n := n + 1]-> a;
        end S.I;
    )");
    NetworkState s = net.initial_state();
    Rng rng(1);
    SimScratch scratch;
    const auto cands = net.candidates(s, 1.0, scratch);
    ASSERT_EQ(cands.size(), 1u);
    EXPECT_THROW(net.execute(s, cands[0], rng, scratch), Error);
}

TEST(Network, ModeGatedFlowSwitchesSource) {
    const Network net = net_of(R"(
        root Top.I;
        system Leaf
        features o: out data port int default 1;
        end Leaf;
        system implementation Leaf.I end Leaf.I;
        system Leaf2
        features o: out data port int default 2;
        end Leaf2;
        system implementation Leaf2.I end Leaf2.I;
        system Top
        features sel: out data port int default 0;
        end Top;
        system implementation Top.I
        subcomponents
          a: system Leaf.I;
          b: system Leaf2.I;
        flows
          sel := a.o in modes (use_a);
          sel := b.o in modes (use_b);
        modes
          use_a: initial mode;
          use_b: mode;
        transitions
          use_a -[]-> use_b;
        end Top.I;
    )");
    NetworkState s = net.initial_state();
    Rng rng(1);
    EXPECT_EQ(s.values[net.model().var("sel")], Value(std::int64_t{1}));
    SimScratch scratch;
    const auto cands = net.candidates(s, 1.0, scratch);
    ASSERT_EQ(cands.size(), 1u);
    net.execute(s, cands[0], rng, scratch);
    EXPECT_EQ(s.values[net.model().var("sel")], Value(std::int64_t{2}));
}

} // namespace
} // namespace slimsim::eda
