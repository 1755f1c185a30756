// Corner cases of the Event-Data Automata network: hierarchical event
// re-export, timed synchronization windows, activation cascades,
// parent-child propagation, multi-process invariant horizons, Boolean
// equality over clock constraints.
#include <gtest/gtest.h>

#include <limits>

#include "eda/network.hpp"

namespace slimsim::eda {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(EdaEdge, EventReExportAcrossHierarchy) {
    // inner sender's port is re-exported up through its parent, connected
    // sideways, and routed down into the inner receiver: one sync group.
    const Network net = build_network_from_source(R"(
        root Top.I;
        system Inner
        features ding: out event port;
        end Inner;
        system implementation Inner.I
        modes a: initial mode; b: mode;
        transitions a -[ding]-> b;
        end Inner.I;
        system InnerRx
        features dong: in event port;
        end InnerRx;
        system implementation InnerRx.I
        modes idle: initial mode; rung: mode;
        transitions idle -[dong]-> rung;
        end InnerRx.I;
        system Left
        features out_ding: out event port;
        end Left;
        system implementation Left.I
        subcomponents inner: system Inner.I;
        connections event port inner.ding -> out_ding;
        end Left.I;
        system Right
        features in_ding: in event port;
        end Right;
        system implementation Right.I
        subcomponents rx: system InnerRx.I;
        connections event port in_ding -> rx.dong;
        end Right.I;
        system Top end Top;
        system implementation Top.I
        subcomponents
          l: system Left.I;
          r: system Right.I;
        connections event port l.out_ding -> r.in_ding;
        end Top.I;
    )");
    const auto& m = net.model();
    ASSERT_EQ(m.actions.size(), 1u); // one group across three levels
    EXPECT_EQ(m.actions[0].participants.size(), 2u); // only the two leaves

    NetworkState s = net.initial_state();
    Rng rng(1);
    SimScratch scratch;
    const auto cands = net.candidates(s, kInf, scratch);
    ASSERT_EQ(cands.size(), 1u);
    const StepInfo info = net.execute(s, cands[0], rng, scratch);
    EXPECT_EQ(info.fired.size(), 2u);
    const auto rx = m.instances[m.instance("r.rx")].process;
    EXPECT_EQ(s.locations[rx], 1);
}

TEST(EdaEdge, TimedSyncWindowIsIntersection) {
    const Network net = build_network_from_source(R"(
        root Top.I;
        system Sender
        features go: out event port;
        end Sender;
        system implementation Sender.I
        subcomponents x: data clock;
        modes a: initial mode while x <= 5; b: mode;
        transitions a -[go when x >= 2]-> b;
        end Sender.I;
        system Receiver
        features hear: in event port;
        end Receiver;
        system implementation Receiver.I
        subcomponents y: data clock;
        modes idle: initial mode while y <= 8; busy: mode;
        transitions idle -[hear when y >= 4]-> busy;
        end Receiver.I;
        system Top end Top;
        system implementation Top.I
        subcomponents
          s: system Sender.I;
          r: system Receiver.I;
        connections event port s.go -> r.hear;
        end Top.I;
    )");
    const NetworkState s = net.initial_state();
    SimScratch scratch;
    const double horizon = net.invariant_horizon(s, scratch);
    EXPECT_DOUBLE_EQ(horizon, 5.0); // the sender's invariant binds first
    const auto cands = net.candidates(s, horizon, scratch);
    ASSERT_EQ(cands.size(), 1u);
    ASSERT_EQ(cands[0].enabled.parts().size(), 1u);
    // Sender ready on [2,5], receiver on [4,8]: the sync window is [4,5].
    EXPECT_DOUBLE_EQ(cands[0].enabled.parts()[0].lo, 4.0);
    EXPECT_DOUBLE_EQ(cands[0].enabled.parts()[0].hi, 5.0);
}

TEST(EdaEdge, GrandchildActivationCascade) {
    const Network net = build_network_from_source(R"(
        root Top.I;
        system Leaf end Leaf;
        system implementation Leaf.I
        subcomponents c: data clock;
        modes on: initial mode;
        end Leaf.I;
        system Mid end Mid;
        system implementation Mid.I
        subcomponents leaf: system Leaf.I;
        end Mid.I;
        system Top end Top;
        system implementation Top.I
        subcomponents mid: system Mid.I in modes (running);
        modes
          running: initial mode;
          halted: mode;
        transitions
          running -[when @timer >= 1]-> halted;
          halted -[when @timer >= 1]-> running;
        end Top.I;
    )");
    const auto& m = net.model();
    NetworkState s = net.initial_state();
    Rng rng(1);
    const auto leaf_inst = m.instance("mid.leaf");
    const VarId c = m.var("mid.leaf.c");
    EXPECT_TRUE(s.instance_active(leaf_inst));

    // Parent halts: mid and, transitively, mid.leaf deactivate.
    net.elapse(s, 1.0);
    SimScratch scratch;
    auto cands = net.candidates(s, 10.0, scratch);
    ASSERT_EQ(cands.size(), 1u);
    net.execute(s, cands[0], rng, scratch);
    EXPECT_FALSE(s.instance_active(m.instance("mid")));
    EXPECT_FALSE(s.instance_active(leaf_inst));
    const double frozen = s.values[c].as_real();
    net.elapse(s, 1.0);
    EXPECT_DOUBLE_EQ(s.values[c].as_real(), frozen); // grandchild clock frozen

    // Resume: both reactivate.
    cands = net.candidates(s, 10.0, scratch);
    ASSERT_EQ(cands.size(), 1u);
    net.execute(s, cands[0], rng, scratch);
    EXPECT_TRUE(s.instance_active(leaf_inst));
    net.elapse(s, 1.0);
    EXPECT_DOUBLE_EQ(s.values[c].as_real(), frozen + 1.0);
}

TEST(EdaEdge, ParentChildPropagation) {
    const Network net = build_network_from_source(R"(
        root Top.I;
        system Child end Child;
        system implementation Child.I end Child.I;
        system Top end Top;
        system implementation Top.I
        subcomponents kid: system Child.I;
        end Top.I;
        error model ChildEM
        features ok: initial state; bad: error state; scream: out propagation;
        end ChildEM;
        error model implementation ChildEM.I
        events f: error event occurrence poisson 1 per sec;
        transitions
          ok -[f]-> bad;
          bad -[scream]-> bad;
        end ChildEM.I;
        error model ParentEM
        features calm: initial state; alarmed: error state; scream: in propagation;
        end ParentEM;
        error model implementation ParentEM.I
        transitions calm -[scream]-> alarmed;
        end ParentEM.I;
        fault injections
          component kid uses error model ChildEM.I;
          component root uses error model ParentEM.I;
        end fault injections;
    )");
    const auto& m = net.model();
    NetworkState s = net.initial_state();
    Rng rng(2);
    // Child fails, then screams; the parent's error model hears it.
    SimScratch scratch;
    net.execute_markovian(s, net.markovian_rates(s, scratch)[0].process, rng, scratch);
    const auto cands = net.candidates(s, kInf, scratch);
    ASSERT_EQ(cands.size(), 1u);
    EXPECT_EQ(cands[0].kind, Candidate::Kind::BroadcastSend);
    const StepInfo info = net.execute(s, cands[0], rng, scratch);
    EXPECT_EQ(info.fired.size(), 2u);
    const auto parent_ep = m.instances[m.instance("")].error_process;
    EXPECT_EQ(s.locations[parent_ep], 1); // alarmed
}

TEST(EdaEdge, HorizonIsMinimumOverProcesses) {
    const Network net = build_network_from_source(R"(
        root Top.I;
        system Tank end Tank;
        system implementation Tank.I
        subcomponents level: data continuous default 10;
        modes draining: initial mode while level >= 0;
        trends level' = -2 in draining;
        end Tank.I;
        system Timer end Timer;
        system implementation Timer.I
        subcomponents t: data clock;
        modes waiting: initial mode while t <= 3; done: mode;
        transitions waiting -[when t >= 3]-> done;
        end Timer.I;
        system Top end Top;
        system implementation Top.I
        subcomponents
          tank: system Tank.I;
          timer: system Timer.I;
        end Top.I;
    )");
    NetworkState s = net.initial_state();
    // Tank allows 5 s (10 / 2), timer allows 3 s: the horizon is 3 s.
    SimScratch scratch;
    EXPECT_DOUBLE_EQ(net.invariant_horizon(s, scratch), 3.0);
    net.elapse(s, 3.0);
    Rng rng(1);
    const auto cands = net.candidates(s, net.invariant_horizon(s, scratch), scratch);
    ASSERT_EQ(cands.size(), 1u);
    net.execute(s, cands[0], rng, scratch);
    // After the timer is done, only the tank constrains: 10 - 2*3 = 4 left,
    // at slope 2 -> horizon 2.
    EXPECT_DOUBLE_EQ(net.invariant_horizon(s, scratch), 2.0);
    EXPECT_DOUBLE_EQ(s.values[net.model().var("tank.level")].as_real(), 4.0);
}

TEST(EdaEdge, SyncBlockedForeverIsDeadlockForCandidates) {
    const Network net = build_network_from_source(R"(
        root Top.I;
        system Sender
        features go: out event port;
        end Sender;
        system implementation Sender.I
        modes a: initial mode; b: mode;
        transitions a -[go]-> b;
        end Sender.I;
        system Receiver
        features hear: in event port;
        end Receiver;
        system implementation Receiver.I
        subcomponents never: data bool default false;
        modes idle: initial mode; busy: mode;
        transitions idle -[hear when never]-> busy;
        end Receiver.I;
        system Top end Top;
        system implementation Top.I
        subcomponents
          s: system Sender.I;
          r: system Receiver.I;
        connections event port s.go -> r.hear;
        end Top.I;
    )");
    const NetworkState s = net.initial_state();
    SimScratch scratch;
    EXPECT_TRUE(net.candidates(s, kInf, scratch).empty());
    EXPECT_TRUE(net.markovian_rates(s, scratch).empty());
}

TEST(EdaEdge, BooleanEqualityGuardOverClockConstraint) {
    // A Boolean variable compared with a clock constraint: enabled exactly
    // while both agree (both true from x = 5 on).
    const Network net = build_network_from_source(R"(
        root S.I;
        system S end S;
        system implementation S.I
        subcomponents
          x: data clock;
          flag: data bool default true;
        modes a: initial mode; b: mode;
        transitions a -[when flag = (x >= 5)]-> b;
        end S.I;
    )");
    const NetworkState s = net.initial_state();
    SimScratch scratch;
    const auto cands = net.candidates(s, 20.0, scratch);
    ASSERT_EQ(cands.size(), 1u);
    EXPECT_EQ(cands[0].enabled, IntervalSet(5.0, 20.0));
}

} // namespace
} // namespace slimsim::eda
