#include "ctmc/flow.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "eda/network.hpp"
#include "models/failover.hpp"
#include "models/sensor_filter.hpp"
#include "sim/property.hpp"
#include "support/hash.hpp"

namespace slimsim::ctmc {
namespace {

TEST(Imc, EliminateNoVanishing) {
    Imc imc;
    imc.states.resize(2);
    imc.states[0].markovian = {{1, 2.0}};
    imc.states[1].goal = true;
    const CtmcModel m = eliminate_vanishing(imc);
    EXPECT_EQ(m.state_count(), 2u);
    EXPECT_EQ(m.transitions[0].size(), 1u);
    EXPECT_TRUE(m.goal[1]);
}

TEST(Imc, EliminateChainOfVanishing) {
    // 0 (markov r=1) -> 1 (vanishing, 50/50) -> {2, 3}.
    Imc imc;
    imc.states.resize(4);
    imc.states[0].markovian = {{1, 1.0}};
    imc.states[1].vanishing = true;
    imc.states[1].immediate = {{2, 0.5}, {3, 0.5}};
    imc.states[2].goal = true;
    const CtmcModel m = eliminate_vanishing(imc);
    EXPECT_EQ(m.state_count(), 3u); // states 0, 2, 3
    ASSERT_EQ(m.transitions[0].size(), 2u);
    EXPECT_DOUBLE_EQ(m.transitions[0][0].second, 0.5);
    EXPECT_DOUBLE_EQ(m.transitions[0][1].second, 0.5);
}

TEST(Imc, EliminateNestedVanishing) {
    // vanishing -> vanishing -> tangible; probabilities multiply.
    Imc imc;
    imc.states.resize(4);
    imc.initial = 0;
    imc.states[0].vanishing = true;
    imc.states[0].immediate = {{1, 0.5}, {3, 0.5}};
    imc.states[1].vanishing = true;
    imc.states[1].immediate = {{2, 1.0}};
    imc.states[2].goal = true;
    const CtmcModel m = eliminate_vanishing(imc);
    // Initial distribution: 0.5 to state 2 (goal), 0.5 to state 3.
    ASSERT_EQ(m.initial.size(), 2u);
    EXPECT_DOUBLE_EQ(m.initial[0].second, 0.5);
    EXPECT_DOUBLE_EQ(transient_reachability(m, 0.0), 0.5);
}

TEST(Imc, RejectsImmediateCycle) {
    Imc imc;
    imc.states.resize(3);
    imc.states[0].vanishing = true;
    imc.states[0].immediate = {{1, 1.0}};
    imc.states[1].vanishing = true;
    imc.states[1].immediate = {{0, 1.0}};
    EXPECT_THROW(eliminate_vanishing(imc), Error);
}

TEST(Imc, RejectsAllVanishing) {
    Imc imc;
    imc.states.resize(1);
    imc.states[0].vanishing = true;
    EXPECT_THROW(eliminate_vanishing(imc), Error);
}

// --- state-space builder on real SLIM models -------------------------------

eda::Network net_of(const std::string& src) {
    return eda::build_network_from_source(src);
}

constexpr const char* kSimpleMarkov = R"(
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

TEST(StateSpace, SimpleMarkovModel) {
    const eda::Network net = net_of(kSimpleMarkov);
    const auto prop = sim::make_reachability(net.model(), "broken", 1.0);
    BuildStats stats;
    const Imc imc = build_state_space(net, *prop.goal, {}, &stats);
    EXPECT_EQ(stats.states, 2u);
    EXPECT_EQ(stats.vanishing, 0u);
    const CtmcModel m = eliminate_vanishing(imc);
    // P = 1 - exp(-0.5 * 1).
    EXPECT_NEAR(transient_reachability(m, 1.0), 1.0 - std::exp(-0.5), 1e-9);
}

TEST(StateSpace, RejectsTimedModels) {
    const eda::Network net = net_of(R"(
        root S.I;
        system S
        features done: out data port bool default false;
        end S;
        system implementation S.I
        subcomponents x: data clock;
        modes a: initial mode while x <= 5; b: mode;
        transitions a -[when x >= 1 then done := true]-> b;
        end S.I;
    )");
    const auto prop = sim::make_reachability(net.model(), "done", 1.0);
    EXPECT_THROW(build_state_space(net, *prop.goal), Error);
}

TEST(StateSpace, ImmediateTransitionsAreVanishing) {
    // Fault triggers an immediate monitor reaction (guarded, untimed).
    const eda::Network net = net_of(R"(
        root S.I;
        system S
        features alarm: out data port bool default false;
                 broken: out data port bool default false;
        end S;
        system implementation S.I
        modes watch: initial mode; alerted: mode;
        transitions watch -[when broken then alarm := true]-> alerted;
        end S.I;
        error model EM
        features ok: initial state; bad: error state;
        end EM;
        error model implementation EM.I
        events f: error event occurrence poisson 1 per sec;
        transitions ok -[f]-> bad;
        end EM.I;
        fault injections
          component root uses error model EM.I;
          component root in state bad effect broken := true;
        end fault injections;
    )");
    const auto prop = sim::make_reachability(net.model(), "alarm", 2.0);
    BuildStats stats;
    const Imc imc = build_state_space(net, *prop.goal, {}, &stats);
    EXPECT_GE(stats.vanishing, 1u);
    const CtmcModel m = eliminate_vanishing(imc);
    // The alarm follows the fault immediately: P = 1 - exp(-2).
    EXPECT_NEAR(transient_reachability(m, 2.0), 1.0 - std::exp(-2.0), 1e-9);
}

TEST(StateSpace, SignedZerosAreOneState) {
    // Value::operator== equates -0.0 with +0.0, so both firings out of `a`
    // reach one state `b`: 3 states, where a bitwise key would build 5.
    const eda::Network net = net_of(R"(
        root S.I;
        system S
        features done: out data port bool default false;
        end S;
        system implementation S.I
        subcomponents x: data real default 1.0;
        modes a: initial mode; b: mode; c: mode;
        transitions
          a -[then x := -0.0]-> b;
          a -[then x := 0.0]-> b;
          b -[then done := true]-> c;
        end S.I;
    )");
    const auto prop = sim::make_reachability(net.model(), "done", 1.0);
    BuildStats stats;
    const Imc imc = build_state_space(net, *prop.goal, {}, &stats);
    EXPECT_EQ(stats.states, 3u);
    ASSERT_EQ(imc.states[0].immediate.size(), 2u);
    EXPECT_EQ(imc.states[0].immediate[0].first, imc.states[0].immediate[1].first);
}

TEST(StateSpace, MaxStatesEnforced) {
    const eda::Network net = net_of(kSimpleMarkov);
    const auto prop = sim::make_reachability(net.model(), "broken", 1.0);
    BuildOptions opt;
    opt.max_states = 1;
    EXPECT_THROW(build_state_space(net, *prop.goal, opt), Error);
}

// Pins the builder's IMC (state ids, transition order and weights) on the
// paper's models: any change to the exploration order or the key's equality
// rule shows as a different fingerprint.
struct ImcGolden {
    const char* name;
    std::string source;
    std::string goal;
    std::size_t states;
    std::size_t vanishing;
    std::size_t transitions;
    std::uint64_t fingerprint;
};

std::uint64_t imc_fingerprint(const Imc& imc) {
    std::uint64_t h = 1;
    for (const ImcState& st : imc.states) {
        h = hash_mix(h, 2 * std::uint64_t{st.goal} + std::uint64_t{st.vanishing});
        for (const auto& [t, w] : st.immediate) {
            h = hash_mix(h, t);
            h = hash_mix(h, double_bits(w));
        }
        h = hash_mix(h, 0xabc);
        for (const auto& [t, w] : st.markovian) {
            h = hash_mix(h, t);
            h = hash_mix(h, double_bits(w));
        }
    }
    return h;
}

TEST(StateSpace, ImcGoldenOnPaperModels) {
    std::vector<ImcGolden> goldens = {
        {"R=1", models::sensor_filter_source(1), models::sensor_filter_goal(), 5, 2, 4,
         0xa219015bf5fddd8dULL},
        {"R=2", models::sensor_filter_source(2), models::sensor_filter_goal(), 33, 18, 42,
         0x4e02a0d3778f211aULL},
        {"R=3", models::sensor_filter_source(3), models::sensor_filter_goal(), 161, 98, 266,
         0x87ed2f6c38e35109ULL},
        {"R=4", models::sensor_filter_source(4), models::sensor_filter_goal(), 705, 450, 1410,
         0x3185d4ada78625feULL},
        {"R=5", models::sensor_filter_source(5), models::sensor_filter_goal(), 2945, 1922,
         6882, 0xc078855600c03c50ULL},
        {"R=6", models::sensor_filter_source(6), models::sensor_filter_goal(), 12033, 7938,
         32130, 0xb3d6746114b6e3eeULL},
        {"fail-over", models::failover_source({.pump_fail_per_hour = 0.003}),
         models::failover_goal(), 8, 4, 8, 0x69d2d98967c95266ULL},
    };
    for (const ImcGolden& g : goldens) {
        SCOPED_TRACE(g.name);
        const eda::Network net = net_of(g.source);
        const auto prop = sim::make_reachability(net.model(), g.goal, 1.0);
        BuildStats stats;
        const Imc imc = build_state_space(net, *prop.goal, {}, &stats);
        EXPECT_EQ(stats.states, g.states);
        EXPECT_EQ(stats.vanishing, g.vanishing);
        EXPECT_EQ(stats.transitions, g.transitions);
        EXPECT_EQ(imc.initial, 0u);
        EXPECT_EQ(imc_fingerprint(imc), g.fingerprint);
    }
}

// Pins vanishing-state elimination and lumping on the same models: every
// transition in order with its rate's bits, the goal flags, the initial
// distribution and the block numbering, so a change to the order in which a
// target receives its additions (or to block numbering) shows.
std::uint64_t ctmc_fingerprint(const CtmcModel& m) {
    std::uint64_t h = 1;
    for (StateId s = 0; s < m.state_count(); ++s) {
        h = hash_mix(h, std::uint64_t{m.goal[s] != 0});
        for (const auto& [t, r] : m.transitions[s]) {
            h = hash_mix(h, t);
            h = hash_mix(h, double_bits(r));
        }
        h = hash_mix(h, 0xabc);
    }
    for (const auto& [t, p] : m.initial) {
        h = hash_mix(h, t);
        h = hash_mix(h, double_bits(p));
    }
    return h;
}

TEST(Elimination, FingerprintsOnPaperModels) {
    struct Golden {
        const char* name;
        std::string source;
        std::string goal;
        std::size_t tangible;
        std::uint64_t eliminated;
        std::size_t blocks;
        std::uint64_t lumped; // quotient chain and block_of
    };
    std::vector<Golden> goldens = {
        {"R=1", models::sensor_filter_source(1), models::sensor_filter_goal(), 3,
         0xbc3fcad68cb90adULL, 2, 0x4e6f647c811f4508ULL},
        {"R=2", models::sensor_filter_source(2), models::sensor_filter_goal(), 15,
         0xf7a6e9b7fa57b6deULL, 5, 0x4996f15cc81de2a3ULL},
        {"R=3", models::sensor_filter_source(3), models::sensor_filter_goal(), 63,
         0xa57eff45aaa81c35ULL, 10, 0xc761edc6aa41855cULL},
        {"R=4", models::sensor_filter_source(4), models::sensor_filter_goal(), 255,
         0x22655bbc6f2dd8c5ULL, 17, 0xa0325139d1189b88ULL},
        {"R=5", models::sensor_filter_source(5), models::sensor_filter_goal(), 1023,
         0xb9060cc008857a5dULL, 27, 0xcb850698a30f35fcULL},
        {"R=6", models::sensor_filter_source(6), models::sensor_filter_goal(), 4095,
         0x63d7139561146b5cULL, 59, 0x617001caf877bbb1ULL},
        {"fail-over", models::failover_source({.pump_fail_per_hour = 0.003}),
         models::failover_goal(), 4, 0x9bb3c64bf2977c40ULL, 3, 0x6a1ec7a28ea997b0ULL},
    };
    for (const Golden& g : goldens) {
        SCOPED_TRACE(g.name);
        const eda::Network net = net_of(g.source);
        const auto prop = sim::make_reachability(net.model(), g.goal, 1.0);
        const CtmcModel m = eliminate_vanishing(build_state_space(net, *prop.goal));
        LumpResult lr;
        const CtmcModel q = minimize(m, &lr);
        std::uint64_t lumped = ctmc_fingerprint(q);
        for (const StateId b : lr.block_of) lumped = hash_mix(lumped, b);
        EXPECT_EQ(m.state_count(), g.tangible);
        EXPECT_EQ(ctmc_fingerprint(m), g.eliminated);
        EXPECT_EQ(lr.block_count, g.blocks);
        EXPECT_EQ(lumped, g.lumped);
    }
}

TEST(Flow, EndToEndMatchesAnalytic) {
    const eda::Network net = net_of(kSimpleMarkov);
    const auto prop = sim::make_reachability(net.model(), "broken", 3.0);
    const FlowResult res = run_ctmc_flow(net, *prop.goal, 3.0);
    EXPECT_NEAR(res.probability, 1.0 - std::exp(-1.5), 1e-9);
    EXPECT_GE(res.ctmc_states, res.lumped_states);
    EXPECT_GT(res.total_seconds, 0.0);
}

TEST(Flow, MinimizationTogglePreservesResult) {
    const eda::Network net = net_of(kSimpleMarkov);
    const auto prop = sim::make_reachability(net.model(), "broken", 2.0);
    FlowOptions with;
    FlowOptions without;
    without.minimize = false;
    const double p1 = run_ctmc_flow(net, *prop.goal, 2.0, with).probability;
    const double p2 = run_ctmc_flow(net, *prop.goal, 2.0, without).probability;
    EXPECT_NEAR(p1, p2, 1e-12);
}

TEST(Quotient, MergesParallelEdges) {
    CtmcModel m;
    m.transitions.resize(3);
    m.transitions[0] = {{1, 1.0}, {2, 1.0}};
    m.goal = {0, 1, 1};
    m.initial = {{0, 1.0}};
    // Merge states 1 and 2 into one block.
    const CtmcModel q = quotient(m, {0, 1, 1}, 2);
    ASSERT_EQ(q.transitions[0].size(), 1u);
    EXPECT_DOUBLE_EQ(q.transitions[0][0].second, 2.0);
    EXPECT_TRUE(q.goal[1]);
}

} // namespace
} // namespace slimsim::ctmc
