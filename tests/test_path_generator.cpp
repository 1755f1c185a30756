#include "sim/path_generator.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <vector>

#include "sim/runner.hpp"
#include "support/hash.hpp"

namespace slimsim::sim {
namespace {

struct Harness {
    explicit Harness(const std::string& src) : net(eda::build_network_from_source(src)) {}

    PathOutcome run_once(const std::string& goal, double bound, StrategyKind kind,
                         std::uint64_t seed = 1, SimOptions opt = {}) {
        const TimedReachability prop = make_reachability(net.model(), goal, bound);
        auto strat = make_strategy(kind);
        const PathGenerator gen(net, prop, *strat, opt);
        Rng rng(seed);
        return gen.run(rng);
    }

    double estimate_p(const std::string& goal, double bound, StrategyKind kind,
                      double eps = 0.02, std::uint64_t seed = 7) {
        const TimedReachability prop = make_reachability(net.model(), goal, bound);
        const stat::ChernoffHoeffding ch(0.05, eps);
        return estimate(net, prop, kind, ch, seed).estimate;
    }

    eda::Network net;
};

TEST(PathGenerator, DeterministicTimedReachability) {
    // Transition enabled exactly in [4,6]; goal set on firing.
    Harness h(R"(
        root S.I;
        system S
        features done: out data port bool default false;
        end S;
        system implementation S.I
        subcomponents x: data clock;
        modes a: initial mode while x <= 6; b: mode;
        transitions a -[when x >= 4 then done := true]-> b;
        end S.I;
    )");
    // ASAP fires at t=4; bound 5 suffices.
    const PathOutcome asap = h.run_once("done", 5.0, StrategyKind::Asap);
    EXPECT_TRUE(asap.satisfied);
    EXPECT_EQ(asap.terminal, PathTerminal::Goal);
    EXPECT_DOUBLE_EQ(asap.end_time, 4.0);
    // MaxTime fires at t=6; bound 5 is missed.
    const PathOutcome late = h.run_once("done", 5.0, StrategyKind::MaxTime);
    EXPECT_FALSE(late.satisfied);
    // ... but bound 7 is reached.
    const PathOutcome ok = h.run_once("done", 7.0, StrategyKind::MaxTime);
    EXPECT_TRUE(ok.satisfied);
    EXPECT_DOUBLE_EQ(ok.end_time, 6.0);
}

TEST(PathGenerator, GoalOnClockDuringElapse) {
    // The goal depends on a clock only; no discrete transition exists.
    Harness h(R"(
        root S.I;
        system S end S;
        system implementation S.I
        subcomponents x: data clock;
        modes a: initial mode;
        end S.I;
    )");
    const PathOutcome out = h.run_once("x >= 3", 10.0, StrategyKind::Asap);
    EXPECT_TRUE(out.satisfied);
    EXPECT_DOUBLE_EQ(out.end_time, 3.0);
    const PathOutcome miss = h.run_once("x >= 30", 10.0, StrategyKind::Asap);
    EXPECT_FALSE(miss.satisfied);
}

TEST(PathGenerator, GoalAlreadyTrueInitially) {
    Harness h(R"(
        root S.I;
        system S
        features ok: out data port bool default true;
        end S;
        system implementation S.I end S.I;
    )");
    const PathOutcome out = h.run_once("ok", 1.0, StrategyKind::Progressive);
    EXPECT_TRUE(out.satisfied);
    EXPECT_DOUBLE_EQ(out.end_time, 0.0);
    EXPECT_EQ(out.steps, 0u);
}

TEST(PathGenerator, DeadlockFalsifiesByDefault) {
    Harness h(R"(
        root S.I;
        system S
        features never: out data port bool default false;
        end S;
        system implementation S.I
        modes a: initial mode;
        end S.I;
    )");
    const PathOutcome out = h.run_once("never", 5.0, StrategyKind::Asap);
    EXPECT_FALSE(out.satisfied);
    EXPECT_EQ(out.terminal, PathTerminal::Deadlock);
}

TEST(PathGenerator, DeadlockErrorPolicy) {
    Harness h(R"(
        root S.I;
        system S
        features never: out data port bool default false;
        end S;
        system implementation S.I
        modes a: initial mode;
        end S.I;
    )");
    SimOptions opt;
    opt.deadlock = StuckPolicy::Error;
    EXPECT_THROW(h.run_once("never", 5.0, StrategyKind::Asap, 1, opt), Error);
}

TEST(PathGenerator, TimelockDetected) {
    // Invariant expires at 2 with no enabled transition (guard needs x>=5).
    Harness h(R"(
        root S.I;
        system S
        features never: out data port bool default false;
        end S;
        system implementation S.I
        subcomponents x: data clock;
        modes a: initial mode while x <= 2; b: mode;
        transitions a -[when x >= 5]-> b;
        end S.I;
    )");
    const PathOutcome out = h.run_once("never", 10.0, StrategyKind::Progressive);
    EXPECT_FALSE(out.satisfied);
    EXPECT_EQ(out.terminal, PathTerminal::Timelock);
    EXPECT_DOUBLE_EQ(out.end_time, 2.0);

    SimOptions opt;
    opt.timelock = StuckPolicy::Error;
    EXPECT_THROW(h.run_once("never", 10.0, StrategyKind::Progressive, 1, opt), Error);
}

TEST(PathGenerator, ZenoModelRaisesStepLimit) {
    Harness h(R"(
        root S.I;
        system S
        features never: out data port bool default false;
        end S;
        system implementation S.I
        modes a: initial mode;
        transitions a -[]-> a;
        end S.I;
    )");
    SimOptions opt;
    opt.max_steps = 1000;
    EXPECT_THROW(h.run_once("never", 5.0, StrategyKind::Asap, 1, opt), Error);
}

TEST(PathGenerator, ExponentialReachabilityMatchesAnalytic) {
    Harness h(R"(
        root S.I;
        system S
        features broken: out data port bool default false;
        end S;
        system implementation S.I end S.I;
        error model EM
        features ok: initial state; bad: error state;
        end EM;
        error model implementation EM.I
        events f: error event occurrence poisson 0.7 per sec;
        transitions ok -[f]-> bad;
        end EM.I;
        fault injections
          component root uses error model EM.I;
          component root in state bad effect broken := true;
        end fault injections;
    )");
    const double expected = 1.0 - std::exp(-0.7 * 2.0);
    for (const StrategyKind k : automated_strategies()) {
        EXPECT_NEAR(h.estimate_p("broken", 2.0, k), expected, 0.03)
            << "strategy " << to_string(k);
    }
}

TEST(PathGenerator, MarkovianRacePreemptsScheduledDelay) {
    // A guarded transition is enabled in [5,10]; a fault races at a high
    // rate and usually preempts it.
    Harness h(R"(
        root S.I;
        system S
        features
          acted: out data port bool default false;
          broken: out data port bool default false;
        end S;
        system implementation S.I
        subcomponents x: data clock;
        modes a: initial mode while x <= 10; b: mode;
        transitions a -[when x >= 5 and not broken then acted := true]-> b;
        end S.I;
        error model EM
        features ok: initial state; bad: error state;
        end EM;
        error model implementation EM.I
        events f: error event occurrence poisson 2 per sec;
        transitions ok -[f]-> bad;
        end EM.I;
        fault injections
          component root uses error model EM.I;
          component root in state bad effect broken := true;
        end fault injections;
    )");
    // P(no fault before 5s) = exp(-10) ~ 0: 'acted' is almost never reached.
    EXPECT_LT(h.estimate_p("acted", 10.0, StrategyKind::Asap, 0.05), 0.02);
    EXPECT_GT(h.estimate_p("broken", 10.0, StrategyKind::Asap, 0.05), 0.98);
}

TEST(PathGenerator, TracedRunRecordsSteps) {
    Harness h(R"(
        root S.I;
        system S
        features done: out data port bool default false;
        end S;
        system implementation S.I
        subcomponents x: data clock;
        modes a: initial mode while x <= 2; b: mode;
        transitions a -[when x >= 1 then done := true]-> b;
        end S.I;
    )");
    const TimedReachability prop = make_reachability(h.net.model(), "done", 5.0);
    auto strat = make_strategy(StrategyKind::Asap);
    const PathGenerator gen(h.net, prop, *strat);
    Rng rng(3);
    Trace trace;
    const PathOutcome out = gen.run_traced(rng, trace);
    EXPECT_TRUE(out.satisfied);
    ASSERT_GE(trace.steps().size(), 2u);
    const std::string text = trace.to_string();
    EXPECT_NE(text.find("a -> b"), std::string::npos);
    EXPECT_NE(text.find("goal"), std::string::npos);
}

TEST(PathGenerator, ReproducibleForSameSeed) {
    Harness h(R"(
        root S.I;
        system S
        features broken: out data port bool default false;
        end S;
        system implementation S.I end S.I;
        error model EM
        features ok: initial state; bad: error state;
        end EM;
        error model implementation EM.I
        events f: error event occurrence poisson 0.3 per sec;
        transitions ok -[f]-> bad;
        end EM.I;
        fault injections
          component root uses error model EM.I;
          component root in state bad effect broken := true;
        end fault injections;
    )");
    const TimedReachability prop = make_reachability(h.net.model(), "broken", 2.0);
    const stat::ChernoffHoeffding ch(0.1, 0.05);
    const auto r1 = estimate(h.net, prop, StrategyKind::Progressive, ch, 99);
    const auto r2 = estimate(h.net, prop, StrategyKind::Progressive, ch, 99);
    EXPECT_EQ(r1.successes, r2.successes);
    EXPECT_EQ(r1.samples, r2.samples);
}

TEST(PathGenerator, MemoryPolicyContinueStillCorrectOnMarkovModel) {
    // On a purely Markovian model the memory policy must not change the
    // estimate (there is no strategy schedule to preserve).
    Harness h(R"(
        root S.I;
        system S
        features broken: out data port bool default false;
        end S;
        system implementation S.I end S.I;
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
    const TimedReachability prop = make_reachability(h.net.model(), "broken", 1.0);
    const stat::ChernoffHoeffding ch(0.05, 0.02);
    SimOptions cont;
    cont.memory = MemoryPolicy::Continue;
    const double p_restart =
        estimate(h.net, prop, StrategyKind::Progressive, ch, 5).estimate;
    auto strat = make_strategy(StrategyKind::Progressive);
    const double p_continue = estimate(h.net, prop, *strat, ch, 5, cont).estimate;
    const double expected = 1.0 - std::exp(-1.0);
    EXPECT_NEAR(p_restart, expected, 0.03);
    EXPECT_NEAR(p_continue, expected, 0.03);
}

/// The race without pruning, one Rng::exponential per rate location: the
/// oracle markov_race must match in winner, delay bits and RNG state.
RaceResult plain_race(std::span<const eda::MarkovianRate> rates, Rng& rng) {
    RaceResult race;
    for (const auto& [proc, rate] : rates) {
        const double d = rng.exponential(rate);
        if (d < race.time) {
            race.time = d;
            race.winner = proc;
        }
    }
    return race;
}

/// Races `rates` from `start` both ways; false (with a failure) on any
/// difference.
bool same_race(std::span<const eda::MarkovianRate> rates, const Rng& start) {
    Rng pruned = start;
    Rng plain = start;
    const RaceResult got = markov_race(rates, pruned);
    const RaceResult want = plain_race(rates, plain);
    if (got.winner == want.winner && double_bits(got.time) == double_bits(want.time) &&
        pruned() == plain() && pruned() == plain()) {
        return true;
    }
    ADD_FAILURE() << rates.size() << " rates, first " << rates[0].total_rate << ": winner "
                  << got.winner << " vs " << want.winner << ", time " << got.time << " vs "
                  << want.time;
    return false;
}

TEST(MarkovRace, MatchesThePlainLoopBitForBit) {
    Rng shapes(2024); // draws each vector's shape and rates
    std::vector<eda::MarkovianRate> rates;
    const auto log_uniform = [&] { return std::pow(10.0, shapes.uniform(-12.0, 12.0)); };
    // Kind 0: equal rates; 1: log-uniform over [1e-12, 1e12]; 2: a few
    // distinct rates, far apart.
    constexpr std::array kFew{1e-12, 1e-3, 1.0, 2.5, 1e3, 1e12};
    const auto fill = [&](std::size_t n, int kind) {
        rates.clear();
        const double common = log_uniform();
        for (std::size_t i = 0; i < n; ++i) {
            double rate = common;
            if (kind == 1) rate = log_uniform();
            if (kind == 2) rate = kFew[shapes.uniform_index(kFew.size())];
            rates.push_back({static_cast<eda::ProcessId>(i), rate});
        }
    };
    // 10^6 seeded vectors of 1 to 64 rate locations.
    for (std::uint64_t v = 0; v < 1'000'000; ++v) {
        const std::size_t n = v % 4 == 0 ? 1 : 1 + shapes.uniform_index(v % 4 == 3 ? 64 : 16);
        fill(n, static_cast<int>(shapes.uniform_index(3)));
        ASSERT_TRUE(same_race(rates, Rng(v))) << "vector " << v;
    }

    // Uniforms within 2^-20 of 0 and of 1, raced at each of the first four
    // positions of a vector: scan one stream for such draws and start races
    // up to three draws before them.
    Rng scan(99);
    std::array<Rng, 4> recent{scan, scan, scan, scan}; // states before the last draws
    std::size_t near0 = 0;
    std::size_t near1 = 0;
    for (std::uint64_t i = 0; i < 40'000'000 && (near0 < 16 || near1 < 16); ++i) {
        std::rotate(recent.rbegin(), recent.rbegin() + 1, recent.rend());
        recent[0] = scan;
        const double u = scan.uniform01();
        const bool low = u < 0x1.0p-20;
        if (!low && u <= 1.0 - 0x1.0p-20) continue;
        ++(low ? near0 : near1);
        for (std::size_t back = 0; back < std::min<std::uint64_t>(4, i + 1); ++back) {
            for (int kind = 0; kind < 3; ++kind) {
                for (const std::size_t extra : {0, 1, 7}) {
                    fill(back + 1 + extra, kind);
                    ASSERT_TRUE(same_race(rates, recent[back])) << "draw " << i;
                }
            }
        }
    }
    EXPECT_GE(near0, 16u);
    EXPECT_GE(near1, 16u);
}

} // namespace
} // namespace slimsim::sim
