// The pump fail-over model: event-port synchronization end-to-end, in the
// simulator *and* in the exhaustive CTMC flow, plus the GPS restart story
// (dynamic reconfiguration with @activation recovery).
#include <gtest/gtest.h>

#include <cmath>

#include "ctmc/flow.hpp"
#include "models/failover.hpp"
#include "models/gps.hpp"
#include "sim/runner.hpp"

namespace slimsim {
namespace {

TEST(Failover, BuildsAndBootsThroughSync) {
    const eda::Network net =
        eda::build_network_from_source(models::failover_source());
    const auto& m = net.model();
    // Two sync actions: go_primary and go_backup connection groups.
    EXPECT_EQ(m.actions.size(), 2u);
    // Boot sequence: the monitor's first step synchronizes with the primary.
    eda::NetworkState s = net.initial_state();
    Rng rng(1);
    eda::SimScratch scratch;
    const auto cands = net.candidates(s, 100.0, scratch);
    ASSERT_EQ(cands.size(), 1u);
    EXPECT_EQ(cands[0].kind, eda::Candidate::Kind::Sync);
    const eda::StepInfo info = net.execute(s, cands[0], rng, scratch);
    EXPECT_EQ(info.fired.size(), 2u); // monitor + primary jointly
    EXPECT_EQ(s.values[m.var("primary.flow_ok")], Value(true));
    EXPECT_EQ(s.values[m.var("backup.flow_ok")], Value(false));
}

TEST(Failover, UntimedMatchesCtmcExactly) {
    // Instant detection: the system fails iff both pumps wear out within u.
    models::FailoverOptions opt;
    opt.pump_fail_per_hour = 0.5;
    const eda::Network net =
        eda::build_network_from_source(models::failover_source(opt));
    const double u = 2.0 * 3600.0;
    const auto prop = sim::make_reachability(net.model(), models::failover_goal(), u);

    const double exact = ctmc::run_ctmc_flow(net, *prop.goal, u).probability;
    const double lam = 0.5 / 3600.0;
    const double analytic = std::pow(1.0 - std::exp(-lam * u), 2.0);
    EXPECT_NEAR(exact, analytic, 1e-9);

    const stat::ChernoffHoeffding ch(0.05, 0.02);
    const double simulated =
        sim::estimate(net, prop, sim::StrategyKind::Asap, ch, 17).estimate;
    EXPECT_NEAR(simulated, exact, 0.03);
}

TEST(Failover, TimedDetectionLatencyLowersNothingUnderAsap) {
    // A small latency only delays the verdict; under ASAP the failure
    // probability is essentially unchanged (latency << mission time).
    models::FailoverOptions instant;
    models::FailoverOptions latent;
    latent.detection_latency = 0.5;
    const double u = 2.0 * 3600.0;
    const stat::ChernoffHoeffding ch(0.05, 0.02);

    const eda::Network n1 =
        eda::build_network_from_source(models::failover_source(instant));
    const eda::Network n2 =
        eda::build_network_from_source(models::failover_source(latent));
    const auto p1 = sim::make_reachability(n1.model(), models::failover_goal(), u);
    const auto p2 = sim::make_reachability(n2.model(), models::failover_goal(), u);
    const double a = sim::estimate(n1, p1, sim::StrategyKind::Asap, ch, 3).estimate;
    const double b = sim::estimate(n2, p2, sim::StrategyKind::Asap, ch, 3).estimate;
    EXPECT_NEAR(a, b, 0.04);
    // The timed variant is rejected by the CTMC flow.
    EXPECT_THROW((void)ctmc::run_ctmc_flow(n2, *p2.goal, u), Error);
}

TEST(Failover, RejectsBadOptions) {
    models::FailoverOptions opt;
    opt.pump_fail_per_hour = 0.0;
    EXPECT_THROW((void)models::failover_source(opt), Error);
    opt.pump_fail_per_hour = 1.0;
    opt.detection_latency = -1.0;
    EXPECT_THROW((void)models::failover_source(opt), Error);
}

TEST(GpsRestart, ControllerPowerCyclesOnHotFault) {
    const eda::Network net =
        eda::build_network_from_source(models::gps_restart_source(true));
    const auto& m = net.model();
    // The GPS is mode-gated by the satellite's `on` mode.
    const auto& gps = m.instances[m.instance("gps")];
    EXPECT_EQ(gps.parent_modes.size(), 1u);
    // The error model has an @activation recovery.
    bool has_activation_recovery = false;
    for (const auto& t : m.processes[gps.error_process].transitions) {
        if (t.trigger == slim::TriggerClass::OnActivate) has_activation_recovery = true;
    }
    EXPECT_TRUE(has_activation_recovery);
}

TEST(GpsRestart, RestartPolicyRestoresTheFix) {
    // Same GPS and fault rates; with the supervising controller, hot faults
    // are recovered by power-cycling, so a fix after the 30-minute mark is
    // far more likely.
    const double u = 45.0 * 60.0;
    const stat::ChernoffHoeffding ch(0.05, 0.02);

    const eda::Network plain =
        eda::build_network_from_source(models::gps_restart_source(false));
    const eda::Network restart =
        eda::build_network_from_source(models::gps_restart_source(true));
    const auto prop_plain =
        sim::make_reachability(plain.model(), models::gps_restart_goal(), u);
    const auto prop_restart =
        sim::make_reachability(restart.model(), models::gps_restart_goal(), u);

    const double p_plain =
        sim::estimate(plain, prop_plain, sim::StrategyKind::Asap, ch, 5).estimate;
    const double p_restart =
        sim::estimate(restart, prop_restart, sim::StrategyKind::Asap, ch, 5).estimate;
    // Without restart a hot fault before the mark usually kills the goal;
    // with restart only (rare) permanent faults do.
    EXPECT_GT(p_restart, p_plain + 0.15);
    EXPECT_GT(p_restart, 0.9);
}

TEST(GpsRestart, PermanentFaultDefeatsRestart) {
    // Force the error model into `permanent` at t = 0: no amount of power
    // cycling brings the fix back.
    const eda::Network net =
        eda::build_network_from_source(models::gps_restart_source(true));
    const auto& m = net.model();
    const auto ep = m.instances[m.instance("gps")].error_process;
    int permanent = -1;
    const auto& locs = m.processes[ep].locations;
    for (std::size_t i = 0; i < locs.size(); ++i) {
        if (locs[i].name == "permanent") permanent = static_cast<int>(i);
    }
    ASSERT_GE(permanent, 0);
    const auto prop =
        sim::make_reachability(m, models::gps_restart_goal(), 45.0 * 60.0);
    auto strat = sim::make_strategy(sim::StrategyKind::Asap);
    const sim::PathGenerator gen(net, prop, *strat);
    Rng rng(9);
    for (int i = 0; i < 20; ++i) {
        eda::NetworkState s = net.forced_initial_state({{std::pair{ep, permanent}}});
        std::size_t steps = 0;
        for (;;) {
            if (const auto out = gen.step(s, rng, steps)) {
                EXPECT_FALSE(out->satisfied);
                break;
            }
        }
    }
}

} // namespace
} // namespace slimsim
