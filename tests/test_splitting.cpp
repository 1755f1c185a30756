#include "rare/splitting.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <thread>

#include "ctmc/flow.hpp"
#include "expr/eval.hpp"
#include "models/failover.hpp"
#include "sim/runner.hpp"

namespace slimsim::rare {
namespace {

/// N independent components; the goal requires all of them failed.
std::string n_component_model(int n, double rate_per_sec) {
    std::string src = R"(
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
)";
    for (int i = 0; i < n; ++i) src += "          c" + std::to_string(i) + ": system Leaf.I;\n";
    src += "        flows\n          all_broken := ";
    for (int i = 0; i < n; ++i) {
        if (i > 0) src += " and ";
        src += "c" + std::to_string(i) + ".broken";
    }
    src += ";\n        end S.I;\n";
    src += R"(
        error model EM
        features ok: initial state; bad: error state;
        end EM;
        error model implementation EM.I
        events f: error event occurrence poisson )";
    src += std::to_string(rate_per_sec);
    src += R"( per sec;
        transitions ok -[f]-> bad;
        end EM.I;
        fault injections
)";
    for (int i = 0; i < n; ++i) {
        src += "          component c" + std::to_string(i) + " uses error model EM.I;\n";
        src += "          component c" + std::to_string(i) +
               " in state bad effect broken := true;\n";
    }
    src += "        end fault injections;\n";
    return src;
}

std::string level_sum(int n) {
    std::string out;
    for (int i = 0; i < n; ++i) {
        if (i > 0) out += " + ";
        out += "(if c" + std::to_string(i) + ".broken then 1 else 0)";
    }
    return out;
}

TEST(Splitting, LevelFunctionResolution) {
    const eda::Network net =
        eda::build_network_from_source(n_component_model(2, 1.0));
    const expr::ExprPtr level = make_level_function(net.model(), level_sum(2));
    const eda::NetworkState s = net.initial_state();
    EXPECT_EQ(expr::evaluate(*level, expr::EvalContext{s.values, {}}).as_int(), 0);
    EXPECT_THROW((void)make_level_function(net.model(), "c0.broken"), Error); // bool
    EXPECT_THROW((void)make_level_function(net.model(), "ghost + 1"), Error);
}

TEST(Splitting, LevelFunctionDiagnosticsAreOneLineAndNameTheFlag) {
    // The CLI convention (docs/robustness.md): one line, prefixed with the
    // flag that carried the bad value.
    const eda::Network net =
        eda::build_network_from_source(n_component_model(2, 1.0));
    for (const char* bad : {"c0.broken", "ghost + 1", "1 +"}) {
        try {
            (void)make_level_function(net.model(), bad);
            FAIL() << "expected a diagnostic for `" << bad << "`";
        } catch (const Error& err) {
            const std::string msg = err.what();
            EXPECT_EQ(msg.rfind("--split: ", 0), 0u) << msg;
            EXPECT_EQ(msg.find('\n'), std::string::npos) << msg;
        }
    }
}

TEST(Splitting, UnbiasedOnNonRareEvent) {
    // Moderate probability: splitting must agree with the exact value.
    const eda::Network net =
        eda::build_network_from_source(n_component_model(2, 1.0));
    const auto prop = sim::make_reachability(net.model(), "all_broken", 1.0);
    const double exact = ctmc::run_ctmc_flow(net, *prop.goal, 1.0).probability;
    const expr::ExprPtr level = make_level_function(net.model(), level_sum(2));
    SplittingOptions opt;
    opt.splitting_factor = 2;
    opt.base_runs = 8192;
    const SplittingResult res =
        estimate_splitting(net, prop, sim::StrategyKind::Asap, level, 7, opt);
    EXPECT_NEAR(res.estimate, exact, 0.05);
    EXPECT_GT(res.total_paths, opt.base_runs); // clones were spawned
    EXPECT_EQ(res.status, sim::RunStatus::Converged);
    EXPECT_TRUE(res.stop_cause.empty());
}

TEST(Splitting, RareEventWithinFactorOfExact) {
    // p = (1 - e^{-0.01})^3 ~ 9.7e-7: hopeless for crude Monte Carlo at
    // this budget, routine for splitting.
    const eda::Network net =
        eda::build_network_from_source(n_component_model(3, 0.01));
    const auto prop = sim::make_reachability(net.model(), "all_broken", 1.0);
    const double exact = ctmc::run_ctmc_flow(net, *prop.goal, 1.0).probability;
    ASSERT_LT(exact, 2e-6);
    ASSERT_GT(exact, 1e-7);

    const expr::ExprPtr level = make_level_function(net.model(), level_sum(3));
    SplittingOptions opt;
    opt.splitting_factor = 16;
    opt.base_runs = 20000;
    const SplittingResult res =
        estimate_splitting(net, prop, sim::StrategyKind::Asap, level, 11, opt);
    EXPECT_GT(res.goal_hits, 0u);
    EXPECT_GT(res.estimate, exact / 3.0);
    EXPECT_LT(res.estimate, exact * 3.0);

    // Crude Monte Carlo with the same number of *root* paths almost surely
    // sees nothing.
    const stat::ChernoffHoeffding tiny(0.9, 0.0049); // ~20k paths
    const auto naive = sim::estimate(net, prop, sim::StrategyKind::Asap, tiny, 11);
    EXPECT_EQ(naive.successes, 0u);
}

TEST(Splitting, DeterministicInSeed) {
    const eda::Network net =
        eda::build_network_from_source(n_component_model(2, 0.2));
    const auto prop = sim::make_reachability(net.model(), "all_broken", 1.0);
    const expr::ExprPtr level = make_level_function(net.model(), level_sum(2));
    SplittingOptions opt;
    opt.base_runs = 512;
    const auto a = estimate_splitting(net, prop, sim::StrategyKind::Asap, level, 5, opt);
    const auto b = estimate_splitting(net, prop, sim::StrategyKind::Asap, level, 5, opt);
    EXPECT_EQ(a.total_paths, b.total_paths);
    EXPECT_DOUBLE_EQ(a.estimate, b.estimate);
}

TEST(Splitting, ByteIdenticalAcrossWorkerCounts) {
    // The determinism contract: root trees merge in global root order, so
    // the whole result — estimate, variance, per-level stats, the rendered
    // summary — is byte-identical for every worker count at a fixed seed.
    const eda::Network net =
        eda::build_network_from_source(n_component_model(3, 0.05));
    const auto prop = sim::make_reachability(net.model(), "all_broken", 1.0);
    const expr::ExprPtr level = make_level_function(net.model(), level_sum(3));
    SplittingOptions opt;
    opt.splitting_factor = 8;
    opt.base_runs = 2048;
    opt.workers = 1;
    const auto ref = estimate_splitting(net, prop, sim::StrategyKind::Asap, level, 42, opt);
    EXPECT_GT(ref.goal_hits, 0u);
    for (const std::size_t workers : {std::size_t{2}, std::size_t{4}}) {
        opt.workers = workers;
        const auto par =
            estimate_splitting(net, prop, sim::StrategyKind::Asap, level, 42, opt);
        EXPECT_EQ(par.to_string(), ref.to_string()) << workers << " workers";
        EXPECT_DOUBLE_EQ(par.estimate, ref.estimate);
        EXPECT_DOUBLE_EQ(par.variance_per_root, ref.variance_per_root);
        EXPECT_EQ(par.total_paths, ref.total_paths);
        EXPECT_EQ(par.goal_hits, ref.goal_hits);
        EXPECT_EQ(par.terminals, ref.terminals);
        ASSERT_EQ(par.levels.size(), ref.levels.size());
        for (std::size_t i = 0; i < ref.levels.size(); ++i) {
            EXPECT_EQ(par.levels[i].level, ref.levels[i].level);
            EXPECT_EQ(par.levels[i].crossings, ref.levels[i].crossings);
            EXPECT_EQ(par.levels[i].clones, ref.levels[i].clones);
        }
    }

    // Far more roots than a worker's hand-off window (4096 trees), so the
    // producers really do block on it; the result still may not move.
    const eda::Network many_net =
        eda::build_network_from_source(n_component_model(2, 0.2));
    const auto many_prop = sim::make_reachability(many_net.model(), "all_broken", 1.0);
    const expr::ExprPtr many_level = make_level_function(many_net.model(), level_sum(2));
    SplittingOptions many;
    many.splitting_factor = 4;
    many.base_runs = 20'000;
    many.workers = 1;
    const auto many_ref =
        estimate_splitting(many_net, many_prop, sim::StrategyKind::Asap, many_level, 42, many);
    EXPECT_GT(many_ref.goal_hits, 0u);
    for (const std::size_t workers : {std::size_t{2}, std::size_t{3}, std::size_t{4}}) {
        many.workers = workers;
        const auto par = estimate_splitting(many_net, many_prop, sim::StrategyKind::Asap,
                                            many_level, 42, many);
        EXPECT_EQ(par.to_string(), many_ref.to_string()) << workers << " workers";
        EXPECT_EQ(par.terminals, many_ref.terminals) << workers << " workers";
    }
}

TEST(Splitting, SummaryOmitsWallClock) {
    const eda::Network net =
        eda::build_network_from_source(n_component_model(2, 0.2));
    const auto prop = sim::make_reachability(net.model(), "all_broken", 1.0);
    const expr::ExprPtr level = make_level_function(net.model(), level_sum(2));
    SplittingOptions opt;
    opt.base_runs = 256;
    const auto res = estimate_splitting(net, prop, sim::StrategyKind::Asap, level, 5, opt);
    EXPECT_GT(res.wall_seconds, 0.0);
    EXPECT_EQ(res.to_string().find("wall"), std::string::npos);
    EXPECT_EQ(res.to_string().find('s' + std::to_string(res.wall_seconds)),
              std::string::npos);
}

TEST(Splitting, MultiLevelJumpConservesWeight) {
    // A level function that jumps TWO levels per component failure: a single
    // step crosses levels 1 and 2 at once. The engine must split once per
    // level (weight / factor at each), so the estimator stays unbiased and
    // every level records the same first-crossing count as its intermediate.
    const eda::Network net =
        eda::build_network_from_source(n_component_model(2, 1.0));
    const auto prop = sim::make_reachability(net.model(), "all_broken", 1.0);
    const double exact = ctmc::run_ctmc_flow(net, *prop.goal, 1.0).probability;
    const expr::ExprPtr level = make_level_function(
        net.model(),
        "2*(if c0.broken then 1 else 0) + 2*(if c1.broken then 1 else 0)");
    SplittingOptions opt;
    opt.splitting_factor = 2;
    opt.base_runs = 8192;
    const auto res = estimate_splitting(net, prop, sim::StrategyKind::Asap, level, 9, opt);
    EXPECT_NEAR(res.estimate, exact, 0.05);
    EXPECT_EQ(res.max_level_seen, 4);
    ASSERT_EQ(res.levels.size(), 4u);
    // A jump crosses the intermediate and the target level back to back, and
    // the clone spawned at the intermediate level immediately crosses the
    // upper one too: upper-level crossings are exactly factor x the lower
    // level's, each crossing pairing its weight division with factor-1
    // clones — that multiplication is the weight-conservation invariant.
    const std::uint64_t factor = opt.splitting_factor;
    EXPECT_EQ(res.levels[1].crossings, factor * res.levels[0].crossings);
    EXPECT_EQ(res.levels[3].crossings, factor * res.levels[2].crossings);
    for (const auto& row : res.levels) {
        EXPECT_EQ(row.clones, row.crossings * (factor - 1));
    }
}

TEST(Splitting, RejectsBadConfiguration) {
    const eda::Network net =
        eda::build_network_from_source(n_component_model(2, 1.0));
    const expr::ExprPtr level = make_level_function(net.model(), level_sum(2));
    const auto until = sim::make_until(net.model(), "not all_broken", "all_broken", 0.0, 1.0);
    EXPECT_THROW(
        (void)estimate_splitting(net, until, sim::StrategyKind::Asap, level, 1, {}),
        Error);
    const auto prop = sim::make_reachability(net.model(), "all_broken", 1.0);
    SplittingOptions opt;
    opt.splitting_factor = 0;
    EXPECT_THROW(
        (void)estimate_splitting(net, prop, sim::StrategyKind::Asap, level, 1, opt),
        Error);
    opt.splitting_factor = 2;
    opt.base_runs = 0;
    EXPECT_THROW(
        (void)estimate_splitting(net, prop, sim::StrategyKind::Asap, level, 1, opt),
        Error);
    opt.base_runs = 16;
    opt.sim.control.checkpoint_path = "ck.bin";
    EXPECT_THROW(
        (void)estimate_splitting(net, prop, sim::StrategyKind::Asap, level, 1, opt),
        Error);
    opt.sim.control.checkpoint_path.clear();
    for (const std::size_t workers : {1u, 3u}) {
        opt.workers = workers;
        EXPECT_THROW(
            (void)estimate_splitting(net, prop, sim::StrategyKind::Input, level, 1, opt),
            Error);
    }
    opt.workers = 1;
    LevelSpec empty; // neither expression nor auto placement
    EXPECT_THROW(
        (void)estimate_splitting(net, prop, sim::StrategyKind::Asap, empty, 1, opt),
        Error);
}

TEST(Splitting, PathBudgetReturnsPartialResultInsteadOfThrowing) {
    const eda::Network net =
        eda::build_network_from_source(n_component_model(3, 2.0)); // faults common
    const auto prop = sim::make_reachability(net.model(), "all_broken", 5.0);
    const expr::ExprPtr level = make_level_function(net.model(), level_sum(3));
    SplittingOptions opt;
    // Factor 4 with 3 certain failures: every tree is ~4^3 paths, well under
    // the cap, so the cumulative budget stops the run between roots.
    opt.splitting_factor = 4;
    opt.base_runs = 4096;
    opt.max_total_paths = 1000;
    const auto res = estimate_splitting(net, prop, sim::StrategyKind::Asap, level, 1, opt);
    EXPECT_EQ(res.status, sim::RunStatus::BudgetExhausted);
    EXPECT_NE(res.stop_cause.find("--split-max-paths"), std::string::npos)
        << res.stop_cause;
    EXPECT_LT(res.base_runs, opt.base_runs);
    EXPECT_LE(res.total_paths, opt.max_total_paths);
    // The accepted prefix is still an unbiased sample: with faults this
    // common the partial estimate must be strictly positive.
    EXPECT_GT(res.estimate, 0.0);

    // And the partial prefix is the same at any worker count.
    opt.workers = 3;
    const auto par = estimate_splitting(net, prop, sim::StrategyKind::Asap, level, 1, opt);
    EXPECT_EQ(par.to_string(), res.to_string());
    EXPECT_EQ(par.status, sim::RunStatus::BudgetExhausted);

    // A runaway single tree (factor 16: ~16^3 paths) blows the cap on its
    // own; that too degrades to a partial result, never an exception.
    opt.workers = 1;
    opt.splitting_factor = 16;
    const auto runaway =
        estimate_splitting(net, prop, sim::StrategyKind::Asap, level, 1, opt);
    EXPECT_EQ(runaway.status, sim::RunStatus::BudgetExhausted);
    EXPECT_NE(runaway.stop_cause.find("within one root tree"), std::string::npos)
        << runaway.stop_cause;
}

TEST(Splitting, RootBudgetStopsTheRunAsPartial) {
    const eda::Network net =
        eda::build_network_from_source(n_component_model(2, 0.2));
    const auto prop = sim::make_reachability(net.model(), "all_broken", 1.0);
    const expr::ExprPtr level = make_level_function(net.model(), level_sum(2));
    SplittingOptions opt;
    opt.base_runs = 4096;
    opt.sim.control.budget.max_samples = 100; // roots are the sample unit
    const auto res = estimate_splitting(net, prop, sim::StrategyKind::Asap, level, 3, opt);
    EXPECT_EQ(res.status, sim::RunStatus::BudgetExhausted);
    EXPECT_EQ(res.base_runs, 100u);
    EXPECT_FALSE(res.stop_cause.empty());
}

TEST(Splitting, InterruptFlagDrainsToPartialResult) {
    const eda::Network net =
        eda::build_network_from_source(n_component_model(2, 0.2));
    const auto prop = sim::make_reachability(net.model(), "all_broken", 1.0);
    const expr::ExprPtr level = make_level_function(net.model(), level_sum(2));
    std::atomic<bool> flag{true}; // "SIGINT" raised before the first root
    SplittingOptions opt;
    opt.base_runs = 4096;
    opt.sim.control.interrupt = &flag;
    const auto res = estimate_splitting(net, prop, sim::StrategyKind::Asap, level, 3, opt);
    EXPECT_EQ(res.status, sim::RunStatus::Interrupted);
    EXPECT_EQ(res.base_runs, 0u);
    EXPECT_FALSE(res.stop_cause.empty());
}

TEST(Splitting, StopsWhileWorkersWaitOnAFullWindow) {
    // Cheap trees and far more roots than the hand-off window (4096 trees
    // per worker): the workers run a full window ahead of the consumer and
    // wait for it. A root budget, a path budget and a raised interrupt flag
    // must each wake them, end the run, and leave the same partial result
    // as one worker stopped at the same root.
    const eda::Network net =
        eda::build_network_from_source(n_component_model(2, 0.2));
    const auto prop = sim::make_reachability(net.model(), "all_broken", 1.0);
    const expr::ExprPtr level = make_level_function(net.model(), level_sum(2));
    SplittingOptions opt;
    opt.splitting_factor = 4;
    opt.base_runs = 40'000;
    const auto at = [&](std::size_t workers) {
        opt.workers = workers;
        return estimate_splitting(net, prop, sim::StrategyKind::Asap, level, 9, opt);
    };

    opt.sim.control.budget.max_samples = 20'000;
    const auto roots_ref = at(1);
    EXPECT_EQ(roots_ref.status, sim::RunStatus::BudgetExhausted);
    EXPECT_EQ(roots_ref.base_runs, 20'000u);
    for (const std::size_t workers : {std::size_t{2}, std::size_t{4}}) {
        const auto res = at(workers);
        EXPECT_EQ(res.status, sim::RunStatus::BudgetExhausted) << workers << " workers";
        EXPECT_EQ(res.to_string(), roots_ref.to_string()) << workers << " workers";
    }

    opt.sim.control.budget.max_samples = 0;
    opt.max_total_paths = roots_ref.total_paths;
    const auto paths_ref = at(1);
    EXPECT_EQ(paths_ref.status, sim::RunStatus::BudgetExhausted);
    EXPECT_NE(paths_ref.stop_cause.find("--split-max-paths"), std::string::npos);
    EXPECT_LT(paths_ref.base_runs, opt.base_runs);
    for (const std::size_t workers : {std::size_t{2}, std::size_t{4}}) {
        const auto res = at(workers);
        EXPECT_EQ(res.status, sim::RunStatus::BudgetExhausted) << workers << " workers";
        EXPECT_EQ(res.to_string(), paths_ref.to_string()) << workers << " workers";
    }

    // The interrupt lands at a timing-dependent root: compare against one
    // worker stopped there by a root budget.
    opt.max_total_paths = SplittingOptions{}.max_total_paths;
    opt.base_runs = 2'000'000;
    std::atomic<bool> flag{false};
    opt.sim.control.interrupt = &flag;
    std::thread raiser([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        flag.store(true);
    });
    const auto interrupted = at(4);
    raiser.join();
    EXPECT_EQ(interrupted.status, sim::RunStatus::Interrupted);
    EXPECT_LT(interrupted.base_runs, opt.base_runs);
    if (interrupted.base_runs > 0) {
        opt.sim.control.interrupt = nullptr;
        opt.sim.control.budget.max_samples = interrupted.base_runs;
        EXPECT_EQ(at(1).to_string(), interrupted.to_string());
    }
}

TEST(Splitting, SplittingFactorOneIsCrudeMonteCarlo) {
    const eda::Network net =
        eda::build_network_from_source(n_component_model(2, 1.0));
    const auto prop = sim::make_reachability(net.model(), "all_broken", 1.0);
    const expr::ExprPtr level = make_level_function(net.model(), level_sum(2));
    SplittingOptions opt;
    opt.splitting_factor = 1;
    opt.base_runs = 2048;
    const auto res = estimate_splitting(net, prop, sim::StrategyKind::Asap, level, 3, opt);
    EXPECT_EQ(res.total_paths, opt.base_runs); // no clones
    const double exact = ctmc::run_ctmc_flow(net, *prop.goal, 1.0).probability;
    EXPECT_NEAR(res.estimate, exact, 0.06);
}

TEST(Splitting, AutoPlacementDerivesLevelsFromErrorStates) {
    const eda::Network net =
        eda::build_network_from_source(n_component_model(3, 0.05));
    const auto prop = sim::make_reachability(net.model(), "all_broken", 1.0);
    const double exact = ctmc::run_ctmc_flow(net, *prop.goal, 1.0).probability;
    LevelSpec spec;
    spec.auto_levels = true;
    spec.text = "auto";
    SplittingOptions opt;
    opt.splitting_factor = 8;
    opt.base_runs = 8192;
    opt.pilot_runs = 256;
    const auto res = estimate_splitting(net, prop, sim::StrategyKind::Asap, spec, 13, opt);
    // Three components failing at 0.05/sec over 1s: deep failure counts are
    // rare, so the pilot must promote at least the deepest raw values.
    EXPECT_FALSE(res.auto_thresholds.empty());
    EXPECT_EQ(res.pilot_paths, opt.pilot_runs);
    EXPECT_TRUE(res.pilot_coverage.enabled);
    EXPECT_GT(res.goal_hits, 0u);
    EXPECT_GT(res.estimate, exact / 3.0);
    EXPECT_LT(res.estimate, exact * 3.0);

    // Auto placement is deterministic too — byte-identical across workers.
    opt.workers = 4;
    const auto par = estimate_splitting(net, prop, sim::StrategyKind::Asap, spec, 13, opt);
    EXPECT_EQ(par.to_string(), res.to_string());
    EXPECT_EQ(par.auto_thresholds, res.auto_thresholds);

    // A model without error processes cannot derive levels.
    const eda::Network plain = eda::build_network_from_source(R"(
        root P.I;
        system P
        features done: out data port bool default false;
        end P;
        system implementation P.I end P.I;
    )");
    const auto plain_prop = sim::make_reachability(plain.model(), "done", 1.0);
    EXPECT_THROW((void)estimate_splitting(plain, plain_prop, sim::StrategyKind::Asap,
                                          spec, 1, opt),
                 Error);
}

TEST(Splitting, UnbiasedOnTheFailoverModel) {
    // models/failover.slim (timed detection): no exact CTMC reference, so
    // cross-check splitting against crude Monte Carlo on the same strategy
    // within the combined confidence tolerance.
    const eda::Network net =
        eda::build_network_from_file(std::string(SLIMSIM_MODELS_DIR) +
                                     "/failover.slim");
    const auto prop =
        sim::make_reachability(net.model(), models::failover_goal(), 7200.0);
    const stat::ChernoffHoeffding crude_criterion(0.05, 0.02);
    const auto crude =
        sim::estimate(net, prop, sim::StrategyKind::Asap, crude_criterion, 21);

    const expr::ExprPtr level = make_level_function(
        net.model(),
        "(if primary.broken then 1 else 0) + (if backup.broken then 1 else 0)");
    SplittingOptions opt;
    opt.splitting_factor = 4;
    opt.base_runs = 4096;
    const auto split =
        estimate_splitting(net, prop, sim::StrategyKind::Asap, level, 21, opt);
    EXPECT_GT(split.goal_hits, 0u);
    EXPECT_NEAR(split.estimate, crude.estimate, 0.05);
}

} // namespace
} // namespace slimsim::rare
