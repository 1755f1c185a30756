// Run hardening tests (docs/robustness.md): checkpoint serialization and
// validation, the RunGovernor's deterministic stop order, achieved
// half-widths, budget-limited partial results, cooperative interruption,
// deterministic checkpoint/resume across worker counts and interruption
// points, and fault-isolated workers (FailFast vs Tolerate).
#include "sim/run_control.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <csignal>
#include <fstream>
#include <functional>

#include "sim/parallel_runner.hpp"
#include "sim/runner.hpp"
#include "stat/generators.hpp"

namespace slimsim::sim {
namespace {

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

// Immediate self-loop: every path trips the Zeno guard (max_steps).
constexpr const char* kZeno = R"(
    root S.I;
    system S
    features never: out data port bool default false;
    end S;
    system implementation S.I
    modes a: initial mode;
    transitions a -[]-> a;
    end S.I;
)";

// One immediate transition into a mode with no successors: every path
// deadlocks at t=0.
constexpr const char* kDeadlock = R"(
    root S.I;
    system S
    features never: out data port bool default false;
    end S;
    system implementation S.I
    modes a: initial mode; b: mode;
    transitions a -[]-> b;
    end S.I;
)";

std::string temp_path(const char* name) { return ::testing::TempDir() + name; }

RunCheckpoint sample_checkpoint() {
    RunCheckpoint ck;
    ck.model_hash = 0x1234abcdULL;
    ck.seed = 42;
    ck.property_hash = fnv1a64("P( <> [0,2] broken )");
    ck.strategy = "progressive";
    ck.criterion = "chernoff-hoeffding";
    ck.cursor = 137;
    ck.successes = 55;
    ck.total_steps = 4211;
    ck.terminal_tags = {55, 80, 0, 1, 0, 1};
    ck.error_log = {"path 12: deadlock at t=0.000000", "path 99: boom"};
    ck.curve_bounds = {0.5, 1.0, 2.0};
    ck.curve_tree = {0, 3, 7, 11};
    return ck;
}

TEST(RunCheckpoint, RoundTripIsBitExact) {
    const RunCheckpoint ck = sample_checkpoint();
    const std::string path = temp_path("ck_roundtrip.bin");
    ck.save(path);
    const RunCheckpoint back = RunCheckpoint::load(path);
    EXPECT_EQ(back.version, RunCheckpoint::kVersion);
    EXPECT_EQ(back.model_hash, ck.model_hash);
    EXPECT_EQ(back.seed, ck.seed);
    EXPECT_EQ(back.property_hash, ck.property_hash);
    EXPECT_EQ(back.strategy, ck.strategy);
    EXPECT_EQ(back.criterion, ck.criterion);
    EXPECT_EQ(back.cursor, ck.cursor);
    EXPECT_EQ(back.successes, ck.successes);
    EXPECT_EQ(back.total_steps, ck.total_steps);
    EXPECT_EQ(back.terminal_tags, ck.terminal_tags);
    EXPECT_EQ(back.error_log, ck.error_log);
    EXPECT_EQ(back.curve_bounds, ck.curve_bounds);
    EXPECT_EQ(back.curve_tree, ck.curve_tree);
}

TEST(RunCheckpoint, SaveIsAtomic) {
    // The temp file is renamed away; only the final name remains.
    const std::string path = temp_path("ck_atomic.bin");
    sample_checkpoint().save(path);
    EXPECT_FALSE(std::ifstream(path + ".tmp").good());
    EXPECT_TRUE(std::ifstream(path).good());
}

TEST(RunCheckpoint, LoadRejectsMissingCorruptAndTruncatedFiles) {
    const auto message_of = [](const std::string& p) {
        try {
            (void)RunCheckpoint::load(p);
        } catch (const Error& e) {
            return std::string(e.what());
        }
        return std::string();
    };
    EXPECT_NE(message_of(temp_path("ck_does_not_exist.bin")).find("--resume"),
              std::string::npos);

    const std::string garbage = temp_path("ck_garbage.bin");
    std::ofstream(garbage) << "definitely not a checkpoint";
    EXPECT_NE(message_of(garbage).find("--resume"), std::string::npos);

    const std::string good = temp_path("ck_to_corrupt.bin");
    sample_checkpoint().save(good);
    std::string bytes;
    {
        std::ifstream in(good, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(in), {});
    }
    // Flip one payload byte: the checksum must catch it.
    std::string corrupt_bytes = bytes;
    corrupt_bytes[bytes.size() / 2] ^= 0x40;
    const std::string corrupt = temp_path("ck_corrupt.bin");
    std::ofstream(corrupt, std::ios::binary).write(corrupt_bytes.data(),
                                                   corrupt_bytes.size());
    EXPECT_NE(message_of(corrupt).find("checksum"), std::string::npos);

    // Truncation is also a checksum/size failure, never UB.
    const std::string truncated = temp_path("ck_truncated.bin");
    std::ofstream(truncated, std::ios::binary).write(bytes.data(), bytes.size() / 3);
    EXPECT_NE(message_of(truncated).find("--resume"), std::string::npos);
}

TEST(RunCheckpoint, EveryTruncationPrefixIsRejectedWithTheFlagName) {
    // A checkpoint cut at ANY byte boundary — mid-magic, mid-header,
    // mid-payload, mid-checksum — must come back as the one-line --resume
    // diagnostic, never an unhandled exception or a bogus parse.
    const std::string good = temp_path("ck_prefixes.bin");
    sample_checkpoint().save(good);
    std::string bytes;
    {
        std::ifstream in(good, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(in), {});
    }
    ASSERT_GT(bytes.size(), 16u);
    const std::string cut = temp_path("ck_prefix_cut.bin");
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        std::ofstream(cut, std::ios::binary | std::ios::trunc)
            .write(bytes.data(), static_cast<std::streamsize>(len));
        try {
            (void)RunCheckpoint::load(cut);
            FAIL() << "prefix of " << len << " bytes was accepted";
        } catch (const Error& e) {
            EXPECT_NE(std::string(e.what()).find("--resume"), std::string::npos)
                << "prefix " << len << ": " << e.what();
        }
    }
    std::remove(cut.c_str());
    std::remove(good.c_str());
}

TEST(RunCheckpoint, ValidateNamesTheMismatch) {
    const RunCheckpoint ck = sample_checkpoint();
    const std::string prop = "P( <> [0,2] broken )";
    const auto expect_validate_error = [&](auto mutate, const char* needle) {
        RunCheckpoint bad = ck;
        std::uint64_t model = ck.model_hash;
        std::uint64_t seed = ck.seed;
        std::string property = prop;
        std::string strategy = ck.strategy;
        std::string criterion = ck.criterion;
        std::vector<double> bounds = ck.curve_bounds;
        mutate(bad, model, seed, property, strategy, criterion, bounds);
        try {
            bad.validate(model, seed, property, strategy, criterion, bounds);
            FAIL() << "expected a validation error mentioning " << needle;
        } catch (const Error& e) {
            EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
                << e.what();
        }
    };
    // The happy path validates.
    EXPECT_NO_THROW(ck.validate(ck.model_hash, ck.seed, prop, ck.strategy,
                                ck.criterion, ck.curve_bounds));
    // A zero model hash on either side skips the model check.
    EXPECT_NO_THROW(ck.validate(0, ck.seed, prop, ck.strategy, ck.criterion,
                                ck.curve_bounds));
    expect_validate_error([](RunCheckpoint&, std::uint64_t& model, std::uint64_t&,
                             std::string&, std::string&, std::string&,
                             std::vector<double>&) { model ^= 1; },
                          "model");
    expect_validate_error([](RunCheckpoint&, std::uint64_t&, std::uint64_t& seed,
                             std::string&, std::string&, std::string&,
                             std::vector<double>&) { seed += 1; },
                          "--seed");
    expect_validate_error([](RunCheckpoint&, std::uint64_t&, std::uint64_t&,
                             std::string& property, std::string&, std::string&,
                             std::vector<double>&) { property += "x"; },
                          "property");
    expect_validate_error([](RunCheckpoint&, std::uint64_t&, std::uint64_t&,
                             std::string&, std::string& strategy, std::string&,
                             std::vector<double>&) { strategy = "asap"; },
                          "strategy");
    expect_validate_error([](RunCheckpoint&, std::uint64_t&, std::uint64_t&,
                             std::string&, std::string&, std::string& criterion,
                             std::vector<double>&) { criterion = "gauss"; },
                          "criterion");
    expect_validate_error([](RunCheckpoint&, std::uint64_t&, std::uint64_t&,
                             std::string&, std::string&, std::string&,
                             std::vector<double>& bounds) { bounds.push_back(9.0); },
                          "curve");
}

TEST(RunGovernor, DeterministicCausesBeatTimingDependentOnes) {
    // An exhausted sample budget AND a raised interrupt flag: the sample
    // budget must win so the stop point is host-independent.
    std::atomic<bool> flag{true};
    RunControlOptions control;
    control.budget.max_samples = 10;
    control.interrupt = &flag;
    RunGovernor governor(control, std::chrono::steady_clock::now());
    EXPECT_TRUE(governor.should_stop(10, 0, 0));
    EXPECT_EQ(governor.status(), RunStatus::BudgetExhausted);
    EXPECT_NE(governor.stop_cause().find("--max-samples"), std::string::npos);
}

TEST(RunGovernor, InterruptStopsAndLatches) {
    std::atomic<bool> flag{false};
    RunControlOptions control;
    control.interrupt = &flag;
    RunGovernor governor(control, std::chrono::steady_clock::now());
    EXPECT_FALSE(governor.should_stop(1000, 1000, 0));
    flag.store(true);
    EXPECT_TRUE(governor.should_stop(1001, 1001, 0));
    EXPECT_EQ(governor.status(), RunStatus::Interrupted);
    // Latched: the first cause sticks even if the flag clears.
    flag.store(false);
    EXPECT_TRUE(governor.should_stop(1002, 1002, 0));
    EXPECT_EQ(governor.status(), RunStatus::Interrupted);
}

TEST(RunGovernor, ErrorBudgetDegrades) {
    RunControlOptions control;
    control.fault.kind = FaultPolicyKind::Tolerate;
    control.fault.max_path_errors = 3;
    RunGovernor governor(control, std::chrono::steady_clock::now());
    EXPECT_FALSE(governor.should_stop(10, 0, 3));
    EXPECT_TRUE(governor.should_stop(11, 0, 4));
    EXPECT_EQ(governor.status(), RunStatus::Degraded);
    EXPECT_NE(governor.stop_cause().find("--max-path-errors"), std::string::npos);
}

TEST(RunGovernor, StepBudget) {
    RunControlOptions control;
    control.budget.max_total_steps = 500;
    RunGovernor governor(control, std::chrono::steady_clock::now());
    EXPECT_FALSE(governor.should_stop(1, 499, 0));
    EXPECT_TRUE(governor.should_stop(2, 500, 0));
    EXPECT_EQ(governor.status(), RunStatus::BudgetExhausted);
    EXPECT_NE(governor.stop_cause().find("--max-steps"), std::string::npos);
}

TEST(AchievedHalfWidth, MatchesTheCriterionFormulas) {
    stat::BernoulliSummary s;
    const stat::ChernoffHoeffding ch(0.05, 0.01);
    EXPECT_EQ(ch.achieved_half_width(s), 0.0); // nothing yet
    s.count = 1000;
    s.successes = 300;
    EXPECT_NEAR(ch.achieved_half_width(s), std::sqrt(std::log(2.0 / 0.05) / 2000.0),
                1e-12);
    // More samples -> tighter achieved width, for every criterion.
    const stat::GaussCriterion gauss(0.05, 0.01);
    const stat::ChowRobbins chow(0.05, 0.01);
    for (const stat::StopCriterion* c :
         {static_cast<const stat::StopCriterion*>(&ch),
          static_cast<const stat::StopCriterion*>(&gauss),
          static_cast<const stat::StopCriterion*>(&chow)}) {
        stat::BernoulliSummary few{1000, 300};
        stat::BernoulliSummary many{4000, 1200};
        EXPECT_GT(c->achieved_half_width(few), 0.0) << c->name();
        EXPECT_GT(c->achieved_half_width(few), c->achieved_half_width(many))
            << c->name();
    }
}

TEST(SignalHandling, FlagIsSetOnceAndClearable) {
    install_signal_handlers();
    clear_interrupt();
    ASSERT_FALSE(interrupt_flag()->load());
    std::raise(SIGINT); // our handler: sets the flag, does not terminate
    EXPECT_TRUE(interrupt_flag()->load());
    clear_interrupt();
    EXPECT_FALSE(interrupt_flag()->load());
}

struct RunControlSim : ::testing::Test {
    eda::Network net = eda::build_network_from_source(kModel);
    TimedReachability prop = make_reachability(net.model(), "broken", 2.0);
    stat::ChernoffHoeffding ch{0.1, 0.05}; // 600 samples
};

TEST_F(RunControlSim, SampleBudgetReturnsPartialEstimate) {
    SimOptions options;
    options.control.budget.max_samples = 100;
    const auto res = estimate(net, prop, StrategyKind::Progressive, ch, 7, options);
    EXPECT_EQ(res.status, RunStatus::BudgetExhausted);
    EXPECT_EQ(res.samples, 100u);
    EXPECT_NE(res.stop_cause.find("--max-samples"), std::string::npos);
    EXPECT_NEAR(res.achieved_half_width, std::sqrt(std::log(2.0 / 0.1) / 200.0), 1e-12);
    EXPECT_GT(res.estimate, 0.0); // partial but real
}

TEST_F(RunControlSim, SampleBudgetStopsAtTheSameCountAtEveryWorkerCount) {
    // Per-worker streams drain whole rounds; a budget that is no multiple
    // of the worker count still stops at exactly its count.
    const stat::ChernoffHoeffding fine(0.05, 0.01);
    for (const std::size_t workers : {1u, 2u, 3u, 4u}) {
        ParallelOptions po;
        po.workers = workers;
        po.sim.control.budget.max_samples = 50;
        telemetry::RunReport report;
        const auto res =
            estimate_parallel(net, prop, StrategyKind::Progressive, fine, 7, po, &report);
        EXPECT_EQ(res.status, RunStatus::BudgetExhausted) << workers << " workers";
        EXPECT_EQ(res.samples, 50u) << workers << " workers";
        EXPECT_NE(res.stop_cause.find("(50 samples)"), std::string::npos) << res.stop_cause;
        std::uint64_t accepted = 0;
        for (const auto& w : report.worker_stats) accepted += w.accepted;
        EXPECT_EQ(accepted, 50u) << workers << " workers";
    }
}

TEST_F(RunControlSim, StepBudgetReturnsPartialEstimate) {
    SimOptions options;
    options.control.budget.max_total_steps = 50;
    const auto res = estimate(net, prop, StrategyKind::Progressive, ch, 7, options);
    EXPECT_EQ(res.status, RunStatus::BudgetExhausted);
    EXPECT_LT(res.samples, *ch.fixed_sample_count());
    EXPECT_NE(res.stop_cause.find("--max-steps"), std::string::npos);
}

TEST_F(RunControlSim, InterruptFlagStopsSequentialAndParallelRuns) {
    std::atomic<bool> flag{true}; // already raised: stop before any sample
    SimOptions options;
    options.control.interrupt = &flag;
    const auto res = estimate(net, prop, StrategyKind::Progressive, ch, 7, options);
    EXPECT_EQ(res.status, RunStatus::Interrupted);
    EXPECT_EQ(res.samples, 0u);
    EXPECT_EQ(res.stop_cause, "interrupted by signal");

    ParallelOptions po;
    po.workers = 2;
    po.sim = options;
    const auto par = estimate_parallel(net, prop, StrategyKind::Progressive, ch, 7, po);
    EXPECT_EQ(par.status, RunStatus::Interrupted);
    EXPECT_LT(par.samples, *ch.fixed_sample_count());
}

TEST_F(RunControlSim, BudgetStopWritesACheckpoint) {
    const std::string path = temp_path("ck_budget_stop.bin");
    SimOptions options;
    options.control.budget.max_samples = 64;
    options.control.checkpoint_path = path;
    const auto res = estimate(net, prop, StrategyKind::Progressive, ch, 7, options);
    EXPECT_EQ(res.status, RunStatus::BudgetExhausted);
    const RunCheckpoint ck = RunCheckpoint::load(path);
    EXPECT_EQ(ck.cursor, 64u);
    EXPECT_EQ(ck.successes, res.successes);
    EXPECT_NO_THROW(ck.validate(0, 7, prop.text, "progressive",
                                "chernoff-hoeffding", {}));
}

TEST_F(RunControlSim, ResumeReproducesTheUninterruptedRunByteIdentically) {
    // Reference: one uninterrupted run.
    SimOptions ref_options;
    const auto ref = estimate(net, prop, StrategyKind::Progressive, ch, 7, ref_options);
    EXPECT_EQ(ref.status, RunStatus::Converged);

    for (const std::uint64_t cut : {1ULL, 37ULL, 599ULL}) {
        // Interrupt the run at `cut` accepted samples via a sample budget.
        const std::string path = temp_path("ck_resume_seq.bin");
        SimOptions first;
        first.control.budget.max_samples = cut;
        first.control.checkpoint_path = path;
        const auto partial = estimate(net, prop, StrategyKind::Progressive, ch, 7, first);
        EXPECT_EQ(partial.samples, cut);

        const RunCheckpoint ck = RunCheckpoint::load(path);
        SimOptions second;
        second.control.resume = &ck;
        telemetry::RunReport report;
        const auto resumed =
            estimate(net, prop, StrategyKind::Progressive, ch, 7, second, &report);
        EXPECT_EQ(resumed.status, RunStatus::Converged) << "cut " << cut;
        // The worker accepted this run's samples only, as in every venue.
        ASSERT_EQ(report.worker_stats.size(), 1u);
        EXPECT_EQ(report.worker_stats[0].accepted, resumed.samples - cut) << "cut " << cut;
        EXPECT_EQ(resumed.samples, ref.samples) << "cut " << cut;
        EXPECT_EQ(resumed.successes, ref.successes) << "cut " << cut;
        EXPECT_EQ(resumed.estimate, ref.estimate) << "cut " << cut;
        EXPECT_EQ(resumed.terminals, ref.terminals) << "cut " << cut;
    }
}

TEST_F(RunControlSim, ParallelResumeIsByteIdenticalAtEveryWorkerCount) {
    SimOptions ref_options;
    const auto ref = estimate(net, prop, StrategyKind::Progressive, ch, 11, ref_options);

    for (const std::size_t workers : {1u, 2u, 4u}) {
        const std::string path = temp_path("ck_resume_par.bin");
        ParallelOptions first;
        first.workers = workers;
        first.sim.control.budget.max_samples = 113;
        first.sim.control.checkpoint_path = path;
        const auto partial =
            estimate_parallel(net, prop, StrategyKind::Progressive, ch, 11, first);
        EXPECT_EQ(partial.samples, 113u) << workers << " workers";
        EXPECT_EQ(partial.status, RunStatus::BudgetExhausted);

        const RunCheckpoint ck = RunCheckpoint::load(path);
        EXPECT_EQ(ck.cursor, 113u);
        for (const std::size_t resume_workers : {1u, 2u, 4u}) {
            ParallelOptions second;
            second.workers = resume_workers;
            second.sim.control.resume = &ck;
            const auto resumed =
                estimate_parallel(net, prop, StrategyKind::Progressive, ch, 11, second);
            EXPECT_EQ(resumed.samples, ref.samples)
                << workers << " -> " << resume_workers << " workers";
            EXPECT_EQ(resumed.successes, ref.successes)
                << workers << " -> " << resume_workers << " workers";
            EXPECT_EQ(resumed.terminals, ref.terminals)
                << workers << " -> " << resume_workers << " workers";
        }
    }
}

TEST_F(RunControlSim, PeriodicCheckpointsDoNotPerturbTheRun) {
    SimOptions ref_options;
    const auto ref = estimate(net, prop, StrategyKind::Progressive, ch, 5, ref_options);

    SimOptions options;
    options.control.checkpoint_path = temp_path("ck_periodic.bin");
    options.control.checkpoint_every = 50;
    const auto res = estimate(net, prop, StrategyKind::Progressive, ch, 5, options);
    EXPECT_EQ(res.samples, ref.samples);
    EXPECT_EQ(res.successes, ref.successes);
    // The final checkpoint reflects the converged state.
    const RunCheckpoint ck = RunCheckpoint::load(options.control.checkpoint_path);
    EXPECT_EQ(ck.cursor, res.samples);
    EXPECT_EQ(ck.successes, res.successes);
}

TEST_F(RunControlSim, UnwritablePeriodicCheckpointEndsTheRunWithItsError) {
    // Inline and on worker threads, the write error reaches the caller; the
    // threads are stopped and joined first. The degraded run names the
    // consumer, not a worker, as its stop cause.
    SimOptions options;
    options.control.checkpoint_path = temp_path("no_such_dir/ck.bin");
    options.control.checkpoint_every = 50;
    telemetry::RunReport inline_report;
    EXPECT_THROW(
        (void)estimate(net, prop, StrategyKind::Progressive, ch, 5, options, &inline_report),
        Error);
    ParallelOptions po;
    po.workers = 3;
    po.sim = options;
    telemetry::RunReport threaded_report;
    EXPECT_THROW((void)estimate_parallel(net, prop, StrategyKind::Progressive, ch, 5, po,
                                         &threaded_report),
                 Error);
    for (const telemetry::RunReport* report : {&inline_report, &threaded_report}) {
        EXPECT_EQ(report->run_status.status, "degraded");
        EXPECT_EQ(report->run_status.stop_cause, "consumer failure");
    }
}

TEST_F(RunControlSim, CurveResumeIsByteIdentical) {
    CurveOptions curve;
    curve.bounds = {0.5, 1.0, 2.0};
    SimOptions plain;
    const auto ref = estimate_curve(net, prop, StrategyKind::Progressive, ch, curve, 3,
                                    plain, nullptr);

    const std::string path = temp_path("ck_resume_curve.bin");
    SimOptions first;
    first.control.budget.max_samples = 200;
    first.control.checkpoint_path = path;
    const auto partial = estimate_curve(net, prop, StrategyKind::Progressive, ch, curve,
                                        3, first, nullptr);
    EXPECT_EQ(partial.samples, 200u);
    EXPECT_EQ(partial.status, RunStatus::BudgetExhausted);

    const RunCheckpoint ck = RunCheckpoint::load(path);
    EXPECT_EQ(ck.curve_bounds, curve.bounds);
    for (const std::size_t workers : {0u, 1u, 2u, 4u}) {
        CurveResult resumed;
        if (workers == 0) {
            SimOptions second;
            second.control.resume = &ck;
            resumed = estimate_curve(net, prop, StrategyKind::Progressive, ch, curve, 3,
                                     second, nullptr);
        } else {
            ParallelOptions second;
            second.workers = workers;
            second.sim.control.resume = &ck;
            resumed = estimate_curve_parallel(net, prop, StrategyKind::Progressive, ch,
                                              curve, 3, second, nullptr);
        }
        EXPECT_EQ(resumed.samples, ref.samples) << workers << " workers";
        ASSERT_EQ(resumed.points.size(), ref.points.size());
        for (std::size_t i = 0; i < ref.points.size(); ++i) {
            EXPECT_EQ(resumed.points[i].successes, ref.points[i].successes)
                << workers << " workers, bound " << ref.points[i].bound;
        }
        EXPECT_EQ(resumed.terminals, ref.terminals) << workers << " workers";
    }
}

TEST_F(RunControlSim, ResumeValidationRejectsMismatchedRuns) {
    const std::string path = temp_path("ck_mismatch.bin");
    SimOptions first;
    first.control.budget.max_samples = 10;
    first.control.checkpoint_path = path;
    (void)estimate(net, prop, StrategyKind::Progressive, ch, 7, first);
    const RunCheckpoint ck = RunCheckpoint::load(path);

    SimOptions wrong_seed;
    wrong_seed.control.resume = &ck;
    EXPECT_THROW((void)estimate(net, prop, StrategyKind::Progressive, ch, 8, wrong_seed),
                 Error);
    SimOptions wrong_strategy;
    wrong_strategy.control.resume = &ck;
    EXPECT_THROW((void)estimate(net, prop, StrategyKind::Asap, ch, 7, wrong_strategy),
                 Error);
    const stat::GaussCriterion gauss(0.1, 0.05);
    SimOptions wrong_criterion;
    wrong_criterion.control.resume = &ck;
    EXPECT_THROW(
        (void)estimate(net, prop, StrategyKind::Progressive, gauss, 7, wrong_criterion),
        Error);
}

TEST_F(RunControlSim, ResumeRejectsChangedStopParameters) {
    const auto cut = [&](const stat::StopCriterion& criterion, const char* name) {
        const std::string path = temp_path(name);
        SimOptions first;
        first.control.budget.max_samples = 100;
        first.control.checkpoint_path = path;
        (void)estimate(net, prop, StrategyKind::Progressive, criterion, 7, first);
        return RunCheckpoint::load(path);
    };
    const auto expect_rejected = [&](const RunCheckpoint& ck,
                                     const stat::StopCriterion& criterion,
                                     const std::string& stored, const std::string& requested) {
        SimOptions second;
        second.control.resume = &ck;
        try {
            (void)estimate(net, prop, StrategyKind::Progressive, criterion, 7, second);
            FAIL() << "expected a --resume error naming " << stored;
        } catch (const Error& e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("--resume"), std::string::npos) << what;
            EXPECT_NE(what.find(stored), std::string::npos) << what;
            EXPECT_NE(what.find(requested), std::string::npos) << what;
            EXPECT_EQ(what.find('\n'), std::string::npos) << what;
        }
    };

    const RunCheckpoint gauss_ck = cut(stat::GaussCriterion(0.05, 0.02), "ck_eps.bin");
    EXPECT_EQ(gauss_ck.stop_parameters,
              (stat::StopParameters{{"delta", 0.05}, {"eps", 0.02}}));
    expect_rejected(gauss_ck, stat::GaussCriterion(0.05, 0.05), "eps 0.02", "eps 0.05");
    SimOptions same;
    same.control.resume = &gauss_ck;
    EXPECT_NO_THROW(
        (void)estimate(net, prop, StrategyKind::Progressive,
                       stat::GaussCriterion(0.05, 0.02), 7, same));

    const RunCheckpoint sprt_ck = cut(stat::Sprt(0.985, 0.005, 0.05), "ck_sprt.bin");
    expect_rejected(sprt_ck, stat::Sprt(0.5, 0.005, 0.05), "threshold 0.985",
                    "threshold 0.5");
}

struct FaultIsolation : ::testing::Test {
    eda::Network zeno = eda::build_network_from_source(kZeno);
    TimedReachability zeno_prop = make_reachability(zeno.model(), "never", 1.0);
    eda::Network dead = eda::build_network_from_source(kDeadlock);
    TimedReachability dead_prop = make_reachability(dead.model(), "never", 1.0);
    stat::ChernoffHoeffding ch{0.1, 0.1}; // 150 samples
};

TEST_F(FaultIsolation, FailFastMessageSurvivesTheWorkerBoundary) {
    // Deadlock and timelock faults raised inside worker threads must arrive
    // at the caller with their original diagnostic, at every worker count.
    for (const std::size_t workers : {1u, 2u, 4u}) {
        ParallelOptions po;
        po.workers = workers;
        po.sim.deadlock = StuckPolicy::Error;
        try {
            (void)estimate_parallel(dead, dead_prop, StrategyKind::Asap, ch, 1, po);
            FAIL() << "expected a deadlock error at " << workers << " workers";
        } catch (const Error& e) {
            EXPECT_NE(std::string(e.what()).find("deadlock"), std::string::npos)
                << e.what();
        }
        ParallelOptions zo;
        zo.workers = workers;
        zo.sim.max_steps = 100;
        try {
            (void)estimate_parallel(zeno, zeno_prop, StrategyKind::Asap, ch, 1, zo);
            FAIL() << "expected a Zeno error at " << workers << " workers";
        } catch (const Error& e) {
            EXPECT_NE(std::string(e.what()).find("Zeno"), std::string::npos) << e.what();
        }
    }
}

TEST_F(FaultIsolation, FailFastStillFillsTheReport) {
    ParallelOptions po;
    po.workers = 2;
    po.sim.max_steps = 100;
    // Worker threads and the inline producer of estimate().
    const std::function<void(telemetry::RunReport*)> runs[] = {
        [&](telemetry::RunReport* report) {
            (void)estimate_parallel(zeno, zeno_prop, StrategyKind::Asap, ch, 1, po, report);
        },
        [&](telemetry::RunReport* report) {
            (void)estimate(zeno, zeno_prop, StrategyKind::Asap, ch, 1, po.sim, report);
        },
    };
    for (const auto& run : runs) {
        telemetry::RunReport report;
        EXPECT_THROW(run(&report), Error);
        // The partial summary was finalized before the rethrow.
        EXPECT_EQ(report.run_status.status, "degraded");
        EXPECT_EQ(report.run_status.stop_cause, "fail-fast worker abort");
    }
}

TEST_F(FaultIsolation, FailFastReportCountsThePathsBeforeTheAbort) {
    // max_steps 0 makes a path throw once it fires a transition, which the
    // rate-0.5 event does before the 0.0002 bound in ~0.01% of paths, so a
    // producer runs ~10,000 paths before it aborts the run. Every producer's
    // generated count, the aborting one's included, covers what was
    // accepted from it.
    const eda::Network net = eda::build_network_from_source(kModel);
    const TimedReachability prop = make_reachability(net.model(), "broken", 0.0002);
    const stat::ChernoffHoeffding many{0.05, 0.002}; // 461,110 samples
    ParallelOptions po;
    po.workers = 2;
    po.sim.max_steps = 0;
    const auto check = [](const telemetry::RunReport& report) {
        std::uint64_t accepted = 0;
        for (const auto& ws : report.worker_stats) {
            EXPECT_GE(ws.generated, ws.accepted) << "worker " << ws.worker;
            accepted += ws.accepted;
        }
        EXPECT_EQ(accepted, report.samples);
    };
    telemetry::RunReport threaded;
    EXPECT_THROW((void)estimate_parallel(net, prop, StrategyKind::Asap, many, 1, po, &threaded),
                 Error);
    check(threaded);
    // The inline producer accepts every path it generated before the abort.
    telemetry::RunReport inline_run;
    EXPECT_THROW((void)estimate(net, prop, StrategyKind::Asap, many, 1, po.sim, &inline_run),
                 Error);
    check(inline_run);
    ASSERT_EQ(inline_run.worker_stats.size(), 1u);
    EXPECT_GT(inline_run.samples, 0u);
    EXPECT_EQ(inline_run.worker_stats[0].generated, inline_run.samples);
}

TEST_F(FaultIsolation, TolerateTurnsFaultsIntoErrorSamplesDeterministically) {
    // Every Zeno path errors; under Tolerate the run degrades once the error
    // budget is exceeded — at the same accepted prefix for every worker
    // count (per-path streams).
    EstimationResult reference;
    for (const std::size_t workers : {1u, 2u, 4u}) {
        ParallelOptions po;
        po.workers = workers;
        po.sim.max_steps = 100;
        po.sim.control.fault.kind = FaultPolicyKind::Tolerate;
        po.sim.control.fault.max_path_errors = 10;
        const auto res =
            estimate_parallel(zeno, zeno_prop, StrategyKind::Asap, ch, 1, po);
        EXPECT_EQ(res.status, RunStatus::Degraded) << workers << " workers";
        EXPECT_NE(res.stop_cause.find("--max-path-errors"), std::string::npos);
        EXPECT_GT(res.path_errors, 10u);
        EXPECT_EQ(res.terminals[static_cast<std::size_t>(PathTerminal::Error)],
                  res.path_errors);
        EXPECT_FALSE(res.error_log.empty());
        EXPECT_LE(res.error_log.size(), kMaxQuarantinedErrors);
        EXPECT_NE(res.error_log.front().find("path 0:"), std::string::npos);
        if (workers == 1) {
            reference = res;
        } else {
            EXPECT_EQ(res.samples, reference.samples) << workers << " workers";
            EXPECT_EQ(res.path_errors, reference.path_errors) << workers << " workers";
            EXPECT_EQ(res.error_log, reference.error_log) << workers << " workers";
        }
    }
}

TEST_F(FaultIsolation, TolerateCompletesWhenTheErrorBudgetHolds) {
    // A generous error budget: the run converges with every sample counted
    // as an unsatisfied Error sample (estimate 0), sequential and parallel.
    SimOptions options;
    options.max_steps = 100;
    options.control.fault.kind = FaultPolicyKind::Tolerate;
    options.control.fault.max_path_errors = 100000;
    const auto seq = estimate(zeno, zeno_prop, StrategyKind::Asap, ch, 1, options);
    EXPECT_EQ(seq.status, RunStatus::Converged);
    EXPECT_EQ(seq.estimate, 0.0);
    EXPECT_EQ(seq.samples, *ch.fixed_sample_count());
    EXPECT_EQ(seq.path_errors, seq.samples);

    ParallelOptions po;
    po.workers = 2;
    po.sim = options;
    const auto par = estimate_parallel(zeno, zeno_prop, StrategyKind::Asap, ch, 1, po);
    EXPECT_EQ(par.status, RunStatus::Converged);
    EXPECT_EQ(par.path_errors, par.samples);
}

TEST_F(FaultIsolation, SequentialFailFastIsStillTheDefault) {
    SimOptions options;
    options.max_steps = 100;
    EXPECT_THROW((void)estimate(zeno, zeno_prop, StrategyKind::Asap, ch, 1, options),
                 Error);
}

// Regression: the progress ETA used to extrapolate purely from the stop
// criterion and could promise hours of work that an active RunBudget would
// cut short. The reported ETA must be min(criterion ETA, budget remaining).
TEST(ProgressEta, WallClockBudgetCapsTheCriterionEta) {
    ProgressOptions o;
    // Fixed criterion wants 100k samples; at 500 samples/s that is 198 s out.
    ProgressSnapshot s = make_progress_snapshot(1000, 500, 100'000, 2.0, o);
    EXPECT_NEAR(s.eta_seconds, 198.0, 1e-9);

    // A 10 s wall budget with 2 s elapsed caps the ETA at 8 s.
    o.budget_max_seconds = 10.0;
    s = make_progress_snapshot(1000, 500, 100'000, 2.0, o);
    EXPECT_NEAR(s.eta_seconds, 8.0, 1e-9);

    // An exhausted wall budget reports 0, never a negative ETA.
    o.budget_max_seconds = 1.5;
    s = make_progress_snapshot(1000, 500, 100'000, 2.0, o);
    EXPECT_DOUBLE_EQ(s.eta_seconds, 0.0);
}

TEST(ProgressEta, SampleBudgetLowersTheTarget) {
    ProgressOptions o;
    o.budget_max_samples = 2000;
    // 1000 of 2000 budgeted samples done at 500/s: 2 s left, not the 198 s
    // the 100k-sample criterion alone would extrapolate.
    ProgressSnapshot s = make_progress_snapshot(1000, 500, 100'000, 2.0, o);
    EXPECT_NEAR(s.eta_seconds, 2.0, 1e-9);

    // The sample budget also gives an ETA when the criterion has none
    // (adaptive criterion, eps unset -> target otherwise unknown).
    o.eps = 0.0;
    s = make_progress_snapshot(1000, 500, 0, 2.0, o);
    EXPECT_NEAR(s.eta_seconds, 2.0, 1e-9);
}

TEST(ProgressEta, UnknownCriterionEtaStillHonoursTheWallBudget) {
    ProgressOptions o;
    o.eps = 0.0; // adaptive criterion with no extrapolation target
    ProgressSnapshot s = make_progress_snapshot(1000, 500, 0, 2.0, o);
    EXPECT_LT(s.eta_seconds, 0.0); // unknown without a budget

    o.budget_max_seconds = 30.0;
    s = make_progress_snapshot(1000, 500, 0, 2.0, o);
    EXPECT_NEAR(s.eta_seconds, 28.0, 1e-9);
}

} // namespace
} // namespace slimsim::sim
