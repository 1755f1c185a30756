// Advanced analyses on a repairable system: adaptive stopping and a
// qualitative SPRT.
//
//   $ ./availability_study
//
// Model: a component that fails at 1/h and is repaired at 4/h. Questions:
//  1. P( <> [0,8h] down )             — estimation, CH vs Chow-Robbins cost
//  2. is P( <> [0,8h] down ) >= 0.95? — SPRT hypothesis test
#include <cstdio>

#include "sim/hypothesis.hpp"
#include "sim/runner.hpp"
#include "slim/parser.hpp"

namespace {

constexpr const char* kModel = R"(
    root S.I;
    system S
    features down: out data port bool default false;
    end S;
    system implementation S.I end S.I;
    error model EM
    features ok: initial state; failed: error state;
    end EM;
    error model implementation EM.I
    events
      fail: error event occurrence poisson 1 per hour;
      fix: error event occurrence poisson 4 per hour;
    transitions
      ok -[fail]-> failed;
      failed -[fix]-> ok;
    end EM.I;
    fault injections
      component root uses error model EM.I;
      component root in state failed effect down := true;
    end fault injections;
)";

} // namespace

int main() {
    using namespace slimsim;
    try {
        const eda::Network net = eda::build_network_from_source(kModel);
        const double mission = 8.0 * 3600.0;
        const sim::PathFormula prop = sim::make_reachability(net.model(), "down", mission);

        std::puts("== 1. estimation: Chernoff-Hoeffding vs Chow-Robbins ==");
        for (const auto kind :
             {stat::CriterionKind::ChernoffHoeffding, stat::CriterionKind::ChowRobbins}) {
            const auto criterion = stat::make_criterion(kind, 0.05, 0.01);
            const auto res =
                sim::estimate(net, prop, sim::StrategyKind::Progressive, *criterion, 1);
            std::printf("  %-20s p^ = %.4f with %zu paths\n", criterion->name().c_str(),
                        res.estimate, res.samples);
        }

        std::puts("\n== 2. qualitative: is P(down within 8 h) >= 0.95? ==");
        sim::HypothesisOptions hopt;
        hopt.indifference = 0.02;
        const auto verdict =
            sim::test_hypothesis(net, prop, sim::StrategyKind::Progressive, 0.95, 2, hopt);
        std::printf("  %s\n", verdict.to_string().c_str());
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
