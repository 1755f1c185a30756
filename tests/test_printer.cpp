// SLIM pretty-printer round-trips: parse -> print -> parse is idempotent and
// behaviour-preserving on every bundled model.
#include "slim/printer.hpp"

#include <gtest/gtest.h>

#include "models/failover.hpp"
#include "models/gps.hpp"
#include "models/launcher.hpp"
#include "models/sensor_filter.hpp"
#include "sim/runner.hpp"
#include "slim/parser.hpp"

namespace slimsim::slim {
namespace {

struct NamedModel {
    std::string name;
    std::string source;
    std::string goal;
    double bound;
};

// gtest lists a parameter by its printed value. Without this it dumps the
// struct's raw bytes, heap pointers included, so the test names (and the ctest
// names discovered from them) would change with every run under ASLR.
void PrintTo(const NamedModel& m, std::ostream* os) { *os << m.name; }

std::vector<NamedModel> bundled_models() {
    models::LauncherOptions recoverable;
    recoverable.recoverable_dpu = true;
    models::FailoverOptions timed_failover;
    timed_failover.detection_latency = 0.5;
    return {
        {"gps", models::gps_source(), models::gps_goal(), 1800.0},
        {"gps_restart", models::gps_restart_source(true), models::gps_restart_goal(),
         2700.0},
        {"gps_norestart", models::gps_restart_source(false), models::gps_restart_goal(),
         2700.0},
        {"sensor_filter", models::sensor_filter_source(2), models::sensor_filter_goal(),
         100.0 * 3600.0},
        {"launcher", models::launcher_source(), models::launcher_goal(), 1800.0},
        {"launcher_rec", models::launcher_source(recoverable), models::launcher_goal(),
         1800.0},
        {"failover", models::failover_source(), models::failover_goal(), 7200.0},
        {"failover_timed", models::failover_source(timed_failover),
         models::failover_goal(), 7200.0},
    };
}

class PrinterRoundTrip : public ::testing::TestWithParam<NamedModel> {};

TEST_P(PrinterRoundTrip, PrintParseIdempotent) {
    const NamedModel& m = GetParam();
    const ModelFile first = parse_model(m.source, m.name);
    const std::string printed = print_model(first);
    ModelFile second;
    ASSERT_NO_THROW(second = parse_model(printed, m.name + "-printed")) << printed;
    const std::string printed_again = print_model(second);
    EXPECT_EQ(printed, printed_again) << "printer is not a fixpoint for " << m.name;
}

TEST_P(PrinterRoundTrip, PrintedModelBehavesIdentically) {
    const NamedModel& m = GetParam();
    const std::string printed = print_model(parse_model(m.source, m.name));

    const eda::Network original = eda::build_network_from_source(m.source);
    const eda::Network reprinted = eda::build_network_from_source(printed);
    ASSERT_EQ(original.model().processes.size(), reprinted.model().processes.size());
    ASSERT_EQ(original.model().vars.size(), reprinted.model().vars.size());

    const auto p1 = sim::make_reachability(original.model(), m.goal, m.bound);
    const auto p2 = sim::make_reachability(reprinted.model(), m.goal, m.bound);
    const stat::ChernoffHoeffding ch(0.2, 0.1); // small N: exact-match check
    const auto r1 = sim::estimate(original, p1, sim::StrategyKind::Progressive, ch, 77);
    const auto r2 = sim::estimate(reprinted, p2, sim::StrategyKind::Progressive, ch, 77);
    // Identical models and seeds must produce identical sample paths.
    EXPECT_EQ(r1.successes, r2.successes) << m.name;
    EXPECT_EQ(r1.samples, r2.samples) << m.name;
}

INSTANTIATE_TEST_SUITE_P(Bundled, PrinterRoundTrip, ::testing::ValuesIn(bundled_models()),
                         [](const auto& info) { return info.param.name; });

TEST(Printer, CoversAllDeclarationForms) {
    // One synthetic model touching every syntactic corner.
    const char* src = R"(
        root Top.I;
        abstract Box
        features
          e_in: in event port;
          e_out: out event port;
          d_in: in data port int [0..5] default 2;
          d_out: out data port real default 1.5;
        end Box;
        abstract implementation Box.I
        subcomponents
          b: data bool default true;
          c: data clock;
          k: data continuous default 3;
        flows
          d_out := d_in * 2 in modes (m1);
        modes
          m1: initial mode while c <= 9;
          m2: mode;
        transitions
          m1 -[e_in when c >= 1 and b then d_out := 0.25; b := false]-> m2;
          m2 -[e_out]-> m1;
          m2 -[@activation then c := 0]-> m1;
          m1 -[@deactivation]-> m2;
          m1 -[when @timer >= 2]-> m2;
        trends
          k' = -0.5 in m1, m2;
        end Box.I;
        system Top end Top;
        system implementation Top.I
        subcomponents
          one: abstract Box.I in modes (up);
          two: abstract Box.I;
        connections
          event port one.e_out -> two.e_in;
          data port one.d_out -> two.d_in in modes (up);
        modes
          up: initial mode;
          down: mode;
        transitions
          up -[]-> down;
        end Top.I;
        error model EM
        features
          ok: initial state;
          sick: error state while @timer <= 4;
          yell: out propagation;
          hear: in propagation;
        end EM;
        error model implementation EM.I
        events
          f: error event occurrence poisson 0.25 per sec;
          g: error event;
        subcomponents
          t: data clock;
        transitions
          ok -[f]-> sick;
          sick -[g when t >= 1]-> ok;
          sick -[yell]-> sick;
          ok -[hear]-> sick;
        end EM.I;
        fault injections
          component one uses error model EM.I;
          component one in state sick effect d_out := 0;
          component root uses error model EM.I;
        end fault injections;
    )";
    const ModelFile parsed = parse_model(src);
    const std::string printed = print_model(parsed);
    const ModelFile reparsed = parse_model(printed);
    EXPECT_EQ(printed, print_model(reparsed));
    // Spot-checks on the printed text.
    EXPECT_NE(printed.find("int [0..5]"), std::string::npos);
    EXPECT_NE(printed.find("in modes (m1)"), std::string::npos);
    EXPECT_NE(printed.find("@activation"), std::string::npos);
    EXPECT_NE(printed.find("k' = "), std::string::npos);
    EXPECT_NE(printed.find("occurrence poisson"), std::string::npos);
    EXPECT_NE(printed.find("component root uses error model EM.I;"), std::string::npos);
}

} // namespace
} // namespace slimsim::slim
