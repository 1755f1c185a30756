// Hot-path microbenchmarks (google-benchmark): interval algebra, timed
// expression solving, network stepping and end-to-end path generation.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "ctmc/state_space.hpp"
#include "expr/eval.hpp"
#include "models/gps.hpp"
#include "models/launcher.hpp"
#include "models/sensor_filter.hpp"
#include "sim/runner.hpp"
#include "slim/parser.hpp"

namespace {

using namespace slimsim;

void BM_IntervalIntersect(benchmark::State& state) {
    const IntervalSet a({{0.0, 4.0}, {6.0, 10.0}, {12.0, 20.0}});
    const IntervalSet b({{3.0, 7.0}, {9.0, 13.0}});
    for (auto _ : state) {
        benchmark::DoNotOptimize(a.intersect(b));
    }
}
BENCHMARK(BM_IntervalIntersect);

void BM_IntervalUnite(benchmark::State& state) {
    const IntervalSet a({{0.0, 4.0}, {6.0, 10.0}, {12.0, 20.0}});
    const IntervalSet b({{3.0, 7.0}, {9.0, 13.0}});
    for (auto _ : state) {
        benchmark::DoNotOptimize(a.unite(b));
    }
}
BENCHMARK(BM_IntervalUnite);

void BM_ExpressionEval(benchmark::State& state) {
    expr::ExprPtr e = slim::parse_expression("(1 + 2) * 3 > 4 and (true or 5 < 6)");
    DiagnosticSink sink;
    slim::resolve_const_expr(*e, sink);
    const expr::EvalContext ctx{{}, {}};
    for (auto _ : state) {
        benchmark::DoNotOptimize(expr::evaluate(*e, ctx));
    }
}
BENCHMARK(BM_ExpressionEval);

void BM_ParseGpsModel(benchmark::State& state) {
    const std::string src = models::gps_source();
    for (auto _ : state) {
        benchmark::DoNotOptimize(slim::parse_model(src));
    }
}
BENCHMARK(BM_ParseGpsModel);

void BM_BuildNetworkGps(benchmark::State& state) {
    const std::string src = models::gps_source();
    for (auto _ : state) {
        benchmark::DoNotOptimize(eda::build_network_from_source(src));
    }
}
BENCHMARK(BM_BuildNetworkGps);

void BM_GpsPath(benchmark::State& state) {
    const eda::Network net = eda::build_network_from_source(models::gps_source());
    const sim::TimedReachability prop =
        sim::make_reachability(net.model(), models::gps_goal(), 1800.0);
    const auto strat = sim::make_strategy(sim::StrategyKind::Progressive);
    const sim::PathGenerator gen(net, prop, *strat);
    Rng rng(1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(gen.run(rng));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_GpsPath);

void BM_SensorFilterPath(benchmark::State& state) {
    const int r = static_cast<int>(state.range(0));
    const eda::Network net =
        eda::build_network_from_source(models::sensor_filter_source(r));
    const sim::TimedReachability prop = sim::make_reachability(
        net.model(), models::sensor_filter_goal(), 100.0 * 3600.0);
    const auto strat = sim::make_strategy(sim::StrategyKind::Asap);
    const sim::PathGenerator gen(net, prop, *strat);
    Rng rng(1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(gen.run(rng));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SensorFilterPath)->Arg(1)->Arg(2)->Arg(4);

// The exhaustive CTMC leg of Table I: one full state-space exploration per
// iteration (items are IMC states).
void BM_CtmcBuild(benchmark::State& state) {
    const int r = static_cast<int>(state.range(0));
    const eda::Network net =
        eda::build_network_from_source(models::sensor_filter_source(r));
    const sim::TimedReachability prop = sim::make_reachability(
        net.model(), models::sensor_filter_goal(), 100.0 * 3600.0);
    std::size_t states = 0;
    for (auto _ : state) {
        const ctmc::Imc imc = ctmc::build_state_space(net, *prop.goal);
        states += imc.states.size();
        benchmark::DoNotOptimize(imc.initial);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(states));
}
BENCHMARK(BM_CtmcBuild)->Arg(5)->Arg(6);

// The Fig. 5 launcher (recoverable DPU) at its 120 min mission: the hybrid
// model whose every firing runs ~41 data flows, so settle carries each step.
void BM_LauncherPath(benchmark::State& state) {
    models::LauncherOptions opt;
    opt.recoverable_dpu = true;
    const eda::Network net = eda::build_network_from_source(models::launcher_source(opt));
    const sim::TimedReachability prop =
        sim::make_reachability(net.model(), models::launcher_goal(), 120.0 * 60.0);
    const auto strat = sim::make_strategy(sim::StrategyKind::Progressive);
    const sim::PathGenerator gen(net, prop, *strat);
    Rng rng(1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(gen.run(rng));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LauncherPath);

// --- paths/sec of the CI-tracked harness configs ----------------------------
//
// One bench per CI-tracked harness config (bench_strategies_gps and
// bench_table1). CI's bench-smoke job parses items_per_second from
// BENCH_micro.json and fails when either falls below an absolute floor
// (half the slowest of repeated Release runs on a 4-vCPU machine).

void run_paths(benchmark::State& state, const eda::Network& net, const std::string& goal,
               double bound, sim::StrategyKind kind) {
    const sim::TimedReachability prop = sim::make_reachability(net.model(), goal, bound);
    const auto strat = sim::make_strategy(kind);
    const sim::PathGenerator gen(net, prop, *strat);
    Rng rng(1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(gen.run(rng));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

// The bench_strategies_gps config: GPS acquisition model, Progressive
// strategy, fix-by-deadline reachability.
void BM_StrategiesGpsPaths(benchmark::State& state) {
    const eda::Network net = eda::build_network_from_source(models::gps_source());
    run_paths(state, net, models::gps_goal(), 600.0, sim::StrategyKind::Progressive);
}
BENCHMARK(BM_StrategiesGpsPaths);

// The bench_table1 simulator config: sensor/filter redundancy benchmark
// (R = 2), ASAP strategy, failure within the mission horizon.
void BM_Table1Paths(benchmark::State& state) {
    const eda::Network net =
        eda::build_network_from_source(models::sensor_filter_source(2));
    run_paths(state, net, models::sensor_filter_goal(), 10.0 * 3600.0,
              sim::StrategyKind::Asap);
}
BENCHMARK(BM_Table1Paths);

// The per-step queries on GPS's initial state, on a scratch the bench owns
// and warms before timing (the configuration is interned once).
void BM_CandidateEnumeration(benchmark::State& state) {
    const eda::Network net = eda::build_network_from_source(models::gps_source());
    eda::SimScratch scratch;
    const eda::NetworkState s = net.initial_state(scratch);
    (void)net.candidates(s, 120.0, scratch);
    for (auto _ : state) {
        benchmark::DoNotOptimize(net.candidates(s, 120.0, scratch).data());
    }
}
BENCHMARK(BM_CandidateEnumeration);

void BM_InvariantHorizon(benchmark::State& state) {
    const eda::Network net = eda::build_network_from_source(models::gps_source());
    eda::SimScratch scratch;
    const eda::NetworkState s = net.initial_state(scratch);
    (void)net.invariant_horizon(s, scratch);
    for (auto _ : state) {
        benchmark::DoNotOptimize(net.invariant_horizon(s, scratch));
    }
}
BENCHMARK(BM_InvariantHorizon);

} // namespace

// Custom main instead of BENCHMARK_MAIN(): in addition to the console
// table, mirror the results as BENCH_micro.json (google-benchmark's own
// JSON schema) so CI's bench-smoke job can parse every bench's output the
// same way (see bench_main.hpp for the harness the table benches use).
// Implemented by injecting --benchmark_out flags ahead of the user's
// arguments (which can therefore still override the destination).
int main(int argc, char** argv) {
    std::string path = "BENCH_micro.json";
    if (const char* dir = std::getenv("SLIMSIM_BENCH_DIR");
        dir != nullptr && dir[0] != '\0') {
        path = std::string(dir) + "/" + path;
    }
    std::string out_flag = "--benchmark_out=" + path;
    std::string format_flag = "--benchmark_out_format=json";
    std::vector<char*> args;
    args.push_back(argv[0]);
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
    for (int i = 1; i < argc; ++i) args.push_back(argv[i]);
    int args_count = static_cast<int>(args.size());
    benchmark::Initialize(&args_count, args.data());
    if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) return 1;
    benchmark::RunSpecifiedBenchmarks();
    std::fprintf(stderr, "wrote %s\n", path.c_str());
    benchmark::Shutdown();
    return 0;
}
