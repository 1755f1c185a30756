// The steady-state simulation loop allocates nothing (docs/compiled-model.md).
//
// This binary replaces the global allocation functions with a counting pair
// built on malloc/free, so every `new` in the process — the library, the
// standard containers, worker threads — is counted. Each check warms a loop
// up (the per-worker interner saturates, scratch buffers reach their working
// capacity), then counts the allocations of the paths that follow:
//   * the path generator, through PathGenerator::run and through a
//     PathGenerator::step loop (splitting's entry), must allocate nothing;
//   * a whole sequential run may only add O(log N) bookkeeping (report
//     marks, summaries), at most 0.01 allocations per extra path;
//   * a whole threaded run additionally pays the collector's buffer chunks
//     (one per 32 buffered samples), at most 0.05 per extra path;
//   * the exhaustive explorer (ctmc::build_state_space) allocates a bounded
//     number of times per IMC state it discovers: the state's own
//     transition list plus amortized growth of its tables.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "api/analysis.hpp"
#include "ctmc/state_space.hpp"
#include "models/launcher.hpp"
#include "models/sensor_filter.hpp"
#include "sim/path_generator.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* counted_malloc(std::size_t n) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(n == 0 ? 1 : n);
}

void* counted_aligned(std::size_t n, std::align_val_t al) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    const auto a = static_cast<std::size_t>(al);
    // aligned_alloc wants a size that is a multiple of the alignment.
    return std::aligned_alloc(a, (n + a - 1) / a * a + (n == 0 ? a : 0));
}
} // namespace

void* operator new(std::size_t n) {
    if (void* p = counted_malloc(n)) return p;
    throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return counted_malloc(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
    return counted_malloc(n);
}
void* operator new(std::size_t n, std::align_val_t al) {
    if (void* p = counted_aligned(n, al)) return p;
    throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) { return operator new(n, al); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace slimsim {
namespace {

#ifndef SLIMSIM_MODELS_DIR
#error "SLIMSIM_MODELS_DIR must be defined by the build"
#endif

std::uint64_t allocations() { return g_allocations.load(std::memory_order_relaxed); }

struct Query {
    const char* name;
    eda::Network net;
    std::string goal;
    double bound;
};

Query from_file(const char* file, std::string goal, double bound) {
    return {file, eda::build_network_from_file(std::string(SLIMSIM_MODELS_DIR) + "/" + file),
            std::move(goal), bound};
}

std::vector<Query> queries() {
    std::vector<Query> out;
    out.push_back(from_file("gps.slim", "gps.measurement", 1800.0));
    out.push_back(from_file("gps_restart.slim", "gps.measurement", 4.0 * 3600.0));
    out.push_back(from_file("failover.slim", "failed", 2.0 * 3600.0));
    out.push_back(from_file("sensor_filter_panic.slim", "panicked", 4.0 * 3600.0));
    models::LauncherOptions launcher;
    launcher.recoverable_dpu = true;
    out.push_back({"launcher (recoverable)",
                   eda::build_network_from_source(models::launcher_source(launcher)),
                   models::launcher_goal(), 120.0 * 60.0});
    return out;
}

// Paths 1,000-2,000 of a seeded stream are counted on a second pass over
// them. The first pass (paths 0-2,000) interns every configuration they
// reach and grows each scratch buffer to the size they need (a
// configuration first reached late is a one-off cost of that configuration,
// not of the path), so whatever the second pass allocates is allocated per
// path.
constexpr std::size_t kFirstCounted = 1000;
constexpr std::size_t kEndCounted = 2000;

// Allocations of the second pass, each path drawn by `path(rng)`.
template <typename Path>
std::uint64_t steady_state_allocations(std::uint64_t seed, Path&& path) {
    Rng rng(seed);
    for (std::size_t i = 0; i < kFirstCounted; ++i) path(rng);
    Rng replay = rng;
    for (std::size_t i = kFirstCounted; i < kEndCounted; ++i) path(rng);
    const std::uint64_t before = allocations();
    for (std::size_t i = kFirstCounted; i < kEndCounted; ++i) path(replay);
    return allocations() - before;
}

TEST(AllocFree, GeneratorLoopAllocatesNothingOnceWarm) {
    for (const Query& q : queries()) {
        const sim::PathFormula prop = sim::make_reachability(q.net.model(), q.goal, q.bound);
        for (const sim::StrategyKind kind : sim::automated_strategies()) {
            for (const sim::MemoryPolicy memory :
                 {sim::MemoryPolicy::Restart, sim::MemoryPolicy::Continue}) {
                SCOPED_TRACE(std::string(q.name) + " / " + sim::to_string(kind) +
                             (memory == sim::MemoryPolicy::Continue ? " / continue"
                                                                    : " / restart"));
                sim::SimOptions options;
                options.memory = memory;
                const auto strategy = sim::make_strategy(kind);

                // PathGenerator::run: the estimation venues' loop.
                {
                    const sim::PathGenerator gen(q.net, prop, *strategy, options);
                    const auto path = [&](Rng& rng) { (void)gen.run(rng); };
                    EXPECT_EQ(steady_state_allocations(11, path), 0u) << "PathGenerator::run";
                }

                // PathGenerator::step on a caller-owned state: splitting's loop.
                {
                    const sim::PathGenerator gen(q.net, prop, *strategy, options);
                    eda::NetworkState state;
                    const auto path = [&](Rng& rng) {
                        state = gen.initial_state();
                        std::size_t steps = 0;
                        while (!gen.step(state, rng, steps)) {
                        }
                    };
                    EXPECT_EQ(steady_state_allocations(12, path), 0u) << "PathGenerator::step";
                }
            }
        }
    }
}

struct RunCount {
    std::uint64_t allocations = 0;
    std::uint64_t generated = 0; // paths simulated, accepted or not
};

// One whole run_analysis call stopped at `samples` accepted samples by a
// sample budget (which stops every venue at exactly that count).
RunCount count_run(const eda::Network& net, AnalysisRequest req, std::uint64_t samples) {
    req.sim.control.budget.max_samples = samples;
    const std::uint64_t before = allocations();
    const AnalysisResult result = run_analysis(net, req);
    RunCount out;
    out.allocations = allocations() - before;
    for (const auto& w : result.report.worker_stats) out.generated += w.generated;
    EXPECT_EQ(req.curve_bounds.empty() ? result.estimation.samples : result.curve.samples,
              samples);
    return out;
}

// The allocations an 8,000-sample run adds over a 2,000-sample run, per
// extra path generated; the runs' fixed setup cancels out. Sequentially
// every generated path is an accepted sample. Threaded workers also
// simulate the overshoot a stopped run discards, a few hundred to a few
// thousand launcher paths depending on thread timing.
double added_per_path(const eda::Network& net, const AnalysisRequest& req) {
    (void)count_run(net, req, 2000); // warm process-wide caches
    const RunCount a = count_run(net, req, 2000);
    const RunCount b = count_run(net, req, 8000);
    if (req.workers == 1) {
        EXPECT_EQ(a.generated, 2000u);
        EXPECT_EQ(b.generated, 8000u);
    }
    return (static_cast<double>(b.allocations) - static_cast<double>(a.allocations)) /
           (static_cast<double>(b.generated) - static_cast<double>(a.generated));
}

// The Fig. 5 launcher query (recoverable DPU faults): ~20 us paths, so the
// threaded overshoot stays small next to the 6,000 extra samples.
void expect_per_path_at_most(std::size_t workers, double limit) {
    models::LauncherOptions options;
    options.recoverable_dpu = true;
    const eda::Network net = eda::build_network_from_source(models::launcher_source(options));
    AnalysisRequest req;
    req.property = sim::make_reachability(net.model(), models::launcher_goal(), 7200.0);
    req.mode = workers > 1 ? AnalysisMode::EstimateParallel : AnalysisMode::Estimate;
    req.workers = workers;
    req.eps = 0.001; // far more samples than the budget: the budget stops
    req.seed = 5;
    EXPECT_LE(added_per_path(net, req), limit) << "scalar";

    AnalysisRequest curve = req;
    curve.curve_bounds = {2400.0, 4800.0, 7200.0};
    EXPECT_LE(added_per_path(net, curve), limit) << "curve";

    if (workers == 1) {
        // An indifference region far below the sampling noise keeps SPRT
        // undecided until the budget.
        AnalysisRequest sprt = req;
        sprt.mode = AnalysisMode::HypothesisTest;
        sprt.threshold = 0.7;
        sprt.indifference = 1e-5;
        EXPECT_LE(added_per_path(net, sprt), limit) << "sprt";
    }
}

TEST(AllocFree, SequentialVenueAddsAtMostLogarithmicBookkeeping) {
    expect_per_path_at_most(1, 0.01);
}

TEST(AllocFree, ThreadedVenueAddsOnlyCollectorChunks) {
    expect_per_path_at_most(3, 0.05);
}

TEST(AllocFree, ExplorerAllocatesBoundedPerState) {
    // Sensor/filter R = 5: 2,945 IMC states, 6,882 transitions. Measured
    // 1.74 allocations per state; 8.33 while resolve_moves returned fresh
    // vectors per candidate and every frontier state and transition list
    // was allocated anew.
    const eda::Network net = eda::build_network_from_source(models::sensor_filter_source(5));
    const sim::PathFormula prop =
        sim::make_reachability(net.model(), models::sensor_filter_goal(), 1.0);
    (void)ctmc::build_state_space(net, *prop.goal); // warm process-wide caches
    ctmc::BuildStats stats;
    const std::uint64_t before = allocations();
    const ctmc::Imc imc = ctmc::build_state_space(net, *prop.goal, {}, &stats);
    const std::uint64_t counted = allocations() - before;
    ASSERT_EQ(stats.states, 2945u);
    EXPECT_LE(static_cast<double>(counted) / static_cast<double>(stats.states), 2.0)
        << counted << " allocations";
}

} // namespace
} // namespace slimsim
