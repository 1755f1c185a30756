// Parallelization (paper Sec. III-C): worker scaling and collection bias.
//
//   $ ./bench_parallel [--eps E]
//
// Part 1: wall-clock scaling of the parallel estimator over worker counts.
// Part 2: the bias hazard of first-come sample collection [21] and its fix
// by round-robin buffered collection [22], demonstrated with a synthetic
// outcome/latency-correlated workload fed straight into the collector.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "api/analysis.hpp"
#include "bench_main.hpp"
#include "models/gps.hpp"
#include "models/sensor_filter.hpp"
#include "sim/parallel_runner.hpp"
#include "sim/supervise/supervise.hpp"
#include "stat/collector.hpp"
#include "support/journal.hpp"
#include "support/metrics.hpp"
#include "support/tracer/tracer.hpp"

namespace {

using namespace slimsim;

void scaling(double eps, benchio::Report& report) {
    const eda::Network net =
        eda::build_network_from_source(models::sensor_filter_source(5));
    const sim::TimedReachability prop = sim::make_reachability(
        net.model(), models::sensor_filter_goal(), 200.0 * 3600.0);
    const stat::ChernoffHoeffding criterion(0.05, eps);
    std::printf("== worker scaling (N = %zu paths, %u hardware threads) ==\n",
                *criterion.fixed_sample_count(), std::thread::hardware_concurrency());
    std::puts("note: speedup is bounded by the hardware thread count; on a single-core"
              "\nhost this bench only demonstrates that parallelism adds no bias/cost.");
    std::printf("%-8s  %-10s  %-10s  %-10s  %-8s\n", "workers", "estimate", "time",
                "paths/s", "speedup");
    double base = 0.0;
    for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
        sim::EstimationResult res;
        if (workers == 1) {
            res = sim::estimate(net, prop, sim::StrategyKind::Asap, criterion, 3);
        } else {
            sim::ParallelOptions po;
            po.workers = workers;
            res = sim::estimate_parallel(net, prop, sim::StrategyKind::Asap, criterion, 3,
                                         po);
        }
        if (workers == 1) base = res.wall_seconds;
        std::printf("%-8zu  %-10.4f  %-9.2fs  %-10.0f  %.2fx\n", workers, res.estimate,
                    res.wall_seconds, static_cast<double>(res.samples) / res.wall_seconds,
                    base / res.wall_seconds);
        json::Value row = json::Value::object();
        row["workers"] = static_cast<std::uint64_t>(workers);
        row["estimate"] = res.estimate;
        row["seconds"] = res.wall_seconds;
        row["paths_per_s"] = static_cast<double>(res.samples) / res.wall_seconds;
        row["speedup"] = base / res.wall_seconds;
        report.add_row(std::move(row));
    }
}

// Execution-trace overhead: the same fixed-N parallel estimation with the
// tracer left disabled (hot path sees only null-lane checks) vs. attached
// (per-worker ring buffers recording every span). The disabled number is
// the headline throughput CI tracks; the acceptance bound is that carrying
// the instrumentation costs < 2% when no tracer is attached.
void tracing_overhead(benchio::Report& report) {
    const eda::Network net =
        eda::build_network_from_source(models::sensor_filter_source(4));
    const sim::TimedReachability prop = sim::make_reachability(
        net.model(), models::sensor_filter_goal(), 200.0 * 3600.0);
    const stat::ChernoffHoeffding criterion(0.05, 0.02);
    const std::size_t n = *criterion.fixed_sample_count();
    std::printf("\n== tracing overhead (N = %zu paths, 4 workers, min of 3 reps) ==\n",
                n);
    json::Value section = json::Value::object();
    double disabled_pps = 0.0;
    for (const bool traced : {false, true}) {
        tracer::Tracer tracer(tracer::Tracer::Options{traced, 1 << 14});
        const auto timing = benchio::measure(
            [&] {
                sim::ParallelOptions po;
                po.workers = 4;
                if (traced) po.tracer = &tracer;
                (void)sim::estimate_parallel(net, prop, sim::StrategyKind::Asap,
                                             criterion, 9, po);
            },
            3, 1);
        const double pps = static_cast<double>(n) / timing.min_seconds;
        std::printf("%-18s  %-9.3fs  %-10.0f paths/s\n",
                    traced ? "tracer attached" : "tracer disabled", timing.min_seconds,
                    pps);
        section[traced ? "enabled" : "disabled"] = timing.to_json();
        section[traced ? "enabled_paths_per_s" : "disabled_paths_per_s"] = pps;
        if (!traced) disabled_pps = pps;
        if (traced && disabled_pps > 0.0) {
            const double overhead = (disabled_pps / pps - 1.0) * 100.0;
            std::printf("recording overhead: %.1f%%\n", overhead);
            section["recording_overhead_percent"] = overhead;
        }
    }
    report.root()["tracing_overhead"] = std::move(section);
}

// Size of the checkpoint, live-metrics and journal sections: 5,693
// gps_restart paths, so that one side runs for at least 0.2 s, over 60
// interleaved pairs. At 2,050 paths (eps 0.03) and 10 pairs a side took
// about 0.1 s, and run-to-run noise alone swung the paired median across
// the 5% gates.
constexpr double kGatedSectionEps = 0.018;
constexpr std::size_t kGatedSectionPairs = 60;

// An overhead section: each side's timings and paths/s (from its minimum),
// and the overhead CI gates: the median over the interleaved pairs of
// on/off - 1 (benchio::paired_median_overhead_percent).
json::Value overhead_section(const char* name, std::size_t n, const benchio::Timing& off,
                             const benchio::Timing& on) {
    const double overhead = benchio::paired_median_overhead_percent(off, on);
    const double disabled_pps = static_cast<double>(n) / off.min_seconds;
    const double enabled_pps = static_cast<double>(n) / on.min_seconds;
    std::printf("%-18s  %-9.3fs  %-10.0f paths/s\n", (std::string(name) + " off").c_str(),
                off.min_seconds, disabled_pps);
    std::printf("%-18s  %-9.3fs  %-10.0f paths/s\n", (std::string(name) + " on").c_str(),
                on.min_seconds, enabled_pps);
    std::printf("recording overhead: %.1f%%\n", overhead);
    json::Value section = json::Value::object();
    section["disabled"] = off.to_json();
    section["enabled"] = on.to_json();
    section["disabled_paths_per_s"] = disabled_pps;
    section["enabled_paths_per_s"] = enabled_pps;
    section["recording_overhead_percent"] = overhead;
    return section;
}

// Coverage-profiler overhead: a fixed-N parallel *curve* estimation with
// coverage off vs. on. The curve runner always uses per-path RNG streams
// and sample-granular ordered draining — exactly the regime coverage
// requires — so both sides simulate the byte-identical path set and the
// ratio isolates pure recording cost (shard hooks + decision observer +
// merge), not a change of workload. The model is the power-cycled GPS:
// its restart loop keeps paths long (~300 steps at a 96 h bound), which is
// the regime coverage profiling targets, and keeps per-path bookkeeping
// amortized. The acceptance bound CI enforces is <= 10% recording overhead.
void coverage_overhead(benchio::Report& report) {
    const eda::Network net =
        eda::build_network_from_source(models::gps_restart_source(true));
    const double bound = 96.0 * 3600.0;
    const sim::TimedReachability prop =
        sim::make_reachability(net.model(), models::gps_restart_goal(), bound);
    const stat::ChernoffHoeffding criterion(0.05, 0.03);
    const std::size_t n = *criterion.fixed_sample_count();
    std::printf("\n== coverage overhead (N = %zu paths, 4 workers, median of 10 "
                "interleaved pairs) ==\n",
                n);
    auto run = [&](bool profiled) {
        return [&, profiled] {
            sim::ParallelOptions po;
            po.workers = 4;
            po.sim.coverage = profiled;
            sim::CurveOptions curve;
            curve.bounds = {bound};
            (void)sim::estimate_curve_parallel(net, prop, sim::StrategyKind::Asap,
                                               criterion, curve, 9, po);
        };
    };
    const auto [off, on] = benchio::measure_interleaved(run(false), run(true), 10, 2);
    report.root()["coverage_overhead"] = overhead_section("coverage", n, off, on);
}

// Checkpoint overhead: the same fixed-N parallel curve estimation with
// periodic checkpointing off vs. on. A --checkpoint path forces per-path
// RNG streams — but the curve runner uses them anyway, so both sides
// simulate the byte-identical path set and the ratio isolates the pure
// snapshot cost (serializing the Fenwick tree + fsync-free atomic rename
// every `checkpoint_every` accepted samples). The acceptance bound CI
// enforces is <= 5% overhead (docs/robustness.md).
void checkpoint_overhead(benchio::Report& report) {
    const eda::Network net =
        eda::build_network_from_source(models::gps_restart_source(true));
    const double bound = 96.0 * 3600.0;
    const sim::TimedReachability prop =
        sim::make_reachability(net.model(), models::gps_restart_goal(), bound);
    const stat::ChernoffHoeffding criterion(0.05, kGatedSectionEps);
    const std::size_t n = *criterion.fixed_sample_count();
    const std::string ck_path = "bench_checkpoint.ckpt";
    const std::uint64_t every = 256;
    std::printf("\n== checkpoint overhead (N = %zu paths, 4 workers, snapshot every "
                "%llu samples, median of %zu interleaved pairs) ==\n",
                n, static_cast<unsigned long long>(every), kGatedSectionPairs);
    auto run = [&](bool checkpointed) {
        return [&, checkpointed] {
            sim::ParallelOptions po;
            po.workers = 4;
            if (checkpointed) {
                po.sim.control.checkpoint_path = ck_path;
                po.sim.control.checkpoint_every = every;
            }
            sim::CurveOptions curve;
            curve.bounds = {bound};
            (void)sim::estimate_curve_parallel(net, prop, sim::StrategyKind::Asap,
                                               criterion, curve, 9, po);
        };
    };
    const auto [off, on] =
        benchio::measure_interleaved(run(false), run(true), kGatedSectionPairs, 2);
    std::remove(ck_path.c_str());
    report.root()["checkpoint_overhead"] = overhead_section("checkpoint", n, off, on);
}

// Live-metrics overhead: the same fixed-N parallel estimation with the
// sharded metrics registry detached vs. attached (path/step/fire counters,
// per-path wall-time histogram, collector depth gauge and drain-latency
// histogram all firing). Both sides simulate the byte-identical path set,
// so the ratio isolates the pure instrument cost — relaxed fetch_adds on
// per-worker cache lines. The acceptance bound CI enforces is <= 5%
// overhead (docs/observability.md).
void metrics_overhead(benchio::Report& report) {
    const eda::Network net =
        eda::build_network_from_source(models::gps_restart_source(true));
    const double bound = 96.0 * 3600.0;
    const sim::TimedReachability prop =
        sim::make_reachability(net.model(), models::gps_restart_goal(), bound);
    const stat::ChernoffHoeffding criterion(0.05, kGatedSectionEps);
    const std::size_t n = *criterion.fixed_sample_count();
    std::printf("\n== live metrics overhead (N = %zu paths, 4 workers, median of %zu "
                "interleaved pairs) ==\n",
                n, kGatedSectionPairs);
    auto run = [&](bool instrumented) {
        return [&, instrumented] {
            metrics::Registry registry(4);
            sim::ParallelOptions po;
            po.workers = 4;
            if (instrumented) po.sim.metrics = &registry;
            (void)sim::estimate_parallel(net, prop, sim::StrategyKind::Asap, criterion,
                                         9, po);
        };
    };
    const auto [off, on] =
        benchio::measure_interleaved(run(false), run(true), kGatedSectionPairs, 2);
    report.root()["metrics_overhead"] = overhead_section("metrics", n, off, on);
}

// Default-telemetry overhead: run_analysis with telemetry on — the
// default: engine counters in a private per-worker-sharded metrics
// registry, live gauges, the run report — vs. off. Both sides simulate
// the byte-identical path set. Three cases: GPS (the cheapest paths in the
// repo, so per-path instrument cost shows most) at 3 workers, and the
// CLI's default single-worker Estimate loop on GPS and on Table I's sensor
// filter at R = 7 (a heavy hot loop). The runs are short (0.1-0.3 s) and a
// shared VM drifts between them, which a ratio of minimums picks up as
// +-30%; each overhead is therefore the median over 30 interleaved pairs
// (benchio::paired_median_overhead_percent). With 20 pairs and 0.07 s GPS
// runs the single-worker case still swung by +-10%. The acceptance bound
// CI enforces on every case is <= 10% (docs/observability.md).
void telemetry_overhead(benchio::Report& report) {
    const eda::Network gps = eda::build_network_from_source(models::gps_source());
    const eda::Network r7 = eda::build_network_from_source(models::sensor_filter_source(7));
    auto request = [](const eda::Network& net, const std::string& goal, double bound,
                      double eps, std::size_t workers) {
        AnalysisRequest req;
        req.mode = workers > 1 ? AnalysisMode::EstimateParallel : AnalysisMode::Estimate;
        req.workers = workers;
        req.property = sim::make_reachability(net.model(), goal, bound);
        req.delta = 0.05;
        req.eps = eps;
        req.seed = 9;
        return req;
    };
    auto measure_case = [](const char* label, const eda::Network& net,
                           const AnalysisRequest& req) {
        const std::size_t n =
            *stat::ChernoffHoeffding(req.delta, req.eps).fixed_sample_count();
        std::printf("\n== telemetry overhead (%s, N = %zu paths, %zu worker(s), median "
                    "of 30 interleaved pairs) ==\n",
                    label, n, req.workers);
        auto run = [&](bool telemetry) {
            return [&, telemetry] {
                AnalysisRequest r = req;
                r.telemetry = telemetry;
                (void)run_analysis(net, r);
            };
        };
        const auto [off, on] = benchio::measure_interleaved(run(false), run(true), 30, 2);
        return overhead_section("telemetry", n, off, on);
    };
    json::Value section =
        measure_case("GPS", gps, request(gps, models::gps_goal(), 1800.0, 0.002, 3));
    json::Value sequential = json::Value::object();
    sequential["gps"] =
        measure_case("GPS", gps, request(gps, models::gps_goal(), 1800.0, 0.002, 1));
    AnalysisRequest r7_req =
        request(r7, models::sensor_filter_goal(), 100.0 * 3600.0, 0.01, 1);
    r7_req.strategy = sim::StrategyKind::Asap;
    sequential["table1_r7"] = measure_case("Table I, R = 7", r7, r7_req);
    section["sequential"] = std::move(sequential);
    report.root()["telemetry_overhead"] = std::move(section);
}

// Run-journal overhead: the same fixed-N parallel estimation with the
// journal detached vs. attached at debug level (worker quarantine rings
// armed, serial lifecycle events, trajectory marks under per-path streams).
// Both sides force deterministic per-path streams so they simulate the
// byte-identical path set and the ratio isolates the pure recording cost.
// The acceptance bound CI enforces is <= 5% overhead
// (docs/observability.md).
void journal_overhead(benchio::Report& report) {
    const eda::Network net =
        eda::build_network_from_source(models::gps_restart_source(true));
    const double bound = 96.0 * 3600.0;
    const sim::TimedReachability prop =
        sim::make_reachability(net.model(), models::gps_restart_goal(), bound);
    const stat::ChernoffHoeffding criterion(0.05, kGatedSectionEps);
    const std::size_t n = *criterion.fixed_sample_count();
    std::printf("\n== run journal overhead (N = %zu paths, 4 workers, median of %zu "
                "interleaved pairs) ==\n",
                n, kGatedSectionPairs);
    auto run = [&](bool logged) {
        return [&, logged] {
            journal::Journal journal(journal::Level::Debug);
            sim::ParallelOptions po;
            po.workers = 4;
            po.sim.control.deterministic_streams = true;
            if (logged) po.sim.journal = &journal;
            (void)sim::estimate_parallel(net, prop, sim::StrategyKind::Asap, criterion,
                                         9, po);
        };
    };
    const auto [off, on] =
        benchio::measure_interleaved(run(false), run(true), kGatedSectionPairs, 2);
    report.root()["journal_overhead"] = overhead_section("journal", n, off, on);
}

// Process-isolation overhead: the same fixed-N estimation with per-path
// RNG streams, run by the in-process parallel runner (4 threads) vs the
// supervised runner (4 worker subprocesses, SLIMWIRE framing, fork/exec
// included). Like-for-like path set — both sides simulate path j with
// Rng(seed).split(j) — so the delta is pure supervision cost: process
// spawn, frame encode/decode/checksum and the coordinator's poll loop.
// CI gates the overhead at <= 10%.
void supervision_overhead(benchio::Report& report) {
    const std::string source = models::sensor_filter_source(4);
    const eda::Network net = eda::build_network_from_source(source);
    const sim::TimedReachability prop = sim::make_reachability(
        net.model(), models::sensor_filter_goal(), 200.0 * 3600.0);
    // Large enough that the fixed fork/exec + handshake cost (~tens of ms)
    // amortizes below the CI gate; the steady-state per-sample wire cost is
    // what the gate actually polices.
    const stat::ChernoffHoeffding criterion(0.05, 0.008);
    const std::size_t n = *criterion.fixed_sample_count();
    const std::string model_file =
        "bench_supervise_" + std::to_string(getpid()) + ".slim";
    {
        std::ofstream out(model_file);
        out << source;
    }
    std::printf("\n== supervision overhead (N = %zu paths, 4 threads vs 4 processes, "
                "median of 9 interleaved pairs) ==\n",
                n);
    const auto run = [&](bool supervised) {
        return std::function<void()>([&net, &prop, &criterion, &model_file,
                                      supervised] {
            if (supervised) {
                sim::supervise::SuperviseOptions so;
                so.processes = 4;
                so.worker_exe = SLIMSIM_CLI_PATH;
                so.model_path = model_file;
                (void)sim::supervise::estimate_supervised(
                    net, prop, sim::StrategyKind::Asap, criterion, 9, so);
            } else {
                sim::ParallelOptions po;
                po.workers = 4;
                po.sim.control.deterministic_streams = true;
                (void)sim::estimate_parallel(net, prop, sim::StrategyKind::Asap,
                                             criterion, 9, po);
            }
        });
    };
    const auto [threads, procs] = benchio::measure_interleaved(run(false), run(true), 9, 1);
    std::remove(model_file.c_str());
    json::Value section = json::Value::object();
    const double threads_pps = static_cast<double>(n) / threads.min_seconds;
    const double procs_pps = static_cast<double>(n) / procs.min_seconds;
    std::printf("%-18s  %-9.3fs  %-10.0f paths/s\n", "in-process", threads.min_seconds,
                threads_pps);
    std::printf("%-18s  %-9.3fs  %-10.0f paths/s\n", "supervised", procs.min_seconds,
                procs_pps);
    const double overhead = benchio::paired_median_overhead_percent(threads, procs);
    std::printf("supervision overhead: %.1f%%\n", overhead);
    section["in_process"] = threads.to_json();
    section["supervised"] = procs.to_json();
    section["in_process_paths_per_s"] = threads_pps;
    section["supervised_paths_per_s"] = procs_pps;
    section["overhead_percent"] = overhead;
    report.root()["supervision_overhead"] = std::move(section);
}

void bias_demo(benchio::Report& report) {
    // Synthetic workload reproducing the hazard of [21]: true p = 0.5, but
    // success paths are fast (one tick) while failure paths are slow (two
    // ticks). With 16 workers and a small sample target, stopping on
    // first-come consumption (each sample counted as it arrives)
    // systematically misses the slow failures still in flight; round-robin
    // consumption through the collector (one sample per worker per round)
    // accepts every worker's stream in its true order and stays unbiased.
    constexpr std::size_t kWorkers = 16;
    constexpr std::size_t kTarget = 48;
    constexpr int kTrials = 4000;
    std::printf("\n== collection bias demo (true p = 0.5, %zu workers, stop at %zu "
                "samples, %d trials) ==\n",
                kWorkers, kTarget, kTrials);
    std::printf("%-14s  %-12s  %-10s\n", "collection", "mean estimate", "bias");
    for (const bool round_robin : {false, true}) {
        Rng rng(1234);
        double total = 0.0;
        for (int trial = 0; trial < kTrials; ++trial) {
            stat::SampleCollector collector(kWorkers);
            stat::BernoulliSummary summary;
            // Arrival order is first-come order: without the collector a
            // sample counts the moment it arrives.
            const auto arrive = [&](std::size_t w, bool sample) {
                if (round_robin) {
                    collector.push(w, sample);
                } else {
                    summary.add(sample);
                }
            };
            std::vector<int> busy_until(kWorkers, 0); // failure = 2 ticks
            std::vector<char> pending(kWorkers, 0);
            for (int tick = 0; summary.count < kTarget; ++tick) {
                for (std::size_t w = 0; w < kWorkers; ++w) {
                    if (busy_until[w] > tick) continue;
                    if (pending[w] != 0) {
                        arrive(w, false); // slow failure completes
                        pending[w] = 0;
                    }
                    if (rng.bernoulli(0.5)) {
                        arrive(w, true); // fast success, done now
                    } else {
                        pending[w] = 1; // failure needs one more tick
                        busy_until[w] = tick + 2;
                    }
                }
                while (round_robin && summary.count < kTarget &&
                       collector.drain_rounds(summary, 1) > 0) {
                }
            }
            total += summary.mean();
        }
        const double mean = total / kTrials;
        std::printf("%-14s  %-12.4f  %+.4f\n", round_robin ? "round-robin" : "first-come",
                    mean, mean - 0.5);
        json::Value row = json::Value::object();
        row["collection"] = round_robin ? "round-robin" : "first-come";
        row["mean_estimate"] = mean;
        row["bias"] = mean - 0.5;
        report.root()["bias_demo"].push_back(std::move(row));
    }
    std::puts("expected: first-come is biased high (slow failures are in flight when\n"
              "the target is reached); round-robin stays at ~0.5.");
}

} // namespace

int main(int argc, char** argv) {
    try {
        double eps = 0.01;
        for (int i = 1; i < argc; ++i) {
            if (std::strcmp(argv[i], "--eps") == 0 && i + 1 < argc) {
                eps = std::stod(argv[++i]);
            } else {
                std::fprintf(stderr, "unknown argument %s\n", argv[i]);
                return 2;
            }
        }
        benchio::Report report("parallel");
        report.param("eps", eps);
        report.root()["bias_demo"] = json::Value::array();
        scaling(eps, report);
        tracing_overhead(report);
        coverage_overhead(report);
        checkpoint_overhead(report);
        metrics_overhead(report);
        telemetry_overhead(report);
        journal_overhead(report);
        supervision_overhead(report);
        bias_demo(report);
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
