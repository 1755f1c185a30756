// Table I: exhaustive CTMC flow vs Monte Carlo simulation on the
// sensor/filter redundancy benchmark (paper, Sec. IV).
//
//   $ ./bench_table1 [--max-r R] [--eps E] [--delta D] [--hours H]
//
// Paper columns: model size, CTMC time, CTMC memory, simulator time,
// simulator memory. We additionally print the state-space sizes and both
// probabilities (the paper's claim: values agree within eps; CTMC cost
// explodes with model size, simulation cost stays flat).
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench_main.hpp"
#include "ctmc/flow.hpp"
#include "models/sensor_filter.hpp"
#include "sim/runner.hpp"
#include "support/memprobe.hpp"

int main(int argc, char** argv) {
    using namespace slimsim;
    try {
        int max_r = 5;
        double eps = 0.01;
        double delta = 0.05;
        double hours = 100.0;
        for (int i = 1; i < argc; ++i) {
            if (std::strcmp(argv[i], "--max-r") == 0 && i + 1 < argc) {
                max_r = std::stoi(argv[++i]);
            } else if (std::strcmp(argv[i], "--eps") == 0 && i + 1 < argc) {
                eps = std::stod(argv[++i]);
            } else if (std::strcmp(argv[i], "--delta") == 0 && i + 1 < argc) {
                delta = std::stod(argv[++i]);
            } else if (std::strcmp(argv[i], "--hours") == 0 && i + 1 < argc) {
                hours = std::stod(argv[++i]);
            } else {
                std::fprintf(stderr, "unknown argument %s\n", argv[i]);
                return 2;
            }
        }
        const double u = hours * 3600.0;
        const stat::ChernoffHoeffding criterion(delta, eps);

        benchio::Report report("table1");
        report.param("max_r", max_r);
        report.param("eps", eps);
        report.param("delta", delta);
        report.param("hours", hours);

        std::printf("== Table I: CTMC flow vs simulator (sensor/filter benchmark) ==\n");
        std::printf("horizon %.0f h, delta=%g, eps=%g (N = %zu paths)\n\n", hours, delta,
                    eps, *criterion.fixed_sample_count());
        std::printf("%-5s %-6s | %-10s %-10s %-9s %-10s | %-10s %-10s %-10s\n", "size",
                    "R", "ctmc-p", "ctmc-time", "states", "ctmc-MiB", "sim-p", "sim-time",
                    "sim-MiB");

        for (int r = 1; r <= max_r; ++r) {
            const eda::Network net =
                eda::build_network_from_source(models::sensor_filter_source(r));
            const sim::TimedReachability prop =
                sim::make_reachability(net.model(), models::sensor_filter_goal(), u);

            // ctmc-MiB is the flow's peak growth: its high-water mark minus
            // the RSS before it (the RSS after it returns counts only what it
            // leaves behind). The mark is process-wide; R only increases, so
            // it follows the largest build.
            const std::size_t rss_before_ctmc = current_rss_bytes();
            const ctmc::FlowResult exact = ctmc::run_ctmc_flow(net, *prop.goal, u);
            const double ctmc_mib = bytes_to_mib(exact.peak_rss_bytes > rss_before_ctmc
                                                     ? exact.peak_rss_bytes - rss_before_ctmc
                                                     : 0);

            const std::size_t rss_before_sim = current_rss_bytes();
            // ASAP matches the maximal-progress semantics of the CTMC
            // abstraction (untimed model: the only non-determinism is the
            // order of immediate steps).
            const sim::EstimationResult mc =
                sim::estimate(net, prop, sim::StrategyKind::Asap, criterion, 1);
            const std::size_t rss_after_sim = current_rss_bytes();
            const double sim_mib = bytes_to_mib(
                rss_after_sim > rss_before_sim ? rss_after_sim - rss_before_sim : 0);

            std::printf("%-5d %-6d | %-10.5f %-9.2fs %-9zu %-10.1f | %-10.5f %-9.2fs "
                        "%-10.1f\n",
                        2 * r, r, exact.probability, exact.total_seconds,
                        exact.build.states, ctmc_mib, mc.estimate, mc.wall_seconds,
                        sim_mib);
            if (std::abs(exact.probability - mc.estimate) > 2 * eps) {
                std::printf("  !! disagreement beyond 2*eps\n");
            }
            json::Value row = json::Value::object();
            row["r"] = r;
            row["size"] = 2 * r;
            row["ctmc_p"] = exact.probability;
            row["ctmc_seconds"] = exact.total_seconds;
            row["ctmc_states"] = static_cast<std::uint64_t>(exact.build.states);
            row["ctmc_mib"] = ctmc_mib;
            row["sim_p"] = mc.estimate;
            row["sim_seconds"] = mc.wall_seconds;
            row["sim_mib"] = sim_mib;
            report.add_row(std::move(row));
        }
        std::puts("\nexpected shape: ctmc-time/states grow combinatorially with R;"
                  " sim-time stays nearly flat; probabilities agree within eps.");
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
