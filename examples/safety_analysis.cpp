// Safety analysis of the launcher: FMEA table and minimal cut sets
// (the COMPASS-style analyses of paper Sec. II-C, on top of the simulator).
//
//   $ ./safety_analysis [--mission MIN] [--order K]
#include <cstdio>
#include <cstring>
#include <string>

#include "models/launcher.hpp"
#include "safety/fmea.hpp"

int main(int argc, char** argv) {
    using namespace slimsim;
    try {
        double mission_min = 30.0;
        int order = 2;
        for (int i = 1; i < argc; ++i) {
            if (std::strcmp(argv[i], "--mission") == 0 && i + 1 < argc) {
                mission_min = std::stod(argv[++i]);
            } else if (std::strcmp(argv[i], "--order") == 0 && i + 1 < argc) {
                order = std::stoi(argv[++i]);
            } else {
                std::fprintf(stderr, "unknown argument %s\n", argv[i]);
                return 2;
            }
        }
        const eda::Network net =
            eda::build_network_from_source(models::launcher_source());
        const auto prop = sim::make_reachability(net.model(), models::launcher_goal(),
                                                 mission_min * 60.0);

        std::printf("== minimal cut sets (static, order <= %d) ==\n", order);
        const auto sets = safety::minimal_cut_sets(net, prop.goal, order);
        std::fputs(safety::format_cut_sets(sets).c_str(), stdout);
        std::printf("(%zu minimal cut sets)\n\n", sets.size());

        std::printf("== FMEA, failure condition within %.0f min ==\n", mission_min);
        safety::FmeaOptions opt;
        opt.eps = 0.03;
        const auto rows = safety::fmea(net, prop.goal, mission_min * 60.0, 2024, opt);
        std::fputs(safety::format_fmea(rows).c_str(), stdout);
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
