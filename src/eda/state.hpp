// Network state: the dynamic part of a Network of Event-Data Automata.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "expr/value.hpp"

namespace slimsim::eda {

/// Complete simulation state of a network: one location per process, the
/// global valuation, per-instance activation flags, and the global time.
struct NetworkState {
    std::vector<int> locations;  // per process
    std::vector<Value> values;   // per global variable
    std::vector<char> active;    // per instance (char to avoid vector<bool>)
    double time = 0.0;

    [[nodiscard]] bool instance_active(std::size_t inst) const {
        return active[inst] != 0;
    }
};

} // namespace slimsim::eda
