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

/// Discrete projection of a state (locations + non-timed variable values +
/// activation). Used as the memo key of sim/nested's inner checks; only
/// valid for untimed models, where timed variables never influence
/// behaviour.
struct DiscreteKey {
    std::vector<int> locations;
    std::vector<Value> values; // only the non-timed variables, in var order
    std::vector<char> active;

    friend bool operator==(const DiscreteKey&, const DiscreteKey&) = default;

    [[nodiscard]] std::size_t hash() const;
};

struct DiscreteKeyHash {
    std::size_t operator()(const DiscreteKey& k) const { return k.hash(); }
};

} // namespace slimsim::eda
