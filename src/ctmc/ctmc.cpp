#include "ctmc/ctmc.hpp"

#include <algorithm>
#include <cmath>

#include "ctmc/accumulator.hpp"
#include "support/diagnostics.hpp"

namespace slimsim::ctmc {

std::size_t CtmcModel::transition_count() const {
    std::size_t n = 0;
    for (const auto& t : transitions) n += t.size();
    return n;
}

double CtmcModel::exit_rate(StateId s) const {
    double total = 0.0;
    for (const auto& [t, r] : transitions[s]) {
        (void)t;
        total += r;
    }
    return total;
}

double CtmcModel::max_exit_rate() const {
    double m = 0.0;
    for (StateId s = 0; s < state_count(); ++s) m = std::max(m, exit_rate(s));
    return m;
}

void CtmcModel::check() const {
    SLIMSIM_ASSERT(goal.size() == transitions.size());
    double mass = 0.0;
    for (const auto& [s, p] : initial) {
        SLIMSIM_ASSERT(s < state_count());
        SLIMSIM_ASSERT(p > 0.0);
        mass += p;
    }
    SLIMSIM_ASSERT(std::abs(mass - 1.0) < 1e-9);
    for (StateId s = 0; s < state_count(); ++s) {
        if (goal[s]) SLIMSIM_ASSERT(transitions[s].empty()); // absorbing
        for (const auto& [t, r] : transitions[s]) {
            SLIMSIM_ASSERT(t < state_count());
            SLIMSIM_ASSERT(r > 0.0);
        }
    }
}

CtmcModel quotient(const CtmcModel& m, const std::vector<StateId>& block_of,
                   StateId block_count) {
    SLIMSIM_ASSERT(block_of.size() == m.state_count());
    CtmcModel q;
    q.transitions.resize(block_count);
    q.goal.assign(block_count, 0);
    std::vector<char> done(block_count, 0);
    Accumulator acc(block_count);
    for (StateId s = 0; s < m.state_count(); ++s) {
        const StateId b = block_of[s];
        SLIMSIM_ASSERT(b < block_count);
        if (m.goal[s]) q.goal[b] = 1;
        if (done[b]) continue; // rates are block-invariant; one representative suffices
        done[b] = 1;
        for (const auto& [t, r] : m.transitions[s]) acc.add(block_of[t], r);
        acc.drain([&](StateId t, double r) { q.transitions[b].emplace_back(t, r); });
    }
    for (const auto& [s, p] : m.initial) acc.add(block_of[s], p);
    acc.drain([&](StateId t, double p) { q.initial.emplace_back(t, p); });
    return q;
}

} // namespace slimsim::ctmc
