#include "ctmc/imc.hpp"

#include <optional>

#include "ctmc/accumulator.hpp"
#include "support/diagnostics.hpp"

namespace slimsim::ctmc {

std::size_t Imc::vanishing_count() const {
    std::size_t n = 0;
    for (const auto& s : states) {
        if (s.vanishing) ++n;
    }
    return n;
}

namespace {

/// Distribution over *old* tangible state ids, ascending.
using Dist = std::vector<std::pair<StateId, double>>;

/// Memoized distribution of a vanishing state over tangible states.
class Eliminator {
public:
    explicit Eliminator(const Imc& imc)
        : imc_(imc), memo_(imc.states.size()), on_stack_(imc.states.size(), 0),
          acc_(imc.states.size()) {}

    const Dist& dist_of(StateId v) {
        SLIMSIM_ASSERT(imc_.states[v].vanishing);
        if (memo_[v]) return *memo_[v];
        if (on_stack_[v]) {
            throw Error("cycle of immediate transitions in the state space "
                        "(divergent/Zeno model); the CTMC flow cannot handle it");
        }
        on_stack_[v] = 1;
        // Successors first (same recursion order), so the accumulator is
        // free while v's distribution is summed.
        for (const auto& [t, p] : imc_.states[v].immediate) {
            if (imc_.states[t].vanishing) (void)dist_of(t);
        }
        for (const auto& [t, p] : imc_.states[v].immediate) {
            if (imc_.states[t].vanishing) {
                for (const auto& [u, q] : *memo_[t]) acc_.add(u, p * q);
            } else {
                acc_.add(t, p);
            }
        }
        on_stack_[v] = 0;
        Dist& d = memo_[v].emplace();
        acc_.drain([&](StateId u, double q) { d.emplace_back(u, q); });
        return d;
    }

private:
    const Imc& imc_;
    std::vector<std::optional<Dist>> memo_;
    std::vector<char> on_stack_;
    Accumulator acc_;
};

} // namespace

CtmcModel eliminate_vanishing(const Imc& imc) {
    // Index tangible states.
    std::vector<StateId> new_id(imc.states.size(), 0);
    StateId count = 0;
    for (StateId s = 0; s < imc.states.size(); ++s) {
        if (!imc.states[s].vanishing) new_id[s] = count++;
    }
    if (count == 0) {
        throw Error("the model has no tangible states (all behaviour is immediate)");
    }

    Eliminator elim(imc);
    CtmcModel m;
    m.transitions.resize(count);
    m.goal.assign(count, 0);

    // Keyed by old ids: ascending old ids of tangible states are ascending
    // new ids.
    Accumulator out(imc.states.size());
    for (StateId s = 0; s < imc.states.size(); ++s) {
        const ImcState& st = imc.states[s];
        if (st.vanishing) continue;
        m.goal[new_id[s]] = st.goal ? 1 : 0;
        for (const auto& [t, rate] : st.markovian) {
            if (imc.states[t].vanishing) {
                for (const auto& [u, q] : elim.dist_of(t)) out.add(u, rate * q);
            } else {
                out.add(t, rate);
            }
        }
        auto& edges = m.transitions[new_id[s]];
        out.drain([&](StateId t, double rate) { edges.emplace_back(new_id[t], rate); });
    }

    if (imc.states[imc.initial].vanishing) {
        for (const auto& [t, p] : elim.dist_of(imc.initial)) {
            m.initial.emplace_back(new_id[t], p);
        }
    } else {
        m.initial.emplace_back(new_id[imc.initial], 1.0);
    }
    m.check();
    return m;
}

} // namespace slimsim::ctmc
