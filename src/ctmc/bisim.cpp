#include "ctmc/bisim.hpp"

#include <map>

#include "ctmc/accumulator.hpp"
#include "support/diagnostics.hpp"

namespace slimsim::ctmc {

namespace {

/// A state's refinement signature: its current block plus its total rate
/// into every block (sorted, merged).
struct Signature {
    StateId own_block = 0;
    std::vector<std::pair<StateId, double>> rates;

    friend bool operator==(const Signature&, const Signature&) = default;
    friend bool operator<(const Signature& a, const Signature& b) {
        if (a.own_block != b.own_block) return a.own_block < b.own_block;
        return a.rates < b.rates;
    }
};

} // namespace

LumpResult lump(const CtmcModel& m) {
    const std::size_t n = m.state_count();
    LumpResult res;
    res.block_of.assign(n, 0);
    // Initial partition: goal vs non-goal.
    for (StateId s = 0; s < n; ++s) res.block_of[s] = m.goal[s] ? 1 : 0;
    res.block_count = 2;
    if (n == 0) {
        res.block_count = 0;
        return res;
    }

    Accumulator acc(n);
    for (;;) {
        ++res.iterations;
        // Blocks are numbered in order of first appearance.
        std::map<Signature, StateId> sig_block;
        std::vector<StateId> next(n);
        Signature sig;
        for (StateId s = 0; s < n; ++s) {
            sig.own_block = res.block_of[s];
            sig.rates.clear();
            for (const auto& [t, r] : m.transitions[s]) acc.add(res.block_of[t], r);
            acc.drain([&](StateId b, double r) { sig.rates.emplace_back(b, r); });
            const auto it = sig_block.find(sig);
            next[s] = it != sig_block.end()
                          ? it->second
                          : sig_block.emplace(sig, static_cast<StateId>(sig_block.size()))
                                .first->second;
        }
        const auto new_count = static_cast<StateId>(sig_block.size());
        const bool stable = new_count == res.block_count;
        res.block_of = std::move(next);
        res.block_count = new_count;
        if (stable) return res;
    }
}

CtmcModel minimize(const CtmcModel& m, LumpResult* result) {
    LumpResult r = lump(m);
    CtmcModel q = quotient(m, r.block_of, r.block_count);
    if (result != nullptr) *result = std::move(r);
    return q;
}

} // namespace slimsim::ctmc
