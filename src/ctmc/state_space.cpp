#include "ctmc/state_space.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <deque>
#include <limits>

#include "expr/compile.hpp"
#include "support/flat_index.hpp"
#include "support/hash.hpp"

namespace slimsim::ctmc {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

/// True if the expression reads any clock/continuous variable.
bool reads_timed(const expr::Expr& e, const slim::InstanceModel& m,
                 const std::vector<VarId>* bindings) {
    if (e.kind == expr::ExprKind::Var) {
        const VarId id = bindings == nullptr ? e.slot : (*bindings)[e.slot];
        return m.vars[id].type.is_timed();
    }
    return (e.a && reads_timed(*e.a, m, bindings)) ||
           (e.b && reads_timed(*e.b, m, bindings)) ||
           (e.c && reads_timed(*e.c, m, bindings));
}

} // namespace

void ensure_untimed(const eda::Network& net, const expr::Expr& goal) {
    const slim::InstanceModel& m = net.model();
    for (const auto& p : m.processes) {
        for (const auto& loc : p.locations) {
            if (loc.invariant != nullptr) {
                throw Error("process `" + p.name + "` location `" + loc.name +
                            "` has an invariant; the CTMC flow handles untimed models "
                            "only (use the simulator)");
            }
        }
        for (const auto& t : p.transitions) {
            if (t.guard != nullptr && reads_timed(*t.guard, m, p.bindings.get())) {
                throw Error(t.loc, "process `" + p.name +
                                       "` has a guard over clock/continuous variables; the "
                                       "CTMC flow handles untimed models only");
            }
        }
    }
    if (reads_timed(goal, m, nullptr)) {
        throw Error("the property goal references clock/continuous variables; the CTMC "
                    "flow handles untimed models only");
    }
}

namespace {

/// Packs a state's discrete projection into a fixed number of words; two
/// packings are equal exactly when the states agree on locations, activation
/// and every non-timed value under Value::operator==. Layout: the state's
/// configuration id in the builder's interner (which stands for the
/// locations and the activation); one word per non-timed variable, holding
/// the bits of `as_real() + 0.0` for a numeric (the `+ 0.0` merges -0.0 with
/// +0.0, as Value::operator== does) or 0/1 for a bool; then one mask bit per
/// such variable that holds a bool, so `true` and `1` stay distinct.
class KeyPacker {
public:
    explicit KeyPacker(const slim::InstanceModel& m) {
        for (VarId v = 0; v < m.vars.size(); ++v) {
            if (!m.vars[v].type.is_timed()) discrete_vars_.push_back(v);
        }
        mask_words_ = (discrete_vars_.size() + 63) / 64;
    }

    [[nodiscard]] std::size_t words() const { return 1 + discrete_vars_.size() + mask_words_; }

    void pack(const eda::NetworkState& s, std::uint32_t config, std::uint64_t* out) const {
        out[0] = config;
        std::uint64_t* values = out + 1;
        std::uint64_t* mask = values + discrete_vars_.size();
        std::fill_n(mask, mask_words_, 0);
        for (std::size_t i = 0; i < discrete_vars_.size(); ++i) {
            const Value& v = s.values[discrete_vars_[i]];
            if (v.is_bool()) {
                values[i] = v.as_bool() ? 1 : 0;
                mask[i / 64] |= std::uint64_t{1} << (i % 64);
            } else {
                values[i] = double_bits(v.as_real() + 0.0);
            }
        }
    }

private:
    std::vector<VarId> discrete_vars_;
    std::size_t mask_words_ = 0;
};

} // namespace

Imc build_state_space(const eda::Network& net, const expr::Expr& goal,
                      const BuildOptions& options, BuildStats* stats) {
    const auto start = std::chrono::steady_clock::now();
    ensure_untimed(net, goal);

    const KeyPacker packer(net.model());
    const std::size_t width = packer.words();
    std::vector<std::uint64_t> keys;   // `width` words per IMC state, by id
    std::vector<std::uint64_t> hashes; // state-key hash of each state's key
    std::vector<std::uint64_t> probe(width);
    FlatIndex index;
    // Discovered but unprocessed states, in id order (breadth-first). A
    // deque keeps references to its elements valid under push_back.
    // Processed states go to `spare`, whose buffers the next discovered
    // states reuse.
    std::deque<eda::NetworkState> frontier;
    std::vector<eda::NetworkState> spare;
    eda::SimScratch scratch;
    Imc imc;

    // `config` is s's configuration id in the scratch's interner.
    auto intern = [&](const eda::NetworkState& s, std::uint32_t config) -> StateId {
        packer.pack(s, config, probe.data());
        const std::uint64_t h = state_hash_finish(
            state_hash_bytes(0x57A7E57A7E57A7EULL, probe.data(), width * sizeof(std::uint64_t)),
            width);
        const std::uint32_t found = index.find(h, [&](std::uint32_t i) {
            return hashes[i] == h && std::memcmp(keys.data() + i * width, probe.data(),
                                                 width * sizeof(std::uint64_t)) == 0;
        });
        if (found != FlatIndex::kNone) return found;
        const auto id = static_cast<StateId>(imc.states.size());
        if (imc.states.size() >= options.max_states) {
            throw Error("state space exceeds " + std::to_string(options.max_states) +
                        " states");
        }
        keys.insert(keys.end(), probe.begin(), probe.end());
        hashes.push_back(h);
        index.insert(h, id, [&](std::uint32_t i) { return hashes[i]; });
        imc.states.emplace_back();
        if (spare.empty()) {
            frontier.push_back(s);
        } else {
            frontier.push_back(std::move(spare.back()));
            spare.pop_back();
            frontier.back() = s;
        }
        return id;
    };

    const eda::NetworkState& initial = net.initial_state(scratch);
    imc.initial = intern(initial, scratch.interner.intern_id(initial, *net.compiled()));

    const expr::ProgramPtr goal_program = expr::compile(goal, {});
    std::vector<eda::Candidate> cands;
    eda::NetworkState succ; // successor buffer; copied into the frontier only when new
    // A state's transitions, collected here and copied out once.
    std::vector<std::pair<StateId, double>> edges;
    const auto retire = [&] {
        spare.push_back(std::move(frontier.front()));
        frontier.pop_front();
    };
    std::size_t transition_count = 0;
    for (StateId id = 0; id < imc.states.size(); ++id, retire()) {
        const eda::NetworkState& s = frontier.front(); // state `id`
        ImcState st;
        if (goal_program->run_bool(s.values, scratch.eval)) {
            st.goal = true; // absorbing
            imc.states[id] = std::move(st);
            continue;
        }
        const auto enabled = net.candidates(s, kInf, scratch);
        cands.assign(enabled.begin(), enabled.end());
        edges.clear();
        if (!cands.empty()) {
            // Maximal progress: immediate steps preempt Markovian ones;
            // the candidate and its sub-choices are resolved equiprobably.
            st.vanishing = true;
            const double cand_prob = 1.0 / static_cast<double>(cands.size());
            for (const auto& c : cands) {
                for (const auto& move : net.resolve_moves(s, c, scratch)) {
                    succ = s;
                    const std::uint32_t config =
                        net.apply_firing(succ, move.firing, scratch).config;
                    edges.emplace_back(intern(succ, config), cand_prob * move.probability);
                }
            }
        } else {
            for (const eda::MarkovianRate& m : net.markovian_rates(s, scratch)) {
                const auto& p = net.model().processes[static_cast<std::size_t>(m.process)];
                for (const int t : net.outgoing(s, m.process)) {
                    const double rate = p.transitions[static_cast<std::size_t>(t)].rate;
                    if (rate <= 0.0) continue;
                    succ = s;
                    const std::pair<eda::ProcessId, int> firing{m.process, t};
                    const std::uint32_t config =
                        net.apply_firing(succ, std::span(&firing, 1), scratch).config;
                    edges.emplace_back(intern(succ, config), rate);
                }
            }
        }
        (st.vanishing ? st.immediate : st.markovian).assign(edges.begin(), edges.end());
        transition_count += edges.size();
        imc.states[id] = std::move(st);
    }

    if (stats != nullptr) {
        stats->states = imc.states.size();
        stats->vanishing = imc.vanishing_count();
        stats->transitions = transition_count;
        stats->seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    }
    return imc;
}

} // namespace slimsim::ctmc
