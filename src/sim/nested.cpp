#include "sim/nested.hpp"

#include <chrono>
#include <sstream>
#include <functional>
#include <unordered_map>

#include "expr/eval.hpp"
#include "stat/generators.hpp"

namespace slimsim::sim {

// --- StateFormula construction ---------------------------------------------

StateFormula StateFormula::atom(expr::ExprPtr e) {
    SLIMSIM_ASSERT(e != nullptr);
    StateFormula f;
    f.kind = Kind::Atom;
    f.atom_ = std::move(e);
    return f;
}

StateFormula StateFormula::probability_at_least(PathFormula path, double threshold,
                                                double indifference, double delta) {
    StateFormula f;
    f.kind = Kind::Prob;
    f.inner_ = std::make_shared<PathFormula>(std::move(path));
    f.threshold_ = threshold;
    f.indifference_ = indifference;
    f.delta_ = delta;
    return f;
}

StateFormula StateFormula::conjunction(StateFormula a, StateFormula b) {
    StateFormula f;
    f.kind = Kind::And;
    f.a_ = std::make_shared<StateFormula>(std::move(a));
    f.b_ = std::make_shared<StateFormula>(std::move(b));
    return f;
}

StateFormula StateFormula::disjunction(StateFormula a, StateFormula b) {
    StateFormula f;
    f.kind = Kind::Or;
    f.a_ = std::make_shared<StateFormula>(std::move(a));
    f.b_ = std::make_shared<StateFormula>(std::move(b));
    return f;
}

StateFormula StateFormula::negation(StateFormula a) {
    StateFormula f;
    f.kind = Kind::Not;
    f.a_ = std::make_shared<StateFormula>(std::move(a));
    return f;
}

bool StateFormula::has_nested() const {
    switch (kind) {
    case Kind::Atom: return false;
    case Kind::Prob: return true;
    case Kind::Not: return a_->has_nested();
    case Kind::And:
    case Kind::Or: return a_->has_nested() || b_->has_nested();
    }
    return false;
}

// --- checker -----------------------------------------------------------------

std::string NestedResult::to_string() const {
    std::ostringstream os;
    os << "p^ = " << estimate << " (" << samples << " outer paths, " << inner_tests
       << " inner tests / " << memo_hits << " memo hits, " << inner_paths
       << " inner paths, " << wall_seconds << " s)";
    return os.str();
}

namespace {

bool reads_timed(const expr::Expr& e, const slim::InstanceModel& m) {
    if (e.kind == expr::ExprKind::Var) return m.vars[e.slot].type.is_timed();
    return (e.a && reads_timed(*e.a, m)) || (e.b && reads_timed(*e.b, m)) ||
           (e.c && reads_timed(*e.c, m));
}

/// Discrete projection of a state (locations + non-timed values + active).
class KeyMaker {
public:
    explicit KeyMaker(const slim::InstanceModel& m) {
        for (VarId v = 0; v < m.vars.size(); ++v) {
            if (!m.vars[v].type.is_timed()) discrete_vars_.push_back(v);
        }
    }

    [[nodiscard]] eda::DiscreteKey key_of(const eda::NetworkState& s) const {
        eda::DiscreteKey k;
        k.locations = s.locations;
        k.values.reserve(discrete_vars_.size());
        for (const VarId v : discrete_vars_) k.values.push_back(s.values[v]);
        k.active = s.active;
        return k;
    }

private:
    std::vector<VarId> discrete_vars_;
};

} // namespace

class NestedChecker {
public:
    NestedChecker(const eda::Network& net, const NestedOptions& options,
                  std::uint64_t seed)
        : net_(net), options_(options), master_(seed), keys_(net.model()) {}

    NestedResult run(const StateFormula& phi, double bound) {
        const auto start = std::chrono::steady_clock::now();
        ensure_untimed_model();
        check_formula(phi);

        // Dummy goal so the PathGenerator drives paths to the bound; the
        // state formula is evaluated at every discrete instant.
        PathFormula driver;
        driver.kind = FormulaKind::Reach;
        driver.goal = expr::make_bool(false);
        driver.bound = bound;
        driver.text = "<nested driver>";
        const auto strat = make_strategy(options_.strategy);
        const PathGenerator gen(net_, driver, *strat, options_.sim);

        const stat::ChernoffHoeffding criterion(options_.delta, options_.eps);
        const std::size_t n = *criterion.fixed_sample_count();
        Rng rng = master_.split(0);
        std::size_t hits = 0;
        for (std::size_t i = 0; i < n; ++i) {
            eda::NetworkState s = gen.initial_state();
            std::size_t steps = 0;
            for (;;) {
                if (s.time <= bound && eval_formula(phi, s)) {
                    ++hits;
                    break;
                }
                if (const auto out = gen.step(s, rng, steps)) break;
            }
        }
        result_.estimate = static_cast<double>(hits) / static_cast<double>(n);
        result_.samples = n;
        result_.wall_seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
                .count();
        return result_;
    }

private:
    void ensure_untimed_model() const {
        const auto& m = net_.model();
        for (const auto& p : m.processes) {
            for (const auto& loc : p.locations) {
                if (loc.invariant != nullptr) {
                    throw Error("nested probabilistic operators require an untimed "
                                "model (process `" +
                                p.name + "` has invariants)");
                }
            }
            for (const auto& t : p.transitions) {
                if (t.guard == nullptr) continue;
                // Check against the process's bindings.
                const std::function<bool(const expr::Expr&)> timed =
                    [&](const expr::Expr& e) -> bool {
                    if (e.kind == expr::ExprKind::Var) {
                        return m.vars[(*p.bindings)[e.slot]].type.is_timed();
                    }
                    return (e.a && timed(*e.a)) || (e.b && timed(*e.b)) ||
                           (e.c && timed(*e.c));
                };
                if (timed(*t.guard)) {
                    throw Error("nested probabilistic operators require an untimed "
                                "model (process `" +
                                p.name + "` has guards over clocks)");
                }
            }
        }
    }

    void check_formula(const StateFormula& phi) const {
        const auto& m = net_.model();
        switch (phi.kind) {
        case StateFormula::Kind::Atom:
            if (reads_timed(*phi.atom_, m)) {
                throw Error("nested checking requires discrete-state atoms");
            }
            return;
        case StateFormula::Kind::Prob:
            if (reads_timed(*phi.inner_->goal, m) ||
                (phi.inner_->hold && reads_timed(*phi.inner_->hold, m))) {
                throw Error("the nested path formula must use discrete-state atoms");
            }
            return;
        case StateFormula::Kind::Not:
            check_formula(*phi.a_);
            return;
        case StateFormula::Kind::And:
        case StateFormula::Kind::Or:
            check_formula(*phi.a_);
            check_formula(*phi.b_);
            return;
        }
    }

    bool eval_formula(const StateFormula& phi, const eda::NetworkState& s) {
        switch (phi.kind) {
        case StateFormula::Kind::Atom:
            return net_.eval_global(s, *phi.atom_);
        case StateFormula::Kind::Prob:
            return eval_prob(phi, s);
        case StateFormula::Kind::Not:
            return !eval_formula(*phi.a_, s);
        case StateFormula::Kind::And:
            return eval_formula(*phi.a_, s) && eval_formula(*phi.b_, s);
        case StateFormula::Kind::Or:
            return eval_formula(*phi.a_, s) || eval_formula(*phi.b_, s);
        }
        return false;
    }

    bool eval_prob(const StateFormula& phi, const eda::NetworkState& s) {
        auto& memo = memos_[phi.inner_.get()];
        const eda::DiscreteKey key = keys_.key_of(s);
        if (const auto it = memo.find(key); it != memo.end()) {
            ++result_.memo_hits;
            return it->second;
        }
        ++result_.inner_tests;
        // Sub-simulation from this state: an SPRT at the node's threshold.
        // The inner clock starts at 0 (bounds are relative to the query
        // instant); this is sound because the model is untimed.
        eda::NetworkState start = s;
        start.time = 0.0;
        const stat::Sprt sprt(phi.threshold_, phi.indifference_, phi.delta_);
        const auto strat = make_strategy(options_.inner_strategy);
        const PathGenerator gen(net_, *phi.inner_, *strat, options_.sim);
        Rng rng = master_.split(1'000'000 + result_.inner_tests);
        stat::BernoulliSummary summary;
        while (summary.count < options_.inner_max_samples && !sprt.should_stop(summary)) {
            eda::NetworkState copy = start;
            std::size_t steps = 0;
            for (;;) {
                if (const auto out = gen.step(copy, rng, steps)) {
                    summary.add(out->satisfied);
                    break;
                }
            }
        }
        result_.inner_paths += summary.count;
        const int verdict = sprt.verdict(summary);
        if (verdict == 0) {
            throw Error("nested SPRT was inconclusive after " +
                        std::to_string(summary.count) +
                        " paths; widen the indifference region");
        }
        const bool value = verdict > 0;
        memo.emplace(std::move(key), value);
        return value;
    }

    const eda::Network& net_;
    const NestedOptions& options_;
    const Rng master_;
    KeyMaker keys_;
    NestedResult result_;
    std::unordered_map<const void*,
                       std::unordered_map<eda::DiscreteKey, bool, eda::DiscreteKeyHash>>
        memos_;
};

NestedResult estimate_nested(const eda::Network& net, const StateFormula& phi,
                             double bound, std::uint64_t seed,
                             const NestedOptions& options) {
    if (!(bound > 0.0)) throw Error("nested property bound must be positive");
    NestedChecker checker(net, options, seed);
    return checker.run(phi, bound);
}

} // namespace slimsim::sim
