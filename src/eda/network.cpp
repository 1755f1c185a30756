#include "eda/network.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>

#include "expr/timeline.hpp"
#include "slim/parser.hpp"
#include "slim/validate.hpp"

namespace slimsim::eda {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

using slim::InstAssign;
using slim::Instance;
using slim::InstProcess;
using slim::InstTransition;
using slim::TriggerClass;
} // namespace

ElementIndex::ElementIndex(const InstanceModel& m) {
    mode_base_.reserve(m.processes.size());
    transition_base_.reserve(m.processes.size());
    for (const auto& p : m.processes) {
        mode_base_.push_back(static_cast<std::uint32_t>(mode_names_.size()));
        transition_base_.push_back(static_cast<std::uint32_t>(transition_names_.size()));
        for (const auto& loc : p.locations) mode_names_.push_back(p.name + "." + loc.name);
        for (const auto& t : p.transitions) {
            std::string name = p.name + ": " + p.locations[static_cast<std::size_t>(t.src)].name +
                               " -> " + p.locations[static_cast<std::size_t>(t.dst)].name;
            if (!t.label.empty()) name += " [" + t.label + "]";
            transition_names_.push_back(std::move(name));
            transition_dst_mode_.push_back(mode_base_.back() + static_cast<std::uint32_t>(t.dst));
            transition_error_.push_back(p.is_error ? 1 : 0);
        }
    }
    // Two transitions of one process may share src, dst and label (differing
    // only in guards); qualify repeated names by id so every name is unique
    // (Prometheus series keyed by name must not collide).
    std::map<std::string, std::uint32_t> uses;
    for (auto& name : transition_names_) ++uses[name];
    std::map<std::string, std::uint32_t> next;
    for (std::size_t id = 0; id < transition_names_.size(); ++id) {
        std::string& name = transition_names_[id];
        if (uses[name] > 1) name += " #" + std::to_string(++next[name]);
    }
    action_names_.reserve(m.actions.size());
    for (const auto& a : m.actions) action_names_.push_back("sync " + a.name);
}

const std::string& ElementIndex::alternative_name(std::uint32_t id) const {
    if (id < transition_count()) return transition_names_[id];
    return action_names_[id - transition_count()];
}

Network::Network(std::shared_ptr<const InstanceModel> model)
    : Network(compile_model(std::move(model))) {}

Network::Network(CompiledModelPtr compiled)
    : model_(compiled->model_ptr()), cm_(std::move(compiled)) {
    // Without mode-gated subcomponents every instance is active in every
    // state, so the per-step activation fixpoint is a no-op and is skipped.
    static_activation_ =
        std::none_of(model_->instances.begin(), model_->instances.end(),
                     [](const Instance& i) { return !i.parent_modes.empty(); });
}

SimScratch* Network::legacy_scratch() const {
    if (reference_) return nullptr;
    thread_local SimScratch scratch;
    scratch.bind(*cm_);
    return &scratch;
}

NetworkState Network::initial_state() const {
    NetworkState s;
    s.locations.reserve(model_->processes.size());
    for (const InstProcess& p : model_->processes) s.locations.push_back(p.initial_location);
    s.values = model_->initial_valuation();
    s.active.assign(model_->instances.size(), 1);
    for (std::size_t i = 0; i < model_->instances.size(); ++i) {
        const Instance& inst = model_->instances[i];
        if (inst.parent < 0) continue;
        const auto parent = static_cast<std::size_t>(inst.parent);
        bool a = s.active[parent] != 0;
        if (a && !inst.parent_modes.empty()) {
            const int loc = s.locations[static_cast<std::size_t>(
                model_->instances[parent].process)];
            a = std::binary_search(inst.parent_modes.begin(), inst.parent_modes.end(), loc);
        }
        s.active[i] = a ? 1 : 0;
    }
    settle(s, legacy_scratch());
    return s;
}

const NetworkState& Network::initial_state(SimScratch& scratch) const {
    scratch.bind(*cm_);
    if (!scratch.initial) scratch.initial = initial_state();
    return *scratch.initial;
}

NetworkState Network::forced_initial_state(
    std::span<const std::pair<ProcessId, int>> forced) const {
    NetworkState s = initial_state();
    for (const auto& [proc, loc] : forced) {
        SLIMSIM_ASSERT(proc >= 0 &&
                       static_cast<std::size_t>(proc) < model_->processes.size());
        SLIMSIM_ASSERT(loc >= 0 &&
                       static_cast<std::size_t>(loc) <
                           model_->processes[static_cast<std::size_t>(proc)].locations.size());
        s.locations[static_cast<std::size_t>(proc)] = loc;
    }
    settle(s, legacy_scratch());
    return s;
}

// --- timing analysis -------------------------------------------------------------

double Network::invariant_horizon_impl(const NetworkState& s, SimScratch* scratch) const {
    if (scratch != nullptr) {
        // The interned config lists exactly the active processes' invariants
        // (process order), so the per-process sweep below collapses to them.
        const InternedConfig& cfg = scratch->interner.intern(s, *cm_);
        double horizon = kInf;
        for (const expr::Program* inv : cfg.invariants) {
            const auto prefix = inv->satisfying_times(s.values, cfg.rates, scratch->eval)
                                    .prefix_horizon();
            if (!prefix) return 0.0; // invariant already violated: urgent
            horizon = std::min(horizon, *prefix);
            if (horizon == 0.0) return 0.0;
        }
        return horizon;
    }
    std::vector<double> rates_vec;
    compute_rates(s, rates_vec);
    const std::span<const double> rates = rates_vec;
    double horizon = kInf;
    for (std::size_t p = 0; p < model_->processes.size(); ++p) {
        const InstProcess& proc = model_->processes[p];
        if (!s.instance_active(static_cast<std::size_t>(proc.instance))) continue;
        const auto loc = static_cast<std::size_t>(s.locations[p]);
        if (proc.locations[loc].invariant == nullptr) continue;
        const expr::TimedEvalContext ctx{s.values, *proc.bindings, rates};
        const IntervalSet sat = expr::satisfying_times(*proc.locations[loc].invariant, ctx);
        const auto prefix = sat.prefix_horizon();
        if (!prefix) return 0.0; // invariant already violated: urgent
        horizon = std::min(horizon, *prefix);
        if (horizon == 0.0) return 0.0;
    }
    return horizon;
}

double Network::invariant_horizon(const NetworkState& s) const {
    return invariant_horizon_impl(s, legacy_scratch());
}

double Network::invariant_horizon(const NetworkState& s, SimScratch& scratch) const {
    scratch.bind(*cm_);
    return invariant_horizon_impl(s, &scratch);
}

IntervalSet Network::guard_times(const NetworkState& s, std::span<const double> rates,
                                 ProcessId p, int t, SimScratch* scratch) const {
    const InstProcess& proc = model_->processes[static_cast<std::size_t>(p)];
    if (scratch == nullptr) {
        const InstTransition& tr = proc.transitions[static_cast<std::size_t>(t)];
        if (tr.guard == nullptr) return IntervalSet::all();
        const expr::TimedEvalContext ctx{s.values, *proc.bindings, rates};
        return expr::satisfying_times(*tr.guard, ctx);
    }
    const expr::ProgramPtr& guard =
        cm_->process(p).transitions[static_cast<std::size_t>(t)].guard;
    if (guard == nullptr) return IntervalSet::all();
    return guard->satisfying_times(s.values, rates, scratch->eval);
}

void Network::candidates_impl(const NetworkState& s, double horizon, SimScratch* scratch,
                              std::vector<Candidate>& out) const {
    std::vector<double> rates_vec;
    std::span<const double> rates;
    const InternedConfig* cfg = nullptr;
    if (scratch == nullptr) {
        compute_rates(s, rates_vec);
        rates = rates_vec;
    } else {
        cfg = &scratch->interner.intern(s, *cm_);
        rates = cfg->rates;
    }
    const IntervalSet window(0.0, horizon);
    out.clear();

    // Internal transitions and broadcast sends. The interned tau list is
    // exactly the legacy filter below applied in process-then-outgoing order,
    // precomputed once per discrete configuration.
    if (cfg != nullptr) {
        for (const auto& tc : cfg->taus) {
            IntervalSet set =
                (tc.guard != nullptr
                     ? tc.guard->satisfying_times(s.values, rates, scratch->eval)
                     : IntervalSet::all())
                    .intersect(window);
            if (set.empty()) continue;
            Candidate c;
            c.kind = tc.kind;
            c.process = tc.process;
            c.transition = tc.transition;
            c.enabled = std::move(set);
            out.push_back(std::move(c));
        }
    } else {
        for (std::size_t p = 0; p < model_->processes.size(); ++p) {
            const InstProcess& proc = model_->processes[p];
            if (!s.instance_active(static_cast<std::size_t>(proc.instance))) continue;
            for (const int t : outgoing(s, static_cast<ProcessId>(p))) {
                const InstTransition& tr = proc.transitions[static_cast<std::size_t>(t)];
                if (tr.markovian() || tr.trigger != TriggerClass::Normal ||
                    tr.receive_only() || tr.action != slim::kTau) {
                    continue;
                }
                IntervalSet set =
                    guard_times(s, rates, static_cast<ProcessId>(p), t, scratch)
                        .intersect(window);
                if (set.empty()) continue;
                Candidate c;
                c.kind = tr.channel == slim::kNoChannel
                             ? Candidate::Kind::Tau
                             : Candidate::Kind::BroadcastSend;
                c.process = static_cast<ProcessId>(p);
                c.transition = t;
                c.enabled = std::move(set);
                out.push_back(std::move(c));
            }
        }
    }

    // Synchronizations: every active participant must be ready, and at least
    // one sender must be among the ready transitions.
    for (std::size_t a = 0; a < model_->actions.size(); ++a) {
        const auto& def = model_->actions[a];
        IntervalSet inter = window;
        IntervalSet senders;
        bool any_participant = false;
        for (const ProcessId pid : def.participants) {
            const InstProcess& proc = model_->processes[static_cast<std::size_t>(pid)];
            if (!s.instance_active(static_cast<std::size_t>(proc.instance))) continue;
            any_participant = true;
            IntervalSet mine;
            for (const int t : outgoing(s, pid)) {
                const InstTransition& tr = proc.transitions[static_cast<std::size_t>(t)];
                if (tr.action != static_cast<ActionId>(a) ||
                    tr.trigger != TriggerClass::Normal) {
                    continue;
                }
                IntervalSet g = guard_times(s, rates, pid, t, scratch);
                if (tr.role == slim::PortDir::Out) senders = senders.unite(g);
                mine = mine.unite(std::move(g));
            }
            inter = inter.intersect(mine);
            if (inter.empty()) break;
        }
        if (!any_participant) continue;
        IntervalSet set = inter.intersect(senders);
        if (set.empty()) continue;
        Candidate c;
        c.kind = Candidate::Kind::Sync;
        c.action = static_cast<ActionId>(a);
        c.enabled = std::move(set);
        out.push_back(std::move(c));
    }
}

std::vector<Candidate> Network::candidates(const NetworkState& s, double horizon) const {
    std::vector<Candidate> out;
    candidates_impl(s, horizon, legacy_scratch(), out);
    return out;
}

std::span<const Candidate> Network::candidates(const NetworkState& s, double horizon,
                                               SimScratch& scratch) const {
    scratch.bind(*cm_);
    candidates_impl(s, horizon, &scratch, scratch.candidates);
    return scratch.candidates;
}

std::vector<MarkovianRate> Network::markovian_rates(const NetworkState& s) const {
    if (SimScratch* scratch = legacy_scratch()) {
        const auto span = markovian_rates(s, *scratch);
        return {span.begin(), span.end()};
    }
    std::vector<MarkovianRate> out;
    for (std::size_t p = 0; p < model_->processes.size(); ++p) {
        const InstProcess& proc = model_->processes[p];
        if (!s.instance_active(static_cast<std::size_t>(proc.instance))) continue;
        double total = 0.0;
        for (const int t : outgoing(s, static_cast<ProcessId>(p))) {
            total += proc.transitions[static_cast<std::size_t>(t)].rate;
        }
        if (total > 0.0) out.push_back({static_cast<ProcessId>(p), total});
    }
    return out;
}

std::span<const MarkovianRate> Network::markovian_rates(const NetworkState& s,
                                                        SimScratch& scratch) const {
    scratch.bind(*cm_);
    return scratch.interner.intern(s, *cm_).markov;
}

std::span<const double> Network::rates_of(const NetworkState& s,
                                          SimScratch& scratch) const {
    scratch.bind(*cm_);
    return scratch.interner.intern(s, *cm_).rates;
}

void Network::elapse(NetworkState& s, double d) const {
    SLIMSIM_ASSERT(d >= 0.0);
    if (d == 0.0) return;
    for (std::size_t p = 0; p < model_->processes.size(); ++p) {
        const InstProcess& proc = model_->processes[p];
        if (!s.instance_active(static_cast<std::size_t>(proc.instance))) continue;
        const auto& loc = proc.locations[static_cast<std::size_t>(s.locations[p])];
        for (const auto& [var, slope] : loc.rates) {
            s.values[var] = Value(s.values[var].as_real() + slope * d);
        }
    }
    s.time += d;
}

bool Network::enabled_now_impl(const NetworkState& s, ProcessId p, int t,
                               SimScratch* scratch) const {
    if (scratch == nullptr) {
        const InstProcess& proc = model_->processes[static_cast<std::size_t>(p)];
        const InstTransition& tr = proc.transitions[static_cast<std::size_t>(t)];
        if (tr.guard == nullptr) return true;
        return expr::testing::reference_evaluate(
                   *tr.guard, expr::EvalContext{s.values, *proc.bindings})
            .as_bool();
    }
    const expr::ProgramPtr& guard =
        cm_->process(p).transitions[static_cast<std::size_t>(t)].guard;
    if (guard == nullptr) return true;
    return guard->run_bool(s.values, scratch->eval);
}

bool Network::enabled_now(const NetworkState& s, ProcessId p, int t) const {
    return enabled_now_impl(s, p, t, legacy_scratch());
}

bool Network::enabled_now(const NetworkState& s, ProcessId p, int t,
                          SimScratch& scratch) const {
    scratch.bind(*cm_);
    return enabled_now_impl(s, p, t, &scratch);
}

bool Network::eval_global(const NetworkState& s, const expr::Expr& e) const {
    if (reference_) {
        return expr::testing::reference_evaluate(e, expr::EvalContext{s.values, {}})
            .as_bool();
    }
    return expr::evaluate_bool(e, expr::EvalContext{s.values, {}});
}

void Network::compute_rates(const NetworkState& s, std::vector<double>& rates) const {
    rates.assign(model_->vars.size(), 0.0);
    for (std::size_t p = 0; p < model_->processes.size(); ++p) {
        const InstProcess& proc = model_->processes[p];
        if (!s.instance_active(static_cast<std::size_t>(proc.instance))) continue;
        const auto& loc = proc.locations[static_cast<std::size_t>(s.locations[p])];
        for (const auto& [var, slope] : loc.rates) rates[var] = slope;
    }
}

std::span<const int> Network::outgoing(const NetworkState& s, ProcessId p) const {
    return cm_->process(p)
        .locations[static_cast<std::size_t>(s.locations[static_cast<std::size_t>(p)])]
        .outgoing;
}

// --- execution ------------------------------------------------------------------

namespace {

/// Writes a value into a variable, enforcing integer ranges.
void write_var(const InstanceModel& m, NetworkState& s, VarId var, const Value& raw) {
    const auto& def = m.vars[var];
    const Value v = raw.coerce_to(def.type);
    if (def.type.is_int() && def.type.lo) {
        const std::int64_t i = v.as_int();
        if (i < *def.type.lo || i > *def.type.hi) {
            throw Error("assignment of " + v.to_string() + " to `" + def.full_name +
                        "` violates its range " + def.type.to_string());
        }
    }
    s.values[var] = v;
}

/// Writes through the variable's compile-time store: a value that already
/// has the variable's representation and range is stored as is (exactly
/// what write_var would store); anything else goes through write_var.
void store(const CompiledModel& cm, NetworkState& s, VarId var, const Value& v) {
    if (cm.store(var).holds(v)) {
        s.values[var] = v;
    } else {
        write_var(cm.model(), s, var, v);
    }
}

/// Applies pre-evaluated effect writes in order: through the stores on the
/// compiled path, through write_var in reference mode.
void apply_writes(const CompiledModel& cm, NetworkState& s,
                  std::span<const std::pair<VarId, Value>> writes, bool compiled) {
    for (const auto& [var, val] : writes) {
        if (compiled) {
            store(cm, s, var, val);
        } else {
            write_var(cm.model(), s, var, val);
        }
    }
}

} // namespace

void Network::apply_injections_for_current_states(NetworkState& s) const {
    for (const slim::Injection& inj : model_->injections) {
        if (s.locations[static_cast<std::size_t>(inj.process)] == inj.state) {
            s.values[inj.target] = inj.value;
        }
    }
}

void Network::run_flows(NetworkState& s) const {
    for (const slim::InstFlow& f : model_->flows) {
        if (!s.instance_active(static_cast<std::size_t>(f.owner))) continue;
        if (f.gate_process >= 0 && !f.gate_locations.empty()) {
            const int loc = s.locations[static_cast<std::size_t>(f.gate_process)];
            if (!std::binary_search(f.gate_locations.begin(), f.gate_locations.end(), loc)) {
                continue;
            }
        }
        write_var(*model_, s, f.target,
                  expr::testing::reference_evaluate(
                      *f.value, expr::EvalContext{s.values, *f.bindings}));
    }
}

void Network::settle(NetworkState& s, SimScratch* scratch) const {
    // Injected failure values must both feed the data flows (a failed
    // sensor's wrong reading propagates downstream) and override flows into
    // injected targets (a failed filter's zero output wins over its own
    // flow), hence the inject / flow / inject sandwich.
    if (scratch == nullptr) {
        apply_injections_for_current_states(s);
        run_flows(s);
        apply_injections_for_current_states(s);
        return;
    }
    // The interned configuration lists exactly the injections and flows the
    // full sweeps above would apply, in the same order.
    const InternedConfig& cfg = scratch->interner.intern(s, *cm_);
    const auto inject = [&] {
        for (const std::uint32_t i : cfg.injections) {
            const slim::Injection& inj = model_->injections[i];
            s.values[inj.target] = inj.value;
        }
    };
    inject();
    for (const std::uint32_t i : cfg.flows) {
        const CompiledFlow& f = cm_->flow(i);
        if (f.source != CompiledFlow::kNoSource) {
            store(*cm_, s, f.target, s.values[f.source]);
        } else {
            store(*cm_, s, f.target, f.program->run(s.values, scratch->eval));
        }
    }
    inject();
}

/// Fires one transition in isolation: effects evaluated against the current
/// valuation, location change, timer reset, injection restore on leaving an
/// injected error state. Used for activation cascades; the synchronized main
/// step pre-evaluates effects jointly in apply_firing.
void Network::fire_one(NetworkState& s, ProcessId p, int t, StepInfo* info,
                       SimScratch* scratch) const {
    const InstProcess& proc = model_->processes[static_cast<std::size_t>(p)];
    const InstTransition& tr = proc.transitions[static_cast<std::size_t>(t)];
    const int old_loc = s.locations[static_cast<std::size_t>(p)];

    std::vector<std::pair<VarId, Value>> writes;
    writes.reserve(tr.effects.size());
    if (scratch == nullptr) {
        const expr::EvalContext ctx{s.values, *proc.bindings};
        for (const InstAssign& a : tr.effects) {
            writes.emplace_back((*proc.bindings)[a.target],
                                expr::testing::reference_evaluate(*a.value, ctx));
        }
    } else {
        const CompiledTransition& ct =
            cm_->process(p).transitions[static_cast<std::size_t>(t)];
        for (const auto& [target, prog] : ct.effects) {
            writes.emplace_back(target, prog->run(s.values, scratch->eval));
        }
    }
    s.locations[static_cast<std::size_t>(p)] = tr.dst;
    s.values[proc.timer] = Value(0.0);
    apply_writes(*cm_, s, writes, scratch != nullptr);
    if (proc.is_error && tr.dst != old_loc) {
        for (const slim::Injection& inj : model_->injections) {
            if (inj.process == p && inj.state == old_loc) s.values[inj.target] = inj.restore;
        }
    }
    if (info != nullptr) info->fired.emplace_back(p, t);
}

void Network::recompute_activation(NetworkState& s, StepInfo* info,
                                   SimScratch* scratch) const {
    if (static_activation_) return;
    for (int round = 0; round < 64; ++round) {
        std::vector<char> next(model_->instances.size(), 1);
        for (std::size_t i = 0; i < model_->instances.size(); ++i) {
            const Instance& inst = model_->instances[i];
            if (inst.parent < 0) continue;
            const auto parent = static_cast<std::size_t>(inst.parent);
            // Instances are ordered parents-first, so next[parent] already
            // reflects this round's cascaded deactivations.
            bool a = next[parent] != 0;
            if (a && !inst.parent_modes.empty()) {
                const int loc = s.locations[static_cast<std::size_t>(
                    model_->instances[parent].process)];
                a = std::binary_search(inst.parent_modes.begin(), inst.parent_modes.end(),
                                       loc);
            }
            next[i] = a ? 1 : 0;
        }
        bool changed = false;
        std::vector<std::size_t> activated;
        std::vector<std::size_t> deactivated;
        for (std::size_t i = 0; i < model_->instances.size(); ++i) {
            if (next[i] == s.active[i]) continue;
            changed = true;
            (next[i] != 0 ? activated : deactivated).push_back(i);
        }
        if (!changed) return;

        // Deactivation transitions fire before the instance freezes.
        for (const std::size_t i : deactivated) {
            fire_trigger_class(s, i, TriggerClass::OnDeactivate, info, scratch);
        }
        s.active = std::move(next);
        for (const std::size_t i : activated) {
            fire_trigger_class(s, i, TriggerClass::OnActivate, info, scratch);
        }
    }
    throw Error("activation/deactivation cascade did not stabilize (model error)");
}

StepInfo Network::apply_firing_impl(NetworkState& s,
                                    const std::vector<std::pair<ProcessId, int>>& firing,
                                    SimScratch* scratch) const {
    StepInfo info;
    // Synchronized semantics: all effect right-hand sides are evaluated
    // against the pre-state, then applied (in process order on conflicts).
    std::vector<std::pair<VarId, Value>> writes_local;
    std::vector<std::pair<VarId, Value>>& writes =
        scratch != nullptr ? scratch->writes : writes_local;
    writes.clear();
    for (const auto& [p, t] : firing) {
        const InstProcess& proc = model_->processes[static_cast<std::size_t>(p)];
        const InstTransition& tr = proc.transitions[static_cast<std::size_t>(t)];
        if (scratch == nullptr) {
            const expr::EvalContext ctx{s.values, *proc.bindings};
            for (const InstAssign& a : tr.effects) {
                writes.emplace_back((*proc.bindings)[a.target],
                                    expr::testing::reference_evaluate(*a.value, ctx));
            }
        } else {
            const CompiledTransition& ct =
                cm_->process(p).transitions[static_cast<std::size_t>(t)];
            for (const auto& [target, prog] : ct.effects) {
                writes.emplace_back(target, prog->run(s.values, scratch->eval));
            }
        }
    }
    std::vector<std::pair<ProcessId, int>> left; // (error process, old location)
    for (const auto& [p, t] : firing) {
        const InstProcess& proc = model_->processes[static_cast<std::size_t>(p)];
        const InstTransition& tr = proc.transitions[static_cast<std::size_t>(t)];
        const int old_loc = s.locations[static_cast<std::size_t>(p)];
        s.locations[static_cast<std::size_t>(p)] = tr.dst;
        s.values[proc.timer] = Value(0.0);
        if (proc.is_error && tr.dst != old_loc) left.emplace_back(p, old_loc);
        info.fired.emplace_back(p, t);
    }
    apply_writes(*cm_, s, writes, scratch != nullptr);
    for (const auto& [p, old_loc] : left) {
        for (const slim::Injection& inj : model_->injections) {
            if (inj.process == p && inj.state == old_loc) s.values[inj.target] = inj.restore;
        }
    }
    recompute_activation(s, &info, scratch);
    settle(s, scratch);
    return info;
}

StepInfo Network::apply_firing(NetworkState& s,
                               const std::vector<std::pair<ProcessId, int>>& firing,
                               SimScratch& scratch) const {
    scratch.bind(*cm_);
    return apply_firing_impl(s, firing, &scratch);
}

StepInfo Network::execute_impl(NetworkState& s, const Candidate& c, Rng& rng,
                               SimScratch* scratch) const {
    std::vector<std::pair<ProcessId, int>> firing_local;
    std::vector<std::pair<ProcessId, int>>& firing =
        scratch != nullptr ? scratch->firing : firing_local;
    firing.clear();
    std::vector<int> ready_local;
    std::vector<int>& ready = scratch != nullptr ? scratch->ready : ready_local;
    switch (c.kind) {
    case Candidate::Kind::Tau:
        SLIMSIM_ASSERT(enabled_now_impl(s, c.process, c.transition, scratch));
        firing.emplace_back(c.process, c.transition);
        break;
    case Candidate::Kind::BroadcastSend: {
        SLIMSIM_ASSERT(enabled_now_impl(s, c.process, c.transition, scratch));
        firing.emplace_back(c.process, c.transition);
        const InstProcess& sender = model_->processes[static_cast<std::size_t>(c.process)];
        const ChannelId ch =
            sender.transitions[static_cast<std::size_t>(c.transition)].channel;
        for (const ProcessId peer : sender.propagation_peers) {
            const InstProcess& proc = model_->processes[static_cast<std::size_t>(peer)];
            if (!s.instance_active(static_cast<std::size_t>(proc.instance))) continue;
            ready.clear();
            for (const int t : outgoing(s, peer)) {
                const InstTransition& tr = proc.transitions[static_cast<std::size_t>(t)];
                if (tr.channel == ch && tr.role == slim::PortDir::In &&
                    enabled_now_impl(s, peer, t, scratch)) {
                    ready.push_back(t);
                }
            }
            if (!ready.empty()) {
                firing.emplace_back(peer, ready[rng.uniform_index(ready.size())]);
            }
        }
        break;
    }
    case Candidate::Kind::Sync: {
        const auto& def = model_->actions[static_cast<std::size_t>(c.action)];
        for (const ProcessId pid : def.participants) {
            const InstProcess& proc = model_->processes[static_cast<std::size_t>(pid)];
            if (!s.instance_active(static_cast<std::size_t>(proc.instance))) continue;
            ready.clear();
            for (const int t : outgoing(s, pid)) {
                const InstTransition& tr = proc.transitions[static_cast<std::size_t>(t)];
                if (tr.action == c.action && tr.trigger == TriggerClass::Normal &&
                    enabled_now_impl(s, pid, t, scratch)) {
                    ready.push_back(t);
                }
            }
            SLIMSIM_ASSERT(!ready.empty()); // the strategy chose an enabled time
            firing.emplace_back(pid, ready[rng.uniform_index(ready.size())]);
        }
        break;
    }
    }
    return apply_firing_impl(s, firing, scratch);
}

StepInfo Network::execute(NetworkState& s, const Candidate& c, Rng& rng) const {
    return execute_impl(s, c, rng, legacy_scratch());
}

StepInfo Network::execute(NetworkState& s, const Candidate& c, Rng& rng,
                          SimScratch& scratch) const {
    scratch.bind(*cm_);
    return execute_impl(s, c, rng, &scratch);
}

StepInfo Network::execute_markovian_impl(NetworkState& s, ProcessId process, Rng& rng,
                                         SimScratch* scratch) const {
    const InstProcess& proc = model_->processes[static_cast<std::size_t>(process)];
    double total = 0.0;
    if (scratch != nullptr) {
        total = cm_->process(process)
                    .locations[static_cast<std::size_t>(
                        s.locations[static_cast<std::size_t>(process)])]
                    .markov_total;
    } else {
        for (const int t : outgoing(s, process)) {
            total += proc.transitions[static_cast<std::size_t>(t)].rate;
        }
    }
    SLIMSIM_ASSERT(total > 0.0);
    double pick = rng.uniform01() * total;
    int chosen = -1;
    for (const int t : outgoing(s, process)) {
        const double r = proc.transitions[static_cast<std::size_t>(t)].rate;
        if (r <= 0.0) continue;
        chosen = t;
        if (pick <= r) break;
        pick -= r;
    }
    SLIMSIM_ASSERT(chosen >= 0);
    std::vector<std::pair<ProcessId, int>> firing_local;
    std::vector<std::pair<ProcessId, int>>& firing =
        scratch != nullptr ? scratch->firing : firing_local;
    firing.clear();
    firing.emplace_back(process, chosen);
    return apply_firing_impl(s, firing, scratch);
}

StepInfo Network::execute_markovian(NetworkState& s, ProcessId process, Rng& rng) const {
    return execute_markovian_impl(s, process, rng, legacy_scratch());
}

StepInfo Network::execute_markovian(NetworkState& s, ProcessId process, Rng& rng,
                                    SimScratch& scratch) const {
    scratch.bind(*cm_);
    return execute_markovian_impl(s, process, rng, &scratch);
}

std::vector<Network::ResolvedMove>
Network::resolve_moves(const NetworkState& s, const Candidate& c, SimScratch& scratch) const {
    // Enumerates the per-process sub-choices of a candidate with their
    // equiprobable weights (exhaustive builder path; no time analysis here —
    // callers use this on untimed models where enabledness is immediate).
    std::vector<std::vector<std::pair<ProcessId, int>>> options; // per participant
    switch (c.kind) {
    case Candidate::Kind::Tau:
        options.push_back({{c.process, c.transition}});
        break;
    case Candidate::Kind::BroadcastSend: {
        options.push_back({{c.process, c.transition}});
        const InstProcess& sender = model_->processes[static_cast<std::size_t>(c.process)];
        const ChannelId ch =
            sender.transitions[static_cast<std::size_t>(c.transition)].channel;
        for (const ProcessId peer : sender.propagation_peers) {
            const InstProcess& proc = model_->processes[static_cast<std::size_t>(peer)];
            if (!s.instance_active(static_cast<std::size_t>(proc.instance))) continue;
            std::vector<std::pair<ProcessId, int>> mine;
            for (const int t : outgoing(s, peer)) {
                const InstTransition& tr = proc.transitions[static_cast<std::size_t>(t)];
                if (tr.channel == ch && tr.role == slim::PortDir::In &&
                    enabled_now(s, peer, t, scratch)) {
                    mine.emplace_back(peer, t);
                }
            }
            if (!mine.empty()) options.push_back(std::move(mine));
        }
        break;
    }
    case Candidate::Kind::Sync: {
        const auto& def = model_->actions[static_cast<std::size_t>(c.action)];
        for (const ProcessId pid : def.participants) {
            const InstProcess& proc = model_->processes[static_cast<std::size_t>(pid)];
            if (!s.instance_active(static_cast<std::size_t>(proc.instance))) continue;
            std::vector<std::pair<ProcessId, int>> mine;
            for (const int t : outgoing(s, pid)) {
                const InstTransition& tr = proc.transitions[static_cast<std::size_t>(t)];
                if (tr.action == c.action && tr.trigger == TriggerClass::Normal &&
                    enabled_now(s, pid, t, scratch)) {
                    mine.emplace_back(pid, t);
                }
            }
            SLIMSIM_ASSERT(!mine.empty());
            options.push_back(std::move(mine));
        }
        break;
    }
    }
    std::vector<ResolvedMove> moves;
    moves.push_back({{}, 1.0});
    for (const auto& opts : options) {
        std::vector<ResolvedMove> next;
        next.reserve(moves.size() * opts.size());
        const double w = 1.0 / static_cast<double>(opts.size());
        for (const auto& m : moves) {
            for (const auto& o : opts) {
                ResolvedMove nm = m;
                nm.firing.push_back(o);
                nm.probability *= w;
                next.push_back(std::move(nm));
            }
        }
        moves = std::move(next);
    }
    return moves;
}

// --- activation trigger firing helper ----------------------------------------

void Network::fire_trigger_class(NetworkState& s, std::size_t instance, TriggerClass tc,
                                 StepInfo* info, SimScratch* scratch) const {
    const Instance& inst = model_->instances[instance];
    for (const ProcessId pid : {inst.process, inst.error_process}) {
        if (pid < 0) continue;
        const InstProcess& proc = model_->processes[static_cast<std::size_t>(pid)];
        for (const int t : outgoing(s, pid)) {
            const InstTransition& tr = proc.transitions[static_cast<std::size_t>(t)];
            if (tr.trigger == tc && enabled_now_impl(s, pid, t, scratch)) {
                fire_one(s, pid, t, info, scratch);
                break; // deterministic: first enabled in declaration order
            }
        }
    }
}

// --- pipeline helpers -----------------------------------------------------------

std::shared_ptr<const InstanceModel> load_instance_model(std::string_view source,
                                                         std::string filename,
                                                         LoadPhases* phases) {
    const auto t0 = std::chrono::steady_clock::now();
    auto resolved = std::make_shared<slim::ResolvedModel>(
        slim::resolve(slim::parse_model(source, std::move(filename))));
    const auto t1 = std::chrono::steady_clock::now();
    auto model = std::make_shared<InstanceModel>(slim::instantiate(std::move(resolved)));
    slim::validate_or_throw(*model);
    if (phases != nullptr) {
        const auto t2 = std::chrono::steady_clock::now();
        phases->parse_seconds = std::chrono::duration<double>(t1 - t0).count();
        phases->instantiate_seconds = std::chrono::duration<double>(t2 - t1).count();
    }
    return model;
}

Network build_network_from_source(std::string_view source, std::string filename,
                                  LoadPhases* phases) {
    return Network(load_instance_model(source, std::move(filename), phases));
}

Network build_network_from_file(const std::string& path, LoadPhases* phases) {
    std::ifstream in(path);
    if (!in) throw Error("cannot open model file `" + path + "`");
    std::ostringstream buf;
    buf << in.rdbuf();
    return build_network_from_source(buf.str(), path, phases);
}

} // namespace slimsim::eda
