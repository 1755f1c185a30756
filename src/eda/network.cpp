#include "eda/network.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>

#include "expr/eval.hpp"
#include "slim/parser.hpp"
#include "slim/validate.hpp"
#include "support/hash.hpp"

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

NetworkState Network::initial_state() const {
    SimScratch scratch;
    return initial_state(scratch);
}

const NetworkState& Network::initial_state(SimScratch& scratch) const {
    scratch.bind(*cm_);
    if (scratch.initial) return *scratch.initial;
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
    settle(s, {}, scratch);
    scratch.initial = std::move(s);
    return *scratch.initial;
}

NetworkState Network::forced_initial_state(
    std::span<const std::pair<ProcessId, int>> forced) const {
    SimScratch scratch;
    NetworkState s = initial_state(scratch);
    for (const auto& [proc, loc] : forced) {
        SLIMSIM_ASSERT(proc >= 0 &&
                       static_cast<std::size_t>(proc) < model_->processes.size());
        SLIMSIM_ASSERT(loc >= 0 &&
                       static_cast<std::size_t>(loc) <
                           model_->processes[static_cast<std::size_t>(proc)].locations.size());
        s.locations[static_cast<std::size_t>(proc)] = loc;
    }
    settle(s, {}, scratch);
    return s;
}

// --- timing analysis -------------------------------------------------------------

double Network::invariant_horizon(const NetworkState& s, SimScratch& scratch) const {
    scratch.bind(*cm_);
    // The interned config lists exactly the active processes' invariants
    // (process order).
    const InternedConfig& cfg = scratch.interner.intern(s, *cm_);
    double horizon = kInf;
    for (const expr::Program* inv : cfg.invariants) {
        const auto prefix =
            inv->satisfying_times(s.values, cfg.rates, scratch.eval).prefix_horizon();
        if (!prefix) return 0.0; // invariant already violated: urgent
        horizon = std::min(horizon, *prefix);
        if (horizon == 0.0) return 0.0;
    }
    return horizon;
}

IntervalSet Network::guard_times(const NetworkState& s, std::span<const double> rates,
                                 ProcessId p, int t, SimScratch& scratch) const {
    const expr::ProgramPtr& guard =
        cm_->process(p).transitions[static_cast<std::size_t>(t)].guard;
    if (guard == nullptr) return IntervalSet::all();
    return guard->satisfying_times(s.values, rates, scratch.eval);
}

std::span<const Candidate> Network::candidates(const NetworkState& s, double horizon,
                                               SimScratch& scratch) const {
    scratch.bind(*cm_);
    const InternedConfig& cfg = scratch.interner.intern(s, *cm_);
    const std::span<const double> rates = cfg.rates;
    const IntervalSet window(0.0, horizon);
    std::vector<Candidate>& out = scratch.candidates;
    out.clear();

    // Internal transitions and broadcast sends: the interned tau list holds
    // the active processes' outgoing tau transitions that are neither
    // Markovian, activation-triggered nor receive-only, in process-then-
    // outgoing order, precomputed once per discrete configuration.
    for (const auto& tc : cfg.taus) {
        IntervalSet set = (tc.guard != nullptr
                               ? tc.guard->satisfying_times(s.values, rates, scratch.eval)
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

bool Network::enabled_now(const NetworkState& s, ProcessId p, int t,
                          SimScratch& scratch) const {
    scratch.bind(*cm_);
    const expr::ProgramPtr& guard =
        cm_->process(p).transitions[static_cast<std::size_t>(t)].guard;
    if (guard == nullptr) return true;
    return guard->run_bool(s.values, scratch.eval);
}

bool Network::eval_global(const NetworkState& s, const expr::Expr& e) const {
    return expr::evaluate_bool(e, expr::EvalContext{s.values, {}});
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

/// Applies pre-evaluated effect writes in order, marking their targets.
void apply_writes(const CompiledModel& cm, NetworkState& s,
                  std::span<const std::pair<VarId, Value>> writes, DirtySet& dirty) {
    for (const auto& [var, val] : writes) {
        store(cm, s, var, val);
        dirty.mark(var);
    }
}

/// Same representation and same bits (Value's == equates int 9 and real 9.0).
bool same_bits(const Value& a, const Value& b) {
    if (a.index() != b.index()) return false;
    if (a.is_bool()) return a.as_bool() == b.as_bool();
    if (a.is_int()) return a.as_int() == b.as_int();
    return double_bits(a.as_real()) == double_bits(b.as_real());
}

} // namespace

std::uint32_t Network::settle(NetworkState& s, std::span<const std::uint32_t> before,
                              SimScratch& scratch) const {
    // Injected failure values must both feed the data flows (a failed
    // sensor's wrong reading propagates downstream) and override flows into
    // injected targets (a failed filter's zero output wins over its own
    // flow), hence the inject / flow / inject sandwich. The interned
    // configuration lists exactly the injections of the current error
    // states and the flows of active, ungated-or-open owners, in model order.
    const std::uint32_t id = scratch.interner.intern_id(s, *cm_);
    const InternedConfig& cfg = scratch.interner.config(id);
    const auto inject = [&] {
        for (const std::uint32_t i : cfg.injections) {
            const slim::Injection& inj = model_->injections[i];
            s.values[inj.target] = inj.value;
        }
    };
    if (cfg.flows.empty()) { // nothing between the passes: one does both
        inject();
        return id;
    }
    // Only the flows a firing can have changed run; the others would
    // recompute, from the inputs they read last time, the value their
    // target still holds. A flow runs when it is not in `before` (the flows
    // s was last settled with; empty for a state never settled, so every
    // flow runs), when it is timed, or when its target or a read is dirty:
    // written by the firing (apply_firing, fire_one), changed by the first
    // inject pass, or the target of a flow that ran before it. An injected
    // target that relays flows is dirty in any case (CompiledModel::
    // relays_flows). Flows are in topological order, so one pass suffices.
    DirtySet& dirty = scratch.dirty;
    for (const std::uint32_t i : cfg.injections) {
        const slim::Injection& inj = model_->injections[i];
        Value& v = s.values[inj.target];
        if (cm_->relays_flows(inj.target) || !same_bits(v, inj.value)) dirty.mark(inj.target);
        v = inj.value;
    }
    // Interned lists are shared, so an equal span means no new flow; else
    // both lists ascend and one merge walk finds the new ones.
    const bool same_flows =
        before.data() == cfg.flows.data() && before.size() == cfg.flows.size();
    auto prev = before.begin();
    for (const std::uint32_t i : cfg.flows) {
        const CompiledFlow& f = cm_->flow(i);
        bool run = f.timed || dirty.test(f.target);
        if (!same_flows) {
            while (prev != before.end() && *prev < i) ++prev;
            run = run || prev == before.end() || *prev != i;
        }
        if (!run) {
            run = std::any_of(f.reads.begin(), f.reads.end(),
                              [&](VarId v) { return dirty.test(v); });
            if (!run) continue;
        }
        if (f.source != CompiledFlow::kNoSource) {
            store(*cm_, s, f.target, s.values[f.source]);
        } else {
            store(*cm_, s, f.target, f.program->run(s.values, scratch.eval));
        }
        dirty.mark(f.target);
    }
    inject();
    return id;
}

void Network::restore_injections(NetworkState& s, ProcessId p, int left,
                                 DirtySet& dirty) const {
    for (const slim::Injection& inj : model_->injections) {
        if (inj.process == p && inj.state == left) {
            s.values[inj.target] = inj.restore;
            dirty.mark(inj.target);
        }
    }
}

/// Fires one transition in isolation: effects evaluated against the current
/// valuation, location change, timer reset, injection restore on leaving an
/// injected error state. Used for activation cascades; the synchronized main
/// step pre-evaluates effects jointly in apply_firing.
void Network::fire_one(NetworkState& s, ProcessId p, int t, SimScratch& scratch) const {
    const InstProcess& proc = model_->processes[static_cast<std::size_t>(p)];
    const InstTransition& tr = proc.transitions[static_cast<std::size_t>(t)];
    const int old_loc = s.locations[static_cast<std::size_t>(p)];

    // apply_firing has applied its writes before any cascade fires.
    std::vector<std::pair<VarId, Value>>& writes = scratch.writes;
    writes.clear();
    const CompiledTransition& ct = cm_->process(p).transitions[static_cast<std::size_t>(t)];
    for (const auto& [target, prog] : ct.effects) {
        writes.emplace_back(target, prog->run(s.values, scratch.eval));
    }
    s.locations[static_cast<std::size_t>(p)] = tr.dst;
    s.values[proc.timer] = Value(0.0);
    scratch.dirty.mark(proc.timer);
    apply_writes(*cm_, s, writes, scratch.dirty);
    if (proc.is_error && tr.dst != old_loc) restore_injections(s, p, old_loc, scratch.dirty);
    scratch.fired.emplace_back(p, t);
}

void Network::recompute_activation(NetworkState& s, SimScratch& scratch) const {
    if (static_activation_) return;
    std::vector<char>& next = scratch.next_active;
    for (int round = 0; round < 64; ++round) {
        next.assign(model_->instances.size(), 1);
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
        if (next == s.active) return;

        // Deactivation transitions fire before the instance freezes, then
        // activations, each in index order; after the swap `next` holds the
        // previous activation.
        for (std::size_t i = 0; i < next.size(); ++i) {
            if (next[i] == 0 && s.active[i] != 0) {
                fire_trigger_class(s, i, TriggerClass::OnDeactivate, scratch);
            }
        }
        s.active.swap(next);
        for (std::size_t i = 0; i < next.size(); ++i) {
            if (s.active[i] != 0 && next[i] == 0) {
                fire_trigger_class(s, i, TriggerClass::OnActivate, scratch);
            }
        }
    }
    throw Error("activation/deactivation cascade did not stabilize (model error)");
}

StepInfo Network::apply_firing(NetworkState& s,
                               std::span<const std::pair<ProcessId, int>> firing,
                               SimScratch& scratch) const {
    scratch.bind(*cm_);
    // The flows s was settled with: the settle that ends the step runs only
    // those the firing can have changed. A model without flows skips the
    // lookup.
    const std::span<const std::uint32_t> before =
        model_->flows.empty() ? std::span<const std::uint32_t>()
                              : scratch.interner.intern(s, *cm_).flows;
    DirtySet& dirty = scratch.dirty;
    dirty.clear();
    std::vector<std::pair<ProcessId, int>>& fired = scratch.fired;
    fired.clear();
    // Synchronized semantics: all effect right-hand sides are evaluated
    // against the pre-state, then applied (in process order on conflicts).
    std::vector<std::pair<VarId, Value>>& writes = scratch.writes;
    writes.clear();
    for (const auto& [p, t] : firing) {
        const CompiledTransition& ct =
            cm_->process(p).transitions[static_cast<std::size_t>(t)];
        for (const auto& [target, prog] : ct.effects) {
            writes.emplace_back(target, prog->run(s.values, scratch.eval));
        }
    }
    std::vector<std::pair<ProcessId, int>>& left = scratch.left;
    left.clear();
    for (const auto& [p, t] : firing) {
        const InstProcess& proc = model_->processes[static_cast<std::size_t>(p)];
        const InstTransition& tr = proc.transitions[static_cast<std::size_t>(t)];
        const int old_loc = s.locations[static_cast<std::size_t>(p)];
        s.locations[static_cast<std::size_t>(p)] = tr.dst;
        s.values[proc.timer] = Value(0.0);
        dirty.mark(proc.timer);
        if (proc.is_error && tr.dst != old_loc) left.emplace_back(p, old_loc);
        fired.emplace_back(p, t);
    }
    apply_writes(*cm_, s, writes, dirty);
    for (const auto& [p, old_loc] : left) restore_injections(s, p, old_loc, dirty);
    recompute_activation(s, scratch);
    return StepInfo{fired, settle(s, before, scratch)};
}

StepInfo Network::execute(NetworkState& s, const Candidate& c, Rng& rng,
                          SimScratch& scratch) const {
    scratch.bind(*cm_);
    std::vector<std::pair<ProcessId, int>>& firing = scratch.firing;
    firing.clear();
    std::vector<int>& ready = scratch.ready;
    switch (c.kind) {
    case Candidate::Kind::Tau:
        SLIMSIM_ASSERT(enabled_now(s, c.process, c.transition, scratch));
        firing.emplace_back(c.process, c.transition);
        break;
    case Candidate::Kind::BroadcastSend: {
        SLIMSIM_ASSERT(enabled_now(s, c.process, c.transition, scratch));
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
                    enabled_now(s, peer, t, scratch)) {
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
                    enabled_now(s, pid, t, scratch)) {
                    ready.push_back(t);
                }
            }
            SLIMSIM_ASSERT(!ready.empty()); // the strategy chose an enabled time
            firing.emplace_back(pid, ready[rng.uniform_index(ready.size())]);
        }
        break;
    }
    }
    return apply_firing(s, firing, scratch);
}

StepInfo Network::execute_markovian(NetworkState& s, ProcessId process, Rng& rng,
                                    SimScratch& scratch) const {
    scratch.bind(*cm_);
    const InstProcess& proc = model_->processes[static_cast<std::size_t>(process)];
    const double total =
        cm_->process(process)
            .locations[static_cast<std::size_t>(s.locations[static_cast<std::size_t>(process)])]
            .markov_total;
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
    std::vector<std::pair<ProcessId, int>>& firing = scratch.firing;
    firing.clear();
    firing.emplace_back(process, chosen);
    return apply_firing(s, firing, scratch);
}

std::span<const ResolvedMove> Network::resolve_moves(const NetworkState& s,
                                                     const Candidate& c,
                                                     SimScratch& scratch) const {
    // Enumerates the per-process sub-choices of a candidate with their
    // equiprobable weights (exhaustive builder path; no time analysis here —
    // callers use this on untimed models where enabledness is immediate).
    scratch.bind(*cm_);
    std::vector<std::pair<ProcessId, int>>& options = scratch.move_options;
    std::vector<std::size_t>& ends = scratch.option_ends; // per participant
    options.clear();
    ends.clear();
    const auto close_participant = [&] {
        if (options.size() > (ends.empty() ? 0 : ends.back())) ends.push_back(options.size());
    };
    switch (c.kind) {
    case Candidate::Kind::Tau:
        options.emplace_back(c.process, c.transition);
        close_participant();
        break;
    case Candidate::Kind::BroadcastSend: {
        options.emplace_back(c.process, c.transition);
        close_participant();
        const InstProcess& sender = model_->processes[static_cast<std::size_t>(c.process)];
        const ChannelId ch =
            sender.transitions[static_cast<std::size_t>(c.transition)].channel;
        for (const ProcessId peer : sender.propagation_peers) {
            const InstProcess& proc = model_->processes[static_cast<std::size_t>(peer)];
            if (!s.instance_active(static_cast<std::size_t>(proc.instance))) continue;
            for (const int t : outgoing(s, peer)) {
                const InstTransition& tr = proc.transitions[static_cast<std::size_t>(t)];
                if (tr.channel == ch && tr.role == slim::PortDir::In &&
                    enabled_now(s, peer, t, scratch)) {
                    options.emplace_back(peer, t);
                }
            }
            close_participant(); // a peer with no ready receiver adds none
        }
        break;
    }
    case Candidate::Kind::Sync: {
        const auto& def = model_->actions[static_cast<std::size_t>(c.action)];
        for (const ProcessId pid : def.participants) {
            const InstProcess& proc = model_->processes[static_cast<std::size_t>(pid)];
            if (!s.instance_active(static_cast<std::size_t>(proc.instance))) continue;
            const std::size_t before = options.size();
            for (const int t : outgoing(s, pid)) {
                const InstTransition& tr = proc.transitions[static_cast<std::size_t>(t)];
                if (tr.action == c.action && tr.trigger == TriggerClass::Normal &&
                    enabled_now(s, pid, t, scratch)) {
                    options.emplace_back(pid, t);
                }
            }
            SLIMSIM_ASSERT(options.size() > before);
            close_participant();
        }
        break;
    }
    }

    // The joint moves are the product of the participants' sub-choices, the
    // last participant varying fastest. Every move weighs the product of the
    // participants' 1/|choices|, multiplied in participant order.
    const std::size_t width = ends.size();
    const auto choices = [&](std::size_t k) { return ends[k] - (k == 0 ? 0 : ends[k - 1]); };
    std::size_t count = 1;
    double probability = 1.0;
    for (std::size_t k = 0; k < width; ++k) {
        count *= choices(k);
        probability *= 1.0 / static_cast<double>(choices(k));
    }
    std::vector<std::pair<ProcessId, int>>& firings = scratch.move_firings;
    firings.resize(count * width);
    std::vector<ResolvedMove>& moves = scratch.moves;
    moves.resize(count);
    for (std::size_t m = 0; m < count; ++m) {
        std::size_t rest = m;
        for (std::size_t k = width; k-- > 0;) {
            firings[m * width + k] = options[ends[k] - choices(k) + rest % choices(k)];
            rest /= choices(k);
        }
        moves[m] = {std::span(firings).subspan(m * width, width), probability};
    }
    return moves;
}

// --- activation trigger firing helper ----------------------------------------

void Network::fire_trigger_class(NetworkState& s, std::size_t instance, TriggerClass tc,
                                 SimScratch& scratch) const {
    const Instance& inst = model_->instances[instance];
    for (const ProcessId pid : {inst.process, inst.error_process}) {
        if (pid < 0) continue;
        const InstProcess& proc = model_->processes[static_cast<std::size_t>(pid)];
        for (const int t : outgoing(s, pid)) {
            const InstTransition& tr = proc.transitions[static_cast<std::size_t>(t)];
            if (tr.trigger == tc && enabled_now(s, pid, t, scratch)) {
                fire_one(s, pid, t, scratch);
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
