#include "eda/compiled.hpp"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <set>
#include <sstream>
#include <unordered_map>

#include "support/hash.hpp"

namespace slimsim::eda {

namespace {

using slim::InstProcess;
using slim::InstTransition;
using slim::TriggerClass;

// --- content hashing --------------------------------------------------------

std::uint64_t hash_string(std::uint64_t h, const std::string& s) {
    h = hash_mix(h, s.size());
    std::uint64_t word = 0;
    std::size_t n = 0;
    for (const unsigned char c : s) {
        word = (word << 8) | c;
        if (++n == 8) {
            h = hash_mix(h, word);
            word = 0;
            n = 0;
        }
    }
    if (n != 0) h = hash_mix(h, word);
    return h;
}

std::uint64_t hash_value(std::uint64_t h, const Value& v) {
    if (v.is_bool()) return hash_mix(hash_mix(h, 1), v.as_bool() ? 1 : 0);
    if (v.is_int()) {
        return hash_mix(hash_mix(h, 2), static_cast<std::uint64_t>(v.as_int()));
    }
    return hash_mix(hash_mix(h, 3), double_bits(v.as_real()));
}

std::uint64_t hash_type(std::uint64_t h, const Type& t) {
    h = hash_mix(h, static_cast<std::uint64_t>(t.kind));
    h = hash_mix(h, t.lo ? static_cast<std::uint64_t>(*t.lo) : 0x5EED);
    h = hash_mix(h, t.hi ? static_cast<std::uint64_t>(*t.hi) : 0x5EED);
    h = hash_mix(h, (t.lo.has_value() ? 1u : 0u) | (t.hi.has_value() ? 2u : 0u));
    return h;
}

/// Structural hash of an expression under its binding table: the program's
/// hash-consing key hash (compilation is cached, so this is a table lookup
/// after the first time). Null expressions hash to a sentinel.
std::uint64_t hash_expr(std::uint64_t h, const expr::ExprPtr& e,
                        std::span<const VarId> bindings) {
    if (e == nullptr) return hash_mix(h, 0x7256);
    return hash_mix(h, expr::compile(*e, bindings)->key_hash());
}

} // namespace

std::uint64_t model_content_hash(const InstanceModel& m) {
    std::uint64_t h = 0x51AD51AD51AD51ADULL;

    h = hash_mix(h, m.vars.size());
    for (const auto& v : m.vars) {
        h = hash_string(h, v.full_name);
        h = hash_type(h, v.type);
        h = hash_value(h, v.init);
        h = hash_mix(h, static_cast<std::uint64_t>(v.owner));
    }

    h = hash_mix(h, m.processes.size());
    for (const auto& p : m.processes) {
        h = hash_string(h, p.name);
        h = hash_mix(h, static_cast<std::uint64_t>(p.instance));
        h = hash_mix(h, p.is_error ? 1 : 0);
        h = hash_mix(h, static_cast<std::uint64_t>(p.initial_location));
        h = hash_mix(h, p.timer);
        const std::span<const VarId> bindings = *p.bindings;
        h = hash_mix(h, bindings.size());
        for (const VarId id : bindings) h = hash_mix(h, id);
        for (const ProcessId peer : p.propagation_peers) {
            h = hash_mix(h, static_cast<std::uint64_t>(peer));
        }
        h = hash_mix(h, p.locations.size());
        for (const auto& loc : p.locations) {
            h = hash_string(h, loc.name);
            h = hash_expr(h, loc.invariant, bindings);
            h = hash_mix(h, loc.rates.size());
            for (const auto& [var, slope] : loc.rates) {
                h = hash_mix(hash_mix(h, var), double_bits(slope));
            }
        }
        h = hash_mix(h, p.transitions.size());
        for (const auto& t : p.transitions) {
            h = hash_mix(h, static_cast<std::uint64_t>(t.src));
            h = hash_mix(h, static_cast<std::uint64_t>(t.dst));
            h = hash_mix(h, static_cast<std::uint64_t>(t.action));
            h = hash_mix(h, static_cast<std::uint64_t>(t.channel));
            h = hash_mix(h, static_cast<std::uint64_t>(t.role));
            h = hash_mix(h, static_cast<std::uint64_t>(t.trigger));
            h = hash_mix(h, double_bits(t.rate));
            h = hash_expr(h, t.guard, bindings);
            h = hash_mix(h, t.effects.size());
            for (const auto& a : t.effects) {
                h = hash_mix(h, bindings[a.target]);
                h = hash_expr(h, a.value, bindings);
            }
            h = hash_string(h, t.label);
        }
    }

    h = hash_mix(h, m.actions.size());
    for (const auto& a : m.actions) {
        h = hash_string(h, a.name);
        for (const ProcessId p : a.participants) {
            h = hash_mix(h, static_cast<std::uint64_t>(p));
        }
    }
    h = hash_mix(h, m.channels.size());
    for (const auto& c : m.channels) h = hash_string(h, c.name);

    h = hash_mix(h, m.instances.size());
    for (const auto& inst : m.instances) {
        h = hash_string(h, inst.path);
        h = hash_mix(h, static_cast<std::uint64_t>(inst.parent));
        h = hash_mix(h, static_cast<std::uint64_t>(inst.process));
        h = hash_mix(h, static_cast<std::uint64_t>(inst.error_process));
        h = hash_mix(h, inst.parent_modes.size());
        for (const int mode : inst.parent_modes) {
            h = hash_mix(h, static_cast<std::uint64_t>(mode));
        }
    }

    h = hash_mix(h, m.flows.size());
    for (const auto& f : m.flows) {
        h = hash_mix(h, f.target);
        h = hash_expr(h, f.value, *f.bindings);
        h = hash_mix(h, static_cast<std::uint64_t>(f.owner));
        h = hash_mix(h, static_cast<std::uint64_t>(f.gate_process));
        h = hash_mix(h, f.gate_locations.size());
        for (const int loc : f.gate_locations) {
            h = hash_mix(h, static_cast<std::uint64_t>(loc));
        }
    }

    h = hash_mix(h, m.injections.size());
    for (const auto& inj : m.injections) {
        h = hash_mix(h, static_cast<std::uint64_t>(inj.process));
        h = hash_mix(h, static_cast<std::uint64_t>(inj.state));
        h = hash_mix(h, inj.target);
        h = hash_value(h, inj.value);
        h = hash_value(h, inj.restore);
    }
    return h;
}

// --- CompiledModel ----------------------------------------------------------

std::string Candidate::describe(const InstanceModel& m) const {
    std::ostringstream os;
    switch (kind) {
    case Kind::Tau: {
        const auto& p = m.processes[static_cast<std::size_t>(process)];
        const auto& t = p.transitions[static_cast<std::size_t>(transition)];
        os << "tau " << p.name << ": " << p.locations[t.src].name << " -> "
           << p.locations[t.dst].name;
        break;
    }
    case Kind::Sync:
        os << "sync " << m.actions[static_cast<std::size_t>(action)].name;
        break;
    case Kind::BroadcastSend: {
        const auto& p = m.processes[static_cast<std::size_t>(process)];
        const auto& t = p.transitions[static_cast<std::size_t>(transition)];
        os << "propagate " << t.label << " from " << p.name;
        break;
    }
    }
    os << " @ " << enabled.to_string();
    return os.str();
}

CompiledModel::CompiledModel(std::shared_ptr<const InstanceModel> model)
    : model_(std::move(model)) {
    std::set<const expr::Program*> unique;
    const auto lower = [&](const expr::ExprPtr& e,
                           std::span<const VarId> bindings) -> expr::ProgramPtr {
        if (e == nullptr) return nullptr;
        expr::ProgramPtr p = expr::compile(*e, bindings);
        ++stats_.programs;
        if (unique.insert(p.get()).second) {
            ++stats_.unique_programs;
            stats_.nodes += p->node_count();
            stats_.bytecode_bytes += p->bytecode_bytes();
        }
        return p;
    };

    processes_.reserve(model_->processes.size());
    for (const InstProcess& proc : model_->processes) {
        CompiledProcess cp;
        const std::span<const VarId> bindings = *proc.bindings;

        cp.transitions.reserve(proc.transitions.size());
        for (const InstTransition& tr : proc.transitions) {
            CompiledTransition ct;
            ct.guard = lower(tr.guard, bindings);
            ct.effects.reserve(tr.effects.size());
            for (const slim::InstAssign& a : tr.effects) {
                ct.effects.emplace_back(bindings[a.target], lower(a.value, bindings));
            }
            cp.transitions.push_back(std::move(ct));
        }

        cp.locations.reserve(proc.locations.size());
        for (const slim::InstLocation& loc : proc.locations) {
            CompiledLocation cl;
            cl.invariant = lower(loc.invariant, bindings);
            cp.locations.push_back(std::move(cl));
        }
        for (std::size_t t = 0; t < proc.transitions.size(); ++t) {
            cp.locations[static_cast<std::size_t>(proc.transitions[t].src)]
                .outgoing.push_back(static_cast<int>(t));
        }
        for (CompiledLocation& cl : cp.locations) {
            for (const int t : cl.outgoing) {
                const InstTransition& tr =
                    proc.transitions[static_cast<std::size_t>(t)];
                cl.markov_total += tr.rate;
                if (!tr.markovian() && tr.trigger == TriggerClass::Normal &&
                    !tr.receive_only() && tr.action == slim::kTau) {
                    cl.tau_candidates.push_back(t);
                }
            }
        }
        processes_.push_back(std::move(cp));
    }

    stores_.reserve(model_->vars.size());
    for (const auto& v : model_->vars) {
        VarStore& st = stores_.emplace_back();
        st.index = static_cast<std::uint8_t>(Value::default_for(v.type).index());
        if (v.type.is_int() && v.type.lo) {
            st.lo = *v.type.lo;
            st.hi = *v.type.hi;
        }
    }
    flows_.reserve(model_->flows.size());
    for (const slim::InstFlow& f : model_->flows) {
        CompiledFlow& cf = flows_.emplace_back();
        cf.program = lower(f.value, *f.bindings);
        cf.target = f.target;
        const auto& nodes = cf.program->nodes();
        if (nodes.size() == 1 && nodes[0].kind == expr::ExprKind::Var) {
            cf.source = nodes[0].payload;
        }
    }

    content_hash_ = model_content_hash(*model_);
}

// --- process-wide compilation cache -----------------------------------------

namespace {

struct ModelCache {
    std::mutex mu;
    std::unordered_map<std::uint64_t, std::weak_ptr<const CompiledModel>> map;
};

ModelCache& model_cache() {
    static ModelCache cache;
    return cache;
}

} // namespace

CompiledModelPtr compile_model(std::shared_ptr<const InstanceModel> model) {
    SLIMSIM_ASSERT(model != nullptr);
    const std::uint64_t key = model_content_hash(*model);
    ModelCache& cache = model_cache();
    std::lock_guard<std::mutex> lock(cache.mu);
    if (auto it = cache.map.find(key); it != cache.map.end()) {
        if (CompiledModelPtr live = it->second.lock()) return live;
    }
    auto compiled = std::make_shared<const CompiledModel>(std::move(model));
    cache.map[key] = compiled;
    return compiled;
}

// --- discrete-state interning -----------------------------------------------

namespace {

/// Streams n bytes into a running hash, eight at a time.
std::uint64_t hash_bytes(std::uint64_t h, const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (; n >= 8; p += 8, n -= 8) {
        std::uint64_t word = 0;
        std::memcpy(&word, p, 8);
        h = hash_mix(h, word);
    }
    if (n == 0) return h;
    std::uint64_t tail = 0;
    std::memcpy(&tail, p, n);
    return hash_mix(h, tail);
}

std::uint64_t key_hash(std::span<const int> locations, std::span<const char> active) {
    const std::uint64_t h = hash_bytes(0x57A7E57A7E57A7EULL, locations.data(),
                                       locations.size_bytes());
    return hash_bytes(h, active.data(), active.size_bytes());
}

} // namespace

void* StateInterner::Arena::allocate(std::size_t bytes, std::size_t align) {
    std::size_t pad = (align - reinterpret_cast<std::uintptr_t>(next_) % align) % align;
    if (next_ == nullptr || pad + bytes > left_) {
        const std::size_t size = std::max(block_bytes_, bytes);
        blocks_.push_back(std::make_unique_for_overwrite<std::byte[]>(size));
        next_ = blocks_.back().get(); // new[] alignment covers every T stored
        left_ = size;
        pad = 0;
        block_bytes_ = std::min<std::size_t>(2 * block_bytes_, 64 * 1024);
    }
    void* out = next_ + pad;
    next_ += pad + bytes;
    left_ -= pad + bytes;
    return out;
}

void StateInterner::Arena::clear() {
    blocks_.clear();
    next_ = nullptr;
    left_ = 0;
    block_bytes_ = 1024;
}

bool StateInterner::same_key(const Entry& e, const NetworkState& s) {
    return e.locations.size() == s.locations.size() && e.active.size() == s.active.size() &&
           std::memcmp(e.locations.data(), s.locations.data(), e.locations.size_bytes()) ==
               0 &&
           std::memcmp(e.active.data(), s.active.data(), e.active.size_bytes()) == 0;
}

const InternedConfig& StateInterner::intern(const NetworkState& s,
                                            const CompiledModel& cm) {
    // Lookups within one simulator step see the same configuration, and a
    // firing's successor is interned before the next step looks it up; one
    // full-key comparison against each of the last two hits skips the hash
    // and the probe.
    if (last_ != kNone && same_key(*entries_[last_], s)) return entries_[last_]->config;
    if (prev_ != kNone && same_key(*entries_[prev_], s)) {
        std::swap(last_, prev_);
        return entries_[last_]->config;
    }

    const std::uint64_t h = key_hash(s.locations, s.active);
    std::uint32_t id = index_.find(h, [&](std::uint32_t i) {
        return entries_[i]->hash == h && same_key(*entries_[i], s);
    });
    if (id == kNone) id = insert(s, h, cm);
    prev_ = last_;
    last_ = id;
    return entries_[id]->config;
}

std::uint32_t StateInterner::insert(const NetworkState& s, std::uint64_t h,
                                    const CompiledModel& cm) {
    const InstanceModel& m = cm.model();
    rates_.assign(m.vars.size(), 0.0);
    markov_.clear();
    taus_.clear();
    invariants_.clear();
    for (std::size_t p = 0; p < m.processes.size(); ++p) {
        const InstProcess& proc = m.processes[p];
        if (!s.instance_active(static_cast<std::size_t>(proc.instance))) continue;
        const auto loc = static_cast<std::size_t>(s.locations[p]);
        for (const auto& [var, slope] : proc.locations[loc].rates) rates_[var] = slope;
        const CompiledProcess& cp = cm.process(static_cast<ProcessId>(p));
        const CompiledLocation& cl = cp.locations[loc];
        if (cl.markov_total > 0.0) {
            markov_.push_back({static_cast<ProcessId>(p), cl.markov_total});
        }
        if (cl.invariant != nullptr) invariants_.push_back(cl.invariant.get());
        for (const int t : cl.tau_candidates) {
            const auto& tr = proc.transitions[static_cast<std::size_t>(t)];
            taus_.push_back({static_cast<ProcessId>(p), t,
                             tr.channel == slim::kNoChannel ? Candidate::Kind::Tau
                                                            : Candidate::Kind::BroadcastSend,
                             cp.transitions[static_cast<std::size_t>(t)].guard.get()});
        }
    }
    flows_.clear();
    for (std::size_t i = 0; i < m.flows.size(); ++i) {
        const slim::InstFlow& f = m.flows[i];
        if (!s.instance_active(static_cast<std::size_t>(f.owner))) continue;
        if (f.gate_process >= 0 && !f.gate_locations.empty() &&
            !std::binary_search(f.gate_locations.begin(), f.gate_locations.end(),
                                s.locations[static_cast<std::size_t>(f.gate_process)])) {
            continue;
        }
        flows_.push_back(static_cast<std::uint32_t>(i));
    }
    injections_.clear();
    for (std::size_t i = 0; i < m.injections.size(); ++i) {
        const slim::Injection& inj = m.injections[i];
        if (s.locations[static_cast<std::size_t>(inj.process)] == inj.state) {
            injections_.push_back(static_cast<std::uint32_t>(i));
        }
    }

    Entry& e = arena_.make<Entry>();
    e.hash = h;
    e.locations = arena_.copy(s.locations);
    e.active = arena_.copy(s.active);
    e.config.rates = share_rates(rates_);
    e.config.markov = arena_.copy(markov_);
    e.config.taus = arena_.copy(taus_);
    e.config.invariants = arena_.copy(invariants_);
    e.config.flows = arena_.copy(flows_);
    e.config.injections = arena_.copy(injections_);

    const auto id = static_cast<std::uint32_t>(entries_.size());
    entries_.push_back(&e);
    index_.insert(h, id, [&](std::uint32_t i) { return entries_[i]->hash; });
    return id;
}

std::span<const double> StateInterner::share_rates(const std::vector<double>& rates) {
    if (rates.empty()) return {};
    const std::size_t bytes = rates.size() * sizeof(double);
    const std::uint64_t h = hash_bytes(0x4A7E54A7E54A7E5ULL, rates.data(), bytes);
    // Bitwise comparison: shared vectors are identical to the last bit.
    const std::uint32_t id = rates_index_.find(h, [&](std::uint32_t i) {
        const SharedRates& r = shared_rates_[i];
        return r.hash == h && r.values.size() == rates.size() &&
               std::memcmp(r.values.data(), rates.data(), bytes) == 0;
    });
    if (id != kNone) return shared_rates_[id].values;
    shared_rates_.push_back({h, arena_.copy(rates)});
    const auto added = static_cast<std::uint32_t>(shared_rates_.size() - 1);
    rates_index_.insert(h, added, [&](std::uint32_t i) { return shared_rates_[i].hash; });
    return shared_rates_.back().values;
}

void StateInterner::clear() {
    arena_.clear();
    std::vector<const Entry*>().swap(entries_);
    index_.clear();
    std::vector<SharedRates>().swap(shared_rates_);
    rates_index_.clear();
    last_ = kNone;
    prev_ = kNone;
}

} // namespace slimsim::eda
