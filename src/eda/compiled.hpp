// Compiled models: the compile-once half of the compile-once / simulate-many
// split (the public API is slimsim::compile() in api/analysis.hpp).
//
// A CompiledModel lowers every expression of an InstanceModel — guards,
// invariants, effects, flows — into hash-consed expr::Programs with binding
// slots resolved to global VarIds, and precomputes the per-location facts the
// simulator needs every step (outgoing transitions, tau candidate lists,
// total Markovian exit rates). It is immutable, thread-safe, keyed by a
// deterministic content hash, and shared: compile_model() interns models in a
// process-wide cache, and any number of Networks / analysis runs can use one
// instance concurrently.
//
// The simulate-many half lives in SimScratch: per-worker reusable buffers
// (expression registers, candidate/write/ready/firing lists, the interned
// discrete-state table and the per-path state), so a path allocates nothing
// once the interner has seen its configurations (tests/test_alloc_free.cpp).
#pragma once

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <type_traits>

#include "eda/state.hpp"
#include "expr/compile.hpp"
#include "slim/instantiate.hpp"
#include "support/flat_index.hpp"
#include "support/intervals.hpp"

namespace slimsim::eda {

using slim::ActionId;
using slim::ChannelId;
using slim::InstanceModel;
using slim::ProcessId;

/// One schedulable discrete alternative at the current state, together with
/// the exact set of delays after which it is enabled (clamped to the
/// invariant horizon). Markovian transitions are *not* candidates; the
/// simulator races sampled exponential delays against the strategy's choice.
struct Candidate {
    enum class Kind : std::uint8_t {
        Tau,           // internal transition of one process
        Sync,          // multi-party synchronization on an event action
        BroadcastSend, // error propagation send (drags ready receivers along)
    };
    Kind kind = Kind::Tau;
    ProcessId process = -1; // Tau / BroadcastSend
    int transition = -1;    // Tau / BroadcastSend
    ActionId action = -1;   // Sync
    IntervalSet enabled;    // delays at which the candidate can fire

    [[nodiscard]] std::string describe(const InstanceModel& m) const;
};

/// One joint discrete move of a candidate: the firing set, as (process,
/// transition idx) in firing order, and its probability weight.
struct ResolvedMove {
    std::span<const std::pair<ProcessId, int>> firing;
    double probability = 1.0;
};

/// Total Markovian exit rate of one process at the current state.
struct MarkovianRate {
    ProcessId process = -1;
    double total_rate = 0.0;
};

/// A transition with its guard and effects compiled; effect targets are
/// resolved to global variable ids.
struct CompiledTransition {
    expr::ProgramPtr guard; // null = always enabled
    std::vector<std::pair<VarId, expr::ProgramPtr>> effects;
};

/// Per-location precomputation: facts a step would otherwise re-derive from
/// the transition list.
struct CompiledLocation {
    expr::ProgramPtr invariant; // null = true
    std::vector<int> outgoing;  // transitions leaving this location, in order
    /// Outgoing transitions that are strategy candidates (non-Markovian,
    /// Normal trigger, not receive-only, tau action), in outgoing order.
    std::vector<int> tau_candidates;
    /// Sum of outgoing Markovian rates (the process's exit rate here).
    double markov_total = 0.0;
};

struct CompiledProcess {
    std::vector<CompiledLocation> locations;
    std::vector<CompiledTransition> transitions;
};

/// How a write into one variable stores its value, resolved at compile time:
/// the Value representation the variable's type holds and its int range. A
/// value that already has that representation and lies in the range is
/// stored as is; anything else takes the coercing, range-checking path.
struct VarStore {
    std::int64_t lo = std::numeric_limits<std::int64_t>::min();
    std::int64_t hi = std::numeric_limits<std::int64_t>::max();
    std::uint8_t index = 0; // Value::index() of the representation

    [[nodiscard]] bool holds(const Value& v) const {
        return v.index() == index && (index != 1 || (v.as_int() >= lo && v.as_int() <= hi));
    }
};

/// A data flow with its right-hand side compiled. `source` is the global
/// variable a copy flow (bare-variable right-hand side) reads, else kNoSource.
/// `reads` is its read set (the program's variables, sorted, once each). A
/// `timed` flow's target or a read is in some location's rates list, so
/// every elapse rewrites it and the incremental settle always runs the flow.
struct CompiledFlow {
    static constexpr VarId kNoSource = std::numeric_limits<VarId>::max();
    expr::ProgramPtr program;
    VarId target = 0;
    VarId source = kNoSource;
    std::vector<VarId> reads;
    bool timed = false;
};

/// Compile-time statistics (deterministic; surfaced by --compile-stats and
/// the run report's compiled_model section).
struct CompileStats {
    std::size_t programs = 0;        // expressions lowered (before dedup)
    std::size_t unique_programs = 0; // distinct hash-consed programs
    std::size_t nodes = 0;           // expression nodes over unique programs
    std::size_t bytecode_bytes = 0;  // code + node tables over unique programs
};

/// An InstanceModel with every expression compiled and the per-location
/// simulator facts precomputed. Immutable and thread-safe; create via
/// compile_model() (or slimsim::compile()), share across runs freely.
class CompiledModel {
public:
    explicit CompiledModel(std::shared_ptr<const InstanceModel> model);

    [[nodiscard]] const InstanceModel& model() const { return *model_; }
    [[nodiscard]] const std::shared_ptr<const InstanceModel>& model_ptr() const {
        return model_;
    }

    [[nodiscard]] const CompiledProcess& process(ProcessId p) const {
        return processes_[static_cast<std::size_t>(p)];
    }
    /// InstanceModel::flows[i] compiled (same indexing; gating metadata
    /// stays on the InstFlow).
    [[nodiscard]] const CompiledFlow& flow(std::size_t i) const { return flows_[i]; }
    /// Store of global variable `var` (every flow and effect target).
    [[nodiscard]] const VarStore& store(VarId var) const { return stores_[var]; }
    /// Whether `var` is a flow target that another flow reads. An injection
    /// into it holds its injected value between settles, while the flows
    /// that read it see the flow's own output, so the incremental settle
    /// re-runs its flow whenever the injection is in force.
    [[nodiscard]] bool relays_flows(VarId var) const { return relays_flows_[var] != 0; }

    [[nodiscard]] const CompileStats& stats() const { return stats_; }

    /// Deterministic hash of the model's full behavioral content (variables,
    /// processes, expression structure, flows, injections, names). Stable
    /// across processes and platforms; used as the compile_model() cache key
    /// and as the checkpoint/resume model identity.
    [[nodiscard]] std::uint64_t content_hash() const { return content_hash_; }

private:
    std::shared_ptr<const InstanceModel> model_;
    std::vector<CompiledProcess> processes_;
    std::vector<CompiledFlow> flows_;
    std::vector<VarStore> stores_; // per global variable
    std::vector<char> relays_flows_; // per global variable
    CompileStats stats_;
    std::uint64_t content_hash_ = 0;
};

using CompiledModelPtr = std::shared_ptr<const CompiledModel>;

/// Compiles `model`, or returns the process-wide cached compilation of a
/// content-identical model. Thread-safe.
[[nodiscard]] CompiledModelPtr compile_model(std::shared_ptr<const InstanceModel> model);

/// Deterministic content hash of an instance model (what compile_model keys
/// its cache on), without compiling.
[[nodiscard]] std::uint64_t model_content_hash(const InstanceModel& model);

/// Facts that are a pure function of a state's discrete projection
/// (locations + activation): the per-variable derivative vector, the
/// per-process Markovian exit rates, the strategy candidates, the active
/// invariants and the data flows and fault injections that apply. Interned
/// per discrete configuration so revisited configurations cost one hash
/// lookup instead of a model sweep. The spans point into the owning
/// StateInterner's arena: they stay valid and unchanged until the interner
/// is cleared or destroyed. Configurations with equal lists share one copy
/// of each list.
struct InternedConfig {
    /// One strategy candidate (tau / broadcast send) of an active process,
    /// with its compiled guard; candidates_impl's per-step filter applied
    /// once per discrete configuration, in process-then-outgoing order.
    struct TauCandidate {
        ProcessId process = -1;
        int transition = -1;
        Candidate::Kind kind = Candidate::Kind::Tau;
        const expr::Program* guard = nullptr; // null = always enabled
    };
    std::span<const double> rates;         // derivative per global var
    std::span<const MarkovianRate> markov; // processes with positive exit rate
    std::span<const TauCandidate> taus;
    /// Location invariants of the active processes, in process order
    /// (trivially-true null invariants omitted).
    std::span<const expr::Program* const> invariants;
    /// InstanceModel::flows indices of the flows that run: owner instance
    /// active and mode gate passed, in flow order.
    std::span<const std::uint32_t> flows;
    /// InstanceModel::injections indices whose process is in the injected
    /// state, in declaration order.
    std::span<const std::uint32_t> injections;
};

/// Per-worker discrete-state interning table. A flat open-addressing index
/// (power-of-two uint32 slots, linear probing) maps a state-key hash of the
/// discrete projection to entry ids; every hit is confirmed by comparing the
/// full key. Ids are dense and follow first-sight order. Keys and every
/// per-configuration list live in a bump arena whose blocks never move, so
/// configs returned by intern() stay valid while the interner exists. Each
/// distinct list is stored once (hash-consed, confirmed bitwise) and shared
/// by every configuration that has it. Not thread-safe: one interner per
/// worker.
class StateInterner {
public:
    /// Id of s's discrete projection, computing and interning its config on
    /// first sight.
    [[nodiscard]] std::uint32_t intern_id(const NetworkState& s, const CompiledModel& cm);
    [[nodiscard]] const InternedConfig& config(std::uint32_t id) const {
        return entries_[id]->config;
    }
    [[nodiscard]] const InternedConfig& intern(const NetworkState& s,
                                               const CompiledModel& cm) {
        return config(intern_id(s, cm));
    }

    [[nodiscard]] std::size_t size() const { return entries_.size(); }
    void clear();

private:
    static constexpr std::uint32_t kNone = FlatIndex::kNone;

    struct Entry {
        std::uint64_t hash = 0;
        const std::byte* key = nullptr; // the locations' bytes, then the activation's
        InternedConfig config;
    };

    /// Bump allocator over blocks that never move: 1 KiB first, doubling up
    /// to 64 KiB (larger requests get a block of their own). Holds only
    /// trivially destructible objects.
    class Arena {
    public:
        template <class T>
        [[nodiscard]] std::span<const T> copy(std::span<const T> src) {
            static_assert(std::is_trivially_copyable_v<T>);
            if (src.empty()) return {};
            T* dst = static_cast<T*>(allocate(src.size_bytes(), alignof(T)));
            std::memcpy(dst, src.data(), src.size_bytes());
            return {dst, src.size()};
        }
        template <class T>
        [[nodiscard]] T& make() {
            static_assert(std::is_trivially_destructible_v<T>);
            return *new (allocate(sizeof(T), alignof(T))) T{};
        }
        [[nodiscard]] void* allocate(std::size_t bytes, std::size_t align);
        void clear();

    private:
        std::vector<std::unique_ptr<std::byte[]>> blocks_;
        std::byte* next_ = nullptr;
        std::size_t left_ = 0;
        std::size_t block_bytes_ = 1024;
    };

    /// The distinct lists of one element type, each stored once.
    template <class T>
    struct ListPool {
        std::vector<std::span<const T>> lists;
        std::vector<std::uint64_t> hashes;
        FlatIndex index;
    };

    [[nodiscard]] bool same_key(const Entry& e, const NetworkState& s) const;
    std::uint32_t insert(const NetworkState& s, std::uint64_t h, const CompiledModel& cm);
    /// The pool's copy of `list`, added on first sight.
    template <class T>
    [[nodiscard]] std::span<const T> share(const std::vector<T>& list, ListPool<T>& pool);

    Arena arena_;
    std::vector<const Entry*> entries_;
    FlatIndex index_;
    // Key shape, fixed by the bound model (one location per process, one
    // activation flag per instance); set by the first insert.
    std::size_t location_bytes_ = 0;
    std::size_t active_bytes_ = 0;
    ListPool<double> rates_pool_;
    ListPool<MarkovianRate> markov_pool_;
    ListPool<InternedConfig::TauCandidate> taus_pool_;
    ListPool<const expr::Program*> invariants_pool_;
    ListPool<std::uint32_t> indices_pool_; // flows and injections
    // The last two hits, checked before hashing: a step's lookups repeat
    // one configuration, and a short path alternates between the initial
    // configuration and its successor.
    std::uint32_t last_ = kNone;
    std::uint32_t prev_ = kNone;
    // Reused build buffers for a new entry's lists.
    std::vector<double> rates_;
    std::vector<MarkovianRate> markov_;
    std::vector<InternedConfig::TauCandidate> taus_;
    std::vector<const expr::Program*> invariants_;
    std::vector<std::uint32_t> flows_;
    std::vector<std::uint32_t> injections_;
};

/// The variables a firing wrote, for the incremental settle that ends it
/// (Network::settle). clear() starts a new set in O(1) by bumping an epoch.
class DirtySet {
public:
    void resize(std::size_t vars) {
        marks_.assign(vars, 0);
        epoch_ = 1;
    }
    void clear() {
        if (++epoch_ == 0) { // wrapped: forget every old mark
            std::fill(marks_.begin(), marks_.end(), 0);
            epoch_ = 1;
        }
    }
    void mark(VarId var) { marks_[var] = epoch_; }
    [[nodiscard]] bool test(VarId var) const { return marks_[var] == epoch_; }

private:
    std::vector<std::uint32_t> marks_; // epoch of the last mark, per variable
    std::uint32_t epoch_ = 1;
};

/// Reusable per-worker simulation buffers. Bound to one CompiledModel at a
/// time; rebinding (bind()) clears model-derived caches. Owned by path
/// generators (one per worker), ctmc::build_state_space (one per
/// exploration) and the one-off Network::initial_state() calls.
struct SimScratch {
    expr::EvalScratch eval;
    StateInterner interner;
    std::vector<Candidate> candidates;           // candidates() output buffer
    std::vector<std::pair<VarId, Value>> writes; // apply_firing / fire_one effects
    std::vector<int> ready;                      // sync/broadcast sub-choices
    std::vector<std::pair<ProcessId, int>> firing;
    std::vector<std::pair<ProcessId, int>> fired; // StepInfo::fired storage
    std::vector<std::pair<ProcessId, int>> left;  // (error process, old location)
    std::vector<char> next_active;                // activation fixpoint round
    DirtySet dirty;                               // sized to the variables at bind()
    // resolve_moves: each participant's sub-choices (ends per participant),
    // then the joint moves, whose firing sets live in move_firings.
    std::vector<std::pair<ProcessId, int>> move_options;
    std::vector<std::size_t> option_ends;
    std::vector<std::pair<ProcessId, int>> move_firings;
    std::vector<ResolvedMove> moves;
    /// Successful initial state, cached lazily (models whose initial flows
    /// throw keep per-path throw semantics).
    std::optional<NetworkState> initial;
    /// Per-path state reused across paths (buffers keep their capacity).
    NetworkState path_state;

    void bind(const CompiledModel& cm) {
        if (bound_ != &cm) {
            interner.clear();
            initial.reset();
            dirty.resize(cm.model().vars.size());
            bound_ = &cm;
        }
    }

private:
    const CompiledModel* bound_ = nullptr;
};

} // namespace slimsim::eda
