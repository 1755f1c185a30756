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
// (expression registers, candidate/write/ready lists, the interned
// discrete-state table and the per-path state), so the hot loop runs
// allocation-free once warmed up.
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

/// Per-location precomputation: facts the interpreter re-derived from the
/// transition list on every step.
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
struct CompiledFlow {
    static constexpr VarId kNoSource = std::numeric_limits<VarId>::max();
    expr::ProgramPtr program;
    VarId target = 0;
    VarId source = kNoSource;
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
/// is cleared or destroyed.
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
    std::span<const double> rates;         // derivative per global var (shared)
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
/// (power-of-two uint32 slots, linear probing) maps a hash of the discrete
/// projection to entry ids; every hit is confirmed by comparing the full key.
/// Keys and every per-configuration list live in a bump arena whose blocks
/// never move, so configs returned by intern() stay valid while the
/// interner exists; identical rate vectors share one arena copy. Not
/// thread-safe: one interner per worker.
class StateInterner {
public:
    /// Config of s's discrete projection, computing and interning it on
    /// first sight.
    [[nodiscard]] const InternedConfig& intern(const NetworkState& s,
                                               const CompiledModel& cm);

    [[nodiscard]] std::size_t size() const { return entries_.size(); }
    void clear();

private:
    static constexpr std::uint32_t kNone = FlatIndex::kNone;

    struct Entry {
        std::uint64_t hash = 0;
        std::span<const int> locations;
        std::span<const char> active;
        InternedConfig config;
    };
    struct SharedRates {
        std::uint64_t hash = 0;
        std::span<const double> values;
    };

    /// Bump allocator over blocks that never move: 1 KiB first, doubling up
    /// to 64 KiB (larger requests get a block of their own). Holds only
    /// trivially destructible objects.
    class Arena {
    public:
        template <class T>
        [[nodiscard]] std::span<const T> copy(const std::vector<T>& src) {
            static_assert(std::is_trivially_copyable_v<T>);
            if (src.empty()) return {};
            const std::size_t bytes = src.size() * sizeof(T);
            T* dst = static_cast<T*>(allocate(bytes, alignof(T)));
            std::memcpy(dst, src.data(), bytes);
            return {dst, src.size()};
        }
        template <class T>
        [[nodiscard]] T& make() {
            static_assert(std::is_trivially_destructible_v<T>);
            return *new (allocate(sizeof(T), alignof(T))) T{};
        }
        void clear();

    private:
        [[nodiscard]] void* allocate(std::size_t bytes, std::size_t align);
        std::vector<std::unique_ptr<std::byte[]>> blocks_;
        std::byte* next_ = nullptr;
        std::size_t left_ = 0;
        std::size_t block_bytes_ = 1024;
    };

    [[nodiscard]] static bool same_key(const Entry& e, const NetworkState& s);
    std::uint32_t insert(const NetworkState& s, std::uint64_t h, const CompiledModel& cm);
    [[nodiscard]] std::span<const double> share_rates(const std::vector<double>& rates);

    Arena arena_;
    std::vector<const Entry*> entries_;
    FlatIndex index_;
    std::vector<SharedRates> shared_rates_;
    FlatIndex rates_index_;
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

/// Reusable per-worker simulation buffers. Bound to one CompiledModel at a
/// time; rebinding (bind()) clears model-derived caches. Owned by path
/// generators, the legacy Network entry points' thread-local scratch and
/// ctmc::build_state_space (one per exploration).
struct SimScratch {
    expr::EvalScratch eval;
    StateInterner interner;
    std::vector<Candidate> candidates;           // candidates() output buffer
    std::vector<std::pair<VarId, Value>> writes; // apply_firing buffer
    std::vector<int> ready;                      // sync/broadcast sub-choices
    std::vector<std::pair<ProcessId, int>> firing;
    /// Successful initial state, cached lazily (models whose initial flows
    /// throw keep per-path throw semantics).
    std::optional<NetworkState> initial;
    /// Per-path state reused across paths (buffers keep their capacity).
    NetworkState path_state;

    void bind(const CompiledModel& cm) {
        if (bound_ != &cm) {
            interner.clear();
            initial.reset();
            bound_ = &cm;
        }
    }

private:
    const CompiledModel* bound_ = nullptr;
};

} // namespace slimsim::eda
