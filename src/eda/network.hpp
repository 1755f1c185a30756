// The Network of Event-Data Automata (paper, Sec. III-A).
//
// The network interprets an instantiated SLIM model: it exposes the timing
// analysis the strategies need (invariant horizons, exact guard-enablement
// interval sets), the Markovian race information, and the execution of
// discrete steps (internal, synchronized, broadcast and Markovian), including
// data-flow propagation, dynamic reconfiguration (activation changes with
// @activation/@deactivation firing) and fault-injection effects.
#pragma once

#include <memory>
#include <span>

#include "eda/compiled.hpp"
#include "eda/state.hpp"
#include "slim/instantiate.hpp"
#include "support/intervals.hpp"
#include "support/rng.hpp"

namespace slimsim::eda {

using slim::ActionId;
using slim::ChannelId;
using slim::InstanceModel;
using slim::ProcessId;

/// Result classification of a discrete step (for traces / debugging).
struct StepInfo {
    std::string description;
    std::vector<std::pair<ProcessId, int>> fired; // (process, transition idx)
};

/// Stable flat numbering of the instantiated network's elements, for
/// profilers that key counters over the model (sim/coverage): every process
/// location ("mode") gets an id in [0, mode_count()) in (process, location)
/// declaration order, every transition an id in [0, transition_count())
/// likewise. Strategy choice points additionally use an *alternative* id
/// space in which sync actions follow the transitions. Ids and names are a
/// pure function of the InstanceModel — never of execution order — so
/// profiles keyed by them merge deterministically across workers.
class ElementIndex {
public:
    explicit ElementIndex(const InstanceModel& m);

    [[nodiscard]] std::size_t mode_count() const { return mode_names_.size(); }
    [[nodiscard]] std::size_t transition_count() const { return transition_names_.size(); }
    [[nodiscard]] std::size_t alternative_count() const {
        return transition_names_.size() + action_names_.size();
    }

    [[nodiscard]] std::uint32_t mode_id(ProcessId p, int location) const {
        return mode_base_[static_cast<std::size_t>(p)] + static_cast<std::uint32_t>(location);
    }
    [[nodiscard]] std::uint32_t transition_id(ProcessId p, int transition) const {
        return transition_base_[static_cast<std::size_t>(p)] +
               static_cast<std::uint32_t>(transition);
    }
    /// Destination mode id of a transition (the mode entered by firing it).
    [[nodiscard]] std::uint32_t transition_dst_mode(std::uint32_t id) const {
        return transition_dst_mode_[id];
    }
    /// Alternative id of a strategy-choice candidate: its transition id for
    /// Tau / BroadcastSend, transition_count() + action id for Sync.
    [[nodiscard]] std::uint32_t alternative_id(const Candidate& c) const {
        if (c.kind == Candidate::Kind::Sync) {
            return static_cast<std::uint32_t>(transition_count()) +
                   static_cast<std::uint32_t>(c.action);
        }
        return transition_id(c.process, c.transition);
    }

    [[nodiscard]] const std::string& mode_name(std::uint32_t id) const {
        return mode_names_[id];
    }
    [[nodiscard]] const std::string& transition_name(std::uint32_t id) const {
        return transition_names_[id];
    }
    /// Name of an alternative id (a transition name or "sync ACTION").
    [[nodiscard]] const std::string& alternative_name(std::uint32_t id) const;
    /// True when firing the transition is an error-event activation (it
    /// belongs to an attached error-model process).
    [[nodiscard]] bool transition_is_error(std::uint32_t id) const {
        return transition_error_[id] != 0;
    }

private:
    std::vector<std::uint32_t> mode_base_;       // per process
    std::vector<std::uint32_t> transition_base_; // per process
    std::vector<std::string> mode_names_;
    std::vector<std::string> transition_names_;
    std::vector<std::string> action_names_; // alternative id - transition_count()
    std::vector<std::uint32_t> transition_dst_mode_;
    std::vector<char> transition_error_;
};

class Network {
public:
    /// Compiles the model via the process-wide compile_model() cache.
    explicit Network(std::shared_ptr<const InstanceModel> model);
    /// Wraps a pre-compiled model (no compilation work).
    explicit Network(CompiledModelPtr compiled);

    [[nodiscard]] const InstanceModel& model() const { return *model_; }
    [[nodiscard]] const CompiledModelPtr& compiled() const { return cm_; }

    /// Benchmark / differential-test mode: evaluate every expression with
    /// the reference tree-walking interpreter instead of compiled programs
    /// (per-call allocations included, as the pre-compilation simulator
    /// behaved). Results are identical; only the cost profile differs.
    void set_reference_interpreter(bool on) { reference_ = on; }
    [[nodiscard]] bool reference_interpreter() const { return reference_; }

    /// Initial state: initial locations, defaults + initial flow evaluation,
    /// initial activation, injections of initial error states applied.
    [[nodiscard]] NetworkState initial_state() const;

    /// Initial state with some processes forced into given locations (used
    /// by the safety analyses to activate failure modes at t = 0). Fault
    /// injections and data flows of the forced configuration are applied.
    [[nodiscard]] NetworkState
    forced_initial_state(std::span<const std::pair<ProcessId, int>> forced) const;

    /// Cached initial state: computed once per scratch, then shared (only a
    /// successful computation is cached, so throwing models keep their
    /// per-path throw semantics). Compiled mode only.
    [[nodiscard]] const NetworkState& initial_state(SimScratch& scratch) const;

    // --- timing analysis ----------------------------------------------------

    /// Largest T such that every active process's location invariant holds
    /// throughout [0, T]. Returns +infinity when unconstrained; 0 when an
    /// invariant forbids any delay.
    [[nodiscard]] double invariant_horizon(const NetworkState& s) const;
    [[nodiscard]] double invariant_horizon(const NetworkState& s,
                                           SimScratch& scratch) const;

    /// All discrete candidates with non-empty enablement sets within
    /// [0, horizon].
    [[nodiscard]] std::vector<Candidate> candidates(const NetworkState& s,
                                                    double horizon) const;
    /// Scratch-buffer variant: the returned span points into
    /// `scratch.candidates` and is valid until the next call on the scratch.
    [[nodiscard]] std::span<const Candidate>
    candidates(const NetworkState& s, double horizon, SimScratch& scratch) const;

    /// Markovian exit rates per active process (only processes whose current
    /// location has exit-rate transitions).
    [[nodiscard]] std::vector<MarkovianRate> markovian_rates(const NetworkState& s) const;
    /// Interned variant: the span points into the scratch's interning table
    /// and stays valid while the scratch exists.
    [[nodiscard]] std::span<const MarkovianRate>
    markovian_rates(const NetworkState& s, SimScratch& scratch) const;

    /// Interned per-variable derivative vector at the current state (same
    /// values as compute_rates; one hash lookup on revisits).
    [[nodiscard]] std::span<const double> rates_of(const NetworkState& s,
                                                   SimScratch& scratch) const;

    // --- evolution ------------------------------------------------------------

    /// Advances time by d: timed variables of active processes evolve with
    /// their location-dependent slopes.
    void elapse(NetworkState& s, double d) const;

    /// Executes a candidate chosen by the strategy (after any elapse). For
    /// Sync, each participant's transition is drawn equiprobably among its
    /// enabled ones; for BroadcastSend, every ready receiver joins. Returns
    /// step details for tracing.
    StepInfo execute(NetworkState& s, const Candidate& c, Rng& rng) const;
    StepInfo execute(NetworkState& s, const Candidate& c, Rng& rng,
                     SimScratch& scratch) const;

    /// Executes the Markovian race winner of `process`: one of its exit-rate
    /// transitions, drawn with probability proportional to its rate.
    StepInfo execute_markovian(NetworkState& s, ProcessId process, Rng& rng) const;
    StepInfo execute_markovian(NetworkState& s, ProcessId process, Rng& rng,
                               SimScratch& scratch) const;

    /// Enumerates every joint discrete move with its probability weight
    /// (used by the exhaustive state-space builder; uniform resolution of
    /// sub-choices). Each element is (firing set, weight); weights of a
    /// candidate sum to 1.
    struct ResolvedMove {
        std::vector<std::pair<ProcessId, int>> firing;
        double probability = 1.0;
    };
    [[nodiscard]] std::vector<ResolvedMove>
    resolve_moves(const NetworkState& s, const Candidate& c, SimScratch& scratch) const;
    /// Applies one resolved firing set (state-space builder path).
    StepInfo apply_firing(NetworkState& s,
                          const std::vector<std::pair<ProcessId, int>>& firing,
                          SimScratch& scratch) const;

    // --- queries ---------------------------------------------------------------

    /// True if the transition's guard holds in the current valuation.
    [[nodiscard]] bool enabled_now(const NetworkState& s, ProcessId p, int t) const;
    [[nodiscard]] bool enabled_now(const NetworkState& s, ProcessId p, int t,
                                   SimScratch& scratch) const;

    /// Evaluates a Boolean expression with identity bindings (global names),
    /// e.g. a property atom.
    [[nodiscard]] bool eval_global(const NetworkState& s, const expr::Expr& e) const;

    /// Per-variable derivative vector at the current state (active processes'
    /// location slopes; inactive processes freeze).
    void compute_rates(const NetworkState& s, std::vector<double>& rates) const;

    /// Transitions of process p leaving its current location.
    [[nodiscard]] std::span<const int> outgoing(const NetworkState& s, ProcessId p) const;

private:
    // Private implementations share one control flow between the compiled
    // path and the reference interpreter: `scratch == nullptr` means
    // reference mode (tree-walking evaluation, per-call allocations — the
    // pre-compilation behaviour), non-null means compiled programs and
    // scratch buffers. Both produce identical results.
    [[nodiscard]] double invariant_horizon_impl(const NetworkState& s,
                                                SimScratch* scratch) const;
    void candidates_impl(const NetworkState& s, double horizon, SimScratch* scratch,
                         std::vector<Candidate>& out) const;
    StepInfo execute_impl(NetworkState& s, const Candidate& c, Rng& rng,
                          SimScratch* scratch) const;
    StepInfo execute_markovian_impl(NetworkState& s, ProcessId process, Rng& rng,
                                    SimScratch* scratch) const;
    StepInfo apply_firing_impl(NetworkState& s,
                               const std::vector<std::pair<ProcessId, int>>& firing,
                               SimScratch* scratch) const;
    [[nodiscard]] bool enabled_now_impl(const NetworkState& s, ProcessId p, int t,
                                        SimScratch* scratch) const;
    void recompute_activation(NetworkState& s, StepInfo* info,
                              SimScratch* scratch) const;
    void fire_trigger_class(NetworkState& s, std::size_t instance, slim::TriggerClass tc,
                            StepInfo* info, SimScratch* scratch) const;
    /// Inject / flow / inject after the locations and activation are final.
    void settle(NetworkState& s, SimScratch* scratch) const;
    void run_flows(NetworkState& s) const;
    void apply_injections_for_current_states(NetworkState& s) const;
    void fire_one(NetworkState& s, ProcessId p, int t, StepInfo* info,
                  SimScratch* scratch) const;
    [[nodiscard]] IntervalSet guard_times(const NetworkState& s,
                                          std::span<const double> rates, ProcessId p,
                                          int t, SimScratch* scratch) const;
    /// Thread-local scratch for the legacy (scratch-less) entry points;
    /// bound to this network's compiled model. Null in reference mode.
    [[nodiscard]] SimScratch* legacy_scratch() const;

    std::shared_ptr<const InstanceModel> model_;
    CompiledModelPtr cm_;
    bool reference_ = false;
    bool static_activation_ = false; // no mode gates: activation never changes
};

/// Front-end phase timings of build_network_from_* (telemetry run reports).
struct LoadPhases {
    double parse_seconds = 0.0;       // lex + parse + resolve
    double instantiate_seconds = 0.0; // instantiate + validate
};

/// Convenience pipeline: SLIM source -> parsed -> resolved -> instantiated ->
/// validated -> Network. Throws slimsim::Error on any front-end error.
/// `phases`, when non-null, receives the front-end timing breakdown.
[[nodiscard]] Network build_network_from_source(std::string_view source,
                                                std::string filename = "<input>",
                                                LoadPhases* phases = nullptr);
[[nodiscard]] Network build_network_from_file(const std::string& path,
                                              LoadPhases* phases = nullptr);
[[nodiscard]] std::shared_ptr<const InstanceModel>
load_instance_model(std::string_view source, std::string filename = "<input>",
                    LoadPhases* phases = nullptr);

} // namespace slimsim::eda
