// Strategies for resolving non-determinism (paper, Sec. III-B).
//
// Where the specification under-specifies *when* the next discrete step
// happens, the user-selected strategy decides. All strategies resolve
// under-specification of *choice* (which of several enabled alternatives)
// equiprobably; they differ in how the delay is selected:
//   ASAP        - the first instant any discrete transition is enabled
//                 (urgent semantics; MODES-style)
//   Progressive - uniform over the exact union of enablement intervals
//                 (UPPAAL-SMC-style)
//   Local       - uniform over the invariant horizon only, ignoring guards
//   MaxTime     - wait as long as the invariants allow (finds actionlocks)
//   Input       - delegate to a user callback (interactive / scripted)
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>

#include "eda/network.hpp"

namespace slimsim::sim {

enum class StrategyKind : std::uint8_t { Asap, Progressive, Local, MaxTime, Input };

[[nodiscard]] std::string to_string(StrategyKind k);
[[nodiscard]] std::optional<StrategyKind> strategy_from_string(std::string_view name);
/// All automated strategies (everything except Input).
[[nodiscard]] std::span<const StrategyKind> automated_strategies();

/// A scheduling decision: delay for `delay` time units, then fire candidate
/// `candidate` (an index into the candidate span), or nothing if -1 (pure
/// delay; the generator re-evaluates afterwards).
struct ScheduledChoice {
    double delay = 0.0;
    int candidate = -1;
};

/// Observes every resolved scheduling decision (sim/coverage builds its
/// per-choice-point decision histograms through this). The observer sees the
/// candidate span the strategy chose from plus the choice it made; it is only
/// notified for decisions at a real choice point (a non-empty candidate set).
class DecisionObserver {
public:
    virtual ~DecisionObserver() = default;
    virtual void on_decision(std::span<const eda::Candidate> candidates,
                             const ScheduledChoice& choice) = 0;
};

/// Uniform pick among the candidates enabled at delay t (equiprobability of
/// under-specified choice): one rng.uniform_index(n) draw over the n enabled
/// ones, returning the drawn one's index in candidate order. Returns -1, and
/// draws nothing, if none is enabled at t.
[[nodiscard]] int pick_enabled_at(std::span<const eda::Candidate> candidates, double t,
                                  Rng& rng);

class Strategy {
public:
    virtual ~Strategy() = default;

    [[nodiscard]] virtual std::string name() const = 0;

    /// Chooses a delay (within [0, horizon]) and optionally a candidate
    /// enabled after that delay. Candidates' enablement sets are already
    /// clamped to [0, horizon]. Returns nullopt when the strategy cannot
    /// make progress (no candidate and no useful delay). Non-virtual: the
    /// decision is delegated to choose_impl and, when an observer is
    /// attached, reported to it.
    [[nodiscard]] std::optional<ScheduledChoice>
    choose(const eda::Network& net, const eda::NetworkState& state,
           std::span<const eda::Candidate> candidates, double horizon, Rng& rng) {
        auto choice = choose_impl(net, state, candidates, horizon, rng);
        if (observer_ != nullptr && choice.has_value() && !candidates.empty()) {
            observer_->on_decision(candidates, *choice);
        }
        return choice;
    }

    /// Attaches (or detaches, with nullptr) the decision observer. Not
    /// thread-safe: parallel runners give each worker its own strategy.
    void set_observer(DecisionObserver* observer) { observer_ = observer; }
    [[nodiscard]] DecisionObserver* observer() const { return observer_; }

protected:
    [[nodiscard]] virtual std::optional<ScheduledChoice>
    choose_impl(const eda::Network& net, const eda::NetworkState& state,
                std::span<const eda::Candidate> candidates, double horizon, Rng& rng) = 0;

private:
    DecisionObserver* observer_ = nullptr;
};

/// Callback type of the Input strategy. Receiving the same arguments as
/// Strategy::choose (minus the RNG); used for interactive and scripted runs.
using InputCallback = std::function<std::optional<ScheduledChoice>(
    const eda::Network&, const eda::NetworkState&, std::span<const eda::Candidate>, double)>;

[[nodiscard]] std::unique_ptr<Strategy> make_strategy(StrategyKind kind);
[[nodiscard]] std::unique_ptr<Strategy> make_input_strategy(InputCallback callback);

} // namespace slimsim::sim
