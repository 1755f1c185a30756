#include "sim/strategy.hpp"

#include <algorithm>
#include <array>
#include <limits>

namespace slimsim::sim {

int pick_enabled_at(std::span<const eda::Candidate> candidates, double t, Rng& rng) {
    // Count, draw k, then walk to the k-th enabled candidate: the same draw
    // and result as indexing a list of the enabled ones, without the list.
    std::size_t n = 0;
    for (const auto& c : candidates) n += c.enabled.contains(t) ? 1 : 0;
    if (n == 0) return -1;
    std::size_t k = rng.uniform_index(n);
    for (std::size_t i = 0;; ++i) {
        if (candidates[i].enabled.contains(t) && k-- == 0) return static_cast<int>(i);
    }
}

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

class AsapStrategy final : public Strategy {
public:
    std::string name() const override { return "asap"; }

    std::optional<ScheduledChoice> choose_impl(const eda::Network&, const eda::NetworkState&,
                                          std::span<const eda::Candidate> candidates,
                                          double /*horizon*/, Rng& rng) override {
        double first = kInf;
        for (const auto& c : candidates) {
            if (const auto e = c.enabled.earliest()) first = std::min(first, *e);
        }
        if (first == kInf) return std::nullopt;
        const int idx = pick_enabled_at(candidates, first, rng);
        SLIMSIM_ASSERT(idx >= 0);
        return ScheduledChoice{first, idx};
    }
};

class ProgressiveStrategy final : public Strategy {
public:
    std::string name() const override { return "progressive"; }

    std::optional<ScheduledChoice> choose_impl(const eda::Network&, const eda::NetworkState&,
                                          std::span<const eda::Candidate> candidates,
                                          double /*horizon*/, Rng& rng) override {
        IntervalSet all;
        for (const auto& c : candidates) all = all.unite(c.enabled);
        if (all.empty()) return std::nullopt;
        const double t = all.sample_uniform(rng);
        const int idx = pick_enabled_at(candidates, t, rng);
        SLIMSIM_ASSERT(idx >= 0);
        return ScheduledChoice{t, idx};
    }
};

class LocalStrategy final : public Strategy {
public:
    std::string name() const override { return "local"; }

    std::optional<ScheduledChoice> choose_impl(const eda::Network&, const eda::NetworkState&,
                                          std::span<const eda::Candidate> candidates,
                                          double horizon, Rng& rng) override {
        if (candidates.empty() && horizon <= 0.0) return std::nullopt;
        const double t = rng.uniform(0.0, horizon);
        const int idx = pick_enabled_at(candidates, t, rng);
        if (idx < 0 && t <= 0.0) {
            // Degenerate: no delay possible and nothing enabled at 0.
            return candidates.empty() ? std::nullopt
                                      : std::optional(ScheduledChoice{0.0, -1});
        }
        return ScheduledChoice{t, idx};
    }
};

class MaxTimeStrategy final : public Strategy {
public:
    std::string name() const override { return "maxtime"; }

    std::optional<ScheduledChoice> choose_impl(const eda::Network&, const eda::NetworkState&,
                                          std::span<const eda::Candidate> candidates,
                                          double horizon, Rng& rng) override {
        const double t = horizon;
        const int idx = pick_enabled_at(candidates, t, rng);
        if (idx < 0 && t <= 0.0) return std::nullopt; // actionlock at the horizon
        return ScheduledChoice{t, idx};
    }
};

class InputStrategy final : public Strategy {
public:
    explicit InputStrategy(InputCallback cb) : cb_(std::move(cb)) {}

    std::string name() const override { return "input"; }

    std::optional<ScheduledChoice> choose_impl(const eda::Network& net,
                                          const eda::NetworkState& state,
                                          std::span<const eda::Candidate> candidates,
                                          double horizon, Rng&) override {
        return cb_(net, state, candidates, horizon);
    }

private:
    InputCallback cb_;
};

} // namespace

std::string to_string(StrategyKind k) {
    switch (k) {
    case StrategyKind::Asap: return "asap";
    case StrategyKind::Progressive: return "progressive";
    case StrategyKind::Local: return "local";
    case StrategyKind::MaxTime: return "maxtime";
    case StrategyKind::Input: return "input";
    }
    return "?";
}

std::optional<StrategyKind> strategy_from_string(std::string_view name) {
    if (name == "asap") return StrategyKind::Asap;
    if (name == "progressive") return StrategyKind::Progressive;
    if (name == "local") return StrategyKind::Local;
    if (name == "maxtime") return StrategyKind::MaxTime;
    if (name == "input") return StrategyKind::Input;
    return std::nullopt;
}

std::span<const StrategyKind> automated_strategies() {
    static constexpr std::array<StrategyKind, 4> kAll = {
        StrategyKind::Asap, StrategyKind::Progressive, StrategyKind::Local,
        StrategyKind::MaxTime};
    return kAll;
}

std::unique_ptr<Strategy> make_strategy(StrategyKind kind) {
    switch (kind) {
    case StrategyKind::Asap: return std::make_unique<AsapStrategy>();
    case StrategyKind::Progressive: return std::make_unique<ProgressiveStrategy>();
    case StrategyKind::Local: return std::make_unique<LocalStrategy>();
    case StrategyKind::MaxTime: return std::make_unique<MaxTimeStrategy>();
    case StrategyKind::Input:
        throw Error("the input strategy needs a callback; use make_input_strategy");
    }
    throw Error("unknown strategy");
}

std::unique_ptr<Strategy> make_input_strategy(InputCallback callback) {
    if (!callback) throw Error("input strategy callback must not be empty");
    return std::make_unique<InputStrategy>(std::move(callback));
}

} // namespace slimsim::sim
