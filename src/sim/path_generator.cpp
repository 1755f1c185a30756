#include "sim/path_generator.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "sim/coverage.hpp"

namespace slimsim::sim {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Every kMeterStride-th path per generator flushes the pending engine
/// counts and is timed into slimsim_path_seconds; the others neither read
/// the clock nor touch an instrument.
constexpr std::uint64_t kMeterStride = 64;

constexpr const char* kPathsCompleted = "slimsim_paths_completed_total";
constexpr const char* kPathSteps = "slimsim_path_steps_total";
constexpr const char* kFires = "slimsim_transition_fires_live_total";
constexpr const char* kInterned = "slimsim_interned_configs_total";
constexpr const char* kStepsPerPath = "slimsim_steps_per_path";
// Label values of kFires, indexed by PathGenerator::FireKind.
constexpr const char* kFireKindNames[] = {"markovian", "strategy", "pure_delay"};

/// The run report's engine counters and histograms with the registry
/// instrument each is read from.
struct EngineInstrument {
    const char* report_name;
    const char* family;
    const char* kind; // kFires label value, null for unlabelled families
    bool histogram;
};
constexpr EngineInstrument kEngineInstruments[] = {
    {"sim.interned_states", kInterned, nullptr, false},
    {"sim.markovian_steps", kFires, kFireKindNames[0], false},
    {"sim.paths", kPathsCompleted, nullptr, false},
    {"sim.pure_delays", kFires, kFireKindNames[2], false},
    {"sim.steps", kPathSteps, nullptr, false},
    {"sim.steps_per_path", kStepsPerPath, nullptr, true},
    {"sim.strategy_steps", kFires, kFireKindNames[1], false},
};
} // namespace

EngineCounts engine_counts(const metrics::Registry& registry) {
    EngineCounts out;
    for (const EngineInstrument& e : kEngineInstruments) {
        out.push_back(registry.totals(
            e.family, e.kind != nullptr ? metrics::label("kind", e.kind) : std::string()));
    }
    return out;
}

void add_engine_counts(telemetry::RunReport& report, const EngineCounts& start,
                       const EngineCounts& end) {
    for (std::size_t i = 0; i < std::size(kEngineInstruments); ++i) {
        std::vector<std::uint64_t> delta = end[i];
        if (delta.empty()) continue;
        if (i < start.size() && start[i].size() == delta.size()) {
            for (std::size_t b = 0; b < delta.size(); ++b) delta[b] -= start[i][b];
        }
        const char* name = kEngineInstruments[i].report_name;
        if (!kEngineInstruments[i].histogram) {
            report.counters.emplace_back(name, delta[0]);
            continue;
        }
        std::vector<std::pair<std::string, std::uint64_t>> bins;
        for (std::size_t b = 0; b < delta.size(); ++b) {
            if (delta[b] > 0) bins.emplace_back(metrics::count_bucket_label(b), delta[b]);
        }
        report.histograms.emplace_back(name, std::move(bins));
    }
    std::sort(report.counters.begin(), report.counters.end());
    std::sort(report.histograms.begin(), report.histograms.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
}

std::vector<std::pair<std::string, std::uint64_t>>
terminal_histogram(const std::array<std::size_t, kPathTerminalCount>& terminals) {
    std::vector<std::pair<std::string, std::uint64_t>> out;
    out.reserve(kPathTerminalCount);
    for (std::size_t i = 0; i < kPathTerminalCount; ++i) {
        out.emplace_back(to_string(static_cast<PathTerminal>(i)), terminals[i]);
    }
    return out;
}

std::string to_string(PathTerminal t) {
    switch (t) {
    case PathTerminal::Goal: return "goal";
    case PathTerminal::TimeBound: return "time-bound";
    case PathTerminal::Refuted: return "refuted";
    case PathTerminal::Deadlock: return "deadlock";
    case PathTerminal::Timelock: return "timelock";
    case PathTerminal::Error: return "error";
    }
    return "?";
}

RaceResult markov_race(std::span<const eda::MarkovianRate> rates, Rng& rng) {
    // Every delay is -log1p(-u)/rate >= P(u)/rate with P(u) = u + u²/2 + u³/3,
    // the first terms of -ln(1-u)'s all-positive series. A uniform whose
    // bound already reaches the running minimum cannot win (a win needs a
    // strictly smaller delay), so its log is skipped. The 2^-40 margin is far
    // wider than log1p's few-ulp error and the roundings of the bound. The
    // winner's delay is computed exactly as Rng::exponential computes it.
    constexpr double kMargin = 1.0 + 0x1.0p-40;
    RaceResult race;
    double cutoff = kInf; // race.time * kMargin
    for (const auto& [proc, rate] : rates) {
        const double u = rng.uniform01();
        if (u * (1.0 + u * (0.5 + u * (1.0 / 3.0))) / rate >= cutoff) continue;
        const double d = exponential_from_uniform(u, rate);
        if (d < race.time) {
            race.time = d;
            race.winner = proc;
            cutoff = d * kMargin;
        }
    }
    return race;
}

PathGenerator::PathGenerator(const eda::Network& net, const PathFormula& formula,
                             Strategy& strategy, SimOptions options)
    : net_(net), formula_(formula), strategy_(strategy), options_(options),
      cov_(options.coverage_shard) {
    SLIMSIM_ASSERT(formula_.goal != nullptr);
    SLIMSIM_ASSERT(formula_.kind != FormulaKind::Until || formula_.hold != nullptr);
    goal_prog_ = expr::compile(*formula_.goal);
    if (formula_.hold != nullptr) hold_prog_ = expr::compile(*formula_.hold);
    if (metrics::Registry* reg = options_.metrics; reg != nullptr) {
        SLIMSIM_ASSERT(options_.metrics_shard < reg->shards());
        shard_ = options_.metrics_shard;
        c_started_ = &reg->counter("slimsim_paths_started_total",
                                   "Simulation paths started.");
        c_completed_ = &reg->counter(kPathsCompleted, "Simulation paths completed.");
        c_steps_ = &reg->counter(kPathSteps, "Discrete steps over all paths.");
        for (std::size_t k = 0; k < c_fires_.size(); ++k) {
            c_fires_[k] = &reg->counter(kFires, "Transition fires by kind (live).",
                                        metrics::label("kind", kFireKindNames[k]));
        }
        c_interned_ = &reg->counter(kInterned,
                                    "Discrete configurations interned by the path "
                                    "generators.");
        h_steps_ = &reg->count_histogram(kStepsPerPath,
                                         "Discrete steps per simulated path.");
        h_path_seconds_ = &reg->histogram(
            "slimsim_path_seconds",
            "Wall-clock seconds per simulated path (every 64th path per worker).",
            metrics::time_buckets());
    }
    if (tracer::Lane* lane = options_.trace_lane; lane != nullptr) {
        lane_ = lane;
        n_path_ = lane->intern("sim.path");
        n_delay_ = lane->intern("sim.delay_sample");
        n_choose_ = lane->intern("sim.strategy_choose");
        n_fire_markov_ = lane->intern("sim.fire_markovian");
        n_fire_strategy_ = lane->intern("sim.fire_strategy");
        n_arg_steps_ = lane->intern("steps");
        n_arg_count_ = lane->intern("count");
    }
}

bool PathGenerator::goal_holds(const eda::NetworkState& s) const {
    return goal_prog_->run_bool(s.values, scratch_.eval);
}

bool PathGenerator::hold_holds(const eda::NetworkState& s) const {
    return hold_prog_->run_bool(s.values, scratch_.eval);
}

PathGenerator::MonitorResult PathGenerator::instant_verdict(
    const eda::NetworkState& s) const {
    const double t = s.time;
    switch (formula_.kind) {
    case FormulaKind::Reach:
        if (t >= formula_.lo && t <= formula_.bound && goal_holds(s)) {
            return {Verdict::Satisfied, 0.0};
        }
        if (t >= formula_.bound) return {Verdict::Refuted, 0.0};
        return {};
    case FormulaKind::Until:
        if (t >= formula_.lo && t <= formula_.bound && goal_holds(s)) {
            return {Verdict::Satisfied, 0.0};
        }
        if (!hold_holds(s)) return {Verdict::Refuted, 0.0};
        if (t >= formula_.bound) return {Verdict::Refuted, 0.0};
        return {};
    case FormulaKind::Globally:
        if (!goal_holds(s)) return {Verdict::Refuted, 0.0};
        if (t >= formula_.bound) return {Verdict::Satisfied, 0.0};
        return {};
    }
    return {};
}

PathGenerator::MonitorResult PathGenerator::elapse_verdict(const eda::NetworkState& s,
                                                           double d) const {
    if (d <= 0.0) return {};
    const std::span<const double> rates = net_.rates_of(s, scratch_);
    auto sat_goal = [&] { return goal_prog_->satisfying_times(s.values, rates, scratch_.eval); };
    auto sat_hold = [&] { return hold_prog_->satisfying_times(s.values, rates, scratch_.eval); };
    const double t = s.time;
    const double to_bound = formula_.bound - t; // > 0 (instant decided otherwise)

    switch (formula_.kind) {
    case FormulaKind::Reach: {
        const double win_lo = std::max(0.0, formula_.lo - t);
        const double win_hi = std::min(d, to_bound);
        if (win_lo <= win_hi) {
            const IntervalSet hits = sat_goal().clamp(win_lo, win_hi);
            if (const auto e = hits.earliest()) return {Verdict::Satisfied, *e};
        }
        if (d >= to_bound) return {Verdict::Refuted, to_bound};
        return {};
    }
    case FormulaKind::Until: {
        const IntervalSet hold_set = sat_hold();
        // hold is true at the current instant (instant_verdict), so the
        // prefix exists; closure effects can only extend it.
        const double hold_until = hold_set.prefix_horizon().value_or(0.0);
        const double win_lo = std::max(0.0, formula_.lo - t);
        const double win_hi = std::min(d, to_bound);
        if (win_lo <= win_hi) {
            const IntervalSet hits = sat_goal().clamp(win_lo, win_hi);
            if (const auto e = hits.earliest(); e && *e <= hold_until) {
                return {Verdict::Satisfied, *e};
            }
        }
        if (hold_until < std::min(d, to_bound)) return {Verdict::Refuted, hold_until};
        if (d >= to_bound) return {Verdict::Refuted, to_bound};
        return {};
    }
    case FormulaKind::Globally: {
        const IntervalSet ok_set = sat_goal();
        const double ok_until = ok_set.prefix_horizon().value_or(0.0);
        const double lim = std::min(d, to_bound);
        if (ok_until < lim) return {Verdict::Refuted, ok_until};
        if (d >= to_bound) return {Verdict::Satisfied, to_bound};
        return {};
    }
    }
    return {};
}

void PathGenerator::advance(eda::NetworkState& s, double d) const {
    if (cov_ != nullptr && d > 0.0) cov_->on_elapse(d);
    net_.elapse(s, d);
}

std::optional<PathOutcome> PathGenerator::iterate(eda::NetworkState& s, Rng& rng,
                                                  std::size_t& steps, Trace* trace,
                                                  std::optional<double>* sched_abs) const {
    auto finish = [&](bool satisfied, PathTerminal terminal) {
        PathOutcome out;
        out.satisfied = satisfied;
        out.terminal = terminal;
        out.end_time = s.time;
        out.steps = steps;
        if (trace != nullptr) {
            trace->set_result(s.time, to_string(terminal), satisfied);
        }
        return out;
    };
    // Classifies a monitor decision into a terminal and finishes.
    auto finish_decided = [&](const MonitorResult& v) {
        SLIMSIM_ASSERT(v.verdict != Verdict::Undecided);
        if (v.verdict == Verdict::Satisfied) return finish(true, PathTerminal::Goal);
        const bool at_bound = s.time >= formula_.bound - 1e-12;
        return finish(false, at_bound ? PathTerminal::TimeBound : PathTerminal::Refuted);
    };

    if (steps > options_.max_steps) {
        throw Error("path exceeded " + std::to_string(options_.max_steps) +
                    " discrete steps; the model appears to be Zeno");
    }
    if (const MonitorResult v = instant_verdict(s); v.verdict != Verdict::Undecided) {
        return finish_decided(v);
    }
    const double remaining = formula_.bound - s.time; // > 0 here

    // The strategies resolve delays within the *invariant horizon* — a
    // MaxTime delay may overshoot the formula bound and miss the goal;
    // that is the strategy's semantics. Only when no invariant
    // constrains the future does the formula bound cap the window
    // (delays past it cannot change the verdict).
    const double horizon = net_.invariant_horizon(s, scratch_);
    const double window = std::isinf(horizon) ? remaining : horizon;

    // Markovian race: earliest exponential among rate locations.
    if (lane_ != nullptr) lane_->begin(n_delay_);
    const std::span<const eda::MarkovianRate> rates = net_.markovian_rates(s, scratch_);
    const RaceResult race = markov_race(rates, rng);
    if (lane_ != nullptr) lane_->end(n_arg_count_, static_cast<double>(rates.size()));

    const std::span<const eda::Candidate> cands = net_.candidates(s, window, scratch_);

    // Strategy choice, honoring the Continue memory policy if an earlier
    // scheduled time is still ahead and feasible.
    std::optional<ScheduledChoice> choice;
    const bool continue_policy =
        options_.memory == MemoryPolicy::Continue && sched_abs != nullptr;
    const double sched = continue_policy && *sched_abs ? **sched_abs : -1.0;
    if (continue_policy && sched >= s.time && sched - s.time <= window) {
        const double d = sched - s.time;
        if (const int idx = pick_enabled_at(cands, d, rng); idx >= 0) {
            choice = ScheduledChoice{d, idx};
        }
    }
    if (!choice) {
        if (lane_ != nullptr) lane_->begin(n_choose_);
        choice = strategy_.choose(net_, s, cands, window, rng);
        if (lane_ != nullptr) {
            lane_->end(n_arg_count_, static_cast<double>(cands.size()));
        }
        if (choice && continue_policy) *sched_abs = s.time + choice->delay;
    }
    SLIMSIM_ASSERT(!choice || (choice->delay >= 0.0 && choice->delay <= window));

    // If neither the Markovian race nor the strategy schedules anything
    // before the formula bound, the verdict is decided by pure elapse.
    const double strategy_delay = choice ? choice->delay : kInf;
    const double next_event = std::min(strategy_delay, race.time); // inf if none raced
    if (next_event > remaining && next_event <= window) {
        const MonitorResult v = elapse_verdict(s, remaining);
        SLIMSIM_ASSERT(v.verdict != Verdict::Undecided);
        advance(s, v.at);
        return finish_decided(v);
    }

    const bool markov_first =
        race.winner >= 0 && race.time <= window &&
        (!choice || race.time < choice->delay ||
         (race.time == choice->delay && rng.bernoulli(0.5)));

    if (markov_first) {
        if (const MonitorResult v = elapse_verdict(s, race.time);
            v.verdict != Verdict::Undecided) {
            advance(s, v.at);
            return finish_decided(v);
        }
        advance(s, race.time);
        const eda::StepInfo info = net_.execute_markovian(s, race.winner, rng, scratch_);
        if (cov_ != nullptr) cov_->on_step(info);
        if (trace != nullptr) trace->record(s.time, describe_step(net_, info));
        ++pending_.fires[kMarkovian];
        if (lane_ != nullptr) {
            lane_->instant(n_fire_markov_, n_arg_steps_, static_cast<double>(steps + 1));
        }
        ++steps;
        // Exponential memorylessness makes resampling unbiased; the
        // Continue policy only preserves the *strategy's* schedule.
        return std::nullopt;
    }

    if (choice) {
        if (const MonitorResult v = elapse_verdict(s, choice->delay);
            v.verdict != Verdict::Undecided) {
            advance(s, v.at);
            return finish_decided(v);
        }
        advance(s, choice->delay);
        if (choice->candidate >= 0) {
            const eda::Candidate& c = cands[static_cast<std::size_t>(choice->candidate)];
            const eda::StepInfo info = net_.execute(s, c, rng, scratch_);
            if (cov_ != nullptr) cov_->on_step(info);
            if (trace != nullptr) trace->record(s.time, describe_step(net_, info));
            if (sched_abs != nullptr) sched_abs->reset();
            ++pending_.fires[kStrategy];
            if (lane_ != nullptr) {
                lane_->instant(n_fire_strategy_, n_arg_steps_,
                               static_cast<double>(steps + 1));
            }
        } else {
            if (trace != nullptr) trace->record(s.time, "delay (no transition chosen)");
            ++pending_.fires[kPureDelay];
        }
        ++steps;
        return std::nullopt;
    }

    // Nothing can fire within the window.
    if (const MonitorResult v = elapse_verdict(s, std::min(window, remaining));
        v.verdict != Verdict::Undecided) {
        // A decision by pure elapse; classify stuck paths precisely:
        // a refutation strictly before the bound is a genuine violation
        // (Refuted); running out of time in a state from which no
        // discrete step can ever happen again is a Deadlock.
        const bool nothing_ever = cands.empty() && rates.empty() && horizon == kInf;
        if (nothing_ever && v.verdict == Verdict::Refuted) {
            if (options_.deadlock == StuckPolicy::Error) {
                throw Error("deadlock at t=" + std::to_string(s.time) +
                            ": no discrete step can ever happen again");
            }
            if (v.at >= remaining - 1e-12) {
                advance(s, v.at);
                return finish(false, PathTerminal::Deadlock);
            }
        }
        advance(s, v.at);
        return finish_decided(v);
    }
    // window < remaining and the monitor is still undecided at the
    // horizon: the invariant expires with nothing enabled — timelock.
    SLIMSIM_ASSERT(window < remaining);
    if (options_.timelock == StuckPolicy::Error) {
        throw Error("timelock at t=" + std::to_string(s.time + window) +
                    ": an invariant expires with no enabled transition");
    }
    advance(s, window);
    return finish(false, PathTerminal::Timelock);
}

PathOutcome PathGenerator::run_impl(Rng& rng, Trace* trace) const {
    // Copies the cached initial state into the reusable per-path buffers.
    scratch_.path_state = net_.initial_state(scratch_);
    eda::NetworkState& s = scratch_.path_state;
    std::optional<double> scheduled_abs; // Continue memory policy
    std::size_t steps = 0;
    if (trace != nullptr) trace->record(0.0, "initial " + describe_state(net_, s));
    if (lane_ != nullptr) lane_->begin(n_path_);
    if (cov_ != nullptr) cov_->begin_path(s);
    // Metered runs flush and read the wall clock for one path in
    // kMeterStride; unmetered ones pay a single branch per path.
    std::chrono::steady_clock::time_point path_start;
    bool timed = false;
    if (c_started_ != nullptr) {
        ++pending_.started;
        timed = paths_started_++ % kMeterStride == 0;
        if (timed) {
            flush_counts();
            path_start = std::chrono::steady_clock::now();
        }
    }
    std::optional<PathOutcome> out;
    do {
        out = iterate(s, rng, steps, trace, &scheduled_abs);
    } while (!out);
    if (cov_ != nullptr) cov_->end_path();
    if (c_started_ != nullptr) {
        ++pending_.completed;
        pending_.steps += out->steps;
        ++pending_.steps_per_path[metrics::count_bucket(out->steps)];
        if (scratch_.interner.size() > interned_reported_) {
            pending_.interned += scratch_.interner.size() - interned_reported_;
            interned_reported_ = scratch_.interner.size();
        }
        if (timed) {
            h_path_seconds_->observe(
                shard_, std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                      path_start)
                            .count());
        }
    }
    if (lane_ != nullptr) lane_->end(n_arg_steps_, static_cast<double>(out->steps));
    return *out;
}

PathGenerator::~PathGenerator() { flush_counts(); }

void PathGenerator::flush_counts() const {
    if (c_started_ == nullptr) return;
    const auto add = [this](metrics::Counter* c, std::uint64_t n) {
        if (n > 0) c->add(shard_, n);
    };
    add(c_started_, pending_.started);
    add(c_completed_, pending_.completed);
    add(c_steps_, pending_.steps);
    for (std::size_t k = 0; k < c_fires_.size(); ++k) add(c_fires_[k], pending_.fires[k]);
    if (pending_.completed > 0) {
        h_steps_->add_binned(shard_, pending_.steps_per_path, pending_.steps);
        pending_.steps_per_path = {};
    }
    add(c_interned_, pending_.interned);
    // steps_per_path is cleared above only when it holds anything, which
    // keeps a step() call's flush to a few stores.
    pending_.started = pending_.completed = pending_.steps = pending_.interned = 0;
    pending_.fires = {};
}

std::optional<PathOutcome> PathGenerator::step(eda::NetworkState& state, Rng& rng,
                                               std::size_t& steps) const {
    std::optional<PathOutcome> out = iterate(state, rng, steps, nullptr, nullptr);
    flush_counts();
    return out;
}

} // namespace slimsim::sim
