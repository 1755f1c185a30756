#include "rare/splitting.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "expr/compile.hpp"
#include "expr/eval.hpp"
#include "sim/coverage.hpp"
#include "sim/property.hpp"
#include "sim/runner.hpp"
#include "slim/parser.hpp"
#include "stat/bernoulli.hpp"
#include "support/block_pacer.hpp"

namespace slimsim::rare {

std::string SplittingResult::to_string() const {
    // Deliberately no wall time here: this line is deterministic in
    // (seed, workers); wall clock lives in the report's runtime section.
    std::ostringstream os;
    os << "p^ = " << estimate << " (" << base_runs << " roots, " << total_paths
       << " paths, " << goal_hits << " goal hits, max level " << max_level_seen
       << ", rel. half-width " << relative_half_width << ")";
    return os.str();
}

expr::ExprPtr make_level_function(const slim::InstanceModel& model,
                                  std::string_view source) {
    // Any failure surfaces as the one-line `--split: ...` diagnostic the CLI
    // convention expects (docs/robustness.md).
    try {
        expr::ExprPtr e = slim::parse_expression(source, "<level>");
        // Resolve against the global table; reuse the property plumbing but
        // require an integer result. resolve_goal() insists on bool, so
        // resolve manually here.
        slim::SymbolTable table;
        for (const auto& v : model.vars) {
            slim::Symbol sym;
            sym.name = v.full_name;
            sym.kind = slim::SymKind::Data;
            sym.type = v.type;
            table.add(std::move(sym));
        }
        DiagnosticSink sink;
        slim::resolve_expr(*e, table, sink);
        sink.throw_if_errors("level function resolution");
        if (!e->type.is_int()) {
            throw Error(e->loc, "the level function must be integer-valued");
        }
        return e;
    } catch (const Error& err) {
        std::string msg = err.what();
        // One line only: fold the first diagnostic of a multi-line resolution
        // summary into the headline and drop the rest.
        if (const auto nl = msg.find('\n'); nl != std::string::npos) {
            std::string first = msg.substr(nl + 1, msg.find('\n', nl + 1) - nl - 1);
            msg.resize(nl);
            if (const auto start = first.find_first_not_of(" \t");
                start != std::string::npos) {
                msg += ' ';
                msg.append(first, start, std::string::npos);
            }
        }
        throw Error("--split: " + msg);
    }
}

namespace {

/// Level-function configuration shared by every worker: either a compiled
/// user expression, or the structural auto level — the number of
/// error-model processes outside their initial location, thresholded at the
/// pilot-derived raw values.
struct LevelConfig {
    expr::ProgramPtr program; // null selects the structural level
    /// (process index, initial location) of every error-model process.
    std::vector<std::pair<std::size_t, int>> error_procs;
    /// Ascending raw values promoted to splitting levels (auto mode); the
    /// mapped level of raw r is the number of thresholds <= r.
    std::vector<int> thresholds;
};

/// Per-worker level evaluator (owns its EvalScratch).
class LevelFn {
public:
    explicit LevelFn(const LevelConfig& cfg) : cfg_(&cfg) {}

    /// The raw level: the user expression's value, or the error-state count.
    int raw(const eda::NetworkState& s) {
        if (cfg_->program != nullptr) {
            return static_cast<int>(cfg_->program->run(s.values, scratch_).as_int());
        }
        int n = 0;
        for (const auto& [p, init] : cfg_->error_procs) {
            n += static_cast<int>(s.locations[p] != init);
        }
        return n;
    }

    /// The splitting level: raw for expression levels, thresholded for auto.
    int operator()(const eda::NetworkState& s) {
        const int r = raw(s);
        if (cfg_->program != nullptr) return r;
        int level = 0;
        for (const int t : cfg_->thresholds) {
            if (r < t) break;
            ++level;
        }
        return level;
    }

private:
    const LevelConfig* cfg_;
    expr::EvalScratch scratch_;
};

/// A path in flight: its state, RNG stream, progress counters and splitting
/// bookkeeping (weight and highest level already rewarded).
struct Job {
    eda::NetworkState state;
    Rng rng;
    std::size_t steps = 0;
    double weight = 1.0;
    int level = 0;
};

/// A worker's LIFO of pending jobs. Entries are never destroyed: push()
/// hands out a retired entry, whose state vectors keep their capacity for
/// the caller's copy-assignment, and pop_into() swaps the top entry with the
/// caller's job, so a tree that crosses no level allocates nothing.
class JobStack {
public:
    [[nodiscard]] bool empty() const { return depth_ == 0; }
    void clear() { depth_ = 0; }
    Job& push() {
        if (depth_ == jobs_.size()) jobs_.emplace_back();
        return jobs_[depth_++];
    }
    void pop_into(Job& job) { std::swap(job, jobs_[--depth_]); }

private:
    std::vector<Job> jobs_;
    std::size_t depth_ = 0;
};

struct LevelAccum {
    std::uint64_t crossings = 0;
    std::uint64_t clones = 0;
};

/// Everything one root tree (the root path plus all clones) contributes to
/// the estimate. Samples merge in global root order, so every accumulation
/// below is deterministic in the seed alone. A worker rewrites its samples
/// in place (reset()), so their vectors keep their capacity.
struct RootSample {
    double weighted_hits = 0.0;
    std::uint64_t paths = 0;
    std::uint64_t steps = 0; // discrete steps newly simulated in this tree
    std::uint64_t goal_hits = 0;
    int max_level = 0;
    /// levels[i] counts level first_level + i. A lineage only ever crosses
    /// the level just above its own, so the levels a tree crosses are
    /// consecutive from one above the root's.
    int first_level = 0;
    std::vector<LevelAccum> levels;
    std::array<std::size_t, sim::kPathTerminalCount> terminals{};
    bool error = false; // the tree threw; the fault policy decides
    std::string error_msg;
    bool aborted = false; // abandoned (stop flag / interrupt / path cap)
    bool cap_hit = false; // aborted because it alone exceeded max_total_paths

    void reset() {
        weighted_hits = 0.0;
        paths = steps = goal_hits = 0;
        max_level = first_level = 0;
        levels.clear();
        terminals.fill(0);
        error = aborted = cap_hit = false;
        error_msg.clear();
    }
};

/// A worker's tree simulator: what every tree needs, plus the job buffers
/// it reuses from tree to tree.
struct TreeRunner {
    const sim::PathGenerator* gen = nullptr;
    LevelFn* level = nullptr;
    std::size_t factor = 1;
    std::size_t max_total_paths = 0;
    const std::atomic<bool>* stop = nullptr;      // consumer's drain flag
    const std::atomic<bool>* interrupt = nullptr; // SIGINT/SIGTERM flag
    JobStack stack;
    Job job; // the path being simulated
};

/// Simulates root tree `root_index` into `out`. Every stream of the tree
/// comes from the family Rng(seed).split(root_index): the root path uses
/// child 0, clones take children 1, 2, ... in spawn order — a pure function
/// of the tree itself, never of scheduling, so the tree is byte-identical no
/// matter which worker runs it.
void simulate_tree(TreeRunner& run, std::uint64_t seed, std::size_t root_index,
                   RootSample& out) {
    JobStack& stack = run.stack;
    Job& job = run.job;
    const Rng root_master = Rng(seed).split(root_index);
    std::uint64_t stream = 0;

    stack.clear(); // an earlier tree may have thrown mid-way
    {
        Job& root = stack.push();
        root.state = run.gen->initial_state();
        root.rng = root_master.split(stream++);
        root.steps = 0;
        root.weight = 1.0;
        root.level = (*run.level)(root.state);
        out.first_level = root.level + 1;
    }
    while (!stack.empty()) {
        // The clone loop is the liveness point: budgets and SIGINT are acted
        // on here, between paths, never mid-path.
        if ((run.stop != nullptr && run.stop->load(std::memory_order_relaxed)) ||
            (run.interrupt != nullptr &&
             run.interrupt->load(std::memory_order_relaxed))) {
            out.aborted = true;
            return;
        }
        if (out.paths >= run.max_total_paths) {
            out.aborted = true;
            out.cap_hit = true;
            return;
        }
        stack.pop_into(job);
        ++out.paths;
        const std::size_t steps0 = job.steps;
        std::optional<sim::PathOutcome> outcome;
        for (;;) {
            // First crossing of a higher level by this lineage: clone and
            // share the statistical weight. A single step that jumps d
            // levels splits d times — once per level, each division paired
            // with factor-1 clones at the divided weight — so total weight
            // is conserved at every crossing and the estimator stays
            // unbiased on multi-level jumps.
            const int now = (*run.level)(job.state);
            while (now > job.level) {
                ++job.level;
                out.max_level = std::max(out.max_level, job.level);
                const auto index = static_cast<std::size_t>(job.level - out.first_level);
                if (index == out.levels.size()) out.levels.emplace_back();
                LevelAccum& acc = out.levels[index];
                ++acc.crossings;
                if (run.factor > 1) {
                    job.weight /= static_cast<double>(run.factor);
                    for (std::size_t c = 1; c < run.factor; ++c) {
                        Job& clone = stack.push();
                        clone.state = job.state;
                        clone.rng = root_master.split(stream++);
                        clone.steps = job.steps;
                        clone.weight = job.weight;
                        clone.level = job.level;
                        ++acc.clones;
                    }
                }
            }
            outcome = run.gen->step(job.state, job.rng, job.steps);
            if (outcome) break;
        }
        out.steps += job.steps - steps0;
        ++out.terminals[static_cast<std::size_t>(outcome->terminal)];
        if (outcome->satisfied) {
            out.weighted_hits += job.weight;
            ++out.goal_hits;
        }
    }
}

/// simulate_tree with fault isolation: a throwing tree becomes an
/// error-tagged sample; the consumer applies the fault policy at the tree's
/// deterministic root position (workers must never throw — a worker running
/// ahead could otherwise fail on a root the accepted prefix never reaches).
void run_tree_guarded(TreeRunner& run, std::uint64_t seed, std::size_t root_index,
                      RootSample& out) {
    out.reset();
    try {
        simulate_tree(run, seed, root_index, out);
    } catch (const std::exception& e) {
        out.reset();
        out.error = true;
        out.error_msg = e.what();
    }
}

/// Live splitting instruments (docs/observability.md); all updates happen on
/// the consuming thread at merge time, so the gauges follow the accepted
/// (deterministic) prefix.
struct SplitMetrics {
    metrics::Registry* reg = nullptr;
    metrics::Counter* roots = nullptr;
    metrics::Counter* paths = nullptr;
    metrics::Counter* clones = nullptr;
    metrics::Counter* hits = nullptr;
    metrics::Gauge* estimate = nullptr;
    metrics::Gauge* max_level = nullptr;
    std::map<int, metrics::Counter*> level_paths;

    explicit SplitMetrics(metrics::Registry* r) : reg(r) {
        if (reg == nullptr) return;
        roots = &reg->counter("slimsim_splitting_roots_total",
                              "Root trees accepted into the splitting estimate");
        paths = &reg->counter("slimsim_splitting_paths_total",
                              "Paths simulated by importance splitting (roots + clones)");
        clones = &reg->counter("slimsim_splitting_clones_total",
                               "Clones spawned at level crossings");
        hits = &reg->counter("slimsim_splitting_goal_hits_total",
                             "Raw (unweighted) goal observations");
        estimate = &reg->gauge("slimsim_splitting_estimate",
                               "Current weighted splitting estimate");
        max_level = &reg->gauge("slimsim_splitting_max_level",
                                "Highest level crossed so far");
    }

    void on_accept(const RootSample& s, double current_estimate, int current_max) {
        if (reg == nullptr) return;
        roots->add(0, 1);
        paths->add(0, s.paths);
        hits->add(0, s.goal_hits);
        estimate->set(current_estimate);
        max_level->set(static_cast<double>(current_max));
        for (std::size_t i = 0; i < s.levels.size(); ++i) {
            const int level = s.first_level + static_cast<int>(i);
            const LevelAccum& acc = s.levels[i];
            auto it = level_paths.find(level);
            if (it == level_paths.end()) {
                metrics::Counter& c = reg->counter(
                    "slimsim_splitting_level_crossings_total",
                    "Lineages that first reached a splitting level",
                    metrics::label("level", std::to_string(level)));
                it = level_paths.emplace(level, &c).first;
            }
            it->second->add(0, acc.crossings);
            clones->add(0, acc.clones);
        }
    }
};

/// Accepted-prefix accumulator; every mutation happens in global root order.
struct Merge {
    stat::RunningSummary roots; // per-root weighted contributions
    std::uint64_t total_paths = 0;
    std::uint64_t total_steps = 0;
    std::uint64_t goal_hits = 0;
    int max_level = 0;
    std::map<int, LevelAccum> levels;
    std::array<std::size_t, sim::kPathTerminalCount> terminals{};
    std::uint64_t error_roots = 0;
    std::vector<std::string> error_log;
};

/// Accepts root `root`'s sample into `merge`, or stops the run. Returns
/// false when the run must stop *before* this root counts (path cap, abort);
/// throws when the fault policy is FailFast and the tree errored.
bool accept_sample(Merge& merge, std::size_t root, const RootSample& s,
                   const SplittingOptions& options, SplitMetrics& metrics,
                   sim::RunStatus& status, std::string& stop_cause) {
    if (s.aborted) {
        if (s.cap_hit) {
            status = sim::RunStatus::BudgetExhausted;
            stop_cause = "--split-max-paths budget reached within one root tree (" +
                         std::to_string(options.max_total_paths) + " paths)";
        }
        // Otherwise the governor already latched the (interrupt/stop) cause.
        return false;
    }
    if (merge.total_paths + s.paths > options.max_total_paths) {
        status = sim::RunStatus::BudgetExhausted;
        stop_cause = "--split-max-paths budget reached (" +
                     std::to_string(options.max_total_paths) + " paths)";
        return false;
    }
    if (s.error) {
        if (options.sim.control.fault.kind == sim::FaultPolicyKind::FailFast) {
            throw Error(s.error_msg);
        }
        ++merge.error_roots;
        sim::quarantine_error(merge.error_log, root, s.error_msg.c_str());
        // Serial event: accepts happen in global root order on the consuming
        // thread, so this is deterministic without a worker ring.
        if (options.sim.journal != nullptr) {
            options.sim.journal->emit(journal::Level::Debug, "quarantine",
                                      s.error_msg,
                                      {{"root", static_cast<std::uint64_t>(root)}});
        }
        ++merge.terminals[static_cast<std::size_t>(sim::PathTerminal::Error)];
        ++merge.total_paths; // the failed root path itself
        merge.roots.add(0.0);
        metrics.on_accept(s, merge.roots.mean(), merge.max_level);
        return true;
    }
    merge.roots.add(s.weighted_hits);
    merge.total_paths += s.paths;
    merge.total_steps += s.steps;
    merge.goal_hits += s.goal_hits;
    if (s.max_level > merge.max_level && options.sim.journal != nullptr) {
        // First root to reach a new highest level; deterministic in root
        // order like everything else merged here.
        options.sim.journal->emit(journal::Level::Debug, "level_reached",
                                  "new highest splitting level",
                                  {{"level", s.max_level},
                                   {"root", static_cast<std::uint64_t>(root)}});
    }
    merge.max_level = std::max(merge.max_level, s.max_level);
    for (std::size_t i = 0; i < s.levels.size(); ++i) {
        LevelAccum& dst = merge.levels[s.first_level + static_cast<int>(i)];
        dst.crossings += s.levels[i].crossings;
        dst.clones += s.levels[i].clones;
    }
    for (std::size_t t = 0; t < sim::kPathTerminalCount; ++t) {
        merge.terminals[t] += s.terminals[t];
    }
    metrics.on_accept(s, merge.roots.mean(), merge.max_level);
    return true;
}

/// Automatic level placement (docs/rare-events.md): a crude pilot run
/// profiles how deep into the error space paths get. The raw level is the
/// number of error processes outside their initial location; raw values
/// that *every* pilot path reaches are free and get no splitting level,
/// every rarer value becomes one. The pilot doubles as a coverage/occupancy
/// profile of where paths die (sim/coverage.hpp).
struct AutoPlacement {
    std::vector<int> thresholds;
    std::size_t pilot_paths = 0;
    telemetry::CoverageReport coverage;
};

AutoPlacement place_levels(const eda::Network& net, const sim::PathFormula& formula,
                           sim::Strategy& strategy, LevelConfig& cfg,
                           std::uint64_t seed, const SplittingOptions& options) {
    const auto& model = net.model();
    for (std::size_t p = 0; p < model.processes.size(); ++p) {
        if (model.processes[p].is_error) {
            cfg.error_procs.emplace_back(p, model.processes[p].initial_location);
        }
    }
    if (cfg.error_procs.empty()) {
        throw Error("--split-auto: the model has no error-model processes to derive "
                    "levels from; supply a level expression with --split");
    }
    const eda::ElementIndex element_index(model);
    sim::CoverageShard shard(element_index);
    sim::SimOptions pilot_options;
    pilot_options.max_steps = options.sim.max_steps;
    pilot_options.coverage_shard = &shard;
    const sim::PathGenerator gen(net, formula, strategy, pilot_options);
    LevelFn raw_fn(cfg); // thresholds still empty: raw() only

    const std::size_t max_raw = cfg.error_procs.size();
    std::vector<std::uint64_t> reached(max_raw + 1, 0); // paths with max raw >= v
    // A stream family disjoint from the root families Rng(seed).split(j).
    const Rng pilot_master = Rng(seed).split(0x9e3779b97f4a7c15ull);
    const std::size_t pilot_runs = std::max<std::size_t>(1, options.pilot_runs);
    for (std::size_t i = 0; i < pilot_runs; ++i) {
        Rng rng = pilot_master.split(i);
        eda::NetworkState s = gen.initial_state();
        std::size_t steps = 0;
        shard.begin_path(s);
        int best = raw_fn.raw(s);
        try {
            for (;;) {
                const auto outcome = gen.step(s, rng, steps);
                best = std::max(best, raw_fn.raw(s));
                if (outcome) break;
            }
        } catch (const std::exception&) {
            // A throwing pilot path still profiles how far it got.
        }
        shard.end_path();
        for (int v = 1; v <= best && v <= static_cast<int>(max_raw); ++v) {
            ++reached[static_cast<std::size_t>(v)];
        }
    }

    AutoPlacement placement;
    placement.pilot_paths = pilot_runs;
    for (std::size_t v = 1; v <= max_raw; ++v) {
        // Raw values every pilot path visited are free — splitting there
        // only multiplies paths without reducing variance.
        if (reached[v] < pilot_runs) {
            placement.thresholds.push_back(static_cast<int>(v));
        }
    }
    cfg.thresholds = placement.thresholds;
    const sim::CoverageShard* shard_ptr = &shard;
    const std::uint64_t accepted = pilot_runs;
    placement.coverage = sim::merge_coverage({&shard_ptr, 1}, {&accepted, 1});
    return placement;
}

/// Trees a worker may run ahead of the consumer: its hand-off ring's
/// capacity. Memory is O(workers x kWindow) whatever the root count.
constexpr std::size_t kWindow = 4096;

/// The hand-off between the workers and the consumer. Worker w's finished
/// trees (roots w, w+k, ...) go into its own fixed-capacity ring, local tree
/// i into cell i mod capacity. The worker writes each tree straight into a
/// free cell and publishes a block of them under one lock with one notify;
/// the consumer takes every consecutive published tree under one lock,
/// merges them in place outside it, and frees their cells when it comes back
/// for more. Cells are reused, so their vectors keep their capacity.
class TreeHandOff {
public:
    TreeHandOff(std::size_t workers, std::size_t roots)
        : rings_(workers), roots_(roots), held_(workers, 0) {
        for (std::size_t w = 0; w < workers; ++w) {
            const std::size_t owned = roots > w ? (roots - w - 1) / workers + 1 : 0;
            rings_[w].cells.resize(std::min(kWindow, owned));
        }
    }

    /// Read by the workers between paths: set once the consumer is done.
    [[nodiscard]] const std::atomic<bool>& stop_flag() const { return stop_; }

    /// Worker w's loop: simulates its roots into its ring and publishes them
    /// in blocks sized by a BlockPacer. A worker a full ring ahead of the
    /// consumer waits for a free cell; an aborted tree is published at once
    /// and ends the loop (the consumer stops at it).
    void produce(std::size_t w, TreeRunner& run, std::uint64_t seed) {
        const std::size_t workers = rings_.size();
        Ring& ring = rings_[w];
        const std::size_t capacity = ring.cells.size();
        BlockPacer pacer;
        std::size_t pending = 0; // written, not yet published
        std::size_t room = capacity;
        const auto publish = [&](bool wait_for_room) {
            if (pending > 0) pacer.handed_off(pending);
            std::unique_lock<std::mutex> lock(mutex_);
            ring.published += pending;
            pending = 0;
            ready_.notify_one();
            if (wait_for_room) {
                ring.room.wait(lock, [&] {
                    return ring.published < capacity || stop_.load(std::memory_order_relaxed);
                });
                pacer.restart();
            }
            room = capacity - ring.published;
        };
        std::size_t local = 0;
        for (std::size_t root = w; root < roots_; root += workers, ++local) {
            if (stop_.load(std::memory_order_relaxed)) return;
            if (room == 0) {
                publish(true);
                if (room == 0) return; // stopped
            }
            RootSample& tree = ring.tree(local);
            run_tree_guarded(run, seed, root, tree);
            ++pending;
            --room;
            if (tree.aborted || root + workers >= roots_ || pending >= pacer.size()) {
                publish(false);
            }
            if (tree.aborted) return;
        }
    }

    /// The consumer, at root `root` with every earlier root merged: frees
    /// the cells it held, waits until `root` is published and takes it with
    /// every consecutive published root after it. Returns the end of the
    /// taken range; tree() reads the taken roots until the next take().
    std::size_t take(std::size_t root) {
        const std::size_t workers = rings_.size();
        std::unique_lock<std::mutex> lock(mutex_);
        for (std::size_t w = 0; w < workers; ++w) {
            if (held_[w] == 0) continue;
            rings_[w].published -= held_[w];
            held_[w] = 0;
            rings_[w].room.notify_one();
        }
        ready_.wait(lock, [&] { return rings_[root % workers].published > 0; });
        std::size_t end = root;
        while (end < roots_ && held_[end % workers] < rings_[end % workers].published) {
            ++held_[end % workers];
            ++end;
        }
        return end;
    }

    [[nodiscard]] const RootSample& tree(std::size_t root) {
        return rings_[root % rings_.size()].tree(root / rings_.size());
    }

    /// Stops the workers — waking any that wait on a full ring — and joins
    /// them.
    void halt(std::vector<std::thread>& pool) {
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            stop_.store(true, std::memory_order_relaxed);
        }
        for (auto& ring : rings_) ring.room.notify_one();
        for (auto& t : pool) t.join();
    }

private:
    struct Ring {
        std::vector<RootSample> cells;
        std::condition_variable room; // the worker waits here on a full ring
        std::size_t published = 0;    // published and not yet freed

        RootSample& tree(std::size_t local) { return cells[local % cells.size()]; }
    };

    std::mutex mutex_; // guards every Ring::published and held_
    std::condition_variable ready_; // the consumer waits here for its next root
    std::vector<Ring> rings_;
    std::size_t roots_;
    std::vector<std::size_t> held_; // taken (published, merging) trees per ring
    std::atomic<bool> stop_{false};
};

} // namespace

SplittingResult estimate_splitting(const eda::Network& net,
                                   const sim::PathFormula& formula,
                                   sim::StrategyKind strategy, const LevelSpec& level,
                                   std::uint64_t seed, const SplittingOptions& options,
                                   telemetry::RunReport* report) {
    if (formula.kind != sim::FormulaKind::Reach) {
        throw Error("importance splitting supports reachability formulas only");
    }
    if (options.splitting_factor < 1) throw Error("splitting factor must be >= 1");
    if (options.base_runs < 1) throw Error("base_runs must be >= 1");
    // Root trees run on worker threads, where no exception may escape.
    if (strategy == sim::StrategyKind::Input) {
        throw Error("importance splitting cannot use the input strategy");
    }
    if (!level.auto_levels && level.expression == nullptr) {
        throw Error("--split: a level expression (or --split-auto) is required");
    }
    const auto& control = options.sim.control;
    if (control.resume != nullptr || !control.checkpoint_path.empty() ||
        control.checkpoint_every > 0) {
        throw Error("--split does not support checkpoint/resume");
    }

    const auto start = std::chrono::steady_clock::now();
    const std::size_t workers = std::max<std::size_t>(1, options.workers);

    SplittingResult result;
    result.strategy = sim::to_string(strategy);

    journal::Journal* jnl = options.sim.journal;
    LevelConfig cfg;
    if (level.auto_levels) {
        const auto pilot_strategy = sim::make_strategy(strategy);
        const AutoPlacement placement =
            place_levels(net, formula, *pilot_strategy, cfg, seed, options);
        result.auto_thresholds = placement.thresholds;
        result.pilot_paths = placement.pilot_paths;
        result.pilot_coverage = placement.coverage;
        if (jnl != nullptr) {
            jnl->emit(journal::Level::Info, "levels_placed",
                      "auto splitting levels placed from pilot run",
                      {{"thresholds",
                        static_cast<std::uint64_t>(result.auto_thresholds.size())},
                       {"pilot_paths",
                        static_cast<std::uint64_t>(result.pilot_paths)}});
        }
    } else {
        cfg.program = expr::compile(*level.expression);
    }

    sim::RunGovernor governor(control, start);
    Merge merge;
    SplitMetrics metrics(options.sim.metrics);
    sim::RunStatus status = sim::RunStatus::Converged;
    std::string stop_cause;

    // Worker w of k owns root trees w, w+k, w+2k, ...; the consumer merges
    // finished trees in global root order, so the accepted prefix — and
    // every float accumulation — is the same at every worker count.
    TreeHandOff hand_off(workers, options.base_runs);
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
        pool.emplace_back([&, w] {
            const auto strat = sim::make_strategy(strategy);
            sim::SimOptions tree_options = options.sim;
            tree_options.coverage_shard = nullptr;
            tree_options.metrics_shard =
                tree_options.metrics != nullptr ? w % tree_options.metrics->shards() : 0;
            const sim::PathGenerator gen(net, formula, *strat, tree_options);
            LevelFn level_fn(cfg);
            TreeRunner run;
            run.gen = &gen;
            run.level = &level_fn;
            run.factor = options.splitting_factor;
            run.max_total_paths = options.max_total_paths;
            run.stop = &hand_off.stop_flag();
            run.interrupt = control.interrupt;
            hand_off.produce(w, run, seed);
        });
    }

    try {
        std::size_t taken = 0; // roots [root, taken) are ready to merge
        for (std::size_t root = 0; root < options.base_runs; ++root) {
            if (governor.should_stop(merge.roots.count, merge.total_steps, merge.error_roots)) {
                status = governor.status();
                stop_cause = governor.stop_cause();
                break;
            }
            if (root == taken) taken = hand_off.take(root);
            const RootSample& sample = hand_off.tree(root);
            if (!accept_sample(merge, root, sample, options, metrics, status, stop_cause)) {
                if (sample.aborted && !sample.cap_hit) {
                    // The interrupt fired mid-tree; latch its cause.
                    governor.should_stop(merge.roots.count, merge.total_steps,
                                         merge.error_roots);
                    status = governor.status();
                    stop_cause = governor.stop_cause();
                }
                break;
            }
        }
    } catch (...) {
        hand_off.halt(pool);
        throw;
    }
    hand_off.halt(pool);

    result.estimate = merge.roots.mean();
    result.base_runs = merge.roots.count;
    result.total_paths = merge.total_paths;
    result.goal_hits = merge.goal_hits;
    result.max_level_seen = merge.max_level;
    result.variance_per_root = merge.roots.variance();
    const double half_width = merge.roots.half_width(0.05);
    result.relative_half_width =
        result.estimate > 0.0 ? half_width / result.estimate : 0.0;
    result.levels.reserve(merge.levels.size());
    for (const auto& [lvl, acc] : merge.levels) {
        result.levels.push_back({lvl, acc.crossings, acc.clones});
    }
    result.terminals = merge.terminals;
    result.status = status;
    result.stop_cause = stop_cause;
    result.path_errors = merge.error_roots;
    result.error_log = std::move(merge.error_log);
    result.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    if (jnl != nullptr) {
        jnl->emit(journal::Level::Info, "stop", stop_cause,
                  {{"status", sim::to_string(status)},
                   {"roots", result.base_runs},
                   {"max_level", result.max_level_seen}});
    }

    if (report != nullptr) {
        report->samples = result.base_runs;
        report->successes = result.goal_hits;
        report->value = result.estimate;
        report->strategy = result.strategy;
        report->criterion = "fixed-roots(" + std::to_string(options.base_runs) + ")";
        report->terminals = sim::terminal_histogram(result.terminals);
        sim::fill_run_status(report, result.status, result.stop_cause, half_width,
                             result.path_errors, result.error_log);
        auto& sp = report->splitting;
        sp.enabled = true;
        sp.level = level.auto_levels ? "auto" : level.text;
        sp.factor = options.splitting_factor;
        sp.roots = result.base_runs;
        sp.total_paths = result.total_paths;
        sp.goal_hits = result.goal_hits;
        sp.max_level = result.max_level_seen;
        sp.variance_per_root = result.variance_per_root;
        sp.relative_half_width = result.relative_half_width;
        sp.pilot_paths = result.pilot_paths;
        sp.auto_thresholds.assign(result.auto_thresholds.begin(),
                                  result.auto_thresholds.end());
        sp.levels.clear();
        for (const auto& row : result.levels) {
            sp.levels.push_back({row.level, row.crossings, row.clones});
        }
        if (level.auto_levels) report->coverage = result.pilot_coverage;
    }
    return result;
}

SplittingResult estimate_splitting(const eda::Network& net,
                                   const sim::PathFormula& formula,
                                   sim::StrategyKind strategy, const expr::ExprPtr& level,
                                   std::uint64_t seed, const SplittingOptions& options,
                                   telemetry::RunReport* report) {
    LevelSpec spec;
    spec.expression = level;
    return estimate_splitting(net, formula, strategy, spec, seed, options, report);
}

} // namespace slimsim::rare
