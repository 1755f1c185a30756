// The compile-once model API (docs/compiled-model.md): bytecode programs
// vs the reference tree-walking interpreter, hash-consing, model content
// hashes, estimate byte-identity, and CompiledModel reuse across analyses.
#include "expr/compile.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <tuple>

#include "api/analysis.hpp"
#include "eda/compiled.hpp"
#include "expr/eval.hpp"
#include "models/gps.hpp"
#include "models/launcher.hpp"
#include "models/sensor_filter.hpp"
#include "sim/path_generator.hpp"
#include "sim/run_control.hpp"
#include "sim/runner.hpp"
#include "slim/parser.hpp"
#include "slim/printer.hpp"
#include "slim/resolver.hpp"
#include "support/hash.hpp"

namespace slimsim {
namespace {

#ifndef SLIMSIM_MODELS_DIR
#error "SLIMSIM_MODELS_DIR must be defined by the build"
#endif

/// Parses + resolves an expression over the given typed variables.
expr::ExprPtr parse_resolved(const std::string& source,
                             const std::vector<std::pair<std::string, Value>>& vars) {
    slim::SymbolTable table;
    for (const auto& [name, value] : vars) {
        slim::Symbol sym;
        sym.name = name;
        sym.kind = slim::SymKind::Data;
        sym.type = value.is_bool()  ? Type::boolean()
                   : value.is_int() ? Type::integer()
                                    : Type::real();
        table.add(std::move(sym));
    }
    expr::ExprPtr e = slim::parse_expression(source);
    DiagnosticSink sink;
    slim::resolve_expr(*e, table, sink);
    sink.throw_if_errors("test expression");
    return e;
}

/// Asserts the compiled program and the reference interpreter agree on
/// `source` — same value, or the same error message.
void expect_agreement(const std::string& source,
                      const std::vector<std::pair<std::string, Value>>& vars = {}) {
    const expr::ExprPtr e = parse_resolved(source, vars);
    std::vector<Value> values;
    values.reserve(vars.size());
    for (const auto& [name, value] : vars) values.push_back(value);
    const expr::EvalContext ctx{values, {}};

    std::optional<Value> tree_value;
    std::string tree_error;
    try {
        tree_value = expr::testing::reference_evaluate(*e, ctx);
    } catch (const Error& err) {
        tree_error = err.what();
    }

    const expr::ProgramPtr prog = expr::compile(*e);
    expr::EvalScratch scratch;
    std::optional<Value> prog_value;
    std::string prog_error;
    try {
        prog_value = prog->run(values, scratch);
    } catch (const Error& err) {
        prog_error = err.what();
    }

    EXPECT_EQ(tree_value.has_value(), prog_value.has_value()) << source;
    if (tree_value && prog_value) {
        EXPECT_EQ(*tree_value, *prog_value) << source;
    }
    EXPECT_EQ(tree_error, prog_error) << source;
}

TEST(CompiledExpr, EveryExpressionKindMatchesInterpreter) {
    const std::vector<std::pair<std::string, Value>> vars = {
        {"b", Value(true)},     {"c", Value(false)},   {"i", Value(std::int64_t{7})},
        {"j", Value(std::int64_t{-3})}, {"x", Value(2.5)}, {"y", Value(-0.5)},
    };
    const std::vector<std::string> sources = {
        // Literals of every type.
        "true", "false", "42", "2.5", "300 msec",
        // Variables.
        "b", "i", "x",
        // Unary.
        "not b", "not c", "-i", "-x", "-(i + 1)",
        // Arithmetic: integer, real, mixed-width.
        "i + j", "i - j", "i * j", "i / 2", "i mod 2", "x + y", "x * y",
        "x / y", "1 + 2.5", "5 / 2.0", "i + x",
        // Comparisons, including Boolean equality.
        "i < 8", "i <= 7", "i > 8", "i >= 7", "i = 7", "i != 7", "1 = 1.0",
        "b = true", "b != c", "x < y", "x >= y",
        // Connectives (short-circuit) and ite.
        "b and c", "b or c", "b => c", "c => b", "b and i > 0",
        "if b then i else j", "if c then i else j",
        "if i > 0 then x else y",
        // Nested mixtures.
        "(i + 1) * 2 - j mod 2", "not (b and (i < 3 or x > 1.0))",
        "if b and not c then i + 1 else j - 1",
    };
    for (const auto& s : sources) expect_agreement(s, vars);
}

TEST(CompiledExpr, ErrorsMatchInterpreter) {
    expect_agreement("1 / 0");
    expect_agreement("1 mod 0");
    expect_agreement("1.0 / 0.0");
    expect_agreement("i / (i - 7)", {{"i", Value(std::int64_t{7})}});
}

TEST(CompiledExpr, ShortCircuitSkipsErrors) {
    // The unevaluated operand/branch contains a division by zero: both
    // evaluators must skip it identically.
    const std::vector<std::pair<std::string, Value>> vars = {
        {"b", Value(false)}, {"i", Value(std::int64_t{0})}};
    expect_agreement("b and 1 / i = 1", vars);
    expect_agreement("not b or 1 / i = 1", vars);
    expect_agreement("b => 1 / i = 1", vars);
    expect_agreement("if b then 1 / i else 5", vars);
    expect_agreement("if not b then 5 else 1 / i", vars);
}

TEST(CompiledExpr, HashConsingSharesStructurallyEqualPrograms) {
    const std::vector<std::pair<std::string, Value>> vars = {
        {"i", Value(std::int64_t{1})}};
    // Two independently parsed copies of the same expression compile to the
    // SAME program object.
    const expr::ExprPtr a = parse_resolved("i + 1 > 2", vars);
    const expr::ExprPtr b = parse_resolved("i + 1 > 2", vars);
    const expr::ProgramPtr pa = expr::compile(*a);
    const expr::ProgramPtr pb = expr::compile(*b);
    EXPECT_EQ(pa.get(), pb.get());
    EXPECT_EQ(pa->key_hash(), pb->key_hash());
    // A structurally different expression gets a different program.
    const expr::ExprPtr c = parse_resolved("i + 2 > 2", vars);
    EXPECT_NE(expr::compile(*c).get(), pa.get());
}

// --- bundled models: byte-identity of whole analyses -------------------------

struct BundledModel {
    const char* file;
    const char* goal;
    double bound;
};

constexpr BundledModel kBundled[] = {
    {"gps.slim", "gps.measurement", 1800.0},
    {"gps_restart.slim", "gps.measurement", 1800.0},
    {"failover.slim", "failed", 10.0},
    {"sensor_filter_panic.slim", "panicked", 14400.0},
};

std::string model_path(const char* file) {
    return std::string(SLIMSIM_MODELS_DIR) + "/" + file;
}

/// Generated models whose every firing runs data flows and fault
/// injections (the bundled GPS models have none).
struct GeneratedModel {
    const char* name;
    std::string source;
    std::string goal;
    double bound;
    sim::StrategyKind strategy;
};

std::vector<GeneratedModel> generated_models() {
    models::LauncherOptions recoverable;
    recoverable.recoverable_dpu = true;
    return {
        {"sensor_filter_r3", models::sensor_filter_source(3), models::sensor_filter_goal(),
         100.0 * 3600.0, sim::StrategyKind::Asap},
        {"launcher_rec", models::launcher_source(recoverable), models::launcher_goal(),
         1800.0, sim::StrategyKind::Progressive},
    };
}

/// The compiled network and the reference interpreter agree on every
/// estimate field at two seeds.
void expect_estimates_identical(const eda::Network& compiled, const std::string& name,
                                const std::string& goal, double bound,
                                sim::StrategyKind strategy) {
    eda::Network reference(compiled.compiled());
    reference.set_reference_interpreter(true);
    const auto prop = sim::make_reachability(compiled.model(), goal, bound);
    const stat::ChernoffHoeffding ch(0.2, 0.1);
    for (const std::uint64_t seed : {1ULL, 42ULL}) {
        const auto fast = sim::estimate(compiled, prop, strategy, ch, seed);
        const auto slow = sim::estimate(reference, prop, strategy, ch, seed);
        EXPECT_EQ(fast.estimate, slow.estimate) << name << " seed " << seed;
        EXPECT_EQ(fast.samples, slow.samples) << name << " seed " << seed;
        EXPECT_EQ(fast.successes, slow.successes) << name << " seed " << seed;
        EXPECT_EQ(fast.terminals, slow.terminals) << name << " seed " << seed;
    }
}

TEST(CompiledModel, EstimatesAreByteIdenticalToInterpreter) {
    for (const BundledModel& bm : kBundled) {
        expect_estimates_identical(eda::build_network_from_file(model_path(bm.file)),
                                   bm.file, bm.goal, bm.bound,
                                   sim::StrategyKind::Progressive);
    }
    // The reference interpreter sweeps every flow and injection per firing,
    // so it independently checks the interned per-configuration lists.
    for (const GeneratedModel& gm : generated_models()) {
        expect_estimates_identical(eda::build_network_from_source(gm.source), gm.name,
                                   gm.goal, gm.bound, gm.strategy);
    }
}

TEST(CompiledModel, EstimatesAreByteIdenticalAcrossWorkerCounts) {
    for (const BundledModel& bm : kBundled) {
        const eda::CompiledModelPtr cm = compile_file(model_path(bm.file));
        AnalysisRequest req;
        req.mode = AnalysisMode::EstimateParallel;
        req.property = sim::make_reachability(cm->model(), bm.goal, bm.bound);
        req.delta = 0.2;
        req.eps = 0.1;
        req.seed = 9;
        // Per-path RNG streams: path j always uses Rng(seed).split(j), so
        // the accepted sample set is a pure function of the seed.
        req.sim.control.deterministic_streams = true;
        std::optional<AnalysisResult> first;
        for (const std::size_t workers : {1U, 2U, 4U}) {
            req.workers = workers;
            const AnalysisResult res = run_analysis(cm, req);
            if (!first) {
                first = res;
                continue;
            }
            EXPECT_EQ(res.value, first->value) << bm.file << " x" << workers;
            EXPECT_EQ(res.estimation.samples, first->estimation.samples)
                << bm.file << " x" << workers;
            EXPECT_EQ(res.estimation.successes, first->estimation.successes)
                << bm.file << " x" << workers;
            EXPECT_EQ(res.estimation.terminals, first->estimation.terminals)
                << bm.file << " x" << workers;
        }
    }
}

TEST(CompiledModel, ReuseAcrossAnalysesIsIdentical) {
    const eda::CompiledModelPtr cm = compile_file(model_path("gps.slim"));
    AnalysisRequest req;
    req.property = sim::make_reachability(cm->model(), "gps.measurement", 1800.0);
    req.delta = 0.2;
    req.eps = 0.1;
    req.seed = 5;
    const AnalysisResult a = run_analysis(cm, req);
    const AnalysisResult b = run_analysis(cm, req);
    EXPECT_EQ(telemetry::deterministic_view(a.report.to_json()).dump(2),
              telemetry::deterministic_view(b.report.to_json()).dump(2));
    EXPECT_TRUE(a.report.compiled_model.present);
    EXPECT_EQ(a.report.compiled_model.content_hash.size(), 16u);
    EXPECT_EQ(a.report.compiled_model.content_hash,
              b.report.compiled_model.content_hash);
    // Hash-consing found duplicates among the model's expressions.
    EXPECT_LE(cm->stats().unique_programs, cm->stats().programs);
    EXPECT_GT(cm->stats().programs, 0u);
}

TEST(CompiledModel, CompilationIsCachedByContentHash) {
    const eda::CompiledModelPtr a = compile_source(models::gps_source(), "a.slim");
    const eda::CompiledModelPtr b = compile_source(models::gps_source(), "b.slim");
    EXPECT_EQ(a.get(), b.get()); // process-wide cache hit
}

TEST(CompiledModel, ContentHashSurvivesReformatting) {
    // The content hash is behavioral: pretty-printing (different layout,
    // same model) must not change it — resuming from a checkpoint accepts a
    // reformatted model file.
    const std::string original = std::string(models::gps_source());
    const std::string printed = slim::print_model(slim::parse_model(original, "m"));
    ASSERT_NE(original, printed);
    const eda::CompiledModelPtr a = compile_source(original, "x.slim");
    const eda::CompiledModelPtr b = compile_source(printed, "y.slim");
    EXPECT_EQ(a->content_hash(), b->content_hash());
}

TEST(CompiledModel, CheckpointRejectsContentHashMismatchNamingFlags) {
    const eda::CompiledModelPtr cm = compile_file(model_path("gps.slim"));
    sim::RunCheckpoint ck;
    ck.seed = 3;
    ck.strategy = "progressive";
    ck.criterion = "chernoff-hoeffding";
    ck.property_hash = sim::fnv1a64("<> [0,1800] gps.measurement");
    ck.model_hash = cm->content_hash() ^ 1; // a behaviorally different model
    try {
        ck.validate(cm->content_hash(), 3, "<> [0,1800] gps.measurement",
                    "progressive", "chernoff-hoeffding", {});
        FAIL() << "mismatched content hash must be rejected";
    } catch (const Error& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("--resume"), std::string::npos) << msg;
        EXPECT_NE(msg.find("content hash"), std::string::npos) << msg;
    }
    // The matching hash passes.
    ck.model_hash = cm->content_hash();
    EXPECT_NO_THROW(ck.validate(cm->content_hash(), 3, "<> [0,1800] gps.measurement",
                                "progressive", "chernoff-hoeffding", {}));
}

// --- discrete-state interning --------------------------------------------

/// An interned configuration copied out of the interner's arena, with rates
/// and exit rates as raw bits so comparisons are bitwise.
struct ConfigView {
    std::vector<std::uint64_t> rates;
    std::vector<std::pair<slim::ProcessId, std::uint64_t>> markov;
    std::vector<std::tuple<slim::ProcessId, int, eda::Candidate::Kind, const expr::Program*>>
        taus;
    std::vector<const expr::Program*> invariants;
    std::vector<std::uint32_t> flows;
    std::vector<std::uint32_t> injections;
};

ConfigView view_of(const eda::InternedConfig& c) {
    ConfigView v;
    for (const double r : c.rates) v.rates.push_back(double_bits(r));
    for (const eda::MarkovianRate& m : c.markov) {
        v.markov.emplace_back(m.process, double_bits(m.total_rate));
    }
    for (const auto& t : c.taus) v.taus.emplace_back(t.process, t.transition, t.kind, t.guard);
    v.invariants.assign(c.invariants.begin(), c.invariants.end());
    v.flows.assign(c.flows.begin(), c.flows.end());
    v.injections.assign(c.injections.begin(), c.injections.end());
    return v;
}

/// The configuration of s recomputed from scratch by sweeping the model,
/// the way the reference interpreter filters it on every step.
ConfigView recompute(const eda::Network& net, const eda::NetworkState& s) {
    const slim::InstanceModel& m = net.model();
    const eda::CompiledModel& cm = *net.compiled();
    ConfigView v;
    std::vector<double> rates;
    net.compute_rates(s, rates);
    for (const double r : rates) v.rates.push_back(double_bits(r));
    for (std::size_t p = 0; p < m.processes.size(); ++p) {
        const slim::InstProcess& proc = m.processes[p];
        if (!s.instance_active(static_cast<std::size_t>(proc.instance))) continue;
        const auto pid = static_cast<slim::ProcessId>(p);
        const auto loc = static_cast<std::size_t>(s.locations[p]);
        double total = 0.0;
        for (const int t : net.outgoing(s, pid)) {
            total += proc.transitions[static_cast<std::size_t>(t)].rate;
        }
        if (total > 0.0) v.markov.emplace_back(pid, double_bits(total));
        for (const int t : net.outgoing(s, pid)) {
            const slim::InstTransition& tr = proc.transitions[static_cast<std::size_t>(t)];
            if (tr.markovian() || tr.trigger != slim::TriggerClass::Normal ||
                tr.receive_only() || tr.action != slim::kTau) {
                continue;
            }
            v.taus.emplace_back(pid, t,
                                tr.channel == slim::kNoChannel
                                    ? eda::Candidate::Kind::Tau
                                    : eda::Candidate::Kind::BroadcastSend,
                                cm.process(pid).transitions[static_cast<std::size_t>(t)]
                                    .guard.get());
        }
        if (const auto& inv = cm.process(pid).locations[loc].invariant) {
            v.invariants.push_back(inv.get());
        }
    }
    for (std::size_t i = 0; i < m.flows.size(); ++i) {
        const slim::InstFlow& f = m.flows[i];
        const bool gated = f.gate_process >= 0 && !f.gate_locations.empty();
        if (s.instance_active(static_cast<std::size_t>(f.owner)) &&
            (!gated || std::binary_search(
                           f.gate_locations.begin(), f.gate_locations.end(),
                           s.locations[static_cast<std::size_t>(f.gate_process)]))) {
            v.flows.push_back(static_cast<std::uint32_t>(i));
        }
    }
    for (std::size_t i = 0; i < m.injections.size(); ++i) {
        const slim::Injection& inj = m.injections[i];
        if (s.locations[static_cast<std::size_t>(inj.process)] == inj.state) {
            v.injections.push_back(static_cast<std::uint32_t>(i));
        }
    }
    return v;
}

void expect_same_config(const ConfigView& got, const ConfigView& want) {
    EXPECT_EQ(got.rates, want.rates);
    EXPECT_EQ(got.markov, want.markov);
    EXPECT_EQ(got.taus, want.taus);
    EXPECT_EQ(got.invariants, want.invariants);
    EXPECT_EQ(got.flows, want.flows);
    EXPECT_EQ(got.injections, want.injections);
}

TEST(StateInterner, MatchesRecomputationAlongPathsAndKeepsEntriesStable) {
    for (const GeneratedModel& gm : generated_models()) {
        SCOPED_TRACE(gm.name);
        const eda::Network net(compile_source(gm.source, gm.name));
        const auto prop = sim::make_reachability(net.model(), gm.goal, gm.bound);
        const auto strategy = sim::make_strategy(gm.strategy);
        const sim::PathGenerator gen(net, prop, *strategy);

        eda::SimScratch scratch;
        scratch.bind(*net.compiled());
        // The first four configurations, copied out when first interned.
        std::vector<std::pair<const eda::InternedConfig*, ConfigView>> early;
        Rng rng(7);
        std::size_t checked = 0;
        for (int path = 0; path < 500; ++path) {
            eda::NetworkState s = net.initial_state();
            std::size_t steps = 0;
            for (bool done = false; !done;) {
                const std::size_t known = scratch.interner.size();
                const eda::InternedConfig& cfg = scratch.interner.intern(s, *net.compiled());
                const ConfigView got = view_of(cfg);
                expect_same_config(got, recompute(net, s));
                if (scratch.interner.size() > known && early.size() < 4) {
                    early.emplace_back(&cfg, got);
                }
                ++checked;
                done = gen.step(s, rng, steps).has_value();
            }
        }
        EXPECT_GT(checked, 1000u);
        // The index starts at 16 slots and doubles at 9, 17 and 33 entries;
        // the arena took several blocks on the way.
        ASSERT_GE(scratch.interner.size(), 33u);
        for (const auto& [cfg, view] : early) expect_same_config(view_of(*cfg), view);
    }
}

TEST(StateInterner, FlowListFollowsActivation) {
    // The child's flow runs only while the root is in mode `on`.
    const eda::Network net(compile_source(R"(
        root S.Imp;
        system Child
        features v: out data port bool default false;
        end Child;
        system implementation Child.Imp
        flows v := true;
        end Child.Imp;
        system S
        end S;
        system implementation S.Imp
        subcomponents child: system Child.Imp in modes (on);
        modes
          on: initial mode;
          off: mode;
        transitions
          on -[when @timer >= 1 sec]-> off;
        end S.Imp;
    )", "activation.slim"));
    eda::SimScratch scratch;
    eda::NetworkState s = net.initial_state();
    const eda::InternedConfig& on = scratch.interner.intern(s, *net.compiled());
    expect_same_config(view_of(on), recompute(net, s));
    EXPECT_EQ(on.flows.size(), 1u);

    const std::span<const eda::Candidate> cands = net.candidates(s, 10.0, scratch);
    ASSERT_EQ(cands.size(), 1u);
    const eda::Candidate to_off = cands[0];
    net.elapse(s, 1.0);
    Rng rng(1);
    (void)net.execute(s, to_off, rng, scratch); // deactivates the child
    ASSERT_EQ(std::count(s.active.begin(), s.active.end(), 0), 1);
    const eda::InternedConfig& off = scratch.interner.intern(s, *net.compiled());
    expect_same_config(view_of(off), recompute(net, s));
    EXPECT_TRUE(off.flows.empty());
}

TEST(StateInterner, BindingAnotherModelEmptiesTheTable) {
    const std::vector<GeneratedModel> gms = generated_models();
    const eda::Network a(compile_source(gms[0].source, "a.slim"));
    const eda::Network b(compile_source(gms[1].source, "b.slim"));
    eda::SimScratch scratch;
    (void)a.markovian_rates(a.initial_state(), scratch);
    EXPECT_EQ(scratch.interner.size(), 1u);
    scratch.bind(*a.compiled()); // same model: the table stays
    EXPECT_EQ(scratch.interner.size(), 1u);
    scratch.bind(*b.compiled());
    EXPECT_EQ(scratch.interner.size(), 0u);
    const eda::NetworkState s = b.initial_state();
    expect_same_config(view_of(scratch.interner.intern(s, *b.compiled())), recompute(b, s));
}

// --- typed stores -------------------------------------------------------------

/// One store case each: an int[0..20] -> real copy flow (falls back and
/// stores a double), a real -> int computed flow (truncates toward zero), an
/// int[0..20] -> int[0..5] copy flow whose source leaves the target's range
/// on the sixth firing, and an effect writing an int expression into a real.
constexpr const char* kStoreModel = R"(
    root S.I;
    system S
    features
      count: out data port int [0..20] default 0;
      level: out data port real default 2.75;
      widened: out data port real default 0.5;
      truncated: out data port int default 0;
      narrow: out data port int [0..5] default 0;
      scaled: out data port real default 0.5;
    end S;
    system implementation S.I
    flows
      widened := count;
      truncated := level * count;
      narrow := count;
    modes a: initial mode;
    transitions
      a -[when @timer >= 1 sec
          then count := count + 1; level := 0 - level; scaled := count * 3]-> a;
    end S.I;
)";

/// Equal representation and equal bits (operator== equates 1 and 1.0).
bool same_value(const Value& a, const Value& b) {
    if (a.index() != b.index()) return false;
    return a.is_real() ? double_bits(a.as_real()) == double_bits(b.as_real()) : a == b;
}

TEST(TypedStore, EdgeCasesMatchInterpreter) {
    const eda::Network compiled(compile_source(kStoreModel, "store.slim"));
    eda::Network reference(compiled.compiled());
    reference.set_reference_interpreter(true);
    const slim::InstanceModel& m = compiled.model();
    const eda::CompiledModel& cm = *compiled.compiled();
    const VarId count = m.var("count");
    const VarId level = m.var("level");
    const VarId widened = m.var("widened");
    const VarId truncated = m.var("truncated");
    const VarId narrow = m.var("narrow");
    const VarId scaled = m.var("scaled");

    // Copy flows read their source directly; the computed flow runs its program.
    ASSERT_EQ(m.flows.size(), 3u);
    EXPECT_EQ(cm.flow(0).source, count);
    EXPECT_EQ(cm.flow(1).source, eda::CompiledFlow::kNoSource);
    EXPECT_EQ(cm.flow(2).source, count);
    EXPECT_EQ(cm.store(narrow).lo, 0);
    EXPECT_EQ(cm.store(narrow).hi, 5);
    EXPECT_EQ(cm.store(widened).index, Value(0.0).index());

    eda::SimScratch scratch;
    eda::NetworkState fast = compiled.initial_state();
    eda::NetworkState slow = reference.initial_state();
    Rng fast_rng(1);
    Rng slow_rng(1);
    for (std::int64_t k = 1; k <= 5; ++k) {
        const std::span<const eda::Candidate> cands = compiled.candidates(fast, 10.0, scratch);
        ASSERT_EQ(cands.size(), 1u);
        const eda::Candidate c = cands[0];
        compiled.elapse(fast, 1.0);
        reference.elapse(slow, 1.0);
        (void)compiled.execute(fast, c, fast_rng, scratch);
        (void)reference.execute(slow, c, slow_rng);
        SCOPED_TRACE("firing " + std::to_string(k));
        for (std::size_t v = 0; v < fast.values.size(); ++v) {
            EXPECT_TRUE(same_value(fast.values[v], slow.values[v]))
                << m.vars[v].full_name << ": " << fast.values[v].to_string() << " vs "
                << slow.values[v].to_string();
        }
        const double lvl = (k % 2 == 0 ? 2.75 : -2.75);
        EXPECT_TRUE(same_value(fast.values[count], Value(k)));
        EXPECT_TRUE(same_value(fast.values[level], Value(lvl)));
        EXPECT_TRUE(same_value(fast.values[widened], Value(static_cast<double>(k))));
        EXPECT_TRUE(same_value(fast.values[truncated],
                               Value(static_cast<std::int64_t>(std::trunc(lvl * k)))));
        EXPECT_TRUE(same_value(fast.values[narrow], Value(k)));
        // The effect reads the pre-state count.
        EXPECT_TRUE(same_value(fast.values[scaled], Value(static_cast<double>(3 * (k - 1)))));
    }

    // The sixth firing copies 6 into narrow: both engines throw the same text.
    const std::span<const eda::Candidate> cands = compiled.candidates(fast, 10.0, scratch);
    ASSERT_EQ(cands.size(), 1u);
    const eda::Candidate c = cands[0];
    compiled.elapse(fast, 1.0);
    reference.elapse(slow, 1.0);
    const auto message = [](const auto& fire) -> std::string {
        try {
            fire();
        } catch (const Error& e) {
            return e.what();
        }
        return "no error";
    };
    const std::string fast_error =
        message([&] { (void)compiled.execute(fast, c, fast_rng, scratch); });
    const std::string slow_error = message([&] { (void)reference.execute(slow, c, slow_rng); });
    EXPECT_EQ(fast_error, "assignment of 6 to `narrow` violates its range int[0..5]");
    EXPECT_EQ(fast_error, slow_error);
}

} // namespace
} // namespace slimsim
