// The compile-once model API (docs/compiled-model.md): bytecode programs
// vs the reference tree-walking interpreter, hash-consing, model content
// hashes, pinned estimates, and CompiledModel reuse across analyses.
#include "expr/compile.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>
#include <limits>
#include <map>
#include <tuple>

#include "api/analysis.hpp"
#include "eda/compiled.hpp"
#include "expr/eval.hpp"
#include "expr/timeline.hpp"
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

/// Equal representation and equal bits (operator== equates 1 and 1.0).
bool same_value(const Value& a, const Value& b) {
    if (a.index() != b.index()) return false;
    return a.is_real() ? double_bits(a.as_real()) == double_bits(b.as_real()) : a == b;
}

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

/// Random well-typed expression sources over two variables of each kind:
/// b0/b1 bool, i0/i1 int, r0/r1 real, c0/c1 clock. Every compound
/// subexpression is parenthesized, so the source is its tree.
class ExprGenerator {
public:
    explicit ExprGenerator(Rng& rng) : rng_(rng) {}

    std::string boolean(int depth) {
        switch (pick(depth, 3, 10)) {
        case 0: return rng_.bernoulli(0.5) ? "true" : "false";
        case 1: return var('b');
        case 2:
        case 3: { // a clock constraint, the common guard shape
            constexpr const char* kOps[] = {"<", "<=", ">", ">="};
            return "(" + var('c') + " " + kOps[rng_.uniform_index(4)] + " " +
                   number(depth - 1) + ")";
        }
        case 4: return "(not " + boolean(depth - 1) + ")";
        case 5: {
            constexpr const char* kOps[] = {"<", "<=", ">", ">=", "=", "!="};
            return "(" + number(depth - 1) + " " + kOps[rng_.uniform_index(6)] + " " +
                   number(depth - 1) + ")";
        }
        case 6:
        case 7: {
            constexpr const char* kOps[] = {"and", "or", "=>"};
            return "(" + boolean(depth - 1) + " " + kOps[rng_.uniform_index(3)] + " " +
                   boolean(depth - 1) + ")";
        }
        case 8:
            return "(" + boolean(depth - 1) + (rng_.bernoulli(0.5) ? " = " : " != ") +
                   boolean(depth - 1) + ")";
        default:
            return "(if " + boolean(depth - 1) + " then " + boolean(depth - 1) + " else " +
                   boolean(depth - 1) + ")";
        }
    }

    /// An int- or real-typed expression (clocks included).
    std::string number(int depth) {
        return rng_.bernoulli(0.5) ? integer(depth) : real(depth);
    }

private:
    std::string integer(int depth) {
        switch (pick(depth, 2, 7)) {
        case 0: return std::to_string(rng_.uniform_index(6));
        case 1: return var('i');
        case 2: return "(-" + integer(depth - 1) + ")";
        case 3:
        case 4: {
            constexpr const char* kOps[] = {"+", "-", "*", "/", "mod"};
            return "(" + integer(depth - 1) + " " + kOps[rng_.uniform_index(5)] + " " +
                   integer(depth - 1) + ")";
        }
        case 5:
            return "(if " + boolean(depth - 1) + " then " + integer(depth - 1) + " else " +
                   integer(depth - 1) + ")";
        default: // division or modulo by zero
            return "(" + integer(depth - 1) + (rng_.bernoulli(0.5) ? " / " : " mod ") +
                   zero_int() + ")";
        }
    }

    std::string real(int depth) {
        switch (pick(depth, 3, 8)) {
        case 0: {
            constexpr const char* kLits[] = {"0.0", "0.5", "2.5", "1.0", "3.75"};
            return kLits[rng_.uniform_index(5)];
        }
        case 1: return var('r');
        case 2: return var('c');
        case 3: return "(-" + real(depth - 1) + ")";
        case 4:
        case 5: {
            constexpr const char* kOps[] = {"+", "-", "*", "/"};
            return "(" + number(depth - 1) + " " + kOps[rng_.uniform_index(4)] + " " +
                   number(depth - 1) + ")";
        }
        case 6:
            return "(if " + boolean(depth - 1) + " then " + number(depth - 1) + " else " +
                   real(depth - 1) + ")";
        default: return "(" + real(depth - 1) + " / 0.0)";
        }
    }

    /// A leaf kind (below `leaves`) at depth 0, any of `kinds` otherwise.
    std::size_t pick(int depth, std::size_t leaves, std::size_t kinds) {
        return rng_.uniform_index(depth <= 0 ? leaves : kinds);
    }
    std::string var(char kind) { return kind + std::to_string(rng_.uniform_index(2)); }
    std::string zero_int() { return rng_.bernoulli(0.5) ? "0" : "(i0 - i0)"; }

    Rng& rng_;
};

/// Runs `f`, returning its error text ("" when it returns normally).
template <class F>
std::string error_of(F&& f) {
    try {
        f();
    } catch (const Error& e) {
        return e.what();
    }
    return {};
}

TEST(CompiledExpr, RandomExpressionsMatchTreeWalkers) {
    slim::SymbolTable table;
    const std::pair<char, Type> kinds[] = {{'b', Type::boolean()},
                                           {'i', Type::integer()},
                                           {'r', Type::real()},
                                           {'c', Type::clock()}};
    for (const auto& [kind, type] : kinds) {
        for (int k = 0; k < 2; ++k) {
            slim::Symbol sym;
            sym.name = kind + std::to_string(k);
            sym.kind = slim::SymKind::Data;
            sym.type = type;
            table.add(std::move(sym));
        }
    }
    std::size_t expressions = 0;
    std::size_t run_errors = 0;
    std::size_t mod_errors = 0;
    std::size_t timed_errors = 0;
    std::size_t non_affine_errors = 0;
    std::size_t bounded_sets = 0;
    // A private cache: the process-wide one keeps the first-compiled source
    // location of each structure, which other tests may have set.
    expr::ProgramCache cache;
    expr::EvalScratch scratch;
    for (const std::uint64_t seed : {3ULL, 17ULL, 29ULL, 101ULL}) {
        Rng rng(seed);
        ExprGenerator gen(rng);
        for (int n = 0; n < 600; ++n) {
            // Fresh values and rates: ints in [-2, 2] (so divisors hit 0),
            // reals and clocks in [0, 5), clock rates in [-2, 2] or frozen.
            std::vector<Value> values;
            std::vector<double> rates;
            for (int k = 0; k < 2; ++k) values.emplace_back(rng.bernoulli(0.5));
            for (int k = 0; k < 2; ++k) {
                values.emplace_back(static_cast<std::int64_t>(rng.uniform_index(5)) - 2);
            }
            for (int k = 0; k < 4; ++k) values.emplace_back(rng.uniform(0.0, 5.0));
            rates.assign(6, 0.0);
            for (int k = 0; k < 2; ++k) {
                rates.push_back(rng.bernoulli(0.2) ? 0.0 : rng.uniform(-2.0, 2.0));
            }
            const bool is_bool = rng.bernoulli(0.75);
            const int depth = static_cast<int>(rng.uniform_index(5));
            const std::string source = is_bool ? gen.boolean(depth) : gen.number(depth);
            SCOPED_TRACE(source);
            expr::ExprPtr e = slim::parse_expression(source);
            DiagnosticSink sink;
            slim::resolve_expr(*e, table, sink);
            sink.throw_if_errors("random expression");
            const expr::ProgramPtr prog = cache.get_or_compile(*e);
            ++expressions;

            // run() against the tree-walking evaluator.
            std::optional<Value> tree_value;
            const std::string tree_error = error_of(
                [&] { tree_value = expr::testing::reference_evaluate(*e, {values, {}}); });
            std::optional<Value> prog_value;
            const std::string prog_error =
                error_of([&] { prog_value = prog->run(values, scratch); });
            EXPECT_EQ(prog_error, tree_error);
            ASSERT_EQ(prog_value.has_value(), tree_value.has_value());
            if (tree_value) {
                EXPECT_TRUE(same_value(*prog_value, *tree_value))
                    << prog_value->to_string() << " vs " << tree_value->to_string();
            } else {
                ++run_errors;
                if (tree_error.find("modulo") != std::string::npos) ++mod_errors;
            }
            if (!is_bool) continue;

            // satisfying_times() against the tree-walking timeline.
            IntervalSet tree_set;
            const std::string tree_timed_error = error_of([&] {
                tree_set = expr::testing::satisfying_times(*e, {values, {}, rates});
            });
            IntervalSet prog_set;
            const std::string prog_timed_error =
                error_of([&] { prog_set = prog->satisfying_times(values, rates, scratch); });
            EXPECT_EQ(prog_timed_error, tree_timed_error);
            if (!tree_timed_error.empty()) {
                ++timed_errors;
                if (tree_timed_error.find("not affine") != std::string::npos) {
                    ++non_affine_errors;
                }
                continue;
            }
            ASSERT_EQ(prog_set.parts().size(), tree_set.parts().size())
                << prog_set.to_string() << " vs " << tree_set.to_string();
            for (std::size_t k = 0; k < tree_set.parts().size(); ++k) {
                EXPECT_EQ(double_bits(prog_set.parts()[k].lo),
                          double_bits(tree_set.parts()[k].lo));
                EXPECT_EQ(double_bits(prog_set.parts()[k].hi),
                          double_bits(tree_set.parts()[k].hi));
            }
            if (!tree_set.parts().empty() && tree_set.parts().back().hi <
                                                 std::numeric_limits<double>::infinity()) {
                ++bounded_sets;
            }
        }
    }
    EXPECT_GE(expressions, 2000u);
    // The draws reach every outcome: value errors (modulo by zero among
    // them), timed errors (division by zero or non-affine products of
    // clocks) and time-bounded sets.
    EXPECT_GT(run_errors, 100u);
    EXPECT_GT(mod_errors, 20u);
    EXPECT_GT(timed_errors, 100u);
    EXPECT_GT(non_affine_errors, 20u);
    EXPECT_GT(bounded_sets, 100u);
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

/// One estimate pinned at a seed: the estimate's bits, the sample and
/// success counts and the terminal histogram (PathTerminal order). The
/// values were first taken while a tree-walking reference network still ran
/// every path beside the compiled one and agreed on every field, and
/// re-pinned once when the sequential runner moved from one continuing
/// stream to per-path streams.
struct PinnedEstimate {
    const char* model;
    std::uint64_t seed;
    std::uint64_t estimate_bits;
    std::size_t samples;
    std::size_t successes;
    std::array<std::size_t, sim::kPathTerminalCount> terminals;
};

constexpr PinnedEstimate kPinnedEstimates[] = {
    {"gps.slim", 1, 0x3ff0000000000000ULL, 116, 116, {116, 0, 0, 0, 0, 0}},
    {"gps.slim", 42, 0x3ff0000000000000ULL, 116, 116, {116, 0, 0, 0, 0, 0}},
    {"gps_restart.slim", 1, 0x3ff0000000000000ULL, 116, 116, {116, 0, 0, 0, 0, 0}},
    {"gps_restart.slim", 42, 0x3fefb9611a7b9612ULL, 116, 115, {115, 1, 0, 0, 0, 0}},
    {"failover.slim", 1, 0x0000000000000000ULL, 116, 0, {0, 116, 0, 0, 0, 0}},
    {"failover.slim", 42, 0x0000000000000000ULL, 116, 0, {0, 116, 0, 0, 0, 0}},
    {"sensor_filter_panic.slim", 1, 0x3fd72c234f72c235ULL, 116, 42, {42, 8, 0, 66, 0, 0}},
    {"sensor_filter_panic.slim", 42, 0x3fd611a7b9611a7cULL, 116, 40, {40, 7, 0, 69, 0, 0}},
    {"sensor_filter_r3", 1, 0x3fd08d3dcb08d3ddULL, 116, 30, {30, 86, 0, 0, 0, 0}},
    {"sensor_filter_r3", 42, 0x3fd69ee58469ee58ULL, 116, 41, {41, 75, 0, 0, 0, 0}},
    {"launcher_rec", 1, 0x3fc08d3dcb08d3ddULL, 116, 15, {15, 101, 0, 0, 0, 0}},
    {"launcher_rec", 42, 0x3fc08d3dcb08d3ddULL, 116, 15, {15, 101, 0, 0, 0, 0}},
};

/// Every estimate field at the model's two pinned seeds.
void expect_pinned_estimates(const eda::Network& net, const std::string& name,
                             const std::string& goal, double bound,
                             sim::StrategyKind strategy) {
    const auto prop = sim::make_reachability(net.model(), goal, bound);
    const stat::ChernoffHoeffding ch(0.2, 0.1);
    std::size_t checked = 0;
    for (const PinnedEstimate& pin : kPinnedEstimates) {
        if (name != pin.model) continue;
        SCOPED_TRACE(name + " seed " + std::to_string(pin.seed));
        const auto est = sim::estimate(net, prop, strategy, ch, pin.seed);
        EXPECT_EQ(double_bits(est.estimate), pin.estimate_bits) << est.estimate;
        EXPECT_EQ(est.samples, pin.samples);
        EXPECT_EQ(est.successes, pin.successes);
        EXPECT_EQ(est.terminals, pin.terminals);
        ++checked;
    }
    EXPECT_EQ(checked, 2u) << name;
}

TEST(CompiledModel, EstimatesMatchPinnedGoldens) {
    for (const BundledModel& bm : kBundled) {
        expect_pinned_estimates(eda::build_network_from_file(model_path(bm.file)), bm.file,
                                bm.goal, bm.bound, sim::StrategyKind::Progressive);
    }
    // Every firing of the generated models runs data flows and fault
    // injections, so these pins also cover the interned flow and injection
    // lists.
    for (const GeneratedModel& gm : generated_models()) {
        expect_pinned_estimates(eda::build_network_from_source(gm.source), gm.name,
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
        // Path j always uses Rng(seed).split(j), so the accepted sample set
        // is a pure function of the seed.
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

TEST(CompiledModel, ContentHashIsPinned) {
    // Checkpoints carry this hash as the model identity: a change to
    // hash_mix / hash_words or to what model_content_hash feeds them would
    // make every existing checkpoint of the model unresumable.
    const eda::CompiledModelPtr cm = compile_file(model_path("gps.slim"));
    EXPECT_EQ(cm->content_hash(), 0x1ded5a9fbb5b9bb9ULL);
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

/// The configuration of s recomputed from scratch by sweeping the whole
/// model: the oracle for every list the interner precomputes.
ConfigView recompute(const eda::Network& net, const eda::NetworkState& s) {
    const slim::InstanceModel& m = net.model();
    const eda::CompiledModel& cm = *net.compiled();
    ConfigView v;
    // Active processes' location slopes; inactive processes freeze.
    std::vector<double> rates(m.vars.size(), 0.0);
    for (std::size_t p = 0; p < m.processes.size(); ++p) {
        const slim::InstProcess& proc = m.processes[p];
        if (!s.instance_active(static_cast<std::size_t>(proc.instance))) continue;
        const auto& loc = proc.locations[static_cast<std::size_t>(s.locations[p])];
        for (const auto& [var, slope] : loc.rates) rates[var] = slope;
    }
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

/// The valuation as (representation, bits) pairs, so comparisons are
/// bitwise (Value's == equates int 9 and real 9.0).
std::vector<std::pair<std::size_t, std::uint64_t>> bits_of(const std::vector<Value>& values) {
    std::vector<std::pair<std::size_t, std::uint64_t>> out;
    out.reserve(values.size());
    for (const Value& v : values) {
        out.emplace_back(v.index(), v.is_bool()  ? std::uint64_t{v.as_bool()}
                                    : v.is_int() ? static_cast<std::uint64_t>(v.as_int())
                                                 : double_bits(v.as_real()));
    }
    return out;
}

/// s's valuation settled again from scratch by the tree-walking evaluator:
/// the injections of s's configuration, every one of its flows, the
/// injections again. The oracle for the incremental settle, which re-runs
/// only the flows a firing can have changed.
std::vector<Value> full_resettle(const eda::Network& net, const eda::NetworkState& s) {
    const slim::InstanceModel& m = net.model();
    const ConfigView cfg = recompute(net, s);
    std::vector<Value> values = s.values;
    const auto inject = [&] {
        for (const std::uint32_t i : cfg.injections) {
            values[m.injections[i].target] = m.injections[i].value;
        }
    };
    inject();
    for (const std::uint32_t i : cfg.flows) {
        const slim::InstFlow& f = m.flows[i];
        values[f.target] = expr::evaluate(*f.value, expr::EvalContext{values, *f.bindings})
                               .coerce_to(m.vars[f.target].type);
    }
    inject();
    return values;
}

/// Wraps an automated strategy and checks every state it is consulted on
/// against full_resettle. It drives the Continue memory policy, which only
/// PathGenerator::run honours.
class ResettleChecking final : public sim::Strategy {
public:
    explicit ResettleChecking(sim::StrategyKind kind) : inner_(sim::make_strategy(kind)) {}
    [[nodiscard]] std::string name() const override { return inner_->name(); }
    std::size_t checked = 0;
    std::size_t mismatched = 0;

protected:
    std::optional<sim::ScheduledChoice> choose_impl(const eda::Network& net,
                                                    const eda::NetworkState& state,
                                                    std::span<const eda::Candidate> candidates,
                                                    double horizon, Rng& rng) override {
        ++checked;
        if (bits_of(state.values) != bits_of(full_resettle(net, state))) ++mismatched;
        return inner_->choose(net, state, candidates, horizon, rng);
    }

private:
    std::unique_ptr<sim::Strategy> inner_;
};

/// A model whose flows the firings reach every way the incremental settle
/// tracks: an effect into a flow target (`level := 99`); an injected flow
/// target (`level`) that a repair restores and that flows read while
/// another of their inputs changes (`bias`); a flow source that only an
/// @activation cascade writes (`mark`, read by `seen`); and flows that an
/// activation change switches off and on.
constexpr const char* kRelayModel = R"(
root Top.I;
system Unit
features
  level: out data port int [0..100] default 0;
  shown: out data port int [0..200] default 0;
  mark: out data port int [0..1] default 0;
end Unit;
system implementation Unit.I
subcomponents
  base: data int [0..3] default 1;
flows
  level := base * 2;
  shown := level + 1;
modes
  idle: initial mode;
  busy: mode;
transitions
  idle -[when @timer >= 1 then base := 3 - base]-> busy;
  busy -[when @timer >= 1 then level := 99]-> idle;
  busy -[@activation then base := 3 - base; mark := 1 - mark]-> idle;
  idle -[@activation then mark := 1 - mark]-> idle;
end Unit.I;
system Top
features
  out: out data port int [0..200] default 0;
  seen: out data port int [0..1] default 0;
end Top;
system implementation Top.I
subcomponents
  u: system Unit.I in modes (on, on2);
  bias: data int [0..1] default 0;
flows
  out := u.level + bias;
  seen := u.mark;
modes
  on: initial mode;
  on2: mode;
  off: mode;
transitions
  on -[when @timer >= 2 then bias := 1 - bias]-> on2;
  on2 -[when @timer >= 1]-> off;
  off -[when @timer >= 1]-> on;
end Top.I;
error model Fault
features ok: initial state; bad: error state;
end Fault;
error model implementation Fault.I
events
  f: error event occurrence poisson 1 per sec;
  r: error event occurrence poisson 2 per sec;
transitions
  ok -[f]-> bad;
  bad -[r]-> ok;
end Fault.I;
fault injections
  component u uses error model Fault.I;
  component u in state bad effect level := 0;
end fault injections;
)";

TEST(StateInterner, IncrementalSettleMatchesAFullResettleAlongPaths) {
    struct Walked {
        std::string name;
        eda::CompiledModelPtr cm;
        std::string goal;
        double bound;
    };
    std::vector<Walked> walked;
    for (const BundledModel& bm : kBundled) {
        walked.push_back({bm.file, compile_file(model_path(bm.file)), bm.goal, bm.bound});
    }
    for (int r = 1; r <= 7; ++r) {
        walked.push_back({"sensor_filter_r" + std::to_string(r),
                          compile_source(models::sensor_filter_source(r), "sf.slim"),
                          models::sensor_filter_goal(), 100.0 * 3600.0});
    }
    for (const bool recoverable : {false, true}) {
        models::LauncherOptions options;
        options.recoverable_dpu = recoverable;
        walked.push_back({recoverable ? "launcher_rec" : "launcher",
                          compile_source(models::launcher_source(options), "launcher.slim"),
                          models::launcher_goal(), 1800.0});
    }
    walked.push_back({"relay", compile_source(kRelayModel, "relay.slim"), "out > 150", 20.0});

    for (const Walked& w : walked) {
        const eda::Network net(w.cm);
        const auto prop = sim::make_reachability(net.model(), w.goal, w.bound);
        for (const sim::StrategyKind kind : sim::automated_strategies()) {
            SCOPED_TRACE(w.name + " / " + sim::to_string(kind));
            // Restart (the stepping interface's policy): every state after
            // every step.
            const auto strategy = sim::make_strategy(kind);
            const sim::PathGenerator gen(net, prop, *strategy);
            Rng rng(11);
            std::size_t steps_checked = 0;
            for (int path = 0; path < 500; ++path) {
                eda::NetworkState s = gen.initial_state();
                std::size_t steps = 0;
                for (bool done = false; !done;) {
                    done = gen.step(s, rng, steps).has_value();
                    ASSERT_EQ(bits_of(s.values), bits_of(full_resettle(net, s)))
                        << "path " << path << ", step " << steps;
                    ++steps_checked;
                }
            }
            EXPECT_GT(steps_checked, 500u);
            // Continue: every state the strategy is consulted on.
            ResettleChecking checking(kind);
            sim::SimOptions options;
            options.memory = sim::MemoryPolicy::Continue;
            const sim::PathGenerator cont(net, prop, checking, options);
            for (int path = 0; path < 500; ++path) (void)cont.run(rng);
            EXPECT_GE(checking.checked, 500u);
            EXPECT_EQ(checking.mismatched, 0u);
        }
    }
}

/// Asserts that configurations whose list (as `key_of` copies it out) is
/// equal point at one copy of it, and that some configurations do share.
template <class KeyOf>
void expect_one_copy(const eda::StateInterner& interner, const char* name, KeyOf key_of) {
    SCOPED_TRACE(name);
    std::map<decltype(key_of(interner.config(0)).first), const void*> owner;
    std::size_t nonempty = 0;
    for (std::uint32_t id = 0; id < interner.size(); ++id) {
        const auto [key, data] = key_of(interner.config(id));
        if (key.empty()) continue;
        ++nonempty;
        const auto [it, first] = owner.emplace(key, data);
        if (!first) {
            ASSERT_EQ(data, it->second) << "config " << id;
        }
    }
    if (nonempty > 0) {
        EXPECT_LT(owner.size(), nonempty) << "no list is shared";
    }
}

TEST(StateInterner, EqualListsShareOneCopyAndEarlyEntriesStayPut) {
    // Sensor/filter R = 6 under ASAP reaches 10,000 configurations within
    // ~17k paths (R = 5 has only 2,945 in all).
    const eda::Network net(compile_source(models::sensor_filter_source(6), "sf6.slim"));
    const auto prop =
        sim::make_reachability(net.model(), models::sensor_filter_goal(), 100.0 * 3600.0);
    const auto strategy = sim::make_strategy(sim::StrategyKind::Asap);
    const sim::PathGenerator gen(net, prop, *strategy);

    eda::SimScratch scratch;
    scratch.bind(*net.compiled());
    // The first four configurations and their list addresses, copied out
    // when first interned.
    struct Early {
        std::uint32_t id;
        ConfigView view;
        std::array<const void*, 6> data;
    };
    const auto data_of = [](const eda::InternedConfig& c) {
        return std::array<const void*, 6>{c.rates.data(),      c.markov.data(),
                                          c.taus.data(),       c.invariants.data(),
                                          c.flows.data(),      c.injections.data()};
    };
    std::vector<Early> early;
    Rng rng(3);
    for (int path = 0; path < 100'000 && scratch.interner.size() < 10'000; ++path) {
        eda::NetworkState s = gen.initial_state();
        std::size_t steps = 0;
        for (bool done = false; !done;) {
            const std::size_t known = scratch.interner.size();
            const std::uint32_t id = scratch.interner.intern_id(s, *net.compiled());
            const eda::InternedConfig& cfg = scratch.interner.config(id);
            if (scratch.interner.size() > known) {
                ASSERT_EQ(id, known); // ids follow first sight
                if (early.size() < 4) early.push_back({id, view_of(cfg), data_of(cfg)});
            }
            done = gen.step(s, rng, steps).has_value();
        }
    }
    ASSERT_GE(scratch.interner.size(), 10'000u);
    ASSERT_EQ(early.size(), 4u);
    for (const Early& e : early) {
        SCOPED_TRACE("early config " + std::to_string(e.id));
        const eda::InternedConfig& cfg = scratch.interner.config(e.id);
        expect_same_config(view_of(cfg), e.view);
        EXPECT_EQ(data_of(cfg), e.data);
    }

    const auto with = [](const auto& list, const auto& key) {
        return std::pair(key, static_cast<const void*>(list.data()));
    };
    expect_one_copy(scratch.interner, "rates", [&](const eda::InternedConfig& c) {
        return with(c.rates, view_of(c).rates);
    });
    expect_one_copy(scratch.interner, "markov", [&](const eda::InternedConfig& c) {
        return with(c.markov, view_of(c).markov);
    });
    expect_one_copy(scratch.interner, "taus", [&](const eda::InternedConfig& c) {
        return with(c.taus, view_of(c).taus);
    });
    expect_one_copy(scratch.interner, "invariants", [&](const eda::InternedConfig& c) {
        return with(c.invariants, view_of(c).invariants);
    });
    expect_one_copy(scratch.interner, "flows", [&](const eda::InternedConfig& c) {
        return with(c.flows, view_of(c).flows);
    });
    expect_one_copy(scratch.interner, "injections", [&](const eda::InternedConfig& c) {
        return with(c.injections, view_of(c).injections);
    });
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

TEST(TypedStore, EdgeCasesStoreExactValuesAndRangeErrors) {
    const eda::Network net(compile_source(kStoreModel, "store.slim"));
    const slim::InstanceModel& m = net.model();
    const eda::CompiledModel& cm = *net.compiled();
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
    eda::NetworkState s = net.initial_state();
    Rng rng(1);
    for (std::int64_t k = 1; k <= 5; ++k) {
        const std::span<const eda::Candidate> cands = net.candidates(s, 10.0, scratch);
        ASSERT_EQ(cands.size(), 1u);
        const eda::Candidate c = cands[0];
        net.elapse(s, 1.0);
        (void)net.execute(s, c, rng, scratch);
        SCOPED_TRACE("firing " + std::to_string(k));
        const double lvl = (k % 2 == 0 ? 2.75 : -2.75);
        EXPECT_TRUE(same_value(s.values[count], Value(k)));
        EXPECT_TRUE(same_value(s.values[level], Value(lvl)));
        EXPECT_TRUE(same_value(s.values[widened], Value(static_cast<double>(k))));
        EXPECT_TRUE(same_value(s.values[truncated],
                               Value(static_cast<std::int64_t>(std::trunc(lvl * k)))));
        EXPECT_TRUE(same_value(s.values[narrow], Value(k)));
        // The effect reads the pre-state count.
        EXPECT_TRUE(same_value(s.values[scaled], Value(static_cast<double>(3 * (k - 1)))));
    }

    // The sixth firing copies 6 into narrow, which leaves its range.
    const std::span<const eda::Candidate> cands = net.candidates(s, 10.0, scratch);
    ASSERT_EQ(cands.size(), 1u);
    const eda::Candidate c = cands[0];
    net.elapse(s, 1.0);
    std::string error = "no error";
    try {
        (void)net.execute(s, c, rng, scratch);
    } catch (const Error& e) {
        error = e.what();
    }
    EXPECT_EQ(error, "assignment of 6 to `narrow` violates its range int[0..5]");
}

} // namespace
} // namespace slimsim
