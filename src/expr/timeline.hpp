// Affine-in-time expression analysis: the tree-walking reference.
//
// Under time elapse, every timed variable v evolves as v(t) = v(0) + rate_v*t
// with a constant, location-dependent rate (linear-hybrid dynamics). Numeric
// expressions that are affine in the elapsed time t therefore evaluate to a
// linear form a + b*t, and Boolean expressions evaluate to *sets of time
// points* at which they hold — finite unions of intervals.
//
// The simulator computes guard enablement intervals and invariant horizons
// with the compiled Program::satisfying_times (expr/compile.hpp). The tree
// walkers here define the same analysis directly on the expression tree and
// live in expr::testing, beside expr::testing::reference_evaluate, as the
// oracles the compiled analysis is tested against.
#pragma once

#include <span>

#include "expr/eval.hpp"
#include "support/intervals.hpp"

namespace slimsim::expr {

/// Value of a numeric expression as a function of the elapsed time t:
/// value(t) = a + b * t.
struct LinForm {
    double a = 0.0;
    double b = 0.0;

    [[nodiscard]] bool constant() const { return b == 0.0; }
    [[nodiscard]] double at(double t) const { return a + b * t; }
};

/// Context for timed evaluation: the current valuation, the evaluating
/// instance's binding table, and the per-global-variable derivative in the
/// network's current location vector (0 for discrete variables).
struct TimedEvalContext {
    std::span<const Value> values;
    std::span<const VarId> bindings = {};
    std::span<const double> rates; // indexed by global VarId

    [[nodiscard]] EvalContext untimed() const { return {values, bindings}; }
    [[nodiscard]] VarId global_id(Slot slot) const {
        return bindings.empty() ? slot : bindings[slot];
    }
};

namespace testing {

/// True if the expression's value can change under time elapse, i.e. it
/// references a variable with a non-zero rate.
[[nodiscard]] bool is_time_dependent(const Expr& e, const TimedEvalContext& ctx);

/// Evaluates a numeric expression to a linear form in t. Throws
/// slimsim::Error if the expression is not affine in t (e.g. the product of
/// two clock expressions) — the validator rejects such models up front.
[[nodiscard]] LinForm eval_affine(const Expr& e, const TimedEvalContext& ctx);

/// Computes the exact set of delays t >= 0 after which the Boolean
/// expression holds (strict bounds closed over-approximated, see
/// support/intervals.hpp). Throws slimsim::Error on non-affine expressions.
[[nodiscard]] IntervalSet satisfying_times(const Expr& e, const TimedEvalContext& ctx);

} // namespace testing

} // namespace slimsim::expr
