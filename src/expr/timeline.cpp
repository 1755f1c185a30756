#include "expr/timeline.hpp"

#include <cmath>
#include <limits>

namespace slimsim::expr {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

[[noreturn]] void non_affine(const Expr& e) {
    throw Error(e.loc, "expression is not affine in time");
}

/// Solves a + b*t <op> 0 for t in [0, inf).
IntervalSet solve_comparison(BinaryOp op, const LinForm& f) {
    if (f.constant()) {
        bool holds = false;
        switch (op) {
        case BinaryOp::Eq: holds = f.a == 0.0; break;
        case BinaryOp::Ne: holds = f.a != 0.0; break;
        case BinaryOp::Lt: holds = f.a < 0.0; break;
        case BinaryOp::Le: holds = f.a <= 0.0; break;
        case BinaryOp::Gt: holds = f.a > 0.0; break;
        case BinaryOp::Ge: holds = f.a >= 0.0; break;
        default: SLIMSIM_ASSERT(false);
        }
        return holds ? IntervalSet::all() : IntervalSet::empty_set();
    }
    const double root = -f.a / f.b; // time at which the form crosses zero
    switch (op) {
    case BinaryOp::Eq:
        return root >= 0.0 ? IntervalSet::point(root) : IntervalSet::empty_set();
    case BinaryOp::Ne:
        // Closed over-approximation of [0,inf) \ {root} is [0,inf).
        return IntervalSet::all();
    case BinaryOp::Lt:
    case BinaryOp::Le:
        if (f.b > 0.0) {
            // decreasingly satisfied: a+bt <= 0 until t = root
            return root >= 0.0 ? IntervalSet(0.0, root) : IntervalSet::empty_set();
        }
        return IntervalSet(std::max(0.0, root), kInf);
    case BinaryOp::Gt:
    case BinaryOp::Ge:
        if (f.b > 0.0) return IntervalSet(std::max(0.0, root), kInf);
        return root >= 0.0 ? IntervalSet(0.0, root) : IntervalSet::empty_set();
    default: SLIMSIM_ASSERT(false);
    }
    return IntervalSet::empty_set();
}

} // namespace

namespace testing {

bool is_time_dependent(const Expr& e, const TimedEvalContext& ctx) {
    switch (e.kind) {
    case ExprKind::Literal:
        return false;
    case ExprKind::Var: {
        SLIMSIM_ASSERT(e.slot != kInvalidSlot);
        const VarId id = ctx.global_id(e.slot);
        SLIMSIM_ASSERT(id < ctx.rates.size());
        return ctx.rates[id] != 0.0;
    }
    case ExprKind::Unary:
        return is_time_dependent(*e.a, ctx);
    case ExprKind::Binary:
        return is_time_dependent(*e.a, ctx) || is_time_dependent(*e.b, ctx);
    case ExprKind::Ite:
        return is_time_dependent(*e.a, ctx) || is_time_dependent(*e.b, ctx) ||
               is_time_dependent(*e.c, ctx);
    }
    return false;
}

LinForm eval_affine(const Expr& e, const TimedEvalContext& ctx) {
    // Time-independent subtrees (of any shape: mod, ite, ...) evaluate to a
    // constant form directly. Uses the reference tree walker so this module
    // stays a self-contained interpreter (the compiled layer mirrors it and
    // differential tests compare the two).
    if (!is_time_dependent(e, ctx)) {
        return {testing::reference_evaluate(e, ctx.untimed()).as_real(), 0.0};
    }
    switch (e.kind) {
    case ExprKind::Var: {
        const VarId id = ctx.global_id(e.slot);
        return {ctx.values[id].as_real(), ctx.rates[id]};
    }
    case ExprKind::Unary: {
        if (e.uop != UnaryOp::Neg) non_affine(e);
        const LinForm f = eval_affine(*e.a, ctx);
        return {-f.a, -f.b};
    }
    case ExprKind::Binary: {
        switch (e.bop) {
        case BinaryOp::Add: {
            const LinForm l = eval_affine(*e.a, ctx);
            const LinForm r = eval_affine(*e.b, ctx);
            return {l.a + r.a, l.b + r.b};
        }
        case BinaryOp::Sub: {
            const LinForm l = eval_affine(*e.a, ctx);
            const LinForm r = eval_affine(*e.b, ctx);
            return {l.a - r.a, l.b - r.b};
        }
        case BinaryOp::Mul: {
            const LinForm l = eval_affine(*e.a, ctx);
            const LinForm r = eval_affine(*e.b, ctx);
            if (l.constant()) return {l.a * r.a, l.a * r.b};
            if (r.constant()) return {l.a * r.a, l.b * r.a};
            non_affine(e); // product of two time-dependent expressions
        }
        case BinaryOp::Div: {
            const LinForm l = eval_affine(*e.a, ctx);
            const LinForm r = eval_affine(*e.b, ctx);
            if (!r.constant()) non_affine(e); // time-dependent divisor
            if (r.a == 0.0) throw Error(e.loc, "division by zero");
            return {l.a / r.a, l.b / r.a};
        }
        default:
            non_affine(e); // mod of time-dependent operands, or a Boolean op
        }
    }
    case ExprKind::Ite:
    case ExprKind::Literal:
        non_affine(e); // time-dependent ite in numeric position
    }
    SLIMSIM_ASSERT(false);
    return {};
}

IntervalSet satisfying_times(const Expr& e, const TimedEvalContext& ctx) {
    SLIMSIM_ASSERT(e.type.is_bool());
    if (!is_time_dependent(e, ctx)) {
        return testing::reference_evaluate(e, ctx.untimed()).as_bool()
                   ? IntervalSet::all()
                   : IntervalSet::empty_set();
    }
    switch (e.kind) {
    case ExprKind::Unary:
        SLIMSIM_ASSERT(e.uop == UnaryOp::Not);
        return satisfying_times(*e.a, ctx).complement(kInf);
    case ExprKind::Binary: {
        switch (e.bop) {
        case BinaryOp::And:
            return satisfying_times(*e.a, ctx).intersect(satisfying_times(*e.b, ctx));
        case BinaryOp::Or:
            return satisfying_times(*e.a, ctx).unite(satisfying_times(*e.b, ctx));
        case BinaryOp::Implies:
            return satisfying_times(*e.a, ctx)
                .complement(kInf)
                .unite(satisfying_times(*e.b, ctx));
        default:
            break;
        }
        if (is_comparison(e.bop) && e.a->type.is_bool()) {
            // Boolean (in)equality: both sides hold, or both fail.
            const IntervalSet l = satisfying_times(*e.a, ctx);
            const IntervalSet r = satisfying_times(*e.b, ctx);
            const IntervalSet not_l = l.complement(kInf);
            const IntervalSet not_r = r.complement(kInf);
            return e.bop == BinaryOp::Eq ? l.intersect(r).unite(not_l.intersect(not_r))
                                         : l.intersect(not_r).unite(not_l.intersect(r));
        }
        if (is_comparison(e.bop)) {
            // Rewrite l <op> r as (l - r) <op> 0 and solve the linear form.
            const LinForm l = eval_affine(*e.a, ctx);
            const LinForm r = eval_affine(*e.b, ctx);
            return solve_comparison(e.bop, {l.a - r.a, l.b - r.b});
        }
        non_affine(e);
    }
    case ExprKind::Ite: {
        // (cond ? x : y) holds at t iff (cond & x) | (!cond & y) holds at t.
        const IntervalSet cond = satisfying_times(*e.a, ctx);
        const IntervalSet then_s = satisfying_times(*e.b, ctx);
        const IntervalSet else_s = satisfying_times(*e.c, ctx);
        return cond.intersect(then_s).unite(cond.complement(kInf).intersect(else_s));
    }
    case ExprKind::Literal:
    case ExprKind::Var:
        // Literals / Boolean variables are never time-dependent; handled above.
        SLIMSIM_ASSERT(false);
    }
    SLIMSIM_ASSERT(false);
    return IntervalSet::empty_set();
}

} // namespace testing

} // namespace slimsim::expr
