// Expression evaluation against a variable valuation.
#pragma once

#include <span>

#include "expr/ast.hpp"

namespace slimsim::expr {

/// Evaluation context: the global valuation plus the binding table of the
/// evaluating component instance (slot -> global VarId). An empty binding
/// table means slots *are* global variable ids (identity binding), which is
/// what the programmatic model builders and the network's own expressions use.
struct EvalContext {
    std::span<const Value> values;
    std::span<const VarId> bindings = {};

    [[nodiscard]] const Value& value_of(Slot slot) const {
        const VarId id = bindings.empty() ? slot : bindings[slot];
        SLIMSIM_ASSERT(id < values.size());
        return values[id];
    }
};

/// Evaluates a resolved expression. Throws slimsim::Error on division by
/// zero or modulo by zero (user-visible model error); asserts on type
/// confusion (resolver bugs).
///
/// Implemented as compile-and-run over the hash-consing program cache
/// (expr/compile.hpp): every evaluation path in slimsim goes through the
/// compiled layer. Hot loops should compile() once instead of calling this
/// per state.
[[nodiscard]] Value evaluate(const Expr& e, const EvalContext& ctx);

/// Convenience: evaluates a Boolean expression.
[[nodiscard]] bool evaluate_bool(const Expr& e, const EvalContext& ctx);

namespace testing {
/// The direct tree-walking interpreter: the oracle differential tests check
/// the compiled programs against. Production callers use evaluate().
[[nodiscard]] Value reference_evaluate(const Expr& e, const EvalContext& ctx);
} // namespace testing

} // namespace slimsim::expr
