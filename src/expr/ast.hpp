// Expression AST shared by the SLIM front-end and the simulation engine.
//
// Variable references carry a *slot*: an index into a per-context binding
// table mapping slots to global variable ids. Component definitions are
// instantiated many times; each instance supplies its own binding table, so
// the same (resolved) expression tree is shared by all instances.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "expr/type.hpp"
#include "expr/value.hpp"
#include "support/diagnostics.hpp"

namespace slimsim::expr {

enum class UnaryOp : std::uint8_t { Not, Neg };
enum class BinaryOp : std::uint8_t {
    Add, Sub, Mul, Div, Mod,
    And, Or, Implies,
    Eq, Ne, Lt, Le, Gt, Ge,
};

[[nodiscard]] std::string to_string(UnaryOp op);
[[nodiscard]] std::string to_string(BinaryOp op);
[[nodiscard]] bool is_comparison(BinaryOp op);
[[nodiscard]] bool is_logical(BinaryOp op);

enum class ExprKind : std::uint8_t { Literal, Var, Unary, Binary, Ite };

struct Expr;
/// Trees are uniquely owned while being built by the parser, then frozen by
/// the resolver and shared read-only afterwards.
using ExprPtr = std::shared_ptr<Expr>;

/// Slot index local to a binding context.
using Slot = std::uint32_t;
inline constexpr Slot kInvalidSlot = static_cast<Slot>(-1);

struct Expr {
    ExprKind kind;
    SourceLoc loc;

    // Literal
    Value literal;
    // Var
    std::string var_name;        // as written; kept for diagnostics
    Slot slot = kInvalidSlot;    // filled by the resolver
    // Unary / Binary / Ite
    UnaryOp uop = UnaryOp::Not;
    BinaryOp bop = BinaryOp::Add;
    ExprPtr a, b, c;             // operands; Ite uses a=cond, b=then, c=else

    /// Static type; filled by the resolver (defaults to bool pre-resolution).
    Type type;

    [[nodiscard]] std::string to_string() const;
};

[[nodiscard]] ExprPtr make_literal(Value v, SourceLoc loc = {});
[[nodiscard]] ExprPtr make_bool(bool v);
[[nodiscard]] ExprPtr make_int(std::int64_t v);
[[nodiscard]] ExprPtr make_real(double v);
[[nodiscard]] ExprPtr make_var(std::string name, SourceLoc loc = {});
/// Pre-resolved variable reference (used by programmatic model builders).
[[nodiscard]] ExprPtr make_var_slot(Slot slot, Type type, std::string name = {});
[[nodiscard]] ExprPtr make_unary(UnaryOp op, ExprPtr operand, SourceLoc loc = {});
[[nodiscard]] ExprPtr make_binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs, SourceLoc loc = {});
[[nodiscard]] ExprPtr make_ite(ExprPtr cond, ExprPtr then_e, ExprPtr else_e, SourceLoc loc = {});

/// Deep copy (used when one declaration must be resolved in several scopes).
[[nodiscard]] ExprPtr clone(const Expr& e);

} // namespace slimsim::expr
