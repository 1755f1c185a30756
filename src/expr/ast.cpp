#include "expr/ast.hpp"

#include <sstream>

namespace slimsim::expr {

std::string to_string(UnaryOp op) {
    switch (op) {
    case UnaryOp::Not: return "not";
    case UnaryOp::Neg: return "-";
    }
    return "?";
}

std::string to_string(BinaryOp op) {
    switch (op) {
    case BinaryOp::Add: return "+";
    case BinaryOp::Sub: return "-";
    case BinaryOp::Mul: return "*";
    case BinaryOp::Div: return "/";
    case BinaryOp::Mod: return "mod";
    case BinaryOp::And: return "and";
    case BinaryOp::Or: return "or";
    case BinaryOp::Implies: return "=>";
    case BinaryOp::Eq: return "=";
    case BinaryOp::Ne: return "!=";
    case BinaryOp::Lt: return "<";
    case BinaryOp::Le: return "<=";
    case BinaryOp::Gt: return ">";
    case BinaryOp::Ge: return ">=";
    }
    return "?";
}

bool is_comparison(BinaryOp op) {
    switch (op) {
    case BinaryOp::Eq:
    case BinaryOp::Ne:
    case BinaryOp::Lt:
    case BinaryOp::Le:
    case BinaryOp::Gt:
    case BinaryOp::Ge: return true;
    default: return false;
    }
}

bool is_logical(BinaryOp op) {
    return op == BinaryOp::And || op == BinaryOp::Or || op == BinaryOp::Implies;
}

std::string Expr::to_string() const {
    std::ostringstream os;
    switch (kind) {
    case ExprKind::Literal:
        os << literal.to_string();
        break;
    case ExprKind::Var:
        os << (var_name.empty() ? "$" + std::to_string(slot) : var_name);
        break;
    case ExprKind::Unary:
        os << slimsim::expr::to_string(uop) << ' ' << '(' << a->to_string() << ')';
        break;
    case ExprKind::Binary:
        os << '(' << a->to_string() << ' ' << slimsim::expr::to_string(bop) << ' '
           << b->to_string() << ')';
        break;
    case ExprKind::Ite:
        os << "(if " << a->to_string() << " then " << b->to_string() << " else "
           << c->to_string() << ')';
        break;
    }
    return os.str();
}

ExprPtr make_literal(Value v, SourceLoc loc) {
    auto e = std::make_shared<Expr>();
    e->kind = ExprKind::Literal;
    e->loc = std::move(loc);
    if (v.is_bool()) {
        e->type = Type::boolean();
    } else if (v.is_int()) {
        e->type = Type::integer();
    } else {
        e->type = Type::real();
    }
    e->literal = v;
    return e;
}

ExprPtr make_bool(bool v) { return make_literal(Value(v)); }
ExprPtr make_int(std::int64_t v) { return make_literal(Value(v)); }
ExprPtr make_real(double v) { return make_literal(Value(v)); }

ExprPtr make_var(std::string name, SourceLoc loc) {
    auto e = std::make_shared<Expr>();
    e->kind = ExprKind::Var;
    e->loc = std::move(loc);
    e->var_name = std::move(name);
    return e;
}

ExprPtr make_var_slot(Slot slot, Type type, std::string name) {
    auto e = std::make_shared<Expr>();
    e->kind = ExprKind::Var;
    e->slot = slot;
    e->type = type;
    e->var_name = std::move(name);
    return e;
}

ExprPtr make_unary(UnaryOp op, ExprPtr operand, SourceLoc loc) {
    SLIMSIM_ASSERT(operand != nullptr);
    auto e = std::make_shared<Expr>();
    e->kind = ExprKind::Unary;
    e->loc = std::move(loc);
    e->uop = op;
    e->type = op == UnaryOp::Not ? Type::boolean() : operand->type;
    e->a = std::move(operand);
    return e;
}

ExprPtr make_binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs, SourceLoc loc) {
    SLIMSIM_ASSERT(lhs != nullptr && rhs != nullptr);
    auto e = std::make_shared<Expr>();
    e->kind = ExprKind::Binary;
    e->loc = std::move(loc);
    e->bop = op;
    if (is_comparison(op) || is_logical(op)) {
        e->type = Type::boolean();
    } else if (lhs->type.is_int() && rhs->type.is_int()) {
        e->type = Type::integer();
    } else {
        e->type = Type::real();
    }
    e->a = std::move(lhs);
    e->b = std::move(rhs);
    return e;
}

ExprPtr make_ite(ExprPtr cond, ExprPtr then_e, ExprPtr else_e, SourceLoc loc) {
    SLIMSIM_ASSERT(cond != nullptr && then_e != nullptr && else_e != nullptr);
    auto e = std::make_shared<Expr>();
    e->kind = ExprKind::Ite;
    e->loc = std::move(loc);
    e->type = then_e->type;
    e->a = std::move(cond);
    e->b = std::move(then_e);
    e->c = std::move(else_e);
    return e;
}

ExprPtr clone(const Expr& e) {
    auto copy = std::make_shared<Expr>(e);
    if (e.a) copy->a = clone(*e.a);
    if (e.b) copy->b = clone(*e.b);
    if (e.c) copy->c = clone(*e.c);
    return copy;
}

} // namespace slimsim::expr
