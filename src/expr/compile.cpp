#include "expr/compile.hpp"

#include <limits>
#include <mutex>
#include <unordered_map>

#include "support/hash.hpp"

namespace slimsim::expr {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// --- canonical structure keys (hash-consing) --------------------------------

// One word per structural fact, appended in post-order. Locations are
// excluded (first compilation wins for error messages); type kinds are
// included because the satisfying_times recursion asserts on them and one
// global VarId can name differently-typed variables in different models.
void append_key(const Expr& e, std::span<const VarId> bindings,
                std::vector<std::uint64_t>& out) {
    const auto tag = [&](std::uint64_t a, std::uint64_t b = 0) {
        out.push_back(static_cast<std::uint64_t>(e.kind) |
                      (static_cast<std::uint64_t>(e.type.kind) << 8) | (a << 16) |
                      (b << 32));
    };
    switch (e.kind) {
    case ExprKind::Literal:
        tag(0);
        if (e.literal.is_bool()) {
            out.push_back(0x10 | (e.literal.as_bool() ? 1 : 0));
        } else if (e.literal.is_int()) {
            out.push_back(0x20);
            out.push_back(static_cast<std::uint64_t>(e.literal.as_int()));
        } else {
            out.push_back(0x30);
            out.push_back(double_bits(e.literal.as_real()));
        }
        return;
    case ExprKind::Var: {
        SLIMSIM_ASSERT(e.slot != kInvalidSlot);
        const VarId id = bindings.empty() ? e.slot : bindings[e.slot];
        tag(1, id);
        return;
    }
    case ExprKind::Unary:
        append_key(*e.a, bindings, out);
        tag(2, static_cast<std::uint64_t>(e.uop));
        return;
    case ExprKind::Binary:
        append_key(*e.a, bindings, out);
        append_key(*e.b, bindings, out);
        tag(3, static_cast<std::uint64_t>(e.bop));
        return;
    case ExprKind::Ite:
        append_key(*e.a, bindings, out);
        append_key(*e.b, bindings, out);
        append_key(*e.c, bindings, out);
        tag(4);
        return;
    }
    SLIMSIM_ASSERT(false);
}

struct ProgramKey {
    std::vector<std::uint64_t> words;
    std::uint64_t hash = 0;

    friend bool operator==(const ProgramKey& a, const ProgramKey& b) {
        return a.hash == b.hash && a.words == b.words;
    }
};

struct ProgramKeyHash {
    std::size_t operator()(const ProgramKey& k) const {
        return static_cast<std::size_t>(k.hash);
    }
};

} // namespace

// --- compilation ------------------------------------------------------------

namespace detail {

class Compiler {
public:
    Compiler(Program& out, std::span<const VarId> bindings)
        : p_(out), bindings_(bindings) {}

    void compile(const Expr& root) {
        const std::uint32_t r = emit(root);
        SLIMSIM_ASSERT(r + 1 == p_.nodes_.size());
    }

private:
    std::uint32_t intern_loc(const SourceLoc& loc) {
        // Locations repeat heavily within one expression; a linear scan over
        // the (tiny) table beats a map here and runs once per compilation.
        for (std::uint32_t i = 0; i < p_.locs_.size(); ++i) {
            if (p_.locs_[i].file == loc.file && p_.locs_[i].line == loc.line &&
                p_.locs_[i].column == loc.column) {
                return i;
            }
        }
        p_.locs_.push_back(loc);
        return static_cast<std::uint32_t>(p_.locs_.size() - 1);
    }

    std::uint32_t add_insn(Insn::Op op, std::uint32_t dst, std::uint32_t a = 0,
                           std::uint32_t b = 0, std::uint32_t loc = 0) {
        p_.code_.push_back({op, dst, a, b, loc});
        return static_cast<std::uint32_t>(p_.code_.size() - 1);
    }

    void patch_jump(std::uint32_t insn) {
        p_.code_[insn].b = static_cast<std::uint32_t>(p_.code_.size());
    }

    /// Emits node + bytecode for `e`; returns the node index (== register).
    std::uint32_t emit(const Expr& e) {
        const auto code_begin = static_cast<std::uint32_t>(p_.code_.size());
        ProgramNode n;
        n.kind = e.kind;
        n.uop = e.uop;
        n.bop = e.bop;
        n.is_bool = e.type.is_bool();
        n.loc = intern_loc(e.loc);

        switch (e.kind) {
        case ExprKind::Literal: {
            n.payload = static_cast<std::uint32_t>(p_.consts_.size());
            p_.consts_.push_back(e.literal);
            const std::uint32_t dst = push_node(n, code_begin);
            add_insn(Insn::Op::LoadConst, dst, n.payload);
            return finish(dst);
        }
        case ExprKind::Var: {
            SLIMSIM_ASSERT(e.slot != kInvalidSlot);
            n.payload = bindings_.empty() ? e.slot : bindings_[e.slot];
            const std::uint32_t dst = push_node(n, code_begin);
            add_insn(Insn::Op::LoadVar, dst, n.payload);
            return finish(dst);
        }
        case ExprKind::Unary: {
            const std::uint32_t a = emit(*e.a);
            n.a = a;
            const std::uint32_t dst = push_node(n, code_begin);
            add_insn(e.uop == UnaryOp::Not ? Insn::Op::Not : Insn::Op::Neg, dst, a);
            return finish(dst);
        }
        case ExprKind::Binary: {
            if (e.bop == BinaryOp::And || e.bop == BinaryOp::Or ||
                e.bop == BinaryOp::Implies) {
                return emit_logical(e, n, code_begin);
            }
            const std::uint32_t a = emit(*e.a);
            const std::uint32_t b = emit(*e.b);
            n.a = a;
            n.b = b;
            const std::uint32_t dst = push_node(n, code_begin);
            add_insn(binary_op(e.bop), dst, a, b, n.loc);
            return finish(dst);
        }
        case ExprKind::Ite: {
            // cond; if false -> else-branch; value of the chosen branch only
            // (the skipped branch's code never runs, as in the interpreter).
            const std::uint32_t a = emit(*e.a);
            n.a = a;
            const std::uint32_t jf = add_insn(Insn::Op::JumpIfFalse, 0, a);
            const std::uint32_t b = emit(*e.b);
            n.b = b;
            // dst is known only after both branches' nodes exist; reserve the
            // node now so the branch moves can target it.
            const std::uint32_t then_move = add_insn(Insn::Op::Move, 0, b);
            const std::uint32_t jend = add_insn(Insn::Op::Jump, 0);
            patch_jump(jf);
            const std::uint32_t c = emit(*e.c);
            n.c = c;
            const std::uint32_t else_move = add_insn(Insn::Op::Move, 0, c);
            patch_jump(jend);
            const std::uint32_t dst = push_node(n, code_begin);
            p_.code_[then_move].dst = dst;
            p_.code_[else_move].dst = dst;
            return finish(dst);
        }
        }
        SLIMSIM_ASSERT(false);
        return 0;
    }

    std::uint32_t emit_logical(const Expr& e, ProgramNode n, std::uint32_t code_begin) {
        const std::uint32_t a = emit(*e.a);
        n.a = a;
        // And:     a false -> false, else bool(b)
        // Or:      a true  -> true,  else bool(b)
        // Implies: a false -> true,  else bool(b)
        const bool jump_on_true = e.bop == BinaryOp::Or;
        const std::uint32_t jshort = add_insn(
            jump_on_true ? Insn::Op::JumpIfTrue : Insn::Op::JumpIfFalse, 0, a);
        const std::uint32_t b = emit(*e.b);
        n.b = b;
        const std::uint32_t move = add_insn(Insn::Op::MoveBool, 0, b);
        const std::uint32_t jend = add_insn(Insn::Op::Jump, 0);
        patch_jump(jshort);
        const std::uint32_t load = add_insn(
            e.bop == BinaryOp::And ? Insn::Op::LoadFalse : Insn::Op::LoadTrue, 0);
        patch_jump(jend);
        const std::uint32_t dst = push_node(n, code_begin);
        p_.code_[move].dst = dst;
        p_.code_[load].dst = dst;
        return finish(dst);
    }

    static Insn::Op binary_op(BinaryOp op) {
        switch (op) {
        case BinaryOp::Add: return Insn::Op::Add;
        case BinaryOp::Sub: return Insn::Op::Sub;
        case BinaryOp::Mul: return Insn::Op::Mul;
        case BinaryOp::Div: return Insn::Op::Div;
        case BinaryOp::Mod: return Insn::Op::Mod;
        case BinaryOp::Eq: return Insn::Op::Eq;
        case BinaryOp::Ne: return Insn::Op::Ne;
        case BinaryOp::Lt: return Insn::Op::Lt;
        case BinaryOp::Le: return Insn::Op::Le;
        case BinaryOp::Gt: return Insn::Op::Gt;
        case BinaryOp::Ge: return Insn::Op::Ge;
        default: SLIMSIM_ASSERT(false);
        }
        return Insn::Op::Add;
    }

    std::uint32_t push_node(ProgramNode& n, std::uint32_t code_begin) {
        n.code_begin = code_begin;
        p_.nodes_.push_back(n);
        return static_cast<std::uint32_t>(p_.nodes_.size() - 1);
    }

    std::uint32_t finish(std::uint32_t dst) {
        p_.nodes_[dst].code_end = static_cast<std::uint32_t>(p_.code_.size());
        return dst;
    }

    Program& p_;
    std::span<const VarId> bindings_;
};

} // namespace detail

namespace {

// --- arithmetic (identical to the expr/eval.cpp tree walker) ----------------

Value eval_arith(Insn::Op op, const Value& l, const Value& r, const SourceLoc& loc) {
    if (l.is_int() && r.is_int()) {
        const std::int64_t a = l.as_int();
        const std::int64_t b = r.as_int();
        switch (op) {
        case Insn::Op::Add: return Value(a + b);
        case Insn::Op::Sub: return Value(a - b);
        case Insn::Op::Mul: return Value(a * b);
        case Insn::Op::Div:
            if (b == 0) throw Error(loc, "integer division by zero");
            return Value(a / b);
        case Insn::Op::Mod:
            if (b == 0) throw Error(loc, "modulo by zero");
            return Value(a % b);
        default: SLIMSIM_ASSERT(false);
        }
    }
    const double a = l.as_real();
    const double b = r.as_real();
    switch (op) {
    case Insn::Op::Add: return Value(a + b);
    case Insn::Op::Sub: return Value(a - b);
    case Insn::Op::Mul: return Value(a * b);
    case Insn::Op::Div:
        if (b == 0.0) throw Error(loc, "division by zero");
        return Value(a / b);
    case Insn::Op::Mod: throw Error(loc, "mod requires integer operands");
    default: SLIMSIM_ASSERT(false);
    }
    return Value();
}

bool eval_compare(Insn::Op op, const Value& l, const Value& r) {
    if (l.is_bool() || r.is_bool()) {
        SLIMSIM_ASSERT(l.is_bool() && r.is_bool());
        switch (op) {
        case Insn::Op::Eq: return l.as_bool() == r.as_bool();
        case Insn::Op::Ne: return l.as_bool() != r.as_bool();
        default: SLIMSIM_ASSERT(false);
        }
    }
    const double a = l.as_real();
    const double b = r.as_real();
    switch (op) {
    case Insn::Op::Eq: return a == b;
    case Insn::Op::Ne: return a != b;
    case Insn::Op::Lt: return a < b;
    case Insn::Op::Le: return a <= b;
    case Insn::Op::Gt: return a > b;
    case Insn::Op::Ge: return a >= b;
    default: SLIMSIM_ASSERT(false);
    }
    return false;
}

/// Solves a + b*t <op> 0 for t in [0, inf); identical to expr/timeline.cpp.
IntervalSet solve_comparison(BinaryOp op, const AffineForm& f) {
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
    const double root = -f.a / f.b;
    switch (op) {
    case BinaryOp::Eq:
        return root >= 0.0 ? IntervalSet::point(root) : IntervalSet::empty_set();
    case BinaryOp::Ne:
        return IntervalSet::all();
    case BinaryOp::Lt:
    case BinaryOp::Le:
        if (f.b > 0.0) {
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

/// The double comparison of eval_compare, keyed by the AST operator.
bool compare_reals(BinaryOp op, double a, double b) {
    switch (op) {
    case BinaryOp::Eq: return a == b;
    case BinaryOp::Ne: return a != b;
    case BinaryOp::Lt: return a < b;
    case BinaryOp::Le: return a <= b;
    case BinaryOp::Gt: return a > b;
    case BinaryOp::Ge: return a >= b;
    default: SLIMSIM_ASSERT(false);
    }
    return false;
}

} // namespace

// --- fast-path classification -----------------------------------------------

void Program::classify() {
    const auto is_leaf = [](const ProgramNode& n) {
        return n.kind == ExprKind::Var || n.kind == ExprKind::Literal;
    };
    if (nodes_.size() == 1 && is_leaf(nodes_[0])) {
        fast_ = Fast::Load;
        return;
    }
    const ProgramNode& root = nodes_.back();
    if (nodes_.size() == 3 && root.kind == ExprKind::Binary &&
        is_comparison(root.bop)) {
        const ProgramNode& l = nodes_[root.a];
        const ProgramNode& r = nodes_[root.b];
        // Boolean operands (bool = / !=) stay on the generic path: their
        // compare is by as_bool, and a Boolean leaf has no affine form.
        if (is_leaf(l) && is_leaf(r) && !l.is_bool && !r.is_bool) {
            const auto operand = [&](const ProgramNode& n) -> FastOperand {
                if (n.kind == ExprKind::Var) return {n.payload, 0.0};
                return {kFastConst, consts_[n.payload].as_real()};
            };
            fast_ = Fast::Compare;
            fast_bop_ = root.bop;
            fast_lhs_ = operand(l);
            fast_rhs_ = operand(r);
        }
    }
}

// --- execution --------------------------------------------------------------

void Program::ensure_scratch(EvalScratch& scratch) const {
    if (scratch.regs.size() < nodes_.size()) scratch.regs.resize(nodes_.size());
    if (scratch.time_dep.size() < nodes_.size()) scratch.time_dep.resize(nodes_.size());
}

Value Program::run_range(std::uint32_t begin, std::uint32_t end,
                         std::span<const Value> values, std::uint32_t result_reg,
                         EvalScratch& scratch) const {
    std::vector<Value>& regs = scratch.regs;
    for (std::uint32_t pc = begin; pc != end;) {
        const Insn& i = code_[pc];
        switch (i.op) {
        case Insn::Op::LoadConst: regs[i.dst] = consts_[i.a]; break;
        case Insn::Op::LoadVar:
            SLIMSIM_ASSERT(i.a < values.size());
            regs[i.dst] = values[i.a];
            break;
        case Insn::Op::Not: regs[i.dst] = Value(!regs[i.a].as_bool()); break;
        case Insn::Op::Neg: {
            const Value& v = regs[i.a];
            regs[i.dst] = v.is_int() ? Value(-v.as_int()) : Value(-v.as_real());
            break;
        }
        case Insn::Op::Add:
        case Insn::Op::Sub:
        case Insn::Op::Mul:
        case Insn::Op::Div:
        case Insn::Op::Mod:
            regs[i.dst] = eval_arith(i.op, regs[i.a], regs[i.b], locs_[i.loc]);
            break;
        case Insn::Op::Eq:
        case Insn::Op::Ne:
        case Insn::Op::Lt:
        case Insn::Op::Le:
        case Insn::Op::Gt:
        case Insn::Op::Ge:
            regs[i.dst] = Value(eval_compare(i.op, regs[i.a], regs[i.b]));
            break;
        case Insn::Op::Move: regs[i.dst] = regs[i.a]; break;
        case Insn::Op::MoveBool: regs[i.dst] = Value(regs[i.a].as_bool()); break;
        case Insn::Op::LoadTrue: regs[i.dst] = Value(true); break;
        case Insn::Op::LoadFalse: regs[i.dst] = Value(false); break;
        case Insn::Op::Jump: pc = i.b; continue;
        case Insn::Op::JumpIfFalse:
            if (!regs[i.a].as_bool()) {
                pc = i.b;
                continue;
            }
            break;
        case Insn::Op::JumpIfTrue:
            if (regs[i.a].as_bool()) {
                pc = i.b;
                continue;
            }
            break;
        }
        ++pc;
    }
    return regs[result_reg];
}

Value Program::run(std::span<const Value> values, EvalScratch& scratch) const {
    if (fast_ == Fast::Load) {
        const ProgramNode& n = nodes_[0];
        if (n.kind == ExprKind::Literal) return consts_[n.payload];
        SLIMSIM_ASSERT(n.payload < values.size());
        return values[n.payload];
    }
    if (fast_ == Fast::Compare) {
        const auto operand = [&](const FastOperand& o) {
            if (o.var == kFastConst) return o.constant;
            SLIMSIM_ASSERT(o.var < values.size());
            return values[o.var].as_real();
        };
        return Value(compare_reals(fast_bop_, operand(fast_lhs_), operand(fast_rhs_)));
    }
    ensure_scratch(scratch);
    return run_range(0, static_cast<std::uint32_t>(code_.size()), values,
                     static_cast<std::uint32_t>(nodes_.size() - 1), scratch);
}

// --- timed evaluation -------------------------------------------------------

void Program::compute_time_dep(std::span<const double> rates,
                               EvalScratch& scratch) const {
    // One bottom-up pass; the tree walker recomputes this predicate at every
    // recursion step (quadratic), with identical per-node results.
    std::vector<char>& td = scratch.time_dep;
    for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
        const ProgramNode& n = nodes_[i];
        switch (n.kind) {
        case ExprKind::Literal: td[i] = 0; break;
        case ExprKind::Var:
            SLIMSIM_ASSERT(n.payload < rates.size());
            td[i] = rates[n.payload] != 0.0 ? 1 : 0;
            break;
        case ExprKind::Unary: td[i] = td[n.a]; break;
        case ExprKind::Binary: td[i] = td[n.a] | td[n.b]; break;
        case ExprKind::Ite: td[i] = td[n.a] | td[n.b] | td[n.c]; break;
        }
    }
}

void Program::non_affine(const ProgramNode& n) const {
    throw Error(locs_[n.loc], "expression is not affine in time");
}

AffineForm Program::affine_node(std::uint32_t ni, std::span<const Value> values,
                                std::span<const double> rates,
                                EvalScratch& scratch) const {
    const ProgramNode& n = nodes_[ni];
    if (scratch.time_dep[ni] == 0) {
        // Time-independent subtrees of any shape (mod, ite, ...) evaluate to
        // a constant form via the untimed bytecode (short-circuits intact).
        return {run_range(n.code_begin, n.code_end, values, ni, scratch).as_real(), 0.0};
    }
    switch (n.kind) {
    case ExprKind::Var:
        return {values[n.payload].as_real(), rates[n.payload]};
    case ExprKind::Unary: {
        if (n.uop != UnaryOp::Neg) non_affine(n);
        const AffineForm f = affine_node(n.a, values, rates, scratch);
        return {-f.a, -f.b};
    }
    case ExprKind::Binary: {
        switch (n.bop) {
        case BinaryOp::Add: {
            const AffineForm l = affine_node(n.a, values, rates, scratch);
            const AffineForm r = affine_node(n.b, values, rates, scratch);
            return {l.a + r.a, l.b + r.b};
        }
        case BinaryOp::Sub: {
            const AffineForm l = affine_node(n.a, values, rates, scratch);
            const AffineForm r = affine_node(n.b, values, rates, scratch);
            return {l.a - r.a, l.b - r.b};
        }
        case BinaryOp::Mul: {
            const AffineForm l = affine_node(n.a, values, rates, scratch);
            const AffineForm r = affine_node(n.b, values, rates, scratch);
            if (l.constant()) return {l.a * r.a, l.a * r.b};
            if (r.constant()) return {l.a * r.a, l.b * r.a};
            non_affine(n); // product of two time-dependent expressions
        }
        case BinaryOp::Div: {
            const AffineForm l = affine_node(n.a, values, rates, scratch);
            const AffineForm r = affine_node(n.b, values, rates, scratch);
            if (!r.constant()) non_affine(n); // time-dependent divisor
            if (r.a == 0.0) throw Error(locs_[n.loc], "division by zero");
            return {l.a / r.a, l.b / r.a};
        }
        default:
            non_affine(n); // mod of time-dependent operands, or a Boolean op
        }
    }
    case ExprKind::Ite:
    case ExprKind::Literal:
        non_affine(n); // time-dependent ite in numeric position
    }
    SLIMSIM_ASSERT(false);
    return {};
}

IntervalSet Program::sat_node(std::uint32_t ni, std::span<const Value> values,
                              std::span<const double> rates,
                              EvalScratch& scratch) const {
    const ProgramNode& n = nodes_[ni];
    SLIMSIM_ASSERT(n.is_bool);
    if (scratch.time_dep[ni] == 0) {
        return run_range(n.code_begin, n.code_end, values, ni, scratch).as_bool()
                   ? IntervalSet::all()
                   : IntervalSet::empty_set();
    }
    switch (n.kind) {
    case ExprKind::Unary:
        SLIMSIM_ASSERT(n.uop == UnaryOp::Not);
        return sat_node(n.a, values, rates, scratch).complement(kInf);
    case ExprKind::Binary: {
        switch (n.bop) {
        case BinaryOp::And:
            return sat_node(n.a, values, rates, scratch)
                .intersect(sat_node(n.b, values, rates, scratch));
        case BinaryOp::Or:
            return sat_node(n.a, values, rates, scratch)
                .unite(sat_node(n.b, values, rates, scratch));
        case BinaryOp::Implies:
            return sat_node(n.a, values, rates, scratch)
                .complement(kInf)
                .unite(sat_node(n.b, values, rates, scratch));
        default:
            break;
        }
        if (is_comparison(n.bop) && nodes_[n.a].is_bool) {
            // Boolean (in)equality: both sides hold, or both fail.
            const IntervalSet l = sat_node(n.a, values, rates, scratch);
            const IntervalSet r = sat_node(n.b, values, rates, scratch);
            const IntervalSet not_l = l.complement(kInf);
            const IntervalSet not_r = r.complement(kInf);
            return n.bop == BinaryOp::Eq ? l.intersect(r).unite(not_l.intersect(not_r))
                                         : l.intersect(not_r).unite(not_l.intersect(r));
        }
        if (is_comparison(n.bop)) {
            const AffineForm l = affine_node(n.a, values, rates, scratch);
            const AffineForm r = affine_node(n.b, values, rates, scratch);
            return solve_comparison(n.bop, {l.a - r.a, l.b - r.b});
        }
        non_affine(n);
    }
    case ExprKind::Ite: {
        const IntervalSet cond = sat_node(n.a, values, rates, scratch);
        const IntervalSet then_s = sat_node(n.b, values, rates, scratch);
        const IntervalSet else_s = sat_node(n.c, values, rates, scratch);
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

IntervalSet Program::satisfying_times(std::span<const Value> values,
                                      std::span<const double> rates,
                                      EvalScratch& scratch) const {
    if (fast_ == Fast::Load) {
        // A lone Boolean variable or literal; never time-dependent.
        const ProgramNode& n = nodes_[0];
        SLIMSIM_ASSERT(n.is_bool);
        const bool holds = n.kind == ExprKind::Literal
                               ? consts_[n.payload].as_bool()
                               : values[n.payload].as_bool();
        return holds ? IntervalSet::all() : IntervalSet::empty_set();
    }
    if (fast_ == Fast::Compare) {
        // The affine forms of the two leaves directly: {value, rate} for a
        // variable (its rate is 0 exactly when it is time-independent, so
        // this agrees with the generic constant-subtree evaluation) and
        // {constant, 0} for a literal.
        const auto operand = [&](const FastOperand& o) -> AffineForm {
            if (o.var == kFastConst) return {o.constant, 0.0};
            SLIMSIM_ASSERT(o.var < rates.size());
            return {values[o.var].as_real(), rates[o.var]};
        };
        const AffineForm l = operand(fast_lhs_);
        const AffineForm r = operand(fast_rhs_);
        if (l.constant() && r.constant()) {
            // Both operands time-independent: the generic walk evaluates the
            // comparison directly (not via the l-r difference); match it so
            // IEEE corner cases (infinities) stay bit-identical.
            return compare_reals(fast_bop_, l.a, r.a) ? IntervalSet::all()
                                                      : IntervalSet::empty_set();
        }
        return solve_comparison(fast_bop_, {l.a - r.a, l.b - r.b});
    }
    ensure_scratch(scratch);
    compute_time_dep(rates, scratch);
    return sat_node(static_cast<std::uint32_t>(nodes_.size() - 1), values, rates,
                    scratch);
}

AffineForm Program::eval_affine(std::span<const Value> values,
                                std::span<const double> rates,
                                EvalScratch& scratch) const {
    if (fast_ == Fast::Load) {
        const ProgramNode& n = nodes_[0];
        if (n.kind == ExprKind::Literal) return {consts_[n.payload].as_real(), 0.0};
        SLIMSIM_ASSERT(n.payload < rates.size());
        return {values[n.payload].as_real(), rates[n.payload]};
    }
    ensure_scratch(scratch);
    compute_time_dep(rates, scratch);
    return affine_node(static_cast<std::uint32_t>(nodes_.size() - 1), values, rates,
                       scratch);
}

// --- the hash-consing cache -------------------------------------------------

struct ProgramCache::Impl {
    std::mutex mu;
    std::unordered_map<ProgramKey, ProgramPtr, ProgramKeyHash> map;
};

ProgramCache::ProgramCache() : impl_(std::make_shared<Impl>()) {}

ProgramPtr ProgramCache::get_or_compile(const Expr& e, std::span<const VarId> bindings) {
    ProgramKey key;
    append_key(e, bindings, key.words);
    key.hash = hash_words(key.words.data(), key.words.size());

    std::lock_guard<std::mutex> lock(impl_->mu);
    auto it = impl_->map.find(key);
    if (it != impl_->map.end()) return it->second;

    auto program = std::make_shared<Program>();
    detail::Compiler(*program, bindings).compile(e);
    program->key_hash_ = key.hash;
    program->classify();
    ProgramPtr shared = std::move(program);
    impl_->map.emplace(std::move(key), shared);
    return shared;
}

std::size_t ProgramCache::size() const {
    std::lock_guard<std::mutex> lock(impl_->mu);
    return impl_->map.size();
}

ProgramCache& program_cache() {
    static ProgramCache cache;
    return cache;
}

ProgramPtr compile(const Expr& e, std::span<const VarId> bindings) {
    return program_cache().get_or_compile(e, bindings);
}

} // namespace slimsim::expr
