// Compile-once expression programs (the compiled-model layer's core).
//
// The simulator's hot loop evaluates the same guard/invariant/effect/flow
// expressions millions of times. Walking the shared_ptr-linked Expr tree for
// every evaluation chases pointers across the heap and re-resolves binding
// slots on every Var node. This module lowers a resolved expression ONCE into
// a flat expr::Program:
//
//   * a register bytecode (one instruction array, one Value register per
//     node) executed by Program::run() with explicit jumps reproducing the
//     interpreter's short-circuit semantics exactly — including which
//     subexpressions are (not) evaluated, so division-by-zero behaviour is
//     byte-identical to expr::evaluate();
//   * a flat post-order node table driving the timed evaluation
//     (Program::satisfying_times / affine analysis), mirroring
//     expr/timeline.cpp with a single O(n) bottom-up time-dependence pass
//     instead of the tree walker's per-node recursion;
//   * binding slots resolved to global VarIds at compile time, so running a
//     program needs only the global valuation.
//
// Programs are hash-consed: compile() keys a process-wide cache on the
// canonical structure (operators, types, literals, resolved global variable
// ids — source locations excluded), so structurally equal expressions share
// one Program object. Locations kept for error messages are first-wins.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "expr/ast.hpp"
#include "support/intervals.hpp"

namespace slimsim::expr {

namespace detail {
class Compiler;
} // namespace detail

/// Value of a numeric expression as a function of the elapsed time t
/// (mirrors expr/timeline.hpp; re-declared here to keep the compiled layer
/// usable without the tree-walking header).
struct AffineForm {
    double a = 0.0;
    double b = 0.0;

    [[nodiscard]] bool constant() const { return b == 0.0; }
};

/// Reusable evaluation buffers: one Value register per program node plus the
/// per-node time-dependence scratch of the timed evaluation. One scratch per
/// worker; programs only grow it (amortized allocation-free).
struct EvalScratch {
    std::vector<Value> regs;
    std::vector<char> time_dep;
};

/// One bytecode instruction. `dst`/`a`/`b` are register indices (registers
/// are node indices); for jumps `b` is the absolute target pc; `loc` indexes
/// the program's source-location table (error messages only).
struct Insn {
    enum class Op : std::uint8_t {
        LoadConst, // dst <- consts[a]
        LoadVar,   // dst <- values[a]  (a = global VarId)
        Not,       // dst <- !a  (bool)
        Neg,       // dst <- -a  (int or real, dynamic)
        Add, Sub, Mul, Div, Mod,           // dynamic int/real dispatch
        Eq, Ne, Lt, Le, Gt, Ge,            // bool==bool or as-real compare
        Move,      // dst <- a              (Ite result)
        MoveBool,  // dst <- a, asserts bool (logical-operator result)
        LoadTrue, LoadFalse,
        Jump,        // pc <- b
        JumpIfFalse, // if !a.as_bool(): pc <- b
        JumpIfTrue,  // if a.as_bool():  pc <- b
    };
    Op op;
    std::uint32_t dst = 0;
    std::uint32_t a = 0;
    std::uint32_t b = 0;
    std::uint32_t loc = 0;
};

/// One node of the flat post-order expression table (children precede
/// parents; operand indices are strictly smaller than the node's own index).
struct ProgramNode {
    ExprKind kind = ExprKind::Literal;
    UnaryOp uop = UnaryOp::Not;
    BinaryOp bop = BinaryOp::Add;
    bool is_bool = false;   // static type is Boolean (satisfying_times nodes)
    std::uint32_t a = 0, b = 0, c = 0; // operand node indices
    std::uint32_t payload = 0;         // Literal: const index; Var: global VarId
    std::uint32_t loc = 0;             // source-location table index
    // Bytecode range computing this node's value into its register; each
    // subtree's code is contiguous (post-order emission), so the timed
    // evaluation can execute exactly one subtree.
    std::uint32_t code_begin = 0, code_end = 0;
};

/// A compiled expression. Immutable after compilation; safe to share across
/// threads (callers supply their own EvalScratch).
class Program {
public:
    /// Untimed evaluation against the global valuation. Exactly
    /// expr::evaluate(): same dynamic int/real dispatch, same short-circuit
    /// skipping, same Error texts on division/modulo by zero.
    [[nodiscard]] Value run(std::span<const Value> values, EvalScratch& scratch) const;
    [[nodiscard]] bool run_bool(std::span<const Value> values, EvalScratch& scratch) const {
        return run(values, scratch).as_bool();
    }

    /// Timed evaluation: the exact delay set at which this Boolean program
    /// holds under the per-variable derivative vector `rates` (mirrors
    /// expr::testing::satisfying_times, including the evaluation of
    /// time-independent subtrees by the untimed bytecode).
    [[nodiscard]] IntervalSet satisfying_times(std::span<const Value> values,
                                               std::span<const double> rates,
                                               EvalScratch& scratch) const;

    /// Timed evaluation of a numeric program to a + b*t (mirrors
    /// expr::testing::eval_affine). Throws slimsim::Error when not affine in t.
    [[nodiscard]] AffineForm eval_affine(std::span<const Value> values,
                                         std::span<const double> rates,
                                         EvalScratch& scratch) const;

    [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
    [[nodiscard]] std::size_t bytecode_bytes() const {
        return code_.size() * sizeof(Insn) + nodes_.size() * sizeof(ProgramNode);
    }
    /// Hash of the canonical structure key (the hash-consing key; stable
    /// across processes). Equal programs have equal key hashes.
    [[nodiscard]] std::uint64_t key_hash() const { return key_hash_; }

    [[nodiscard]] const std::vector<ProgramNode>& nodes() const { return nodes_; }

private:
    friend class ProgramCache;
    friend class detail::Compiler;

    // Fast-path shapes, recognized once per compilation (classify()). Nearly
    // every guard/invariant in real models is a single comparison of a
    // variable against a constant, and most effect right-hand sides are one
    // load; those shapes answer run()/satisfying_times() directly, skipping
    // the scratch buffers, the time-dependence pass and the node recursion.
    // Each fast path computes bit-identical results to the generic walk.
    enum class Fast : std::uint8_t {
        Generic, // full bytecode / node-table evaluation
        Load,    // single node: Var or Literal
        Compare, // root comparison over two numeric Var/Literal leaves
    };
    struct FastOperand {
        std::uint32_t var = 0;  // global VarId; kFastConst selects `constant`
        double constant = 0.0;
    };
    static constexpr std::uint32_t kFastConst = 0xffffffffu;

    void classify();
    void ensure_scratch(EvalScratch& scratch) const;
    Value run_range(std::uint32_t begin, std::uint32_t end,
                    std::span<const Value> values, std::uint32_t result_reg,
                    EvalScratch& scratch) const;
    void compute_time_dep(std::span<const double> rates, EvalScratch& scratch) const;
    [[nodiscard]] IntervalSet sat_node(std::uint32_t n, std::span<const Value> values,
                                       std::span<const double> rates,
                                       EvalScratch& scratch) const;
    [[nodiscard]] AffineForm affine_node(std::uint32_t n, std::span<const Value> values,
                                         std::span<const double> rates,
                                         EvalScratch& scratch) const;
    [[noreturn]] void non_affine(const ProgramNode& n) const;

    std::vector<ProgramNode> nodes_; // post-order; root is nodes_.back()
    std::vector<Insn> code_;
    std::vector<Value> consts_;
    std::vector<SourceLoc> locs_; // cold; indexed by Insn/ProgramNode loc
    std::uint64_t key_hash_ = 0;
    Fast fast_ = Fast::Generic;
    BinaryOp fast_bop_ = BinaryOp::Add; // Compare only
    FastOperand fast_lhs_, fast_rhs_;   // Compare only
};

using ProgramPtr = std::shared_ptr<const Program>;

/// Hash-consing program cache. Thread-safe; keys are canonical structural
/// serializations (never pointers), so lookups survive Expr reallocation and
/// equal expressions from different models share one Program.
class ProgramCache {
public:
    ProgramCache();

    /// Compiles `e` with `bindings` (empty = identity, as EvalContext), or
    /// returns the shared Program of a structurally equal prior compilation.
    [[nodiscard]] ProgramPtr get_or_compile(const Expr& e,
                                            std::span<const VarId> bindings = {});

    [[nodiscard]] std::size_t size() const;

private:
    struct Impl;
    std::shared_ptr<Impl> impl_;
};

/// The process-wide cache used by compile() and the expr::evaluate wrapper.
[[nodiscard]] ProgramCache& program_cache();

/// Compiles via the process-wide hash-consing cache.
[[nodiscard]] ProgramPtr compile(const Expr& e, std::span<const VarId> bindings = {});

} // namespace slimsim::expr
