#include "expr/timeline.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "slim/parser.hpp"
#include "slim/resolver.hpp"

namespace slimsim {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Test fixture providing variables with values and time derivatives.
class TimelineTest : public ::testing::Test {
protected:
    void add(const std::string& name, Value v, double rate, Type type) {
        slim::Symbol sym;
        sym.name = name;
        sym.kind = slim::SymKind::Data;
        sym.type = type;
        table_.add(std::move(sym));
        values_.push_back(v);
        rates_.push_back(rate);
    }

    void add_clock(const std::string& name, double value, double rate = 1.0) {
        add(name, Value(value), rate, Type::clock());
    }

    void add_int(const std::string& name, std::int64_t value) {
        add(name, Value(value), 0.0, Type::integer());
    }

    void add_bool(const std::string& name, bool value) {
        add(name, Value(value), 0.0, Type::boolean());
    }

    expr::ExprPtr parse(const std::string& source) {
        expr::ExprPtr e = slim::parse_expression(source);
        DiagnosticSink sink;
        slim::resolve_expr(*e, table_, sink);
        sink.throw_if_errors("test expression");
        return e;
    }

    expr::TimedEvalContext ctx() const { return {values_, {}, rates_}; }

    IntervalSet sat(const std::string& source) {
        return expr::testing::satisfying_times(*parse(source), ctx());
    }

    expr::LinForm affine(const std::string& source) {
        return expr::testing::eval_affine(*parse(source), ctx());
    }

    slim::SymbolTable table_;
    std::vector<Value> values_;
    std::vector<double> rates_;
};

TEST_F(TimelineTest, AffineOfConstant) {
    const auto f = affine("3 + 4");
    EXPECT_DOUBLE_EQ(f.a, 7.0);
    EXPECT_DOUBLE_EQ(f.b, 0.0);
    EXPECT_TRUE(f.constant());
}

TEST_F(TimelineTest, AffineOfClock) {
    add_clock("x", 2.0);
    const auto f = affine("x");
    EXPECT_DOUBLE_EQ(f.a, 2.0);
    EXPECT_DOUBLE_EQ(f.b, 1.0);
    EXPECT_DOUBLE_EQ(f.at(3.0), 5.0);
}

TEST_F(TimelineTest, AffineArithmetic) {
    add_clock("x", 1.0, 2.0);  // x(t) = 1 + 2t
    add_clock("y", 5.0, -1.0); // y(t) = 5 - t
    const auto sum = affine("x + y"); // 6 + t
    EXPECT_DOUBLE_EQ(sum.a, 6.0);
    EXPECT_DOUBLE_EQ(sum.b, 1.0);
    const auto diff = affine("x - y"); // -4 + 3t
    EXPECT_DOUBLE_EQ(diff.a, -4.0);
    EXPECT_DOUBLE_EQ(diff.b, 3.0);
    const auto scaled = affine("3 * x"); // 3 + 6t
    EXPECT_DOUBLE_EQ(scaled.a, 3.0);
    EXPECT_DOUBLE_EQ(scaled.b, 6.0);
    const auto divided = affine("x / 2"); // 0.5 + t
    EXPECT_DOUBLE_EQ(divided.a, 0.5);
    EXPECT_DOUBLE_EQ(divided.b, 1.0);
}

TEST_F(TimelineTest, NegationOfClock) {
    add_clock("x", 1.0);
    const auto f = affine("-x");
    EXPECT_DOUBLE_EQ(f.a, -1.0);
    EXPECT_DOUBLE_EQ(f.b, -1.0);
}

TEST_F(TimelineTest, NonAffineProductThrows) {
    add_clock("x", 1.0);
    add_clock("y", 1.0);
    EXPECT_THROW(affine("x * y"), Error);
    EXPECT_THROW(affine("1 / x"), Error);
}

TEST_F(TimelineTest, TimeIndependentSubtreesAreFine) {
    add_int("n", 7);
    add_clock("x", 0.0);
    // n mod 2 is time-independent even though mod is non-affine in general.
    const auto f = affine("x + n mod 2");
    EXPECT_DOUBLE_EQ(f.a, 1.0);
    EXPECT_DOUBLE_EQ(f.b, 1.0);
}

TEST_F(TimelineTest, ComparisonUpcrossing) {
    add_clock("x", 0.0); // x(t) = t
    const IntervalSet s = sat("x >= 5");
    ASSERT_EQ(s.parts().size(), 1u);
    EXPECT_EQ(s.parts()[0], (Interval{5.0, kInf}));
}

TEST_F(TimelineTest, ComparisonDowncrossing) {
    add_clock("x", 0.0);
    const IntervalSet s = sat("x <= 5");
    ASSERT_EQ(s.parts().size(), 1u);
    EXPECT_EQ(s.parts()[0], (Interval{0.0, 5.0}));
}

TEST_F(TimelineTest, BooleanEqualityOfTimedOperands) {
    // Both sides hold, or both fail.
    add_clock("x", 0.0);
    add_bool("b", true);
    EXPECT_EQ(sat("b = (x >= 5)"), IntervalSet(5.0, kInf));
    EXPECT_EQ(sat("(x >= 5) = b"), IntervalSet(5.0, kInf));
    EXPECT_EQ(sat("(x >= 5) != b"), IntervalSet(0.0, 5.0));
    // Equal exactly where both hold ([1, 2]) or both fail (never).
    EXPECT_EQ(sat("(x <= 2) = (x >= 1)"), IntervalSet(1.0, 2.0));
}

TEST_F(TimelineTest, ComparisonAlreadyPast) {
    add_clock("x", 10.0);
    EXPECT_TRUE(sat("x <= 5").empty());
    EXPECT_EQ(sat("x >= 5"), IntervalSet::all());
}

TEST_F(TimelineTest, DecreasingVariable) {
    add("energy", Value(10.0), -2.0, Type::continuous()); // energy(t) = 10 - 2t
    const IntervalSet s = sat("energy >= 0");
    ASSERT_EQ(s.parts().size(), 1u);
    EXPECT_EQ(s.parts()[0], (Interval{0.0, 5.0}));
    const IntervalSet empty_after = sat("energy <= 0");
    EXPECT_EQ(empty_after.parts()[0], (Interval{5.0, kInf}));
}

TEST_F(TimelineTest, EqualityGivesPoint) {
    add_clock("x", 0.0);
    const IntervalSet s = sat("x = 3");
    ASSERT_EQ(s.parts().size(), 1u);
    EXPECT_TRUE(s.parts()[0].is_point());
    EXPECT_DOUBLE_EQ(s.parts()[0].lo, 3.0);
}

TEST_F(TimelineTest, EqualityInThePastIsEmpty) {
    add_clock("x", 5.0);
    EXPECT_TRUE(sat("x = 3").empty());
}

TEST_F(TimelineTest, WindowConjunction) {
    add_clock("t", 0.0);
    const IntervalSet s = sat("t >= 0.2 and t <= 0.3");
    ASSERT_EQ(s.parts().size(), 1u);
    EXPECT_DOUBLE_EQ(s.parts()[0].lo, 0.2);
    EXPECT_DOUBLE_EQ(s.parts()[0].hi, 0.3);
}

TEST_F(TimelineTest, Disjunction) {
    add_clock("t", 0.0);
    const IntervalSet s = sat("t <= 1 or t >= 3");
    ASSERT_EQ(s.parts().size(), 2u);
}

TEST_F(TimelineTest, NotInvertsWindow) {
    add_clock("t", 0.0);
    const IntervalSet s = sat("not (t >= 2 and t <= 4)");
    // Closed over-approximation: [0,2] u [4,inf).
    ASSERT_EQ(s.parts().size(), 2u);
    EXPECT_DOUBLE_EQ(s.parts()[0].hi, 2.0);
    EXPECT_DOUBLE_EQ(s.parts()[1].lo, 4.0);
}

TEST_F(TimelineTest, ImplicationOverTime) {
    add_clock("t", 0.0);
    add_bool("armed", true);
    // armed => t >= 2: holds from t=2 on.
    const IntervalSet s = sat("armed => t >= 2");
    EXPECT_EQ(s.parts()[0], (Interval{2.0, kInf}));
}

TEST_F(TimelineTest, BooleanConstantsShortcut) {
    add_bool("flag", false);
    add_clock("t", 0.0);
    EXPECT_EQ(sat("flag or t >= 1"), IntervalSet(1.0, kInf));
    EXPECT_TRUE(sat("flag and t >= 1").empty());
}

TEST_F(TimelineTest, TimeDependentIte) {
    add_clock("t", 0.0);
    add_bool("mode_a", true);
    // if t <= 2 then mode_a else t >= 5
    const IntervalSet s = sat("if t <= 2 then mode_a else t >= 5");
    ASSERT_EQ(s.parts().size(), 2u);
    EXPECT_EQ(s.parts()[0], (Interval{0.0, 2.0}));
    EXPECT_EQ(s.parts()[1], (Interval{5.0, kInf}));
}

TEST_F(TimelineTest, TwoClocksRelativeDrift) {
    add_clock("fast", 0.0, 3.0);
    add_clock("slow", 4.0, 1.0);
    // fast >= slow: 3t >= 4 + t -> t >= 2.
    const IntervalSet s = sat("fast >= slow");
    EXPECT_EQ(s.parts()[0], (Interval{2.0, kInf}));
}

TEST_F(TimelineTest, NeGuardIsClosedOverApproximated) {
    add_clock("x", 0.0);
    // x != 3 is approximated as always-true (measure-zero hole).
    EXPECT_EQ(sat("x != 3"), IntervalSet::all());
}

TEST_F(TimelineTest, IsTimeDependent) {
    add_clock("x", 0.0);
    add_int("n", 1);
    EXPECT_TRUE(expr::testing::is_time_dependent(*parse("x + 1"), ctx()));
    EXPECT_FALSE(expr::testing::is_time_dependent(*parse("n + 1"), ctx()));
    // A clock variable with zero rate (frozen) is not time dependent.
    add("frozen", Value(1.0), 0.0, Type::clock());
    EXPECT_FALSE(expr::testing::is_time_dependent(*parse("frozen"), ctx()));
}

// Property sweep: satisfying_times agrees with pointwise evaluation.
class TimelinePointwise : public ::testing::TestWithParam<int> {};

TEST_P(TimelinePointwise, AgreesWithDirectEvaluation) {
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 77 + 1);
    slim::SymbolTable table;
    std::vector<Value> values;
    std::vector<double> rates;
    for (int v = 0; v < 3; ++v) {
        slim::Symbol sym;
        sym.name = std::string(1, static_cast<char>('a' + v));
        sym.kind = slim::SymKind::Data;
        sym.type = Type::clock();
        table.add(std::move(sym));
        values.push_back(Value(rng.uniform(0.0, 5.0)));
        rates.push_back(rng.uniform(-2.0, 2.0));
    }
    expr::ExprPtr e = slim::parse_expression(
        "(a >= 2 and b <= 6) or (c >= 1 and c <= 4) or a - b >= 1");
    DiagnosticSink sink;
    slim::resolve_expr(*e, table, sink);
    sink.throw_if_errors("test");
    const expr::TimedEvalContext tctx{values, {}, rates};
    const IntervalSet s = expr::testing::satisfying_times(*e, tctx);

    // Compare against explicit evaluation at sampled time points (avoiding
    // boundaries where the closed over-approximation may differ).
    for (int i = 0; i < 200; ++i) {
        const double t = rng.uniform(0.0, 10.0);
        std::vector<Value> shifted = values;
        for (std::size_t v = 0; v < shifted.size(); ++v) {
            shifted[v] = Value(values[v].as_real() + rates[v] * t);
        }
        const bool direct = expr::evaluate_bool(*e, expr::EvalContext{shifted, {}});
        if (direct != s.contains(t)) {
            // Tolerate only boundary effects: a point within 1e-9 of a part
            // boundary may disagree.
            bool near_boundary = false;
            for (const auto& part : s.parts()) {
                if (std::abs(part.lo - t) < 1e-6 || std::abs(part.hi - t) < 1e-6) {
                    near_boundary = true;
                }
            }
            EXPECT_TRUE(near_boundary)
                << "mismatch at t=" << t << " set=" << s.to_string();
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimelinePointwise, ::testing::Range(1, 25));

} // namespace
} // namespace slimsim
