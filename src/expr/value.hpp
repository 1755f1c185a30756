// Runtime values of SLIM data components.
#pragma once

#include <cstdint>
#include <string>
#include <variant>

#include "expr/type.hpp"
#include "support/diagnostics.hpp"

namespace slimsim {

/// A runtime value: Boolean, integer or real. Clock/continuous variables
/// hold reals.
class Value {
public:
    Value() : v_(false) {}
    explicit Value(bool b) : v_(b) {}
    explicit Value(std::int64_t i) : v_(i) {}
    explicit Value(double d) : v_(d) {}

    [[nodiscard]] static Value default_for(const Type& t);

    [[nodiscard]] bool is_bool() const { return std::holds_alternative<bool>(v_); }
    [[nodiscard]] bool is_int() const { return std::holds_alternative<std::int64_t>(v_); }
    [[nodiscard]] bool is_real() const { return std::holds_alternative<double>(v_); }
    [[nodiscard]] bool is_numeric() const { return !is_bool(); }
    /// The representation held: 0 bool, 1 int, 2 real.
    [[nodiscard]] std::size_t index() const { return v_.index(); }

    [[nodiscard]] bool as_bool() const {
        SLIMSIM_ASSERT(is_bool());
        return std::get<bool>(v_);
    }
    [[nodiscard]] std::int64_t as_int() const {
        SLIMSIM_ASSERT(is_int());
        return std::get<std::int64_t>(v_);
    }
    /// Numeric value widened to double (ints are converted).
    [[nodiscard]] double as_real() const {
        if (is_int()) return static_cast<double>(std::get<std::int64_t>(v_));
        SLIMSIM_ASSERT(is_real());
        return std::get<double>(v_);
    }

    /// Converts a numeric value into the representation of `t`
    /// (real -> int truncates toward zero; used for typed assignment).
    [[nodiscard]] Value coerce_to(const Type& t) const;

    /// Exact equality: bools compare as bools; numerics compare as reals.
    friend bool operator==(const Value& a, const Value& b);

    [[nodiscard]] std::string to_string() const;

    /// Hash consistent with operator==: equal values hash alike (1 and 1.0,
    /// -0.0 and +0.0). Used by eda::DiscreteKey.
    [[nodiscard]] std::size_t hash() const;

private:
    std::variant<bool, std::int64_t, double> v_;
};

} // namespace slimsim
