#include "expr/value.hpp"

#include <charconv>
#include <cmath>

#include "support/hash.hpp"

namespace slimsim {

Value Value::default_for(const Type& t) {
    switch (t.kind) {
    case TypeKind::Bool: return Value(false);
    case TypeKind::Int: return Value(t.lo.value_or(0));
    case TypeKind::Real:
    case TypeKind::Clock:
    case TypeKind::Continuous: return Value(0.0);
    }
    return Value(false);
}

Value Value::coerce_to(const Type& t) const {
    switch (t.kind) {
    case TypeKind::Bool:
        return Value(as_bool());
    case TypeKind::Int: {
        const std::int64_t i =
            is_int() ? as_int() : static_cast<std::int64_t>(std::trunc(as_real()));
        return Value(i);
    }
    case TypeKind::Real:
    case TypeKind::Clock:
    case TypeKind::Continuous:
        return Value(as_real());
    }
    return *this;
}

bool operator==(const Value& a, const Value& b) {
    if (a.is_bool() || b.is_bool()) {
        return a.is_bool() && b.is_bool() && a.as_bool() == b.as_bool();
    }
    return a.as_real() == b.as_real();
}

std::string Value::to_string() const {
    if (is_bool()) return as_bool() ? "true" : "false";
    if (is_int()) return std::to_string(as_int());
    // Shortest representation that parses back to exactly this double, kept
    // real-typed: a fraction-free spelling gets a `.0` suffix so reparsing
    // yields a real literal, not an integer (printer round-trips depend on
    // this — `120.0` printed as `120` would change the literal's type).
    char buf[32];
    const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), as_real());
    std::string s(buf, end);
    if (s.find_first_of(".eEn") == std::string::npos) s += ".0";
    return s;
}

std::size_t Value::hash() const {
    if (is_bool()) return as_bool() ? 0x9E3779B9u : 0x85EBCA6Bu;
    // Numerics compare as reals, so they hash as reals: 1 and 1.0 alike.
    // Adding +0.0 turns -0.0 into +0.0, which compares equal to it.
    return static_cast<std::size_t>(double_bits(as_real() + 0.0));
}

} // namespace slimsim
