// Deterministic random number generation for reproducible simulation.
//
// slimsim never uses global RNG state: every stochastic component receives an
// explicit Rng (or a seed). Estimation path j simulates with the independent
// stream Rng(seed).split(j), derived via SplitMix64, so a run is fully
// reproducible given the seed alone, whichever worker simulates the path.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>

#include "support/diagnostics.hpp"

namespace slimsim {

/// The inverse transform of Rng::exponential: the Exp(rate) variate of a
/// uniform u in [0, 1). Callers that draw u themselves (the pruned Markovian
/// race) get the same bits as Rng::exponential.
inline double exponential_from_uniform(double u, double rate) {
    return -std::log1p(-u) / rate; // 1 - u in (0, 1] avoids log(0)
}

/// xoshiro256++ PRNG (Blackman & Vigna). Satisfies UniformRandomBitGenerator.
class Rng {
public:
    using result_type = std::uint64_t;

    /// Seeds the four state words from `seed` via SplitMix64.
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return std::numeric_limits<std::uint64_t>::max(); }

    result_type operator()();

    /// Derives an independent child stream; deterministic in (state, index).
    [[nodiscard]] Rng split(std::uint64_t index) const;

    /// Uniform double in [0, 1).
    double uniform01();

    /// Uniform double in [lo, hi]; requires lo <= hi. Degenerate interval
    /// returns lo.
    double uniform(double lo, double hi);

    /// Uniform integer in [0, n); requires n > 0. Unbiased (rejection).
    std::uint64_t uniform_index(std::uint64_t n);

    /// Exponentially distributed value with the given rate (> 0).
    double exponential(double rate);

    /// Bernoulli trial with success probability p in [0,1].
    bool bernoulli(double p);

private:
    std::uint64_t s_[4];
};

} // namespace slimsim
