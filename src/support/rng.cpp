#include "support/rng.hpp"

namespace slimsim {

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
}

/// SplitMix64 step; used for seeding and stream derivation.
std::uint64_t splitmix64(std::uint64_t& state) {
    state += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& word : s_) word = splitmix64(sm);
    // All-zero state is invalid for xoshiro; splitmix64 cannot produce four
    // zeros from any seed, but guard anyway.
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

Rng::result_type Rng::operator()() {
    const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

Rng Rng::split(std::uint64_t index) const {
    // Mix the current state with the child index through SplitMix64 so that
    // child streams are decorrelated from the parent and from each other.
    std::uint64_t sm = s_[0] ^ rotl(s_[1], 13) ^ rotl(s_[2], 29) ^ rotl(s_[3], 43);
    sm ^= 0xD1B54A32D192ED03ULL * (index + 1);
    return Rng(splitmix64(sm));
}

double Rng::uniform01() {
    // 53 random bits -> double in [0, 1).
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
    SLIMSIM_ASSERT(lo <= hi);
    if (lo == hi) return lo;
    return lo + uniform01() * (hi - lo);
}

std::uint64_t Rng::uniform_index(std::uint64_t n) {
    SLIMSIM_ASSERT(n > 0);
    // Lemire-style rejection to avoid modulo bias.
    const std::uint64_t threshold = (0 - n) % n;
    for (;;) {
        const std::uint64_t r = (*this)();
        if (r >= threshold) return r % n;
    }
}

double Rng::exponential(double rate) {
    SLIMSIM_ASSERT(rate > 0.0);
    return exponential_from_uniform(uniform01(), rate);
}

bool Rng::bernoulli(double p) {
    SLIMSIM_ASSERT(p >= 0.0 && p <= 1.0);
    return uniform01() < p;
}

} // namespace slimsim
