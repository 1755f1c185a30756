// Shared non-cryptographic hashing: murmur3 finalization and streaming
// combining.
//
// Two families:
//   * hash_mix / hash_words (two murmur3 finalizations per word) key
//     expression hash-consing and compiled-model content hashes. Content
//     hashes are the checkpoint/resume model identity, so these must never
//     change output.
//   * state_mix / state_hash_bytes / state_hash_finish (one 64x64->128
//     multiply-fold per word, one finalization at the end) key the in-memory
//     state tables: the discrete-state interner (eda/compiled) and the
//     exhaustive explorer (ctmc/state_space). Nothing stores or orders by
//     them, so they may change freely.
// All are deterministic functions of their input words.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace slimsim {

/// Murmur3's 64-bit finalizer (fmix64): a full-avalanche bijection, so keys
/// differing only in low bits spread over the whole output range.
[[nodiscard]] constexpr std::uint64_t murmur3_fmix64(std::uint64_t k) {
    k ^= k >> 33;
    k *= 0xFF51AFD7ED558CCDULL;
    k ^= k >> 33;
    k *= 0xC4CEB9FE1A85EC53ULL;
    k ^= k >> 33;
    return k;
}

/// Streaming combiner: mixes one word into a running hash with murmur3
/// finalization per step (stronger than the boost-style xor-shift combine).
[[nodiscard]] constexpr std::uint64_t hash_mix(std::uint64_t seed, std::uint64_t v) {
    return murmur3_fmix64(seed ^ (murmur3_fmix64(v) + 0x9E3779B97F4A7C15ULL +
                                  (seed << 6) + (seed >> 2)));
}

/// Hash of a word span (murmur3-finalized per word; order-sensitive).
[[nodiscard]] inline std::uint64_t hash_words(const std::uint64_t* words,
                                              std::size_t count,
                                              std::uint64_t seed = 0x5EED5EED5EED5EEDULL) {
    std::uint64_t h = seed;
    for (std::size_t i = 0; i < count; ++i) h = hash_mix(h, words[i]);
    return hash_mix(h, count);
}

/// State-key combiner: one 64x64->128-bit multiply per word, folded to 64
/// bits (high xor low half). Not a bijection and not avalanched; close a
/// stream with state_hash_finish.
[[nodiscard]] constexpr std::uint64_t state_mix(std::uint64_t h, std::uint64_t word) {
    const unsigned __int128 p = static_cast<unsigned __int128>(word ^ 0xA0761D6478BD642FULL) *
                                (h ^ 0xE7037ED1A0B428DBULL);
    return static_cast<std::uint64_t>(p) ^ static_cast<std::uint64_t>(p >> 64);
}

/// Finalizes a state-key stream of `count` words (or bytes) with one
/// murmur3 finalization, so every output bit depends on every input word.
[[nodiscard]] constexpr std::uint64_t state_hash_finish(std::uint64_t h, std::uint64_t count) {
    return murmur3_fmix64(h ^ count);
}

/// Streams n bytes into a state-key hash, eight at a time (the last word
/// zero-padded).
[[nodiscard]] inline std::uint64_t state_hash_bytes(std::uint64_t h, const void* data,
                                                    std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (; n >= 8; p += 8, n -= 8) {
        std::uint64_t word = 0;
        std::memcpy(&word, p, 8);
        h = state_mix(h, word);
    }
    if (n == 0) return h;
    std::uint64_t tail = 0;
    std::memcpy(&tail, p, n);
    return state_mix(h, tail);
}

/// The raw bit pattern of a double as a hashable word (distinguishes +0/-0
/// and every NaN payload; exact, unlike hashing the numeric value).
[[nodiscard]] inline std::uint64_t double_bits(double d) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(d));
    std::memcpy(&bits, &d, sizeof(bits));
    return bits;
}

} // namespace slimsim
