// Open-addressing hash index (power-of-two uint32 slots, linear probing),
// shared by the simulator's discrete-state interner (eda/compiled) and the
// exhaustive state-space builder (ctmc/state_space).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace slimsim {

/// Open-addressing index of ids into a table whose items carry their own
/// hash (`hash_of(id)`); callers confirm candidates with the full key.
class FlatIndex {
public:
    static constexpr std::uint32_t kNone = 0xffffffffu;

    /// First id with hash h accepted by `match`, or kNone.
    template <class Match>
    [[nodiscard]] std::uint32_t find(std::uint64_t h, Match&& match) const {
        if (slots_.empty()) return kNone;
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t i = h & mask;; i = (i + 1) & mask) {
            const std::uint32_t id = slots_[i];
            if (id == kNone || match(id)) return id;
        }
    }
    /// Adds item `id` with hash h; ids are dense (0, 1, 2, ...). Doubles
    /// the slots to keep the load at most one half.
    template <class HashOf>
    void insert(std::uint64_t h, std::uint32_t id, HashOf&& hash_of) {
        if (2 * (std::size_t{id} + 1) > slots_.size()) {
            slots_.assign(std::max<std::size_t>(kFirstSlots, 2 * slots_.size()), kNone);
            for (std::uint32_t old = 0; old < id; ++old) place(hash_of(old), old);
        }
        place(h, id);
    }
    void clear() { std::vector<std::uint32_t>().swap(slots_); }

private:
    static constexpr std::size_t kFirstSlots = 16;
    void place(std::uint64_t h, std::uint32_t id) {
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = h & mask;
        while (slots_[i] != kNone) i = (i + 1) & mask;
        slots_[i] = id;
    }
    std::vector<std::uint32_t> slots_;
};

} // namespace slimsim
