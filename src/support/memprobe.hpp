// Process memory measurement for the benchmark harness (Table I reports MB).
#pragma once

#include <cstddef>

namespace slimsim {

/// Current resident set size of this process in bytes (0 if unavailable).
[[nodiscard]] std::size_t current_rss_bytes();

/// Peak resident set size of this process in bytes (0 if unavailable):
/// VmHWM from /proc/self/status, else getrusage's ru_maxrss (which, unlike
/// VmHWM, carries a forking parent's resident size across exec).
[[nodiscard]] std::size_t peak_rss_bytes();

/// Convenience conversion used by the bench tables.
[[nodiscard]] double bytes_to_mib(std::size_t bytes);

} // namespace slimsim
