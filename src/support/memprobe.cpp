#include "support/memprobe.hpp"

#include <cstdio>

#include <sys/resource.h>
#include <unistd.h>

namespace slimsim {

std::size_t current_rss_bytes() {
    // /proc/self/statm field 2 is resident pages.
    std::FILE* f = std::fopen("/proc/self/statm", "r");
    if (f == nullptr) return 0;
    long size = 0, resident = 0;
    const int n = std::fscanf(f, "%ld %ld", &size, &resident);
    std::fclose(f);
    if (n != 2) return 0;
    return static_cast<std::size_t>(resident) *
           static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

std::size_t peak_rss_bytes() {
    // VmHWM is this address space's own high-water mark. getrusage's
    // ru_maxrss is not: it survives exec, so a process started by a large
    // parent would report the parent's resident size at fork as its peak.
    if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
        char line[256];
        unsigned long long kib = 0;
        bool found = false;
        while (!found && std::fgets(line, sizeof line, f) != nullptr) {
            found = std::sscanf(line, "VmHWM: %llu kB", &kib) == 1;
        }
        std::fclose(f);
        if (found) return static_cast<std::size_t>(kib) * 1024u;
    }
    struct rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
    // ru_maxrss is in kilobytes on Linux.
    return static_cast<std::size_t>(usage.ru_maxrss) * 1024u;
}

double bytes_to_mib(std::size_t bytes) {
    return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

} // namespace slimsim
