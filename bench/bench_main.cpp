#include "bench_main.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace slimsim::benchio {

json::Value Timing::to_json() const {
    json::Value v = json::Value::object();
    v["reps"] = static_cast<std::uint64_t>(seconds.size());
    v["min_s"] = min_seconds;
    v["mean_s"] = mean_seconds;
    v["max_s"] = max_seconds;
    json::Value all = json::Value::array();
    for (const double s : seconds) all.push_back(s);
    v["all_s"] = std::move(all);
    return v;
}

namespace {

void finalize(Timing& t) {
    t.min_seconds = t.max_seconds = t.seconds.front();
    double total = 0.0;
    for (const double s : t.seconds) {
        if (s < t.min_seconds) t.min_seconds = s;
        if (s > t.max_seconds) t.max_seconds = s;
        total += s;
    }
    t.mean_seconds = total / static_cast<double>(t.seconds.size());
}

double time_once(const std::function<void()>& fn) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

} // namespace

Timing measure(const std::function<void()>& fn, int reps, int warmup) {
    for (int i = 0; i < warmup; ++i) fn();
    Timing t;
    if (reps < 1) reps = 1;
    t.seconds.reserve(static_cast<std::size_t>(reps));
    for (int i = 0; i < reps; ++i) t.seconds.push_back(time_once(fn));
    finalize(t);
    return t;
}

std::pair<Timing, Timing> measure_interleaved(const std::function<void()>& a,
                                              const std::function<void()>& b, int reps,
                                              int warmup) {
    for (int i = 0; i < warmup; ++i) {
        a();
        b();
    }
    if (reps < 1) reps = 1;
    Timing ta;
    Timing tb;
    ta.seconds.reserve(static_cast<std::size_t>(reps));
    tb.seconds.reserve(static_cast<std::size_t>(reps));
    for (int i = 0; i < reps; ++i) {
        // Alternate which side goes first, so an order effect (warm
        // caches, allocator state, frequency steps) lands on both sides.
        if (i % 2 == 0) {
            ta.seconds.push_back(time_once(a));
            tb.seconds.push_back(time_once(b));
        } else {
            tb.seconds.push_back(time_once(b));
            ta.seconds.push_back(time_once(a));
        }
    }
    finalize(ta);
    finalize(tb);
    return {std::move(ta), std::move(tb)};
}

double paired_median_overhead_percent(const Timing& base, const Timing& treated) {
    std::vector<double> ratios;
    const std::size_t pairs = std::min(base.seconds.size(), treated.seconds.size());
    for (std::size_t i = 0; i < pairs; ++i) {
        ratios.push_back(treated.seconds[i] / base.seconds[i]);
    }
    if (ratios.empty()) return 0.0;
    std::sort(ratios.begin(), ratios.end());
    const std::size_t mid = ratios.size() / 2;
    const double median = ratios.size() % 2 == 1 ? ratios[mid]
                                                 : (ratios[mid - 1] + ratios[mid]) / 2.0;
    return (median - 1.0) * 100.0;
}

Report::Report(std::string name) : name_(std::move(name)) {
    doc_ = json::Value::object();
    doc_["bench"] = name_;
    doc_["schema"] = 1;
    doc_["params"] = json::Value::object();
    doc_["rows"] = json::Value::array();
}

Report::~Report() {
    if (!written_) {
        try {
            write();
        } catch (...) {
            // Destructor: swallow I/O failures rather than terminate.
        }
    }
}

void Report::param(const std::string& key, json::Value value) {
    doc_["params"][key] = std::move(value);
}

void Report::add_row(json::Value row) { doc_["rows"].push_back(std::move(row)); }

std::string Report::write() {
    std::string path = "BENCH_" + name_ + ".json";
    if (const char* dir = std::getenv("SLIMSIM_BENCH_DIR");
        dir != nullptr && dir[0] != '\0') {
        path = std::string(dir) + "/" + path;
    }
    std::ofstream out(path);
    if (out) {
        out << doc_.dump(1) << "\n";
        std::fprintf(stderr, "wrote %s\n", path.c_str());
    } else {
        std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    }
    written_ = true;
    return path;
}

} // namespace slimsim::benchio
