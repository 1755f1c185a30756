#include "support/metrics.hpp"

#include <array>
#include <cmath>
#include <cstring>
#include <limits>

#include "support/diagnostics.hpp"
#include "support/json.hpp"

namespace slimsim::metrics {

std::string label_escape(std::string_view s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
        case '\\': out += "\\\\"; break;
        case '"': out += "\\\""; break;
        case '\n': out += "\\n"; break;
        default: out.push_back(c);
        }
    }
    return out;
}

std::string label(std::string_view name, std::string_view value) {
    return std::string(name) + "=\"" + label_escape(value) + "\"";
}

// ---------------------------------------------------------------------------
// Exposition

void Exposition::family(std::string_view name, std::string_view type,
                        std::string_view help) {
    if (!help.empty()) {
        out_ += "# HELP ";
        out_ += name;
        out_ += ' ';
        out_ += help;
        out_ += '\n';
    }
    out_ += "# TYPE ";
    out_ += name;
    out_ += ' ';
    out_ += type;
    out_ += '\n';
    family_ = name;
}

void Exposition::sample(std::string_view labels, std::string_view value) {
    out_ += family_;
    if (!labels.empty()) {
        out_ += '{';
        out_ += labels;
        out_ += '}';
    }
    out_ += ' ';
    out_ += value;
    out_ += '\n';
}

void Exposition::series(std::string_view suffix, std::string_view labels,
                        std::string_view value) {
    out_ += family_;
    out_ += suffix;
    if (!labels.empty()) {
        out_ += '{';
        out_ += labels;
        out_ += '}';
    }
    out_ += ' ';
    out_ += value;
    out_ += '\n';
}

void Exposition::gauge(std::string_view name, std::string_view labels, double value,
                       std::string_view help) {
    family(name, "gauge", help);
    sample(labels, json::format_double(value));
}

void Exposition::counter(std::string_view name, std::string_view labels,
                         std::uint64_t value, std::string_view help) {
    family(name, "counter", help);
    sample(labels, std::to_string(value));
}

void Exposition::raw(std::string_view text) { out_ += text; }

std::string Exposition::take() { return std::move(out_); }

std::span<const double> time_buckets() {
    static constexpr std::array<double, 8> kBuckets = {1e-6, 1e-5, 1e-4, 1e-3,
                                                       1e-2, 0.1,  1.0,  10.0};
    return kBuckets;
}

std::string count_bucket_label(std::size_t b) {
    if (b <= 1) return std::to_string(b);
    return std::to_string(std::uint64_t{1} << (b - 1)) + "-" +
           std::to_string((std::uint64_t{1} << b) - 1);
}

// ---------------------------------------------------------------------------
// Instruments

std::uint64_t Gauge::pack(double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

double Gauge::unpack(std::uint64_t bits) {
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

Histogram::Histogram(std::size_t shards, std::span<const double> bounds, bool counts)
    : bounds_(bounds.begin(), bounds.end()), counts_(counts) {
    double prev = -std::numeric_limits<double>::infinity();
    for (const double b : bounds_) {
        SLIMSIM_ASSERT(b > prev);
        prev = b;
    }
    shards_.reserve(shards);
    for (std::size_t s = 0; s < shards; ++s) {
        shards_.push_back(std::make_unique<Shard>(bounds_.size() + 1));
    }
}

void Histogram::add_binned(std::size_t shard,
                           const std::array<std::uint64_t, kCountBuckets>& per_bucket,
                           std::uint64_t sum) {
    SLIMSIM_ASSERT(counts_);
    Shard& s = *shards_[shard];
    for (std::size_t b = 0; b < per_bucket.size(); ++b) {
        if (per_bucket[b] > 0) {
            s.buckets[b].value.fetch_add(per_bucket[b], std::memory_order_relaxed);
        }
    }
    s.sum.fetch_add(sum, std::memory_order_relaxed);
}

std::uint64_t Histogram::to_nano(double v) {
    if (!(v > 0.0)) return 0;
    return static_cast<std::uint64_t>(std::llround(v * 1e9));
}

std::vector<std::uint64_t> Histogram::bucket_totals() const {
    std::vector<std::uint64_t> totals(bounds_.size() + 1, 0);
    for (const auto& s : shards_) {
        for (std::size_t b = 0; b < totals.size(); ++b) {
            totals[b] += s->buckets[b].value.load(std::memory_order_relaxed);
        }
    }
    return totals;
}

std::uint64_t Histogram::count() const {
    std::uint64_t n = 0;
    for (const std::uint64_t b : bucket_totals()) n += b;
    return n;
}

std::uint64_t Histogram::sum_units() const {
    std::uint64_t units = 0;
    for (const auto& s : shards_) units += s->sum.load(std::memory_order_relaxed);
    return units;
}

double Histogram::sum() const {
    const auto units = static_cast<double>(sum_units());
    return counts_ ? units : units * 1e-9;
}

// ---------------------------------------------------------------------------
// Registry

Registry::Registry(std::size_t shards) : shards_(shards) {
    SLIMSIM_ASSERT(shards >= 1);
}

Registry::Family& Registry::family_locked(std::string_view name, std::string_view help,
                                          Kind kind) {
    for (auto& f : families_) {
        if (f->name == name) {
            if (f->kind != kind) {
                throw Error("metrics family `" + std::string(name) +
                            "` re-registered with a different kind");
            }
            return *f;
        }
    }
    auto f = std::make_unique<Family>();
    f->name = name;
    f->help = help;
    f->kind = kind;
    families_.push_back(std::move(f));
    return *families_.back();
}

Registry::Child& Registry::child_locked(Family& family, std::string_view labels) {
    for (auto& c : family.children) {
        if (c->labels == labels) return *c;
    }
    auto c = std::make_unique<Child>();
    c->labels = labels;
    family.children.push_back(std::move(c));
    return *family.children.back();
}

Counter& Registry::counter(std::string_view name, std::string_view help,
                           std::string_view labels) {
    if (!name.ends_with("_total")) {
        throw Error("metrics counter `" + std::string(name) + "` must end in _total");
    }
    std::lock_guard lock(mutex_);
    Child& c = child_locked(family_locked(name, help, Kind::Counter), labels);
    if (c.counter == nullptr) c.counter = std::make_unique<Counter>(shards_);
    return *c.counter;
}

Gauge& Registry::gauge(std::string_view name, std::string_view help,
                       std::string_view labels) {
    std::lock_guard lock(mutex_);
    Child& c = child_locked(family_locked(name, help, Kind::Gauge), labels);
    if (c.gauge == nullptr) c.gauge = std::make_unique<Gauge>();
    return *c.gauge;
}

Histogram& Registry::histogram(std::string_view name, std::string_view help,
                               std::span<const double> bounds,
                               std::string_view labels) {
    std::lock_guard lock(mutex_);
    Child& c = child_locked(family_locked(name, help, Kind::Histogram), labels);
    if (c.histogram == nullptr) c.histogram = std::make_unique<Histogram>(shards_, bounds);
    return *c.histogram;
}

namespace {

std::span<const double> count_buckets() {
    static const std::array<double, kCountBuckets - 1> kBuckets = [] {
        std::array<double, kCountBuckets - 1> b{};
        for (std::size_t i = 0; i < b.size(); ++i) {
            b[i] = static_cast<double>((std::uint64_t{1} << i) - 1);
        }
        return b;
    }();
    return kBuckets;
}

} // namespace

Histogram& Registry::count_histogram(std::string_view name, std::string_view help,
                                     std::string_view labels) {
    std::lock_guard lock(mutex_);
    Child& c = child_locked(family_locked(name, help, Kind::Histogram), labels);
    if (c.histogram == nullptr) {
        c.histogram = std::make_unique<Histogram>(shards_, count_buckets(), true);
    }
    return *c.histogram;
}

std::vector<std::uint64_t> Registry::totals(std::string_view name,
                                            std::string_view labels) const {
    std::lock_guard lock(mutex_);
    for (const auto& f : families_) {
        if (f->name != name) continue;
        for (const auto& c : f->children) {
            if (c->labels != labels) continue;
            if (c->counter != nullptr) return {c->counter->total()};
            if (c->histogram != nullptr) return c->histogram->bucket_totals();
        }
    }
    return {};
}

void Registry::render(Exposition& x, std::span<const std::string> skip) const {
    std::lock_guard lock(mutex_);
    for (const auto& f : families_) {
        bool skipped = false;
        for (const std::string& name : skip) {
            if (name == f->name) {
                skipped = true;
                break;
            }
        }
        if (skipped) continue;
        switch (f->kind) {
        case Kind::Counter:
            x.family(f->name, "counter", f->help);
            for (const auto& c : f->children) {
                x.sample(c->labels, std::to_string(c->counter->total()));
            }
            break;
        case Kind::Gauge:
            x.family(f->name, "gauge", f->help);
            for (const auto& c : f->children) {
                x.sample(c->labels, json::format_double(c->gauge->value()));
            }
            break;
        case Kind::Histogram:
            x.family(f->name, "histogram", f->help);
            for (const auto& c : f->children) {
                const Histogram& h = *c->histogram;
                const std::vector<std::uint64_t> totals = h.bucket_totals();
                const std::string sep = c->labels.empty() ? "" : ",";
                std::uint64_t cumulative = 0;
                for (std::size_t b = 0; b < h.bounds().size(); ++b) {
                    cumulative += totals[b];
                    // Count bounds print as exact integers (2^k - 1).
                    const std::string le =
                        h.counts() ? std::to_string((std::uint64_t{1} << b) - 1)
                                   : json::format_double(h.bounds()[b]);
                    x.series("_bucket", c->labels + sep + label("le", le),
                             std::to_string(cumulative));
                }
                cumulative += totals.back();
                x.series("_bucket", c->labels + sep + label("le", "+Inf"),
                         std::to_string(cumulative));
                x.series("_sum", c->labels,
                         h.counts() ? std::to_string(h.sum_units())
                                    : json::format_double(h.sum()));
                x.series("_count", c->labels, std::to_string(cumulative));
            }
            break;
        }
    }
}

std::string Registry::expose() const {
    Exposition x;
    // Everything a live registry carries depends on wall clocks or
    // scheduling, so the deterministic prefix is empty by construction.
    x.raw(std::string(kRuntimeMarker) + "\n");
    render(x);
    return x.take();
}

} // namespace slimsim::metrics
