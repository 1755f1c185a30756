// Live metrics registry (docs/observability.md): typed counters, gauges and
// histograms backed by per-worker lock-free shards, aggregated only at
// scrape time.
//
// Design constraints, in order:
//   1. The hot path must stay allocation-free and contention-free: every
//      instrument is an array of cache-line-padded cells (one per shard ==
//      one per worker) updated with relaxed atomics; worker w only ever
//      touches cell w, so instrumented workers never share a cache line.
//   2. Estimation results must be byte-identical with metrics on or off:
//      instruments only *count* — registration happens once at generator /
//      runner construction (under the registry mutex, off the hot path) and
//      nothing here feeds back into sampling order or RNG streams.
//   3. One exposition writer: the Exposition class below renders Prometheus
//      text (version 0.0.4) for both this registry (the /metrics endpoint)
//      and the run-report exposition in support/metrics_text.
//
// Everything a live registry carries is wall-clock or scheduling dependent,
// so Registry::expose() puts all families below the runtime marker; the
// deterministic section of a live scrape is intentionally empty.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace slimsim::metrics {

/// Marker splitting a Prometheus exposition into the deterministic prefix
/// (byte-identical in (seed, workers)) and the runtime remainder. Shared
/// with the run-report exposition (support/metrics_text).
inline constexpr std::string_view kRuntimeMarker =
    "# -- runtime metrics (wall-clock / scheduling dependent) --";

/// Escapes a label value (backslash, double quote, newline) per the
/// Prometheus text format.
[[nodiscard]] std::string label_escape(std::string_view s);

/// Renders one `name="escaped value"` label pair.
[[nodiscard]] std::string label(std::string_view name, std::string_view value);

/// The single Prometheus text writer: a # HELP / # TYPE header per family
/// followed by its samples. Both the live registry and the run-report
/// exposition render through this class, so format fixes land in one place.
class Exposition {
public:
    /// Starts a family: optional # HELP, then # TYPE. Subsequent sample()
    /// calls emit under this family name.
    void family(std::string_view name, std::string_view type,
                std::string_view help = {});

    void sample(std::string_view labels, std::string_view value);
    /// Histogram series sample (`_bucket`, `_sum`, `_count`): the family
    /// name plus `suffix`, with `labels`.
    void series(std::string_view suffix, std::string_view labels,
                std::string_view value);

    /// One-sample families.
    void gauge(std::string_view name, std::string_view labels, double value,
               std::string_view help = {});
    void counter(std::string_view name, std::string_view labels, std::uint64_t value,
                 std::string_view help = {});

    void raw(std::string_view text);

    [[nodiscard]] std::string take();

private:
    std::string out_;
    std::string family_;
};

/// Fixed histogram bucket bounds for wall-time observations in seconds
/// (1 µs .. 10 s, decades). Deterministic: bucket layout never depends on
/// the data, so expositions are shape-stable across runs and worker counts.
[[nodiscard]] std::span<const double> time_buckets();

/// Range label of count-histogram bucket `b` (Registry::count_histogram):
/// "0", "1", "2-3", "4-7", ...
[[nodiscard]] std::string count_bucket_label(std::size_t b);

/// Buckets of a count histogram, +Inf included.
inline constexpr std::size_t kCountBuckets = 64;

/// Count-histogram bucket of value v: bit_width(v), the +Inf bucket
/// taking everything from 2^62 up.
[[nodiscard]] inline std::size_t count_bucket(std::uint64_t v) {
    return std::min<std::size_t>(static_cast<std::size_t>(std::bit_width(v)),
                                 kCountBuckets - 1);
}

namespace detail {
/// One cache line per shard: workers incrementing their own cell never
/// invalidate another worker's line.
struct alignas(64) Cell {
    std::atomic<std::uint64_t> value{0};
};
static_assert(sizeof(Cell) == 64);
} // namespace detail

/// Monotonic counter. Hot path: one relaxed fetch_add on the caller's cell.
class Counter {
public:
    explicit Counter(std::size_t shards) : cells_(shards) {}

    void add(std::size_t shard, std::uint64_t n = 1) {
        cells_[shard].value.fetch_add(n, std::memory_order_relaxed);
    }

    /// Scrape-time aggregation over all shards.
    [[nodiscard]] std::uint64_t total() const {
        std::uint64_t sum = 0;
        for (const auto& c : cells_) sum += c.value.load(std::memory_order_relaxed);
        return sum;
    }

private:
    std::vector<detail::Cell> cells_;
};

/// Last-write-wins gauge. Updated from one thread at a time by convention
/// (the runners' consuming thread); reads are relaxed atomic loads.
class Gauge {
public:
    void set(double v) { bits_.store(pack(v), std::memory_order_relaxed); }
    [[nodiscard]] double value() const {
        return unpack(bits_.load(std::memory_order_relaxed));
    }

private:
    static std::uint64_t pack(double v);
    static double unpack(std::uint64_t bits);
    std::atomic<std::uint64_t> bits_{pack(0.0)};
};

/// Histogram over fixed, deterministic bucket bounds. Per-shard bucket
/// counts plus an integer sum-of-observations accumulator, so the hot path
/// needs no atomic<double> CAS loop: time histograms (observe) sum integer
/// nanoseconds, count histograms (add_binned) sum the plain values.
/// Cumulative `le` series, `+Inf`, `_sum` and `_count` are derived at
/// scrape time.
class Histogram {
public:
    Histogram(std::size_t shards, std::span<const double> bounds, bool counts = false);

    void observe(std::size_t shard, double v) {
        Shard& s = *shards_[shard];
        std::size_t b = 0;
        while (b < bounds_.size() && v > bounds_[b]) ++b;
        s.buckets[b].value.fetch_add(1, std::memory_order_relaxed);
        s.sum.fetch_add(to_nano(v), std::memory_order_relaxed);
    }

    /// Count histograms only: adds observations the caller binned itself —
    /// per_bucket[b] values v with count_bucket(v) == b, the bucket
    /// count_bucket_label names, summing to `sum` (kept exact).
    void add_binned(std::size_t shard,
                    const std::array<std::uint64_t, kCountBuckets>& per_bucket,
                    std::uint64_t sum);

    [[nodiscard]] bool counts() const { return counts_; }
    [[nodiscard]] std::span<const double> bounds() const { return bounds_; }
    /// Per-bucket (non-cumulative) totals, +Inf last.
    [[nodiscard]] std::vector<std::uint64_t> bucket_totals() const;
    [[nodiscard]] std::uint64_t count() const;
    /// Sum of observations in seconds (time) or plain units (counts).
    [[nodiscard]] double sum() const;
    /// The integer accumulator: nanoseconds (time) or the exact sum (counts).
    [[nodiscard]] std::uint64_t sum_units() const;

private:
    struct Shard {
        explicit Shard(std::size_t buckets) : buckets(buckets) {}
        std::vector<detail::Cell> buckets; // bounds.size() + 1 (+Inf)
        alignas(64) std::atomic<std::uint64_t> sum{0};
    };
    static std::uint64_t to_nano(double v);

    std::vector<double> bounds_;
    bool counts_;
    std::vector<std::unique_ptr<Shard>> shards_;
};

/// Typed metrics registry. Registration (counter()/gauge()/histogram())
/// takes a mutex and may allocate — it happens once, at construction of the
/// instrumented component; the returned instrument references are stable
/// for the registry's lifetime and their update paths are lock-free.
/// Families render in registration order; children within a family render
/// in registration order too, so the exposition is deterministic given the
/// same registration sequence (and shard-count independent: totals are
/// sums).
class Registry {
public:
    explicit Registry(std::size_t shards = 1);

    [[nodiscard]] std::size_t shards() const { return shards_; }

    /// Finds or creates the counter `name{labels}`. `name` must end in
    /// `_total`; re-registration with a different kind throws.
    Counter& counter(std::string_view name, std::string_view help,
                     std::string_view labels = {});
    Gauge& gauge(std::string_view name, std::string_view help,
                 std::string_view labels = {});
    /// `bounds` must be strictly ascending; all children of a family share
    /// the first registration's bounds.
    Histogram& histogram(std::string_view name, std::string_view help,
                         std::span<const double> bounds, std::string_view labels = {});
    /// A count histogram fed by Histogram::add_binned, over power-of-two
    /// bounds (le = 0, 1, 3, 7, ..., 2^62 - 1): bucket b > 0 holds
    /// [2^(b-1), 2^b - 1], and the +Inf bucket everything from 2^62 up.
    Histogram& count_histogram(std::string_view name, std::string_view help,
                               std::string_view labels = {});

    /// Current totals of the instrument `name{labels}`: {total} for a
    /// counter, per-bucket totals (+Inf last) for a histogram, empty when
    /// no such counter or histogram is registered (this never registers).
    [[nodiscard]] std::vector<std::uint64_t> totals(std::string_view name,
                                                    std::string_view labels = {}) const;

    /// Renders every family into `x`, skipping family names in `skip`
    /// (used when appending the live registry to a run-report exposition
    /// that already emitted a family of the same name).
    void render(Exposition& x, std::span<const std::string> skip = {}) const;

    /// Full /metrics document: the runtime marker followed by every family
    /// (see the header comment — live metrics are all runtime-dependent).
    [[nodiscard]] std::string expose() const;

private:
    enum class Kind : std::uint8_t { Counter, Gauge, Histogram };
    struct Child {
        std::string labels;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
    };
    struct Family {
        std::string name;
        std::string help;
        Kind kind = Kind::Counter;
        std::vector<std::unique_ptr<Child>> children;
    };

    Family& family_locked(std::string_view name, std::string_view help, Kind kind);
    Child& child_locked(Family& family, std::string_view labels);

    const std::size_t shards_;
    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<Family>> families_;
};

} // namespace slimsim::metrics
