#include "sim/run_control.hpp"

#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <unistd.h>

#include "support/atomic_file.hpp"
#include "support/diagnostics.hpp"

namespace slimsim::sim {

std::string to_string(RunStatus status) {
    switch (status) {
    case RunStatus::Converged: return "converged";
    case RunStatus::BudgetExhausted: return "budget_exhausted";
    case RunStatus::Interrupted: return "interrupted";
    case RunStatus::Degraded: return "degraded";
    }
    return "unknown";
}

// ---------------------------------------------------------------------------
// Hashing

std::uint64_t fnv1a64(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= bytes[i];
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

std::uint64_t fnv1a64(const std::string& text) { return fnv1a64(text.data(), text.size()); }

std::uint64_t hash_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw Error("cannot read model file for checkpoint hash: " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string bytes = buf.str();
    return fnv1a64(bytes.data(), bytes.size());
}

// ---------------------------------------------------------------------------
// Checkpoint serialization
//
// Layout (little-endian, no padding): 8-byte magic "SLIMCKPT", u32 version,
// then the payload, then fnv1a64 over magic+version+payload. Strings and
// vectors are length-prefixed with u64 counts. Doubles are bit-copied
// through u64, so a round trip is bit-exact.

namespace {

constexpr char kMagic[8] = {'S', 'L', 'I', 'M', 'C', 'K', 'P', 'T'};

void put_u32(std::string& out, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_u64(std::string& out, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_f64(std::string& out, double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    put_u64(out, bits);
}

void put_string(std::string& out, const std::string& s) {
    put_u64(out, s.size());
    out.append(s);
}

/// Sequential reader over the loaded bytes; every primitive checks bounds so
/// truncated files fail with a diagnostic instead of UB.
struct Reader {
    const std::string& bytes;
    std::size_t pos = 0;

    void need(std::uint64_t n) const {
        // Overflow-safe form of pos + n > size: `n` can be an attacker- or
        // corruption-controlled u64 straight off the wire.
        if (pos > bytes.size() || n > bytes.size() - pos)
            throw Error("--resume: checkpoint is truncated or corrupt");
    }
    /// Length prefix of a vector of `elem_size`-byte elements; rejects
    /// counts the remaining bytes cannot possibly hold, so a corrupt count
    /// yields the one-line --resume diagnostic instead of a huge resize.
    std::uint64_t get_count(std::size_t elem_size) {
        const std::uint64_t n = get_u64();
        if (elem_size != 0 && n > (bytes.size() - pos) / elem_size)
            throw Error("--resume: checkpoint is truncated or corrupt");
        return n;
    }
    std::uint32_t get_u32() {
        need(4);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[pos + i])) << (8 * i);
        pos += 4;
        return v;
    }
    std::uint64_t get_u64() {
        need(8);
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes[pos + i])) << (8 * i);
        pos += 8;
        return v;
    }
    double get_f64() {
        const std::uint64_t bits = get_u64();
        double v = 0.0;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }
    std::string get_string() {
        const std::uint64_t n = get_u64();
        need(n);
        std::string s = bytes.substr(pos, n);
        pos += n;
        return s;
    }
};

} // namespace

std::size_t RunCheckpoint::save(const std::string& path) const {
    std::string out;
    out.append(kMagic, sizeof(kMagic));
    put_u32(out, version);
    put_u64(out, model_hash);
    put_u64(out, seed);
    put_u64(out, property_hash);
    put_string(out, strategy);
    put_string(out, criterion);
    put_u64(out, stop_parameters.size());
    for (const auto& [name, value] : stop_parameters) {
        put_string(out, name);
        put_f64(out, value);
    }
    put_u64(out, cursor);
    put_u64(out, successes);
    put_u64(out, total_steps);
    put_u64(out, terminal_tags.size());
    for (std::uint64_t v : terminal_tags) put_u64(out, v);
    put_u64(out, error_log.size());
    for (const std::string& msg : error_log) put_string(out, msg);
    put_u64(out, curve_bounds.size());
    for (double b : curve_bounds) put_f64(out, b);
    put_u64(out, curve_tree.size());
    for (std::uint64_t v : curve_tree) put_u64(out, v);
    put_u64(out, fnv1a64(out.data(), out.size()));

    // Temp file + rename (support/atomic_file) so a signal arriving
    // mid-write never leaves a half-written checkpoint behind the final name.
    return support::write_file_atomic(path, out, "cannot write checkpoint file");
}

RunCheckpoint RunCheckpoint::load(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw Error("--resume: cannot read checkpoint file `" + path + "`");
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string bytes = buf.str();

    if (bytes.size() < sizeof(kMagic) + 4 + 8 ||
        std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0)
        throw Error("--resume: `" + path + "` is not a slimsim checkpoint");
    const std::uint64_t stored_sum =
        Reader{bytes, bytes.size() - 8}.get_u64();
    if (fnv1a64(bytes.data(), bytes.size() - 8) != stored_sum)
        throw Error("--resume: checkpoint failed its checksum (file truncated or "
                    "corrupt): " + path);

    Reader r{bytes, sizeof(kMagic)};
    RunCheckpoint ck;
    ck.version = r.get_u32();
    if (ck.version != kVersion)
        throw Error("--resume: checkpoint version " + std::to_string(ck.version) +
                    " is not supported (this build reads version " +
                    std::to_string(kVersion) + ")");
    ck.model_hash = r.get_u64();
    ck.seed = r.get_u64();
    ck.property_hash = r.get_u64();
    ck.strategy = r.get_string();
    ck.criterion = r.get_string();
    ck.stop_parameters.resize(r.get_count(16)); // 16 = name length prefix + value
    for (auto& [name, value] : ck.stop_parameters) {
        name = r.get_string();
        value = r.get_f64();
    }
    ck.cursor = r.get_u64();
    ck.successes = r.get_u64();
    ck.total_steps = r.get_u64();
    ck.terminal_tags.resize(r.get_count(8));
    for (auto& v : ck.terminal_tags) v = r.get_u64();
    ck.error_log.resize(r.get_count(8)); // 8 = u64 length prefix per string
    for (auto& msg : ck.error_log) msg = r.get_string();
    ck.curve_bounds.resize(r.get_count(8));
    for (auto& b : ck.curve_bounds) b = r.get_f64();
    ck.curve_tree.resize(r.get_count(8));
    for (auto& v : ck.curve_tree) v = r.get_u64();
    return ck;
}

void RunCheckpoint::validate(std::uint64_t expected_model_hash, std::uint64_t expected_seed,
                             const std::string& property_text, const std::string& strategy_name,
                             const std::string& criterion_name,
                             const std::vector<double>& expected_curve_bounds) const {
    if (expected_model_hash != 0 && model_hash != 0 && model_hash != expected_model_hash)
        throw Error("--resume checkpoint was taken from a different model: its "
                    "content hash does not match the model passed on the command "
                    "line (re-run with the original model, or drop --resume to "
                    "start fresh)");
    if (seed != expected_seed)
        throw Error("--resume checkpoint seed " + std::to_string(seed) +
                    " does not match --seed " + std::to_string(expected_seed));
    if (property_hash != fnv1a64(property_text))
        throw Error("--resume checkpoint was taken for a different property "
                    "(goal/bound mismatch)");
    if (strategy != strategy_name)
        throw Error("--resume checkpoint strategy `" + strategy +
                    "` does not match requested strategy `" + strategy_name + "`");
    if (criterion != criterion_name)
        throw Error("--resume checkpoint stop criterion `" + criterion +
                    "` does not match requested criterion `" + criterion_name + "`");
    if (curve_bounds != expected_curve_bounds)
        throw Error("--resume checkpoint curve grid does not match the requested "
                    "--curve bounds");
}

void RunCheckpoint::validate_stop_parameters(const stat::StopParameters& expected) const {
    const auto show = [](const stat::StopParameters& params) {
        std::ostringstream os;
        for (std::size_t i = 0; i < params.size(); ++i) {
            os << (i > 0 ? ", " : "") << params[i].first << ' ' << params[i].second;
        }
        return os.str();
    };
    if (stop_parameters.size() != expected.size()) {
        throw Error("--resume checkpoint stop parameters (" + show(stop_parameters) +
                    ") do not match the requested (" + show(expected) + ")");
    }
    for (std::size_t i = 0; i < expected.size(); ++i) {
        if (stop_parameters[i] == expected[i]) continue;
        throw Error("--resume checkpoint was taken with " + show({stop_parameters[i]}) +
                    ", not the requested " + show({expected[i]}));
    }
}

// ---------------------------------------------------------------------------
// RunGovernor

bool RunGovernor::should_stop(std::uint64_t samples, std::uint64_t steps,
                              std::uint64_t errors) {
    if (stopped_) return true;
    // Deterministic causes first, in a fixed order, so runs limited by a
    // sample/step/error budget stop at the same accepted prefix everywhere.
    if (control_.fault.kind == FaultPolicyKind::Tolerate &&
        errors > control_.fault.max_path_errors) {
        stop(RunStatus::Degraded,
             "path errors (" + std::to_string(errors) + ") exceeded --max-path-errors " +
                 std::to_string(control_.fault.max_path_errors));
        return true;
    }
    if (control_.budget.max_samples > 0 && samples >= control_.budget.max_samples) {
        stop(RunStatus::BudgetExhausted,
             "--max-samples budget reached (" + std::to_string(samples) + " samples)");
        return true;
    }
    if (control_.budget.max_total_steps > 0 && steps >= control_.budget.max_total_steps) {
        stop(RunStatus::BudgetExhausted,
             "--max-steps budget reached (" + std::to_string(steps) + " total steps)");
        return true;
    }
    if (control_.interrupt != nullptr &&
        control_.interrupt->load(std::memory_order_relaxed)) {
        stop(RunStatus::Interrupted, "interrupted by signal");
        return true;
    }
    if (control_.budget.max_wall_seconds > 0.0) {
        const double elapsed =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
        if (elapsed >= control_.budget.max_wall_seconds) {
            stop(RunStatus::BudgetExhausted, "--max-seconds budget reached");
            return true;
        }
    }
    return false;
}

void RunGovernor::stop(RunStatus status, std::string cause) {
    stopped_ = true;
    status_ = status;
    cause_ = std::move(cause);
}

// ---------------------------------------------------------------------------
// Signal handling
//
// The handler only touches a lock-free atomic flag and (on the second
// signal) _exit — both async-signal-safe. Everything else happens in the
// consumer loop, which polls the flag between accepted samples.

namespace {

std::atomic<bool> g_interrupted{false};
static_assert(std::atomic<bool>::is_always_lock_free,
              "signal handler requires a lock-free atomic flag");

extern "C" void slimsim_signal_handler(int) {
    if (g_interrupted.exchange(true, std::memory_order_relaxed)) {
        _exit(130); // second signal: the user really wants out, now
    }
}

} // namespace

void install_signal_handlers() {
    struct sigaction sa = {};
    sa.sa_handler = slimsim_signal_handler;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = SA_RESTART;
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);
}

const std::atomic<bool>* interrupt_flag() { return &g_interrupted; }

void clear_interrupt() { g_interrupted.store(false, std::memory_order_relaxed); }

} // namespace slimsim::sim
