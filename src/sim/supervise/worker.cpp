// Worker-subprocess side of SLIMWIRE v1 (docs/supervision.md).
//
// A worker is a fresh exec of the slimsim binary: it owns no coordinator
// state, loads the model from disk, verifies its content hash against the
// SETUP frame, and then streams path outcomes for its slot's index family
// (global path base + w + local*k, simulated with Rng(seed).split(global))
// until the coordinator kills it. Deterministic fault injections trigger
// *after* all preceding valid samples are flushed, so the restart point —
// and with it the whole failure schedule's observable effect — is exact.
#include "sim/supervise/supervise.hpp"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <unistd.h>

#include "eda/network.hpp"
#include "sim/executor.hpp"
#include "sim/supervise/setup.hpp"
#include "support/diagnostics.hpp"

namespace slimsim::sim::supervise {

namespace {

/// An in-flight SAMPLES frame: first_local + count header, then per sample
/// u8 satisfied, u8 terminal tag, f64 end time, u64 steps, string error
/// message (empty unless the tag is PathTerminal::Error).
struct Batch {
    std::uint64_t first_local = 0;
    std::uint32_t count = 0;
    std::string samples;

    [[nodiscard]] std::string encode() const {
        std::string p;
        put_u64(p, first_local);
        put_u32(p, count);
        p += samples;
        return p;
    }
};

} // namespace

int run_worker_mode(int fd) {
    // The coordinator owns interruption: a terminal ^C reaches the whole
    // foreground process group, and the coordinator must stay alive to
    // drain and kill its workers — workers ignore SIGINT and die by
    // SIGKILL (or exit when the socket closes under them).
    std::signal(SIGINT, SIG_IGN);
    std::signal(SIGPIPE, SIG_IGN);
    try {
        {
            std::string hello;
            put_u32(hello, kProtocolVersion);
            put_u64(hello, static_cast<std::uint64_t>(::getpid()));
            if (!send_bytes(fd, encode_frame(FrameType::Hello, hello))) return 1;
        }
        const Frame first = read_frame_blocking(fd);
        if (first.type != FrameType::Setup)
            throw Error("SLIMWIRE: expected SETUP, got frame type " +
                        std::to_string(static_cast<std::uint32_t>(first.type)));
        WireSetup setup = decode_setup(first.payload);
        if (setup.k == 0 || setup.w >= setup.k)
            throw Error("SLIMWIRE: SETUP has an invalid worker slot");
        std::sort(setup.injections.begin(), setup.injections.end(),
                  [](const auto& a, const auto& b) { return a.path < b.path; });

        eda::Network net = eda::build_network_from_file(setup.model_path);
        if (setup.model_hash != 0 &&
            net.compiled()->content_hash() != setup.model_hash) {
            throw Error("worker model `" + setup.model_path +
                        "` does not match the coordinator's model "
                        "(content hash mismatch)");
        }

        PathFormula formula;
        switch (static_cast<FormulaKind>(setup.formula_kind)) {
        case FormulaKind::Reach:
            formula = make_reachability_interval(net.model(), setup.goal_text,
                                                 setup.lo, setup.bound);
            break;
        case FormulaKind::Until:
            formula = make_until(net.model(), setup.hold_text, setup.goal_text,
                                 setup.lo, setup.bound);
            break;
        case FormulaKind::Globally:
            formula = make_globally(net.model(), setup.goal_text, setup.bound);
            break;
        default: throw Error("SLIMWIRE: SETUP has an unknown formula kind");
        }

        const auto kind = strategy_from_string(setup.strategy);
        if (!kind.has_value() || *kind == StrategyKind::Input)
            throw Error("SLIMWIRE: SETUP has an unusable strategy `" +
                        setup.strategy + "`");
        const auto strat = make_strategy(*kind);

        SimOptions sim;
        sim.deadlock = static_cast<StuckPolicy>(setup.deadlock);
        sim.timelock = static_cast<StuckPolicy>(setup.timelock);
        sim.memory = static_cast<MemoryPolicy>(setup.memory);
        sim.max_steps = setup.max_steps;
        const PathGenerator gen(net, formula, *strat, sim);

        // Under FailFast a path's throw becomes FATAL below.
        const Rng master(setup.seed);
        PathExecutor executor(gen, master, master, true, setup.base + setup.w, setup.k,
                              setup.tolerate != 0, nullptr);
        const std::uint32_t batch_size = std::max<std::uint32_t>(1, setup.batch);
        auto inj = setup.injections.cbegin();
        const auto inj_end = setup.injections.cend();

        Batch batch;
        batch.first_local = setup.start_local;
        auto last_send = std::chrono::steady_clock::now();
        // Returns false when the coordinator is gone (exit quietly then).
        auto flush = [&]() -> bool {
            if (batch.count == 0) {
                std::string hb;
                put_u64(hb, batch.first_local);
                return send_bytes(fd, encode_frame(FrameType::Heartbeat, hb));
            }
            const bool ok =
                send_bytes(fd, encode_frame(FrameType::Samples, batch.encode()));
            batch.first_local += batch.count;
            batch.count = 0;
            batch.samples.clear();
            return ok;
        };

        for (std::uint64_t local = setup.start_local;; ++local) {
            const std::uint64_t global = setup.base + setup.w + local * setup.k;
            while (inj != inj_end && inj->path < global) ++inj;
            const bool fire = inj != inj_end && inj->path == global;
            const auto fault =
                fire ? static_cast<InjectKind>(inj->kind) : InjectKind{};
            if (fire) {
                // Every valid sample before the fault point is acknowledged
                // first, so the replacement's start_local is exactly this
                // path's local index — deterministically.
                if (!flush()) return 0;
                if (fault == InjectKind::WorkerCrash) _exit(86);
                if (fault == InjectKind::WorkerStall) {
                    for (;;) ::pause(); // alive but silent: heartbeat expires
                }
            }

            const PathOutcome out = executor.run(local);
            put_u8(batch.samples, out.satisfied ? 1 : 0);
            put_u8(batch.samples, static_cast<std::uint8_t>(out.terminal));
            put_f64(batch.samples, out.end_time);
            put_u64(batch.samples, static_cast<std::uint64_t>(out.steps));
            put_string(batch.samples, out.terminal == PathTerminal::Error
                                          ? std::string_view(executor.error())
                                          : std::string_view());
            ++batch.count;

            if (fire && fault == InjectKind::FrameCorrupt) {
                // The single sample at the fault path travels in a frame
                // whose checksum is flipped: the coordinator must discard
                // it and regenerate the path in a replacement worker.
                (void)send_bytes(
                    fd, encode_frame_corrupt(FrameType::Samples, batch.encode()));
                _exit(88);
            }

            const auto now = std::chrono::steady_clock::now();
            if (batch.count >= batch_size ||
                std::chrono::duration<double>(now - last_send).count() >=
                    setup.heartbeat_seconds) {
                if (!flush()) return 0;
                last_send = now;
            }
        }
    } catch (const std::exception& e) {
        // Deterministic failure (bad model, formula error, Zeno guard under
        // FailFast): report it so the coordinator aborts the run instead of
        // burning retries on a fault a restart cannot fix.
        std::string p;
        put_string(p, e.what());
        (void)send_bytes(fd, encode_frame(FrameType::Fatal, p));
        return 1;
    }
}

std::string to_string(InjectKind kind) {
    switch (kind) {
    case InjectKind::WorkerCrash: return "worker-crash";
    case InjectKind::WorkerStall: return "worker-stall";
    case InjectKind::FrameCorrupt: return "frame-corrupt";
    }
    return "unknown";
}

FaultInjection parse_injection(const std::string& spec) {
    const std::size_t at = spec.find('@');
    if (at == std::string::npos) {
        throw Error("--inject: expected KIND@PATH (worker-crash@N, "
                    "worker-stall@N or frame-corrupt@N), got `" + spec + "`");
    }
    const std::string kind = spec.substr(0, at);
    FaultInjection inj;
    if (kind == "worker-crash") {
        inj.kind = InjectKind::WorkerCrash;
    } else if (kind == "worker-stall") {
        inj.kind = InjectKind::WorkerStall;
    } else if (kind == "frame-corrupt") {
        inj.kind = InjectKind::FrameCorrupt;
    } else {
        throw Error("--inject: unknown fault kind `" + kind +
                    "` (worker-crash, worker-stall or frame-corrupt)");
    }
    const std::string digits = spec.substr(at + 1);
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
        throw Error("--inject: `" + spec + "` needs a numeric path index after @");
    }
    inj.path = std::stoull(digits);
    return inj;
}

} // namespace slimsim::sim::supervise
