// Coordinator side of process-isolated supervision (docs/supervision.md).
//
// Single-threaded by design: one poll(2) loop owns every worker socket, the
// sample collector, the journal, metrics and all restart bookkeeping — no
// coordinator-side threads, so the subsystem is trivially TSan-clean and
// every serial journal/metric event has a total order.
//
// Byte-identity argument (the tentpole invariant): workers only ever
// *generate* samples; which samples enter the estimate — and in what order
// — is decided here, by SampleCollector::drain_ordered over global path
// order, with the exact same stop predicate as the in-process per-path
// runners. A worker failure merely delays its stream: the replacement
// regenerates the unacknowledged tail from the same per-path RNG streams
// (Rng(seed).split(j)), so the accepted prefix — and with it the estimate,
// terminal histogram, curve, trajectory marks and checkpoint cursor — is
// identical at every (seed, process count, crash schedule).
#include "sim/supervise/supervise.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "props/pattern.hpp"
#include "sim/live_metrics.hpp"
#include "sim/supervise/setup.hpp"
#include "stat/collector.hpp"
#include "stat/curve.hpp"
#include "support/memprobe.hpp"

namespace slimsim::sim::supervise {

namespace {

using Clock = std::chrono::steady_clock;

/// Failure classification of a lost worker; indexes kReasonNames.
enum class LossReason : std::uint8_t { Crash = 0, Stall = 1, CorruptFrame = 2 };
constexpr const char* kReasonNames[3] = {"crash", "stall", "corrupt-frame"};

/// The injection kind a loss reason corresponds to (consuming the schedule).
InjectKind reason_kind(LossReason r) {
    switch (r) {
    case LossReason::Crash: return InjectKind::WorkerCrash;
    case LossReason::Stall: return InjectKind::WorkerStall;
    case LossReason::CorruptFrame: return InjectKind::FrameCorrupt;
    }
    return InjectKind::WorkerCrash;
}

/// One worker slot (a stream family w of k). The slot survives its process:
/// a replacement inherits recv_local as its start_local.
struct Slot {
    pid_t pid = -1;
    int fd = -1;
    FrameBuffer buf;
    bool alive = false;
    /// Contiguous samples received into the collector from this stream.
    /// Frames must arrive with first_local == recv_local; anything else is
    /// unattributable and treated as a corrupt stream.
    std::uint64_t recv_local = 0;
    std::uint64_t start_local = 0; // current incarnation's first local index
    Clock::time_point last_activity{};
    bool pending_respawn = false;
    Clock::time_point respawn_at{};
    double pending_backoff = 0.0;
    std::uint32_t restarts = 0;
    LossReason last_loss = LossReason::Crash;
    /// recv_local at the slot's first restart: every accepted index beyond
    /// it was reassigned at least once (the deterministic reassigned-paths
    /// accounting).
    std::optional<std::uint64_t> first_restart_from;
};

struct ScheduledInjection {
    FaultInjection inj;
    bool fired = false;
};

void validate_options(StrategyKind strategy, const SuperviseOptions& options) {
    if (strategy == StrategyKind::Input)
        throw Error("the input strategy cannot be used in supervised runs");
    if (options.processes < 1) throw Error("--processes must be at least 1");
    if (options.model_path.empty())
        throw Error("supervised runs need the model file path: worker "
                    "subprocesses re-load and re-verify the model from disk");
    if (options.sim.coverage)
        throw Error("coverage profiling is not supported with --processes");
    if (options.sim.witness.per_kind > 0)
        throw Error("witness capture is not supported with --processes");
    if (options.sim.trace_lane != nullptr)
        throw Error("execution tracing is not supported with --processes");
    if (options.worker_timeout_seconds <= 0.0)
        throw Error("--worker-timeout must be positive");
}

/// The shared coordinator loop. `curve` and `curve_summary` are null for
/// scalar runs; in curve mode the summary receives every accepted sample
/// alongside `last` (which then tracks the largest bound).
EstimationResult run_core(const eda::Network& net, const TimedReachability& property,
                          StrategyKind strategy, const stat::StopCriterion& criterion,
                          const CurveOptions* curve, stat::CurveSummary* curve_summary,
                          std::uint64_t seed, const SuperviseOptions& options,
                          telemetry::RunReport* report) {
    validate_options(strategy, options);
    const auto start = Clock::now();
    const std::size_t k = options.processes;
    const RunControlOptions& control = options.sim.control;
    const bool tolerate = control.fault.kind == FaultPolicyKind::Tolerate;
    const std::string strategy_name = to_string(strategy);

    // The SETUP template: property source recovered from the canonical
    // spelling, bounds shipped bit-exact (setup.hpp).
    const double horizon_bound = curve != nullptr ? curve->bounds.back() : property.bound;
    const props::ParsedPattern pattern =
        props::parse_pattern("P( " + property.text + " )");
    WireSetup setup;
    setup.seed = seed;
    setup.model_hash = net.compiled()->content_hash();
    setup.model_path = options.model_path;
    setup.formula_kind = static_cast<std::uint8_t>(property.kind);
    setup.lo = property.lo;
    setup.bound = horizon_bound;
    setup.goal_text = pattern.goal_text;
    setup.hold_text = pattern.hold_text;
    setup.strategy = strategy_name;
    setup.deadlock = static_cast<std::uint8_t>(options.sim.deadlock);
    setup.timelock = static_cast<std::uint8_t>(options.sim.timelock);
    setup.memory = static_cast<std::uint8_t>(options.sim.memory);
    setup.max_steps = options.sim.max_steps;
    setup.tolerate = tolerate ? 1 : 0;
    setup.k = k;
    setup.heartbeat_seconds =
        std::min(0.5, std::max(0.02, options.worker_timeout_seconds / 4.0));

    stat::SampleCollector collector(k);
    collector.set_metrics(options.sim.metrics);

    std::vector<std::uint64_t> terminal_tags;
    stat::BernoulliSummary last;
    std::uint64_t total_steps = 0;
    std::uint64_t base = 0;
    std::vector<std::string> resumed_log;
    if (control.resume != nullptr) {
        const RunCheckpoint& ck = *control.resume;
        ck.validate(control.model_hash, seed, property.text, strategy_name,
                    criterion.name(),
                    curve != nullptr ? curve->bounds : std::vector<double>{});
        base = ck.cursor;
        if (curve_summary != nullptr) curve_summary->restore(ck.cursor, ck.curve_tree);
        last.count = ck.cursor;
        last.successes = ck.successes;
        total_steps = ck.total_steps;
        terminal_tags = ck.terminal_tags;
        resumed_log = ck.error_log;
    }
    setup.base = base;
    RunGovernor governor(control, start);
    LiveRunMetrics live(options.sim.metrics, control.budget);
    journal::Journal* jnl = options.sim.journal;
    if (jnl != nullptr) jnl->begin_workers(k);

    // Supervisor instruments (registered once; null when metrics are off).
    metrics::Registry* reg = options.sim.metrics;
    metrics::Counter* m_restarts[3] = {nullptr, nullptr, nullptr};
    metrics::Counter* m_reassigned = nullptr;
    metrics::Gauge* g_alive = nullptr;
    metrics::Gauge* g_heartbeat_age = nullptr;
    if (reg != nullptr) {
        for (int r = 0; r < 3; ++r) {
            m_restarts[r] = &reg->counter(
                "slimsim_supervisor_restarts_total",
                "Worker restarts performed by the supervision coordinator.",
                metrics::label("reason", kReasonNames[r]));
        }
        m_reassigned = &reg->counter(
            "slimsim_supervisor_reassigned_paths_total",
            "Accepted path indices reassigned to a replacement worker.");
        g_alive = &reg->gauge("slimsim_supervisor_workers_alive",
                              "Worker subprocesses currently alive.");
        g_heartbeat_age = &reg->gauge(
            "slimsim_supervisor_heartbeat_age_seconds",
            "Age of the stalest live worker's last frame (live).");
    }

    // Deterministic fault schedule, sorted by path; injections the resumed
    // cursor already passed can never fire.
    std::vector<ScheduledInjection> schedule;
    schedule.reserve(options.injections.size());
    for (const FaultInjection& inj : options.injections) {
        schedule.push_back({inj, inj.path < base});
    }
    std::sort(schedule.begin(), schedule.end(), [](const auto& a, const auto& b) {
        return a.inj.path < b.inj.path;
    });
    auto owner_of = [&](std::uint64_t path) -> std::size_t {
        return static_cast<std::size_t>((path - base) % k);
    };

    const std::string exe =
        options.worker_exe.empty() ? "/proc/self/exe" : options.worker_exe;
    std::vector<Slot> slots(k);
    std::vector<WorkerFaults> worker_faults(k);
    std::uint64_t spawns = 0;
    std::uint64_t restarts_by_reason[3] = {0, 0, 0};
    std::size_t alive_count = 0;
    bool fatal = false;
    std::string fatal_message;
    bool exhausted = false;
    std::string exhausted_cause;

    auto send_all = [](int fd, const std::string& bytes) -> bool {
        std::size_t off = 0;
        while (off < bytes.size()) {
            const ssize_t n =
                ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
            if (n >= 0) {
                off += static_cast<std::size_t>(n);
                continue;
            }
            if (errno == EINTR) continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                struct pollfd p = {fd, POLLOUT, 0};
                ::poll(&p, 1, 100);
                continue;
            }
            return false;
        }
        return true;
    };

    auto spawn = [&](std::size_t w, std::uint64_t start_local) {
        int fds[2];
        if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
            throw Error(std::string("supervise: socketpair failed: ") +
                        std::strerror(errno));
        char fd_arg[16];
        std::snprintf(fd_arg, sizeof(fd_arg), "%d", fds[1]);
        const pid_t pid = ::fork();
        if (pid < 0) {
            ::close(fds[0]);
            ::close(fds[1]);
            throw Error(std::string("supervise: fork failed: ") + std::strerror(errno));
        }
        if (pid == 0) {
            // Child: async-signal-safe territory only — close the parent
            // end and exec the worker binary.
            ::close(fds[0]);
            char* const argv[] = {const_cast<char*>(exe.c_str()),
                                  const_cast<char*>("--worker-mode"), fd_arg, nullptr};
            ::execv(exe.c_str(), argv);
            _exit(127);
        }
        ::close(fds[1]);
        // Parent end: non-blocking (the poll loop must never block on one
        // worker) and close-on-exec (later-spawned workers must not inherit
        // a sibling's socket, or its EOF would go undetected).
        ::fcntl(fds[0], F_SETFL, O_NONBLOCK);
        ::fcntl(fds[0], F_SETFD, FD_CLOEXEC);
        Slot& s = slots[w];
        s.pid = pid;
        s.fd = fds[0];
        s.buf = FrameBuffer{};
        s.alive = true;
        s.recv_local = start_local;
        s.start_local = start_local;
        s.last_activity = Clock::now();
        s.pending_respawn = false;
        ++alive_count;
        ++spawns;
        if (g_alive != nullptr) g_alive->set(static_cast<double>(alive_count));
        WireSetup su = setup;
        su.w = w;
        su.start_local = start_local;
        for (const ScheduledInjection& si : schedule) {
            if (si.fired || si.inj.path < base || owner_of(si.inj.path) != w) continue;
            const std::uint64_t local = (si.inj.path - base - w) / k;
            if (local < start_local) continue;
            su.injections.push_back(
                {static_cast<std::uint8_t>(si.inj.kind), si.inj.path});
        }
        // A send failure here means the worker died before reading SETUP;
        // the poll loop sees the EOF and the restart machinery takes over.
        (void)send_all(s.fd, encode_frame(FrameType::Setup, encode_setup(su)));
        if (jnl != nullptr) {
            jnl->emit(journal::Level::Info, "worker_spawn", "worker subprocess started",
                      {{"worker", static_cast<std::uint64_t>(w)},
                       {"pid", static_cast<std::uint64_t>(pid)},
                       {"start_local", start_local}});
        }
    };

    auto reap = [&](Slot& s) {
        if (s.pid > 0) {
            ::kill(s.pid, SIGKILL);
            int st = 0;
            ::waitpid(s.pid, &st, 0);
            s.pid = -1;
        }
        if (s.fd >= 0) {
            ::close(s.fd);
            s.fd = -1;
        }
        if (s.alive) {
            s.alive = false;
            --alive_count;
            if (g_alive != nullptr) g_alive->set(static_cast<double>(alive_count));
        }
    };

    auto lose = [&](std::size_t w, LossReason reason) {
        Slot& s = slots[w];
        if (!s.alive) return;
        reap(s);
        s.buf = FrameBuffer{};
        s.last_loss = reason;
        if (jnl != nullptr) {
            jnl->emit(journal::Level::Info, "worker_lost",
                      "worker failed and was killed",
                      {{"worker", static_cast<std::uint64_t>(w)},
                       {"reason", std::string(kReasonNames[static_cast<int>(reason)])},
                       {"acknowledged", s.recv_local}});
        }
        // Consume the schedule entry that fired (first unfired injection of
        // this slot with a matching kind): the replacement's SETUP must not
        // re-arm it, or the slot would loop on the same fault forever and
        // the restart count would stop matching the schedule.
        for (ScheduledInjection& si : schedule) {
            if (!si.fired && si.inj.path >= base && owner_of(si.inj.path) == w &&
                si.inj.kind == reason_kind(reason)) {
                si.fired = true;
                break;
            }
        }
        if (s.restarts >= options.worker_retries) {
            if (!exhausted) {
                exhausted = true;
                exhausted_cause =
                    "worker " + std::to_string(w) + " exhausted its " +
                    std::to_string(options.worker_retries) + " restarts (last failure: " +
                    kReasonNames[static_cast<int>(reason)] + ")";
            }
            return;
        }
        const double delay =
            std::min(options.backoff_max_seconds,
                     options.backoff_initial_seconds *
                         static_cast<double>(1ull << std::min<std::uint32_t>(
                                                 s.restarts, 20)));
        s.pending_respawn = true;
        s.pending_backoff = delay;
        s.respawn_at = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                          std::chrono::duration<double>(delay));
    };

    auto respawn = [&](std::size_t w) {
        Slot& s = slots[w];
        s.pending_respawn = false;
        ++s.restarts;
        ++restarts_by_reason[static_cast<int>(s.last_loss)];
        if (m_restarts[static_cast<int>(s.last_loss)] != nullptr)
            m_restarts[static_cast<int>(s.last_loss)]->add(0);
        if (!s.first_restart_from.has_value()) s.first_restart_from = s.recv_local;
        if (jnl != nullptr) {
            jnl->emit(journal::Level::Info, "worker_restart",
                      "replacement worker scheduled",
                      {{"worker", static_cast<std::uint64_t>(w)},
                       {"restart", static_cast<std::uint64_t>(s.restarts)},
                       {"backoff_ms",
                        static_cast<std::uint64_t>(s.pending_backoff * 1000.0)}});
            jnl->emit(journal::Level::Info, "range_reassigned",
                      "unacknowledged path range moved to the replacement",
                      {{"worker", static_cast<std::uint64_t>(w)},
                       {"from_global", base + w + s.recv_local * k},
                       {"stride", static_cast<std::uint64_t>(k)}});
        }
        spawn(w, s.recv_local);
    };

    std::vector<stat::TaggedSample> frame_block;
    // Frame handling; returns false when the frame is unattributable (the
    // stream is then treated as corrupt). PayloadReader throws on truncated
    // payloads — the caller maps that to the same corrupt-stream path.
    auto handle_frame = [&](std::size_t w, const Frame& f) -> bool {
        Slot& s = slots[w];
        switch (f.type) {
        case FrameType::Hello: {
            PayloadReader r(f.payload);
            const std::uint32_t version = r.get_u32();
            if (version != kProtocolVersion) {
                fatal = true;
                fatal_message = "worker speaks SLIMWIRE protocol version " +
                                std::to_string(version) + ", this build speaks " +
                                std::to_string(kProtocolVersion);
            }
            return true;
        }
        case FrameType::Heartbeat: return true;
        case FrameType::Fatal: {
            PayloadReader r(f.payload);
            fatal = true;
            fatal_message = r.get_string();
            return true;
        }
        case FrameType::Samples: {
            PayloadReader r(f.payload);
            const std::uint64_t first = r.get_u64();
            const std::uint32_t count = r.get_u32();
            if (first != s.recv_local) return false;
            // The whole frame goes to the collector as one block, and only
            // once it decoded completely.
            frame_block.clear();
            for (std::uint32_t i = 0; i < count; ++i) {
                const bool value = r.get_u8() != 0;
                const std::uint8_t tag = r.get_u8();
                const double time = r.get_f64();
                const std::uint64_t steps = r.get_u64();
                std::string err = r.get_string();
                if (tag == static_cast<std::uint8_t>(PathTerminal::Error) &&
                    !err.empty()) {
                    live.add_quarantined();
                    if (jnl != nullptr) {
                        jnl->worker(w).emit(journal::Level::Debug, s.recv_local + i,
                                            "quarantine", err);
                    }
                    if (worker_faults[w].size() < kMaxQuarantinedErrors) {
                        worker_faults[w].emplace_back(s.recv_local + i,
                                                      std::move(err));
                    }
                }
                frame_block.push_back(stat::TaggedSample{value, tag, time, steps});
            }
            collector.push_block(w, frame_block);
            s.recv_local += count;
            return true;
        }
        default: return false;
        }
    };

    auto kill_all = [&] {
        for (Slot& s : slots) reap(s);
    };

    const std::uint64_t required = criterion.fixed_sample_count().value_or(0);
    auto criterion_met = [&]() -> bool {
        return curve_summary != nullptr ? criterion.should_stop_curve(*curve_summary)
                                        : criterion.should_stop(last);
    };
    std::uint64_t next_mark = 1;
    while (next_mark <= base) next_mark *= 2;
    auto save_checkpoint = [&] {
        const auto accepted_now = collector.consumed_per_worker();
        const std::vector<std::string> log =
            merge_fault_log(resumed_log, worker_faults, accepted_now, base, k);
        const std::size_t bytes =
            make_run_checkpoint(control, seed, property.text, strategy_name,
                                criterion.name(), last, total_steps,
                                terminal_array(terminal_tags), log, curve_summary)
                .save(control.checkpoint_path);
        live.add_checkpoint(bytes);
        if (jnl != nullptr) {
            jnl->emit(journal::Level::Debug, "checkpoint", "checkpoint written",
                      {{"samples", last.count},
                       {"bytes", static_cast<std::uint64_t>(bytes)}});
        }
    };
    std::uint64_t next_checkpoint =
        control.checkpoint_every > 0 ? last.count + control.checkpoint_every : 0;
    const ProgressFn& progress = options.sim.progress.callback;
    ProgressOptions progress_options = options.sim.progress;
    progress_options.budget_max_seconds = control.budget.max_wall_seconds;
    progress_options.budget_max_samples = control.budget.max_samples;
    auto last_progress = start;
    auto elapsed = [&] {
        return std::chrono::duration<double>(Clock::now() - start).count();
    };

    bool degraded_stop = false;
    try {
        for (std::size_t w = 0; w < k; ++w) spawn(w, 0);

        std::vector<struct pollfd> pfds;
        std::vector<std::size_t> pfd_slot;
        char chunk[65536];
        for (;;) {
            // Respawns whose backoff expired come first, so a freshly
            // reassigned range starts generating before this iteration's
            // drain — but never after a stop decision (the loop exits
            // before reaching here once a stop latches).
            const auto now_top = Clock::now();
            for (std::size_t w = 0; w < k; ++w) {
                if (slots[w].pending_respawn && now_top >= slots[w].respawn_at)
                    respawn(w);
            }

            pfds.clear();
            pfd_slot.clear();
            for (std::size_t w = 0; w < k; ++w) {
                if (!slots[w].alive) continue;
                pfds.push_back({slots[w].fd, POLLIN, 0});
                pfd_slot.push_back(w);
            }
            ::poll(pfds.empty() ? nullptr : pfds.data(),
                   static_cast<nfds_t>(pfds.size()), 10);

            for (std::size_t i = 0; i < pfds.size(); ++i) {
                const std::size_t w = pfd_slot[i];
                Slot& s = slots[w];
                if (!s.alive) continue; // lost earlier in this iteration
                if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
                bool eof = false;
                for (;;) {
                    const ssize_t n = ::recv(s.fd, chunk, sizeof(chunk), 0);
                    if (n > 0) {
                        s.buf.feed(chunk, static_cast<std::size_t>(n));
                        s.last_activity = Clock::now();
                        if (static_cast<std::size_t>(n) < sizeof(chunk)) break;
                        continue;
                    }
                    if (n == 0) {
                        eof = true;
                        break;
                    }
                    if (errno == EINTR) continue;
                    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
                    eof = true; // read error: treat as a crash
                    break;
                }
                Frame frame;
                for (;;) {
                    const FrameBuffer::Status st = s.buf.next(frame);
                    if (st == FrameBuffer::Status::NeedMore) break;
                    if (st == FrameBuffer::Status::Corrupt) {
                        lose(w, LossReason::CorruptFrame);
                        break;
                    }
                    bool ok = false;
                    try {
                        ok = handle_frame(w, frame);
                    } catch (const std::exception&) {
                        ok = false; // truncated payload behind a valid checksum
                    }
                    if (!ok) {
                        lose(w, LossReason::CorruptFrame);
                        break;
                    }
                    if (fatal) break;
                }
                if (fatal) break;
                if (eof && s.alive) lose(w, LossReason::Crash);
            }
            if (fatal) {
                // A worker hit a deterministic error (FailFast path fault,
                // model mismatch): restarting cannot fix it — mirror the
                // in-process runners and abort the whole run.
                throw Error(fatal_message);
            }

            const auto now = Clock::now();
            double stalest = 0.0;
            for (std::size_t w = 0; w < k; ++w) {
                Slot& s = slots[w];
                if (!s.alive) continue;
                const double age =
                    std::chrono::duration<double>(now - s.last_activity).count();
                stalest = std::max(stalest, age);
                if (age > options.worker_timeout_seconds) lose(w, LossReason::Stall);
            }
            if (g_heartbeat_age != nullptr) g_heartbeat_age->set(stalest);

            const std::size_t consumed = collector.drain_ordered(
                last, curve_summary, &terminal_tags,
                [&] {
                    // Sample-granular trajectory marks at power-of-two
                    // accepted counts — identical to the in-process runners,
                    // so the trajectory survives byte-diffing against them.
                    if (last.count == next_mark) {
                        if (report != nullptr) {
                            report->stop_trajectory.push_back(
                                {last.count, required, last.successes});
                        }
                        if (jnl != nullptr) {
                            jnl->emit(journal::Level::Trace, "mark",
                                      "stop-criterion trajectory mark",
                                      {{"samples", last.count},
                                       {"successes", last.successes}});
                        }
                        next_mark *= 2;
                    }
                    return criterion_met() ||
                           governor.should_stop(last.count, total_steps,
                                                tag_count(terminal_tags,
                                                          PathTerminal::Error));
                },
                &total_steps);
            if (consumed > 0) {
                live.add_samples(consumed);
                live.sync_rounds(collector.stats().rounds);
            }
            if ((progress || live) && consumed > 0) {
                const auto pnow = Clock::now();
                if (std::chrono::duration<double>(pnow - last_progress).count() >=
                    options.sim.progress.min_interval_seconds) {
                    const ProgressSnapshot snap = make_progress_snapshot(
                        last.count, last.successes, required, elapsed(),
                        progress_options);
                    live.on_snapshot(snap);
                    if (progress) progress(snap);
                    last_progress = pnow;
                }
            }
            if (consumed > 0 && criterion_met()) break;
            if (governor.should_stop(last.count, total_steps,
                                     tag_count(terminal_tags, PathTerminal::Error)))
                break;
            if (exhausted && consumed == 0) {
                // The dead slot's stream can never advance again, so global
                // path order is blocked for good once its buffer is dry:
                // degrade with the partial result (never an exception).
                degraded_stop = true;
                break;
            }
            if (next_checkpoint != 0 && last.count >= next_checkpoint) {
                save_checkpoint();
                while (next_checkpoint <= last.count)
                    next_checkpoint += control.checkpoint_every;
            }
        }
    } catch (...) {
        kill_all();
        throw;
    }
    kill_all();

    if (progress || live) {
        const ProgressSnapshot snap = make_progress_snapshot(
            last.count, last.successes, required, elapsed(), progress_options);
        live.on_snapshot(snap);
        if (progress) progress(snap);
    }

    const std::vector<std::uint64_t> accepted = collector.consumed_per_worker();
    std::vector<std::uint64_t> generated(k);
    for (std::size_t w = 0; w < k; ++w) generated[w] = slots[w].recv_local;
    if (jnl != nullptr) {
        jnl->merge_workers(accepted, base);
    }
    EstimationResult result;
    if (degraded_stop) {
        result.status = RunStatus::Degraded;
        result.stop_cause = exhausted_cause;
    } else {
        result.status = governor.status();
        result.stop_cause = governor.stop_cause();
    }
    if (jnl != nullptr) {
        jnl->emit(journal::Level::Info, "stop", result.stop_cause,
                  {{"status", std::string(to_string(result.status))},
                   {"samples", last.count}});
    }
    result.error_log = merge_fault_log(resumed_log, worker_faults, accepted, base, k);
    if (!control.checkpoint_path.empty()) save_checkpoint();

    telemetry::SupervisionReport sup;
    sup.enabled = true;
    sup.processes = k;
    sup.spawns = spawns;
    sup.restarts = restarts_by_reason[0] + restarts_by_reason[1] + restarts_by_reason[2];
    sup.injected_faults = options.injections.size();
    for (int r = 0; r < 3; ++r) {
        sup.restarts_by_reason.emplace_back(kReasonNames[r], restarts_by_reason[r]);
    }
    sup.worker_timeout_seconds = options.worker_timeout_seconds;
    sup.worker_retries = options.worker_retries;
    std::uint64_t reassigned = 0;
    for (std::size_t w = 0; w < k; ++w) {
        if (slots[w].first_restart_from.has_value() &&
            accepted[w] > *slots[w].first_restart_from) {
            reassigned += accepted[w] - *slots[w].first_restart_from;
        }
    }
    sup.reassigned_paths = reassigned;
    if (m_reassigned != nullptr && reassigned > 0) m_reassigned->add(0, reassigned);

    result.estimate = last.mean();
    result.samples = last.count;
    result.successes = last.successes;
    result.strategy = strategy_name;
    result.criterion = criterion.name();
    result.terminals = terminal_array(terminal_tags);
    // A curve's achieved guarantee is the simultaneous band half-width.
    result.achieved_half_width =
        curve != nullptr ? stat::simultaneous_half_width(curve->band, curve->delta,
                                                         curve_summary->size(), last.count)
                         : criterion.achieved_half_width(last);
    result.path_errors = tag_count(terminal_tags, PathTerminal::Error);
    result.peak_rss_bytes = peak_rss_bytes();
    result.wall_seconds = std::chrono::duration<double>(Clock::now() - start).count();
    fill_report_common(report, result, curve, curve_summary, required, seed, generated,
                       accepted);
    if (report != nullptr) {
        report->collector = collector.stats();
        report->supervision = sup;
    }
    return result;
}

} // namespace

EstimationResult estimate_supervised(const eda::Network& net,
                                     const TimedReachability& property,
                                     StrategyKind strategy,
                                     const stat::StopCriterion& criterion,
                                     std::uint64_t seed, const SuperviseOptions& options,
                                     telemetry::RunReport* report) {
    return run_core(net, property, strategy, criterion, nullptr, nullptr, seed, options,
                    report);
}

CurveResult estimate_curve_supervised(const eda::Network& net,
                                      const TimedReachability& property,
                                      StrategyKind strategy,
                                      const stat::StopCriterion& criterion,
                                      const CurveOptions& curve, std::uint64_t seed,
                                      const SuperviseOptions& options,
                                      telemetry::RunReport* report) {
    validate_curve_request(property, curve);
    stat::CurveSummary summary(curve.bounds);
    return curve_result(run_core(net, property, strategy, criterion, &curve, &summary, seed,
                                 options, report),
                        curve, summary);
}

} // namespace slimsim::sim::supervise
