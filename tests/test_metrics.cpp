// Tests of the live run introspection surface (docs/observability.md): the
// sharded metrics registry, the shared Prometheus exposition writer, the
// embedded HTTP exporter, and the end-to-end /metrics + /status + /healthz
// serve path through run_analysis — including the invariant that serving
// never perturbs estimation results.
#include "support/metrics.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "api/analysis.hpp"
#include "support/http_server.hpp"
#include "support/journal.hpp"
#include "support/metrics_text.hpp"

namespace slimsim {
namespace {

using metrics::Registry;

// --- exposition writer ------------------------------------------------------

TEST(Exposition, LabelEscaping) {
    EXPECT_EQ(metrics::label_escape("plain"), "plain");
    EXPECT_EQ(metrics::label_escape("a\\b"), "a\\\\b");
    EXPECT_EQ(metrics::label_escape("say \"hi\""), "say \\\"hi\\\"");
    EXPECT_EQ(metrics::label_escape("line\nbreak"), "line\\nbreak");
    EXPECT_EQ(metrics::label("model", "a\"b"), "model=\"a\\\"b\"");
}

TEST(Exposition, HelpPrecedesTypeAndIsOptional) {
    metrics::Exposition x;
    x.family("with_help_total", "counter", "Documented.");
    x.sample("", "1");
    x.family("bare_gauge", "gauge");
    x.sample("", "2");
    const std::string text = x.take();
    EXPECT_EQ(text, "# HELP with_help_total Documented.\n"
                    "# TYPE with_help_total counter\n"
                    "with_help_total 1\n"
                    "# TYPE bare_gauge gauge\n"
                    "bare_gauge 2\n");
}

// --- registry ---------------------------------------------------------------

TEST(MetricsRegistry, CounterNamesMustEndInTotal) {
    Registry reg;
    EXPECT_THROW((void)reg.counter("bad_name", "help"), Error);
    EXPECT_NO_THROW((void)reg.counter("good_name_total", "help"));
}

TEST(MetricsRegistry, ReRegistrationReturnsTheSameInstrument) {
    Registry reg;
    metrics::Counter& a = reg.counter("x_total", "help");
    metrics::Counter& b = reg.counter("x_total", "help");
    EXPECT_EQ(&a, &b);
    a.add(0, 3);
    EXPECT_EQ(b.total(), 3u);
}

TEST(MetricsRegistry, KindMismatchThrows) {
    Registry reg;
    (void)reg.counter("x_total", "help");
    EXPECT_THROW((void)reg.gauge("x_total", "help"), Error);
    EXPECT_THROW((void)reg.histogram("x_total", "help", metrics::time_buckets()),
                 Error);
}

// The exposition must not depend on how work was distributed over shards:
// the same logical counts spread over 1, 2 or 4 shards render byte-identical
// text. This is what makes the /metrics document stable across worker counts
// for deterministic quantities.
TEST(MetricsRegistry, ShardMergeIsDeterministic) {
    std::vector<std::string> exposed;
    for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
        Registry reg(shards);
        metrics::Counter& paths = reg.counter("paths_total", "Paths.");
        metrics::Counter& fires =
            reg.counter("fires_total", "Fires.", metrics::label("kind", "markovian"));
        metrics::Histogram& h =
            reg.histogram("latency_seconds", "Latency.", metrics::time_buckets());
        for (std::size_t i = 0; i < 100; ++i) {
            const std::size_t shard = i % shards;
            paths.add(shard);
            fires.add(shard, 2);
            h.observe(shard, 1e-5 * static_cast<double>(1 + i % 7));
        }
        reg.gauge("depth", "Depth.").set(42.0);
        exposed.push_back(reg.expose());
    }
    EXPECT_EQ(exposed[0], exposed[1]);
    EXPECT_EQ(exposed[0], exposed[2]);
    EXPECT_NE(exposed[0].find(metrics::kRuntimeMarker), std::string::npos);
    EXPECT_NE(exposed[0].find("paths_total 100"), std::string::npos);
    EXPECT_NE(exposed[0].find("fires_total{kind=\"markovian\"} 200"),
              std::string::npos);
    EXPECT_NE(exposed[0].find("depth 42"), std::string::npos);
}

// --- histogram math ---------------------------------------------------------

TEST(MetricsHistogram, TimeBucketsAreStrictlyAscending) {
    const std::span<const double> bounds = metrics::time_buckets();
    ASSERT_GE(bounds.size(), 2u);
    for (std::size_t i = 1; i < bounds.size(); ++i) {
        EXPECT_LT(bounds[i - 1], bounds[i]);
    }
}

TEST(MetricsHistogram, ObservationsLandInLeBuckets) {
    const double bounds[] = {0.1, 1.0, 10.0};
    metrics::Histogram h(1, bounds);
    h.observe(0, 0.05); // <= 0.1
    h.observe(0, 0.1);  // le semantics: exactly on the bound stays in it
    h.observe(0, 0.5);  // <= 1.0
    h.observe(0, 100.0); // +Inf
    const std::vector<std::uint64_t> totals = h.bucket_totals();
    ASSERT_EQ(totals.size(), 4u);
    EXPECT_EQ(totals[0], 2u);
    EXPECT_EQ(totals[1], 1u);
    EXPECT_EQ(totals[2], 0u);
    EXPECT_EQ(totals[3], 1u);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_NEAR(h.sum(), 100.65, 1e-6);
}

TEST(MetricsHistogram, ExpositionSeriesAreCumulative) {
    Registry reg;
    const double bounds[] = {1.0, 2.0};
    metrics::Histogram& h = reg.histogram("work_seconds", "Work.", bounds);
    h.observe(0, 0.5);
    h.observe(0, 1.5);
    h.observe(0, 9.0);
    const std::string text = reg.expose();
    EXPECT_NE(text.find("# TYPE work_seconds histogram"), std::string::npos);
    EXPECT_NE(text.find("work_seconds_bucket{le=\"1\"} 1"), std::string::npos);
    EXPECT_NE(text.find("work_seconds_bucket{le=\"2\"} 2"), std::string::npos);
    EXPECT_NE(text.find("work_seconds_bucket{le=\"+Inf\"} 3"), std::string::npos);
    EXPECT_NE(text.find("work_seconds_count 3"), std::string::npos);
    EXPECT_NE(text.find("work_seconds_sum 11"), std::string::npos);
}

// --- HTTP server ------------------------------------------------------------

/// Minimal blocking HTTP client for loopback tests: one GET, returns the
/// full response (status line + headers + body).
std::string http_get(std::uint16_t port, const std::string& path,
                     const std::string& method = "GET") {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0)
        << std::strerror(errno);
    const std::string req = method + " " + path + " HTTP/1.1\r\n"
                            "Host: 127.0.0.1\r\nConnection: close\r\n\r\n";
    EXPECT_EQ(::send(fd, req.data(), req.size(), 0),
              static_cast<ssize_t>(req.size()));
    std::string out;
    char buf[4096];
    for (;;) {
        const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        if (n <= 0) break;
        out.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return out;
}

std::string body_of(const std::string& response) {
    const std::size_t sep = response.find("\r\n\r\n");
    return sep == std::string::npos ? std::string() : response.substr(sep + 4);
}

TEST(HttpServer, ServesRoutesAndErrorCodes) {
    http::Server server;
    const std::uint16_t port =
        server.start(0, [](const http::Request& req) -> http::Response {
            if (req.path == "/hello") {
                return {200, "text/plain; charset=utf-8", "world\n"};
            }
            if (req.path == "/echo-query") {
                return {200, "text/plain; charset=utf-8", req.query + "\n"};
            }
            return {404, "text/plain; charset=utf-8", "not found\n"};
        });
    ASSERT_GT(port, 0);
    EXPECT_EQ(server.port(), port);

    const std::string ok = http_get(port, "/hello");
    EXPECT_NE(ok.find("HTTP/1.1 200 OK"), std::string::npos);
    EXPECT_NE(ok.find("Content-Type: text/plain; charset=utf-8"),
              std::string::npos);
    EXPECT_EQ(body_of(ok), "world\n");

    // Query strings are stripped from the routed path and handed to the
    // handler separately.
    EXPECT_EQ(body_of(http_get(port, "/hello?x=1")), "world\n");
    EXPECT_EQ(body_of(http_get(port, "/echo-query?tail=5&x=1")), "tail=5&x=1\n");

    const std::string missing = http_get(port, "/missing");
    EXPECT_NE(missing.find("HTTP/1.1 404"), std::string::npos);
    // Error responses still carry a Content-Type.
    EXPECT_NE(missing.find("Content-Type: text/plain; charset=utf-8"),
              std::string::npos);

    server.stop();
    server.stop(); // idempotent
}

TEST(HttpServer, HeadReturnsHeadersWithoutBody) {
    http::Server server;
    const std::uint16_t port =
        server.start(0, [](const http::Request&) -> http::Response {
            return {200, "text/plain; charset=utf-8", "world\n"};
        });
    ASSERT_GT(port, 0);
    const std::string head = http_get(port, "/hello", "HEAD");
    EXPECT_NE(head.find("HTTP/1.1 200 OK"), std::string::npos);
    // Content-Length reflects the would-be GET body, but no body follows.
    EXPECT_NE(head.find("Content-Length: 6"), std::string::npos) << head;
    EXPECT_EQ(body_of(head), "");
    server.stop();
}

TEST(HttpServer, UnsupportedMethodsGet405WithAllow) {
    http::Server server;
    const std::uint16_t port =
        server.start(0, [](const http::Request&) -> http::Response {
            return {200, "text/plain; charset=utf-8", "world\n"};
        });
    ASSERT_GT(port, 0);
    for (const char* method : {"POST", "PUT", "DELETE"}) {
        const std::string res = http_get(port, "/hello", method);
        EXPECT_NE(res.find("HTTP/1.1 405"), std::string::npos) << method;
        EXPECT_NE(res.find("Allow: GET, HEAD"), std::string::npos) << method;
        EXPECT_NE(res.find("Content-Type: text/plain; charset=utf-8"),
                  std::string::npos)
            << method;
    }
    server.stop();
}

TEST(HttpServer, EphemeralPortsAreIndependent) {
    http::Server a;
    http::Server b;
    const std::uint16_t pa = a.start(
        0, [](const http::Request&) -> http::Response { return {200, "t", "a"}; });
    const std::uint16_t pb = b.start(
        0, [](const http::Request&) -> http::Response { return {200, "t", "b"}; });
    EXPECT_NE(pa, pb);
    EXPECT_EQ(body_of(http_get(pa, "/")), "a");
    EXPECT_EQ(body_of(http_get(pb, "/")), "b");
}

// --- end-to-end through run_analysis ---------------------------------------

// Markovian single-fault model: P( <> [0,2] broken ) = 1 - e^{-1}.
constexpr const char* kModel = R"(
    root S.I;
    system S
    features broken: out data port bool default false;
    end S;
    system implementation S.I end S.I;
    error model EM
    features ok: initial state; bad: error state;
    end EM;
    error model implementation EM.I
    events f: error event occurrence poisson 0.5 per sec;
    transitions ok -[f]-> bad;
    end EM.I;
    fault injections
      component root uses error model EM.I;
      component root in state bad effect broken := true;
    end fault injections;
)";

struct ServeAnalysisTest : ::testing::Test {
    eda::Network net = eda::build_network_from_source(kModel);

    [[nodiscard]] AnalysisRequest base_request() const {
        AnalysisRequest req;
        req.property = sim::make_reachability(net.model(), "broken", 2.0);
        req.model_label = "fault.slim";
        req.delta = 0.1;
        req.eps = 0.05;
        req.seed = 7;
        return req;
    }
};

/// Lints a /metrics document: every # TYPE names a known kind, HELP (when
/// present) directly precedes its TYPE, counters end in _total, histogram
/// sample names carry the _bucket/_sum/_count suffixes.
void lint_exposition(const std::string& text) {
    std::string prev_help_family;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t eol = text.find('\n', pos);
        if (eol == std::string::npos) eol = text.size();
        const std::string line = text.substr(pos, eol - pos);
        pos = eol + 1;
        if (line.rfind("# HELP ", 0) == 0) {
            prev_help_family = line.substr(7, line.find(' ', 7) - 7);
            continue;
        }
        if (line.rfind("# TYPE ", 0) == 0) {
            const std::size_t sp = line.find(' ', 7);
            ASSERT_NE(sp, std::string::npos) << line;
            const std::string name = line.substr(7, sp - 7);
            const std::string kind = line.substr(sp + 1);
            EXPECT_TRUE(kind == "counter" || kind == "gauge" || kind == "histogram")
                << line;
            if (kind == "counter") {
                EXPECT_TRUE(name.size() > 6 &&
                            name.substr(name.size() - 6) == "_total")
                    << line;
            }
            if (!prev_help_family.empty()) {
                EXPECT_EQ(prev_help_family, name)
                    << "# HELP must directly precede its # TYPE: " << line;
            }
        }
        prev_help_family.clear();
    }
}

TEST_F(ServeAnalysisTest, EndpointsServeDuringAnInFlightRun) {
    std::atomic<bool> stop{false};
    std::atomic<std::uint16_t> port{0};

    AnalysisRequest req = base_request();
    req.workers = 2;
    req.mode = AnalysisMode::EstimateParallel;
    // A criterion far beyond reach: the run ends via the interrupt flag once
    // the endpoints have been exercised mid-flight.
    req.eps = 1e-5;
    req.sim.control.interrupt = &stop;
    req.serve.enabled = true;
    req.serve.port = 0;
    req.serve.on_bound = [&port](std::uint16_t p) { port.store(p); };

    AnalysisResult res;
    std::thread runner([&] { res = run_analysis(net, req); });
    while (port.load() == 0) std::this_thread::yield();

    EXPECT_EQ(body_of(http_get(port.load(), "/healthz")), "ok\n");

    // Poll /status until the run has consumed samples; then the snapshot
    // carries a live estimate and half-width.
    std::string status;
    for (int i = 0; i < 2000; ++i) {
        status = body_of(http_get(port.load(), "/status"));
        if (status.find("\"samples\":0") == std::string::npos &&
            status.find("\"progress\":null") == std::string::npos) {
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_NE(status.find("\"status\":\"running\""), std::string::npos) << status;
    EXPECT_NE(status.find("\"mode\":\"estimate-parallel\""), std::string::npos);
    EXPECT_NE(status.find("\"half_width\":"), std::string::npos);
    EXPECT_NE(status.find("\"content_hash\":"), std::string::npos);

    const std::string full = http_get(port.load(), "/metrics");
    EXPECT_NE(full.find("text/plain; version=0.0.4"), std::string::npos);
    const std::string scrape = body_of(full);
    EXPECT_NE(scrape.find(metrics::kRuntimeMarker), std::string::npos);
    EXPECT_NE(scrape.find("slimsim_paths_started_total"), std::string::npos);
    EXPECT_NE(scrape.find("slimsim_live_samples"), std::string::npos);
    EXPECT_NE(scrape.find("slimsim_path_seconds_bucket"), std::string::npos);
    lint_exposition(scrape);

    stop.store(true);
    runner.join();
    EXPECT_EQ(res.estimation.status, sim::RunStatus::Interrupted);
    EXPECT_GT(res.estimation.samples, 0u);
}

// Race detector fodder: scraper threads hammer every endpoint — /metrics,
// /status, /series and /journal — while the run is in flight AND while the
// interrupt flag drains it, so shard reads, the status board, the series
// ring and the journal all race the engine's writes and the shutdown path.
// The assertions are deliberately weak; under -DSLIMSIM_SANITIZE=thread this
// test is what proves the introspection surface data-race-free.
TEST_F(ServeAnalysisTest, ConcurrentScrapesRaceAnInterruptDrainedRun) {
    std::atomic<bool> stop{false};
    std::atomic<std::uint16_t> port{0};
    journal::Journal journal(journal::Level::Trace);

    AnalysisRequest req = base_request();
    req.workers = 2;
    req.mode = AnalysisMode::EstimateParallel;
    req.eps = 1e-5; // unreachable: the interrupt flag ends the run
    req.sim.control.interrupt = &stop;
    req.journal = &journal;
    req.serve.enabled = true;
    req.serve.port = 0;
    req.serve.on_bound = [&port](std::uint16_t p) { port.store(p); };

    AnalysisResult res;
    std::thread runner([&] { res = run_analysis(net, req); });
    while (port.load() == 0) std::this_thread::yield();

    // Tolerant scrape client: the server may shut down mid-loop once the
    // drain completes, so connect failures just end the scraper.
    auto try_get = [](std::uint16_t p, const char* path) -> std::string {
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0) return {};
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(p);
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
            ::close(fd);
            return {};
        }
        const std::string req = std::string("GET ") + path + " HTTP/1.1\r\n"
                                "Host: 127.0.0.1\r\nConnection: close\r\n\r\n";
        if (::send(fd, req.data(), req.size(), 0) !=
            static_cast<ssize_t>(req.size())) {
            ::close(fd);
            return {};
        }
        std::string out;
        char buf[4096];
        for (;;) {
            const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
            if (n <= 0) break;
            out.append(buf, static_cast<std::size_t>(n));
        }
        ::close(fd);
        return out;
    };

    std::atomic<bool> scrape_done{false};
    std::vector<std::thread> scrapers;
    const char* paths[] = {"/metrics", "/status", "/series", "/journal?tail=8"};
    for (const char* path : paths) {
        scrapers.emplace_back([&, path] {
            std::size_t hits = 0;
            while (!scrape_done.load()) {
                const std::string r = try_get(port.load(), path);
                if (r.empty()) break; // server shut down
                EXPECT_NE(r.find("HTTP/1.1 200"), std::string::npos) << path;
                ++hits;
            }
            EXPECT_GT(hits, 0u) << path;
        });
    }

    // Let the scrapers overlap the live run, then drain it mid-scrape.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    stop.store(true);
    runner.join();
    scrape_done.store(true);
    for (std::thread& t : scrapers) t.join();

    EXPECT_EQ(res.estimation.status, sim::RunStatus::Interrupted);
    EXPECT_GT(res.estimation.samples, 0u);
    // The journal recorded the lifecycle around the drained run.
    const std::string jsonl = journal.to_jsonl(false);
    EXPECT_NE(jsonl.find("\"event\":\"run_start\""), std::string::npos);
    EXPECT_NE(jsonl.find("\"event\":\"run_end\""), std::string::npos);
}

// The whole point of the sharded design: turning on metrics + serving must
// not move a single sample. Byte-compare the deterministic report section
// and the exact estimation counts at several (seed, workers) points.
TEST_F(ServeAnalysisTest, ResultsAreByteIdenticalWithServingOnAndOff) {
    for (const std::size_t workers : {std::size_t{1}, std::size_t{3}}) {
        AnalysisRequest plain = base_request();
        if (workers > 1) {
            plain.mode = AnalysisMode::EstimateParallel;
            plain.workers = workers;
        }
        const AnalysisResult base = run_analysis(net, plain);

        Registry reg(workers);
        AnalysisRequest instrumented = plain;
        instrumented.metrics = &reg;
        instrumented.serve.enabled = true;
        instrumented.serve.port = 0;
        const AnalysisResult served = run_analysis(net, instrumented);

        EXPECT_EQ(base.estimation.samples, served.estimation.samples);
        EXPECT_EQ(base.estimation.successes, served.estimation.successes);
        EXPECT_EQ(base.value, served.value);
        EXPECT_EQ(telemetry::prometheus_deterministic_section(
                      telemetry::prometheus_text(base.report)),
                  telemetry::prometheus_deterministic_section(
                      telemetry::prometheus_text(served.report)));

        // The live registry picked up the run.
        const std::string scrape = reg.expose();
        EXPECT_NE(scrape.find("slimsim_paths_started_total"), std::string::npos);
        lint_exposition(scrape);
    }
}

// File and HTTP expositions are one code path: appending the live registry
// to the run-report exposition must not duplicate any family, and the
// deterministic prefix must stay byte-identical to the report-only render.
TEST_F(ServeAnalysisTest, MergedExpositionHasNoDuplicateFamilies) {
    Registry reg(1);
    AnalysisRequest req = base_request();
    req.metrics = &reg;
    const AnalysisResult res = run_analysis(net, req);

    const std::string merged = telemetry::prometheus_text(res.report, &reg);
    const std::string report_only = telemetry::prometheus_text(res.report);
    EXPECT_EQ(merged.substr(0, report_only.size()), report_only);

    std::vector<std::string> families;
    std::size_t pos = 0;
    while ((pos = merged.find("# TYPE ", pos)) != std::string::npos) {
        const std::size_t start = pos + 7;
        const std::size_t sp = merged.find(' ', start);
        families.push_back(merged.substr(start, sp - start));
        pos = sp;
    }
    for (std::size_t i = 0; i < families.size(); ++i) {
        for (std::size_t j = i + 1; j < families.size(); ++j) {
            EXPECT_NE(families[i], families[j]) << "duplicate family";
        }
    }
    lint_exposition(merged);
}

} // namespace
} // namespace slimsim
