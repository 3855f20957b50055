/**
 * @file
 * fpcd — the fpcomp compression daemon: a long-lived process serving
 * compress/decompress/decompress_range/inspect requests over a
 * unix-domain socket (framed protocol, service/protocol.h), scheduling
 * them through fpc::Service (bounded queue, per-tenant QoS, pooled
 * scratch arenas). One event-loop thread (service/server.h) owns both
 * sockets and every connection: one request in flight per connection,
 * a partial request or unread reply that makes no progress for 2 s is
 * cut, and connections past the descriptor limit are refused with the
 * busy status.
 *
 * Usage:
 *   fpcd --socket=PATH [--workers=N] [--queue=N] [--request-threads=N]
 *        [--rate-mbps=N] [--burst-mb=N] [--max-in-flight=N]
 *        [--stats-file=PATH] [--trace=FILE] [--metrics-socket=PATH]
 *        [--drain-ms=N] [--log-level=LEVEL]
 *
 * --socket=PATH       listening unix-domain socket (required). A stale
 *                     socket file from a crashed daemon is replaced.
 * --workers=N         scheduler worker threads (default min(4, cores)).
 * --queue=N           pending-request capacity before submissions are
 *                     rejected with the busy status (default 256).
 * --request-threads=N intra-request thread count (default 1; service
 *                     throughput comes from request parallelism).
 * --rate-mbps=N       default per-tenant token-bucket refill rate in
 *                     MB/s of request payload (default: unlimited).
 * --burst-mb=N        default per-tenant burst allowance in MiB
 *                     (default 8).
 * --max-in-flight=N   default per-tenant cap on queued + executing
 *                     requests (default: unlimited).
 * --stats-file=PATH   write the final "fpc.telemetry.v7" JSON line
 *                     (per-run stage/chunk counters of every executed
 *                     request) to PATH on shutdown. `fpcc stats` reads
 *                     the same JSON live; per-tenant numbers live in
 *                     the metrics exposition.
 * --trace=FILE        record one span per request and write a Chrome
 *                     trace-event timeline to FILE on shutdown.
 * --metrics-socket=PATH  serve HTTP `GET /metrics` (Prometheus text
 *                     exposition) and `GET /healthz` on a second unix
 *                     socket, from the same event loop: `curl
 *                     --unix-socket PATH http://localhost/metrics`.
 * --drain-ms=N        graceful-shutdown budget (default 5000): on
 *                     SIGTERM/SIGINT/`fpcc shutdown` the daemon stops
 *                     reading, answers every in-flight request, and
 *                     only then exits; connections still busy after N
 *                     ms are cut.
 * --log-level=LEVEL   debug|info|warn|error|off — threshold of the
 *                     structured request log (one JSON line per
 *                     request on stderr; FPC_LOG_FILE redirects it).
 *                     Default: FPC_LOG_LEVEL, or info.
 *
 * The daemon runs in the foreground until `fpcc shutdown` or
 * SIGINT/SIGTERM; exit codes follow the shared fpc::Errc table
 * (core/errc.h). The final metrics exposition is printed to stderr at
 * shutdown so a scrape-less run still leaves a snapshot behind.
 */
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/errc.h"
#include "core/log.h"
#include "core/metrics.h"
#include "core/trace.h"
#include "service/server.h"

namespace {

// SIGINT/SIGTERM land here; the main thread polls the flag while
// waiting for a client-driven shutdown.
volatile std::sig_atomic_t g_signalled = 0;

void
OnSignal(int)
{
    g_signalled = 1;
}

int
Usage()
{
    std::fprintf(
        stderr,
        "usage: fpcd --socket=PATH [--workers=N] [--queue=N]\n"
        "            [--request-threads=N] [--rate-mbps=N] [--burst-mb=N]\n"
        "            [--max-in-flight=N] [--stats-file=PATH] "
        "[--trace=FILE]\n"
        "            [--metrics-socket=PATH] [--drain-ms=N]\n"
        "            [--log-level=debug|info|warn|error|off]\n"
        "Serves compress/decompress/decompress_range/inspect requests\n"
        "over the unix-domain socket until `fpcc shutdown` or SIGTERM,\n"
        "one event loop for every connection (stalled ones are cut,\n"
        "those past the descriptor limit refused as busy);\n"
        "--metrics-socket adds HTTP GET /metrics and /healthz.\n");
    return fpc::ExitCodeOf(fpc::Errc::kUsage);
}

uint64_t
ParseCount(const std::string& text, const char* flag)
{
    try {
        size_t pos = 0;
        const uint64_t value = std::stoull(text, &pos);
        if (pos != text.size()) throw std::invalid_argument(text);
        return value;
    } catch (const std::exception&) {
        throw fpc::UsageError(std::string(flag) + ": not a number: " + text);
    }
}

}  // namespace

int
main(int argc, char** argv)
{
    try {
        fpc::ServerConfig config;
        std::string stats_path;
        std::string trace_path;
        uint64_t drain_ms = 5000;
        fpc::TraceSink trace_sink;
        // The daemon is the one front-end where a request log is the
        // point: default to info unless the environment or --log-level
        // says otherwise (the library default stays warn).
        if (std::getenv("FPC_LOG_LEVEL") == nullptr) {
            fpc::SetLogThreshold(fpc::LogLevel::kInfo);
        }

        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            auto value = [&arg](const char* flag) {
                return arg.substr(std::strlen(flag));
            };
            if (arg.rfind("--socket=", 0) == 0) {
                config.socket_path = value("--socket=");
            } else if (arg.rfind("--workers=", 0) == 0) {
                config.service.workers = static_cast<int>(
                    ParseCount(value("--workers="), "--workers"));
            } else if (arg.rfind("--queue=", 0) == 0) {
                config.service.queue_capacity = static_cast<size_t>(
                    ParseCount(value("--queue="), "--queue"));
            } else if (arg.rfind("--request-threads=", 0) == 0) {
                config.service.request_threads =
                    static_cast<int>(ParseCount(value("--request-threads="),
                                                "--request-threads"));
            } else if (arg.rfind("--rate-mbps=", 0) == 0) {
                config.service.default_qos.rate_bytes_per_sec =
                    ParseCount(value("--rate-mbps="), "--rate-mbps") *
                    1000000;
            } else if (arg.rfind("--burst-mb=", 0) == 0) {
                config.service.default_qos.burst_bytes =
                    ParseCount(value("--burst-mb="), "--burst-mb") << 20;
            } else if (arg.rfind("--max-in-flight=", 0) == 0) {
                config.service.default_qos.max_in_flight =
                    static_cast<uint32_t>(ParseCount(
                        value("--max-in-flight="), "--max-in-flight"));
            } else if (arg.rfind("--stats-file=", 0) == 0) {
                stats_path = value("--stats-file=");
                if (stats_path.empty()) return Usage();
            } else if (arg.rfind("--trace=", 0) == 0) {
                trace_path = value("--trace=");
                if (trace_path.empty()) return Usage();
            } else if (arg.rfind("--metrics-socket=", 0) == 0) {
                config.metrics_socket_path = value("--metrics-socket=");
                if (config.metrics_socket_path.empty()) return Usage();
            } else if (arg.rfind("--drain-ms=", 0) == 0) {
                drain_ms = ParseCount(value("--drain-ms="), "--drain-ms");
            } else if (arg.rfind("--log-level=", 0) == 0) {
                const std::string name = value("--log-level=");
                const fpc::LogLevel level = fpc::ParseLogLevel(name);
                if (name != fpc::LogLevelName(level)) {
                    throw fpc::UsageError("--log-level: unknown level: " +
                                          name);
                }
                fpc::SetLogThreshold(level);
            } else {
                return Usage();
            }
        }
        if (config.socket_path.empty()) return Usage();
        if (!trace_path.empty()) config.service.trace = &trace_sink;

        std::signal(SIGINT, OnSignal);
        std::signal(SIGTERM, OnSignal);
        std::signal(SIGPIPE, SIG_IGN);

        fpc::SocketServer server(config);
        std::fprintf(stderr,
                     "fpcd: listening on %s (%d worker(s), queue %zu, "
                     "%zu connections)\n",
                     server.Path().c_str(), server.service().workers(),
                     config.service.queue_capacity, server.MaxConnections());

        // Wait for `fpcc shutdown` or a signal; signals cannot wake a
        // condition variable, so the wait polls in short slices.
        while (!server.WaitForShutdownFor(std::chrono::milliseconds(200))) {
            if (g_signalled != 0) {
                std::fprintf(stderr, "fpcd: signalled, draining\n");
                break;
            }
        }
        // Graceful either way: answer every accepted request before
        // exiting, bounded by --drain-ms.
        server.Drain(std::chrono::milliseconds(drain_ms));

        // Leave a final snapshot behind even when nothing scraped us.
        const std::string exposition =
            fpc::MetricsRegistry::Global().Exposition();
        std::fwrite(exposition.data(), 1, exposition.size(), stderr);

        if (!stats_path.empty()) {
            std::FILE* out = std::fopen(stats_path.c_str(), "w");
            if (out == nullptr) {
                throw fpc::UsageError("cannot open " + stats_path);
            }
            std::fprintf(out, "%s\n", server.service().telemetry().ToJson().c_str());
            std::fclose(out);
        }
        if (!trace_path.empty() && !trace_sink.WriteJson(trace_path)) {
            throw fpc::UsageError("cannot write " + trace_path);
        }
        return fpc::ExitCodeOf(fpc::Errc::kOk);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "fpcd: %s\n", e.what());
        return fpc::ExitCodeOf(fpc::CurrentErrc());
    }
}
