/**
 * @file
 * Load generator for the service layer (DESIGN.md "Service layer"): an
 * in-process fpc::Service driven to saturation by N polite tenants plus
 * one flooding tenant, measuring what multi-tenant QoS actually buys —
 * per-tenant request-latency tails under contention.
 *
 *  - each polite tenant pumps a fixed request count through a bounded
 *    submission window (compress phase, then decompress phase), with
 *    per-request submit-to-completion latency recorded locally;
 *  - the flooding tenant runs a tight submit loop (alternating compress
 *    and decompress) for the whole compress phase under an in-flight
 *    cap, so most of its submissions bounce with ServiceBusy while the
 *    accepted ones keep every worker busy.
 *
 * The run fails (exit 1) when the scheduler misbehaves: a polite tenant
 * rejected or failed, the flooder never throttled, or a direction of
 * flood traffic never executed. Emits one "fpc.bench.v1" JSON line
 * (service-shaped config: "tenants" + per-tenant results with a
 * "request" latency digest, backend "service:<backend>:<tenant>") that
 * tools/compare_bench.py can gate against a prior report and
 * tools/check_stats_schema.py validates.
 *
 * Usage: bench_service [OUT.json]        (stdout when OUT is omitted)
 * Environment (all part of the config fingerprint):
 *   FPC_BENCH_SERVICE_TENANTS   polite tenants            (default 4)
 *   FPC_BENCH_SERVICE_REQUESTS  requests per tenant/phase (default 48)
 *   FPC_BENCH_SERVICE_VALUES    float elements per request(default 65536)
 *   FPC_BENCH_SERVICE_WORKERS   service worker threads    (default 4)
 *   FPC_BENCH_SERVICE_WINDOW    in-flight per tenant      (default 8)
 *   FPC_BENCH_SERVICE_BACKEND   executor-registry name    (default cpu)
 *   FPC_BENCH_SERVICE_SOCKET    fpcd socket path; when set the polite
 *       tenants drive the daemon at PATH over one SocketClient each
 *       (blocking calls, so WINDOW and WORKERS describe the daemon, not
 *       this process). Socket mode runs no flooder — a blocking client
 *       cannot oversubscribe a remote queue — and skips the in-process
 *       registry cross-check (the daemon owns its registry); kBusy
 *       replies count as rejections and still fail the run. This is the
 *       load half of the ci_matrix.sh metrics-reconcile leg.
 */
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/codec.h"
#include "core/errc.h"
#include "core/metrics.h"
#include "core/telemetry.h"
#include "figure_common.h"
#include "service/client.h"
#include "service/service.h"
#include "util/hash.h"

namespace {

using namespace fpc;
using Clock = std::chrono::steady_clock;

struct ServiceBenchConfig {
    size_t tenants = 4;
    size_t requests = 48;
    size_t values = 65536;
    size_t workers = 4;
    size_t window = 8;
    std::string backend = "cpu";
    std::string socket;  ///< fpcd socket path; empty = in-process
};

std::string
Fingerprint(const ServiceBenchConfig& config)
{
    char key[192];
    std::snprintf(key, sizeof(key),
                  "service;tenants=%zu;requests=%zu;values=%zu;"
                  "workers=%zu;window=%zu;backend=%s;transport=%s",
                  config.tenants, config.requests, config.values,
                  config.workers, config.window, config.backend.c_str(),
                  config.socket.empty() ? "inproc" : "socket");
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%016" PRIx64,
                  Checksum64(AsBytes(std::span<const char>(
                      key, std::char_traits<char>::length(key)))));
    return hex;
}

/** Compressible random-walk floats, seeded per tenant so every tenant
 *  compresses distinct but equally shaped payloads. */
Bytes
SmoothPayload(size_t n, uint64_t seed)
{
    std::vector<float> values(n);
    uint64_t state = seed * 2862933555777941757ull + 3037000493ull;
    double x = 100.0;
    for (size_t i = 0; i < n; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        x += (static_cast<double>((state >> 33) & 0xfff) - 2048.0) / 8192.0;
        values[i] = static_cast<float>(x);
    }
    const auto span = AsBytes(std::span<const float>(values));
    return Bytes(span.begin(), span.end());
}

double
Seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

void
AppendDigest(std::string& out, const char* key,
             const LatencyHistogram& hist, bool last)
{
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "\"%s\": {\"count\": %" PRIu64 ", \"p50_ns\": %" PRIu64
                  ", \"p95_ns\": %" PRIu64 ", \"p99_ns\": %" PRIu64
                  ", \"max_ns\": %" PRIu64 "}%s",
                  key, hist.count, hist.P50(), hist.P95(), hist.P99(),
                  hist.max_ns, last ? "" : ", ");
    out += buf;
}

/** What one polite tenant measured across both phases. */
struct TenantRun {
    LatencyHistogram latency;  ///< submit-to-completion, both phases
    double compress_s = 0.0;
    double decompress_s = 0.0;
    size_t rejected = 0;  ///< must stay 0: polite tenants are in QoS
    size_t failed = 0;    ///< responses with status != kOk
    size_t compressed_bytes = 0;  ///< container size of this payload
};

ServiceRequest
MakeRequest(ServiceVerb verb, const std::string& tenant,
            const Bytes& payload, const std::string& backend)
{
    ServiceRequest request;
    request.verb = verb;
    request.tenant = tenant;
    request.algorithm = Algorithm::kSPspeed;
    request.payload = payload;
    if (backend != "cpu") request.executor = backend;
    return request;
}

/** Pump `count` identical requests through a bounded in-flight window,
 *  recording each request's submit-to-completion latency. */
void
PumpPhase(Service& service, const ServiceRequest& proto, size_t count,
          size_t window, TenantRun& run, Bytes* first_payload)
{
    struct InFlight {
        std::future<ServiceResponse> future;
        Clock::time_point submitted;
    };
    std::deque<InFlight> open;
    const auto settle = [&](InFlight& entry) {
        ServiceResponse response = entry.future.get();
        run.latency.Record(static_cast<uint64_t>(
            Seconds(entry.submitted, Clock::now()) * 1e9));
        if (response.status != Errc::kOk) ++run.failed;
        else if (first_payload != nullptr && first_payload->empty())
            *first_payload = std::move(response.payload);
    };
    for (size_t i = 0; i < count; ++i) {
        if (open.size() >= window) {
            settle(open.front());
            open.pop_front();
        }
        try {
            ServiceRequest request = proto;  // payload copy per request
            const Clock::time_point t0 = Clock::now();
            open.push_back({service.Submit(std::move(request)), t0});
        } catch (const ServiceBusy&) {
            ++run.rejected;  // counted, not retried: must never happen
        }
    }
    while (!open.empty()) {
        settle(open.front());
        open.pop_front();
    }
}

/** Socket-mode pump: one blocking request at a time over this tenant's
 *  own daemon connection (concurrency comes from the tenant threads).
 *  kBusy replies are the daemon's ServiceBusy — counted as rejections,
 *  which the sanity gate still requires to be zero for polite load. */
void
PumpSocketPhase(const std::string& socket_path, const ServiceRequest& proto,
                size_t count, TenantRun& run, Bytes* first_payload)
{
    SocketClient client(socket_path);
    for (size_t i = 0; i < count; ++i) {
        const Clock::time_point t0 = Clock::now();
        ServiceResponse response = client.Call(proto);
        run.latency.Record(static_cast<uint64_t>(
            Seconds(t0, Clock::now()) * 1e9));
        if (response.status == Errc::kBusy) ++run.rejected;
        else if (response.status != Errc::kOk) ++run.failed;
        else if (first_payload != nullptr && first_payload->empty())
            *first_payload = std::move(response.payload);
    }
}

}  // namespace

int
main(int argc, char** argv)
{
    try {
        ServiceBenchConfig config;
        config.tenants = bench::EnvSize("FPC_BENCH_SERVICE_TENANTS", 4);
        config.requests = bench::EnvSize("FPC_BENCH_SERVICE_REQUESTS", 48);
        config.values = bench::EnvSize("FPC_BENCH_SERVICE_VALUES", 65536);
        config.workers = bench::EnvSize("FPC_BENCH_SERVICE_WORKERS", 4);
        config.window = bench::EnvSize("FPC_BENCH_SERVICE_WINDOW", 8);
        config.backend = bench::EnvString("FPC_BENCH_SERVICE_BACKEND",
                                          "cpu");
        config.socket = bench::EnvString("FPC_BENCH_SERVICE_SOCKET", "");
        if (config.tenants == 0 || config.requests == 0 ||
            config.window == 0) {
            std::fprintf(stderr, "bench_service: zero-sized config\n");
            return 1;
        }
        const bool socket_mode = !config.socket.empty();

        std::unique_ptr<Service> owned_service;
        if (!socket_mode) {
            ServiceConfig service_config;
            service_config.workers = static_cast<int>(config.workers);
            service_config.queue_capacity =
                config.tenants * config.window + config.workers + 64;
            owned_service.reset(new Service(service_config));
            // The flooder may hold at most one request per worker; its
            // tight submit loop bounces off this cap with ServiceBusy.
            TenantQos flood_qos;
            flood_qos.max_in_flight =
                static_cast<uint32_t>(config.workers);
            owned_service->SetTenantQos("flood", flood_qos);
        }
        Service* service_ptr = owned_service.get();

        const size_t payload_bytes = config.values * sizeof(float);
        std::vector<Bytes> payloads;
        for (size_t t = 0; t < config.tenants; ++t) {
            payloads.push_back(SmoothPayload(config.values, t + 1));
        }
        // The flood tenant's precompressed container, so it can push
        // decompress load too (library path; the byte-identity of the
        // service path is service_test's job, throughput is ours).
        const Bytes flood_payload = SmoothPayload(config.values, 0x10ad);
        const Bytes flood_container =
            Compress(Algorithm::kSPspeed, flood_payload,
                     Options{}.with_threads(1));

        std::vector<TenantRun> runs(config.tenants);
        std::vector<Bytes> containers(config.tenants);

        // Compress phase: polite tenants + the flooder, concurrently.
        // Socket mode runs no flooder: every connection carries one
        // blocking request, so a remote flood cannot oversubscribe the
        // daemon's queue the way the in-process tight loop does.
        std::atomic<bool> flood_stop{false};
        size_t flood_rejected = 0;
        size_t flood_compress_ok = 0;
        size_t flood_decompress_ok = 0;
        size_t flood_failed = 0;
        double flood_s = 0.0;
        LatencyHistogram flood_latency;
        std::thread flooder;
        if (!socket_mode) flooder = std::thread([&] {
            const ServiceRequest comp = MakeRequest(
                ServiceVerb::kCompress, "flood", flood_payload,
                config.backend);
            const ServiceRequest decomp = MakeRequest(
                ServiceVerb::kDecompress, "flood", flood_container,
                config.backend);
            std::vector<std::pair<std::future<ServiceResponse>, bool>>
                open;
            const Clock::time_point t0 = Clock::now();
            uint64_t i = 0;
            while (!flood_stop.load(std::memory_order_relaxed)) {
                const bool is_compress = (i++ % 2) == 0;
                try {
                    ServiceRequest request = is_compress ? comp : decomp;
                    open.emplace_back(
                        service_ptr->Submit(std::move(request)),
                        is_compress);
                } catch (const ServiceBusy&) {
                    ++flood_rejected;
                    std::this_thread::yield();
                }
            }
            for (auto& [future, is_compress] : open) {
                const ServiceResponse response = future.get();
                if (response.status != Errc::kOk) ++flood_failed;
                else if (is_compress) ++flood_compress_ok;
                else ++flood_decompress_ok;
            }
            flood_s = Seconds(t0, Clock::now());
        });

        std::vector<std::thread> tenants;
        for (size_t t = 0; t < config.tenants; ++t) {
            tenants.emplace_back([&, t] {
                const std::string name = "t" + std::to_string(t);
                const ServiceRequest proto = MakeRequest(
                    ServiceVerb::kCompress, name, payloads[t],
                    config.backend);
                const Clock::time_point t0 = Clock::now();
                if (socket_mode) {
                    PumpSocketPhase(config.socket, proto, config.requests,
                                    runs[t], &containers[t]);
                } else {
                    PumpPhase(*service_ptr, proto, config.requests,
                              config.window, runs[t], &containers[t]);
                }
                runs[t].compress_s = Seconds(t0, Clock::now());
            });
        }
        for (std::thread& thread : tenants) thread.join();
        tenants.clear();
        flood_stop.store(true);
        if (flooder.joinable()) flooder.join();

        // Decompress phase: polite tenants only, against the containers
        // the compress phase produced.
        for (size_t t = 0; t < config.tenants; ++t) {
            tenants.emplace_back([&, t] {
                const std::string name = "t" + std::to_string(t);
                runs[t].compressed_bytes = containers[t].size();
                const ServiceRequest proto = MakeRequest(
                    ServiceVerb::kDecompress, name, containers[t],
                    config.backend);
                const Clock::time_point t0 = Clock::now();
                if (socket_mode) {
                    PumpSocketPhase(config.socket, proto, config.requests,
                                    runs[t], nullptr);
                } else {
                    PumpPhase(*service_ptr, proto, config.requests,
                              config.window, runs[t], nullptr);
                }
                runs[t].decompress_s = Seconds(t0, Clock::now());
            });
        }
        for (std::thread& thread : tenants) thread.join();
        if (!socket_mode) service_ptr->Stop();

        // The run is only a benchmark if the scheduler behaved: polite
        // tenants fully inside QoS, the flooder visibly throttled but
        // still served in both directions.
        bool sane = true;
        for (size_t t = 0; t < config.tenants; ++t) {
            if (runs[t].rejected != 0 || runs[t].failed != 0 ||
                containers[t].empty()) {
                std::fprintf(stderr,
                             "bench_service: polite tenant t%zu left QoS "
                             "(rejected %zu, failed %zu)\n",
                             t, runs[t].rejected, runs[t].failed);
                sane = false;
            }
            if (runs[t].latency.count != 2 * config.requests) {
                std::fprintf(stderr,
                             "bench_service: t%zu completed %" PRIu64
                             " of %zu requests\n",
                             t, runs[t].latency.count,
                             2 * config.requests);
                sane = false;
            }
        }
        if (!socket_mode && flood_rejected == 0) {
            std::fprintf(stderr, "bench_service: the flooder was never "
                                 "throttled — no saturation reached\n");
            sane = false;
        }
        if (!socket_mode &&
            (flood_compress_ok == 0 || flood_decompress_ok == 0 ||
             flood_failed != 0)) {
            std::fprintf(stderr,
                         "bench_service: flood traffic broken (compress "
                         "%zu, decompress %zu, failed %zu)\n",
                         flood_compress_ok, flood_decompress_ok,
                         flood_failed);
            sane = false;
        }
        if (!sane) return 1;

        // Cross-check the scheduler's own accounting: the registry's
        // flood series must agree with what the load threads observed.
        // Socket mode has no in-process scheduler to ask — ci_matrix.sh
        // checks the daemon's /metrics against the completed count.
        if (!socket_mode) {
            MetricsRegistry& registry = MetricsRegistry::Global();
            uint64_t registry_rejected = 0;
            for (const ServiceBusy::Reason reason :
                 {ServiceBusy::Reason::kQueueFull,
                  ServiceBusy::Reason::kInFlight,
                  ServiceBusy::Reason::kThrottled}) {
                registry_rejected +=
                    registry
                        .GetCounter("fpc_service_rejected_total", "",
                                    {{"tenant", "flood"},
                                     {"reason",
                                      ServiceBusyReasonName(reason)}})
                        ->Value();
            }
            if (registry_rejected != flood_rejected) {
                std::fprintf(stderr, "bench_service: registry rejects "
                                     "disagree with the load generator\n");
                return 1;
            }
            flood_latency = registry
                                .GetHistogram("fpc_service_request_ns", "",
                                              {{"tenant", "flood"}})
                                ->Snapshot();
        }

        std::string out;
        out.reserve(4096);
        char buf[512];
        std::snprintf(buf, sizeof(buf),
                      "{\"schema\": \"fpc.bench.v1\", \"config\": {"
                      "\"tenants\": %zu, \"requests_per_tenant\": %zu, "
                      "\"values_per_request\": %zu, \"workers\": %zu, "
                      "\"window\": %zu, \"threads\": %u, \"isa\": \"%s\", "
                      "\"transport\": \"%s\", "
                      "\"telemetry\": %s, \"fingerprint\": \"%s\"}, "
                      "\"results\": [",
                      config.tenants, config.requests, config.values,
                      config.workers, config.window,
                      std::max(1u, std::thread::hardware_concurrency()),
                      simd::IsaName(simd::DefaultIsa()),
                      socket_mode ? "socket" : "inproc",
                      kTelemetryEnabled ? "true" : "false",
                      Fingerprint(config).c_str());
        out += buf;

        for (size_t t = 0; t < config.tenants; ++t) {
            const double ratio =
                static_cast<double>(payload_bytes) /
                static_cast<double>(runs[t].compressed_bytes);
            const double total_bytes = static_cast<double>(
                config.requests * payload_bytes);
            std::snprintf(buf, sizeof(buf),
                          "%s{\"algorithm\": \"SPspeed\", \"backend\": "
                          "\"service:%s:t%zu\", \"ratio\": %.6f, "
                          "\"compress_gbps\": %.6f, "
                          "\"decompress_gbps\": %.6f, \"histograms\": {",
                          t == 0 ? "" : ", ", config.backend.c_str(), t,
                          ratio, total_bytes / runs[t].compress_s / 1e9,
                          total_bytes / runs[t].decompress_s / 1e9);
            out += buf;
            AppendDigest(out, "request", runs[t].latency, true);
            out += "}}";
        }
        // The flooder's entry: accepted traffic only, over its whole
        // run; rejections are free by design (Submit never blocks).
        if (!socket_mode) {
            const double ratio =
                static_cast<double>(flood_payload.size()) /
                static_cast<double>(flood_container.size());
            std::snprintf(buf, sizeof(buf),
                          ", {\"algorithm\": \"SPspeed\", \"backend\": "
                          "\"service:%s:flood\", \"ratio\": %.6f, "
                          "\"compress_gbps\": %.6f, "
                          "\"decompress_gbps\": %.6f, \"histograms\": {",
                          config.backend.c_str(), ratio,
                          flood_compress_ok * payload_bytes / flood_s /
                              1e9,
                          flood_decompress_ok * payload_bytes / flood_s /
                              1e9);
            out += buf;
            AppendDigest(out, "request", flood_latency, true);
            out += "}}";
        }
        out += "]}";

        for (size_t t = 0; t < config.tenants; ++t) {
            std::fprintf(stderr,
                         "bench_service: t%zu  p50 %" PRIu64
                         " us  p99 %" PRIu64 " us  (%zu+%zu requests)\n",
                         t, runs[t].latency.P50() / 1000,
                         runs[t].latency.P99() / 1000, config.requests,
                         config.requests);
        }
        if (socket_mode) {
            std::fprintf(stderr,
                         "bench_service: drove daemon at %s (%zu tenants"
                         " x 2x%zu requests)\n",
                         config.socket.c_str(), config.tenants,
                         config.requests);
        } else {
            std::fprintf(stderr,
                         "bench_service: flood  %zu served (%zu+%zu), %zu "
                         "throttled (ServiceBusy) in %.2fs\n",
                         flood_compress_ok + flood_decompress_ok,
                         flood_compress_ok, flood_decompress_ok,
                         flood_rejected, flood_s);
        }

        if (argc > 1) {
            std::FILE* f = std::fopen(argv[1], "w");
            if (f == nullptr) {
                std::fprintf(stderr, "bench_service: cannot open %s\n",
                             argv[1]);
                return 1;
            }
            std::fprintf(f, "%s\n", out.c_str());
            std::fclose(f);
            std::fprintf(stderr, "bench report written to %s\n", argv[1]);
        } else {
            std::printf("%s\n", out.c_str());
        }
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "bench_service: %s\n", e.what());
        return 1;
    }
}
