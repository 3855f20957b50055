/**
 * @file
 * fpc::Service scheduler tests (src/service/service.h): byte identity
 * between the service path and the library path on every algorithm x
 * mode x backend, typed backpressure (queue, in-flight cap, token
 * bucket), round-robin fairness under a flooding tenant, arena-pool
 * reuse, the per-tenant live-metrics series, and the shared Errc
 * mapping.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <future>
#include <sstream>
#include <string>
#include <vector>

#include "core/codec.h"
#include "core/errc.h"
#include "core/executor.h"
#include "core/metrics.h"
#include "service/service.h"

namespace fpc {
namespace {

/** Deterministic compressible float payload (~13 chunks). */
Bytes
MakePayload(size_t values = 50000, unsigned seed = 1)
{
    std::vector<float> data(values);
    uint32_t state = seed * 2654435761u + 12345u;
    float walk = 1.0f;
    for (size_t i = 0; i < values; ++i) {
        state = state * 1664525u + 1013904223u;
        walk += static_cast<float>(state >> 20) * 1e-6f;
        data[i] = std::sin(static_cast<float>(i) * 0.001f) + walk * 0.01f;
    }
    return Bytes(AsBytes(data).begin(), AsBytes(data).end());
}

ServiceConfig
MakeConfig(int workers, size_t queue_capacity = 256,
           bool start_paused = false)
{
    ServiceConfig config;
    config.workers = workers;
    config.queue_capacity = queue_capacity;
    config.start_paused = start_paused;
    return config;
}

/** The live counter of @p tenant's successful compress requests. */
Counter*
OkCompressions(const std::string& tenant)
{
    return MetricsRegistry::Global().GetCounter(
        "fpc_service_requests_total",
        "Completed requests by tenant, verb, and status.",
        {{"tenant", tenant}, {"verb", "compress"}, {"status", "ok"}});
}

/** What a /metrics scrape reads: the sum of every sample of
 *  @p exposition named @p name whose label set holds each of
 *  @p labels (rendered `key="value"`). */
uint64_t
Scraped(const std::string& exposition, const std::string& name,
        const std::vector<std::string>& labels)
{
    uint64_t sum = 0;
    std::istringstream in(exposition);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') continue;
        const size_t space = line.rfind(' ');
        const size_t brace = line.find('{');
        const std::string sample_name =
            line.substr(0, std::min(brace, space));
        if (sample_name != name) continue;
        const std::string label_text =
            brace < space ? line.substr(brace, space - brace) : "";
        bool match = true;
        for (const std::string& label : labels) {
            match = match && label_text.find(label) != std::string::npos;
        }
        if (match) sum += std::stoull(line.substr(space + 1));
    }
    return sum;
}

ServiceRequest
CompressRequest(const Bytes& payload, Algorithm algorithm,
                const std::string& executor = "", bool adaptive = false,
                const std::string& tenant = "default")
{
    ServiceRequest request;
    request.verb = ServiceVerb::kCompress;
    request.tenant = tenant;
    request.algorithm = algorithm;
    request.adaptive = adaptive;
    request.executor = executor;
    request.payload = payload;
    return request;
}

TEST(ServiceTest, ByteIdenticalToLibraryOnEveryAlgorithmAndBackend)
{
    const Bytes payload = MakePayload();
    Service service(MakeConfig(2));
    for (const char* backend : {"cpu", "gpusim:4090"}) {
        for (const Algorithm algorithm :
             {Algorithm::kSPspeed, Algorithm::kSPratio, Algorithm::kDPspeed,
              Algorithm::kDPratio}) {
            for (const bool adaptive : {false, true}) {
                Options options;
                options.with_executor(backend).with_threads(1).with_adaptive(
                    adaptive);
                const Bytes library =
                    Compress(algorithm, ByteSpan(payload), options);

                const ServiceResponse compressed = service.Call(
                    CompressRequest(payload, algorithm, backend, adaptive));
                ASSERT_EQ(compressed.status, Errc::kOk)
                    << compressed.error;
                EXPECT_EQ(compressed.payload, library)
                    << AlgorithmName(algorithm) << "@" << backend
                    << (adaptive ? " auto" : " fixed")
                    << ": service bytes diverged from the library";

                ServiceRequest decode;
                decode.verb = ServiceVerb::kDecompress;
                decode.executor = backend;
                decode.payload = compressed.payload;
                const ServiceResponse restored =
                    service.Call(std::move(decode));
                ASSERT_EQ(restored.status, Errc::kOk) << restored.error;
                EXPECT_EQ(restored.payload, payload);
            }
        }
    }
}

TEST(ServiceTest, RangeAndInspectVerbs)
{
    const Bytes payload = MakePayload();
    Service service(MakeConfig(1));
    const ServiceResponse compressed =
        service.Call(CompressRequest(payload, Algorithm::kSPspeed));
    ASSERT_EQ(compressed.status, Errc::kOk);

    ServiceRequest range;
    range.verb = ServiceVerb::kDecompressRange;
    range.payload = compressed.payload;
    range.range_first = 1000;
    range.range_count = 250;
    const ServiceResponse slice = service.Call(std::move(range));
    ASSERT_EQ(slice.status, Errc::kOk) << slice.error;
    ASSERT_EQ(slice.payload.size(), 250 * sizeof(float));
    EXPECT_TRUE(std::equal(slice.payload.begin(), slice.payload.end(),
                           payload.begin() + 1000 * sizeof(float)));

    ServiceRequest inspect;
    inspect.verb = ServiceVerb::kInspect;
    inspect.payload = compressed.payload;
    const ServiceResponse info = service.Call(std::move(inspect));
    ASSERT_EQ(info.status, Errc::kOk);
    const std::string json(reinterpret_cast<const char*>(
                               info.payload.data()),
                           info.payload.size());
    EXPECT_NE(json.find("\"algorithm\": \"SPspeed\""), std::string::npos);
    EXPECT_NE(json.find("\"mode\": \"fixed\""), std::string::npos);
}

TEST(ServiceTest, ExecutionErrorsArriveAsTypedStatusNotExceptions)
{
    Service service(MakeConfig(1));

    ServiceRequest corrupt;
    corrupt.verb = ServiceVerb::kDecompress;
    corrupt.payload = Bytes(256, std::byte{0x5a});
    const ServiceResponse bad = service.Call(std::move(corrupt));
    EXPECT_EQ(bad.status, Errc::kCorrupt);
    EXPECT_FALSE(bad.error.empty());
    EXPECT_TRUE(bad.payload.empty());

    const ServiceResponse unknown = service.Call(
        CompressRequest(MakePayload(4096), Algorithm::kSPspeed, "tpu"));
    EXPECT_EQ(unknown.status, Errc::kUsage);

    EXPECT_GE(service.counters().failed, 2u);
}

TEST(ServiceTest, ControlVerbsAreNotSchedulable)
{
    Service service(MakeConfig(1));
    ServiceRequest stats;
    stats.verb = ServiceVerb::kStats;
    EXPECT_THROW(service.Submit(std::move(stats)), UsageError);
    ServiceRequest shutdown;
    shutdown.verb = ServiceVerb::kShutdown;
    EXPECT_THROW(service.Submit(std::move(shutdown)), UsageError);
}

TEST(ServiceTest, QueueFullRejectsWithTypedBusy)
{
    // Paused service: submissions stack up deterministically.
    Service service(MakeConfig(1, 4, true));
    const Bytes payload = MakePayload(4096);
    std::vector<std::future<ServiceResponse>> accepted;
    for (int i = 0; i < 4; ++i) {
        accepted.push_back(
            service.Submit(CompressRequest(payload, Algorithm::kSPspeed)));
    }
    try {
        service.Submit(CompressRequest(payload, Algorithm::kSPspeed));
        FAIL() << "5th submission into a 4-deep queue did not throw";
    } catch (const ServiceBusy& busy) {
        EXPECT_EQ(busy.reason(), ServiceBusy::Reason::kQueueFull);
    }
    EXPECT_EQ(service.counters().rejected_queue_full, 1u);
    service.Resume();
    for (auto& future : accepted) {
        EXPECT_EQ(future.get().status, Errc::kOk);
    }
}

TEST(ServiceTest, InFlightCapThrottlesOneTenantOnly)
{
    Service service(MakeConfig(1, 64, true));
    TenantQos capped;
    capped.max_in_flight = 8;
    service.SetTenantQos("flooder", capped);
    const Bytes payload = MakePayload(4096);

    std::vector<std::future<ServiceResponse>> accepted;
    size_t rejected = 0;
    for (int i = 0; i < 20; ++i) {
        try {
            accepted.push_back(service.Submit(CompressRequest(
                payload, Algorithm::kSPspeed, "", false, "flooder")));
        } catch (const ServiceBusy& busy) {
            EXPECT_EQ(busy.reason(), ServiceBusy::Reason::kInFlight);
            ++rejected;
        }
    }
    EXPECT_EQ(accepted.size(), 8u);
    EXPECT_EQ(rejected, 12u);

    // The other tenant is not at its cap: all of its submissions land.
    for (int i = 0; i < 5; ++i) {
        accepted.push_back(service.Submit(CompressRequest(
            payload, Algorithm::kSPspeed, "", false, "polite")));
    }
    service.Resume();
    for (auto& future : accepted) {
        EXPECT_EQ(future.get().status, Errc::kOk);
    }
    EXPECT_EQ(service.counters().rejected_in_flight, 12u);
}

TEST(ServiceTest, TokenBucketThrottlesByPayloadBytes)
{
    Service service(MakeConfig(1, 256, true));
    const Bytes payload = MakePayload(4096);  // 16 KiB
    // Burst covers exactly three requests; the refill rate is negligible
    // on the test's timescale.
    TenantQos metered;
    metered.rate_bytes_per_sec = 1;
    metered.burst_bytes = 3 * payload.size();
    service.SetTenantQos("metered", metered);
    std::vector<std::future<ServiceResponse>> accepted;
    for (int i = 0; i < 3; ++i) {
        accepted.push_back(service.Submit(CompressRequest(
            payload, Algorithm::kSPspeed, "", false, "metered")));
    }
    try {
        service.Submit(CompressRequest(payload, Algorithm::kSPspeed, "",
                                       false, "metered"));
        FAIL() << "4th submission past the burst did not throw";
    } catch (const ServiceBusy& busy) {
        EXPECT_EQ(busy.reason(), ServiceBusy::Reason::kThrottled);
    }
    EXPECT_EQ(service.counters().rejected_throttled, 1u);
    service.Resume();
    for (auto& future : accepted) {
        EXPECT_EQ(future.get().status, Errc::kOk);
    }
}

TEST(ServiceTest, RoundRobinKeepsFloodedTenantFromStarvingAnother)
{
    // One worker, paused: stage a 30-deep flood from A, then 5 requests
    // from B. Round-robin dispatch alternates A,B,A,B..., so B's last
    // request completes while A still holds most of its backlog. The
    // requests run the ratio pipeline over ~200 KB each, so the
    // remaining backlog is many milliseconds of runway — the snapshot
    // below races the worker by microseconds only.
    // Completions are read as registry deltas under tenant names no
    // other test uses (the registry is process-wide).
    Counter* flooded = OkCompressions("rr-flood");
    Counter* polite_done = OkCompressions("rr-polite");
    const uint64_t flooded_before = flooded->Value();
    const uint64_t polite_before = polite_done->Value();
    Service service(MakeConfig(1, 64, true));
    const Bytes payload = MakePayload();
    std::vector<std::future<ServiceResponse>> flood;
    for (int i = 0; i < 30; ++i) {
        flood.push_back(service.Submit(CompressRequest(
            payload, Algorithm::kSPratio, "", false, "rr-flood")));
    }
    std::vector<std::future<ServiceResponse>> polite;
    for (int i = 0; i < 5; ++i) {
        polite.push_back(service.Submit(CompressRequest(
            payload, Algorithm::kSPratio, "", false, "rr-polite")));
    }
    service.Resume();
    for (auto& future : polite) {
        EXPECT_EQ(future.get().status, Errc::kOk);
    }
    // The polite tenant is done; under strict alternation the flooder
    // has executed ~5-6 of 30. Allow slack for the worker racing ahead
    // between .get() calls.
    ASSERT_EQ(polite_done->Value() - polite_before, 5u);
    EXPECT_LE(flooded->Value() - flooded_before, 15u)
        << "flooding tenant starved the polite tenant";
    for (auto& future : flood) {
        EXPECT_EQ(future.get().status, Errc::kOk);
    }
}

TEST(ServiceTest, ArenaPoolWarmsUpAndPlateaus)
{
    Service service(MakeConfig(1));
    const Bytes payload = MakePayload();
    for (int i = 0; i < 10; ++i) {
        const ServiceResponse response =
            service.Call(CompressRequest(payload, Algorithm::kSPratio));
        ASSERT_EQ(response.status, Errc::kOk);
    }
    // Every request leased from the shared pool; after the first request
    // warmed it, later requests reuse instead of constructing cold.
    EXPECT_GE(service.arenas().Leases(), 10u);
    EXPECT_LE(service.arenas().Created(), 2u)
        << "arena pool kept constructing cold arenas instead of reusing";
}

TEST(ServiceTest, PerTenantCountersLandInTheRegistry)
{
    // Every per-tenant quantity a service operator reads — requests,
    // rejects, failures, bytes in and out, queue wait, request latency —
    // comes back from the same exposition a /metrics scrape returns.
    // Deltas under tenant names no other test uses: the registry is
    // process-wide.
    const std::string climate = "registry-climate";
    const std::string physics = "registry-physics";
    const std::string before = MetricsRegistry::Global().Exposition();
    const Bytes payload = MakePayload(8192);
    const Bytes garbage(64, std::byte{0x5a});
    {
        // Paused, so the staged requests provably wait in the queue and
        // the in-flight cap deterministically bounces the fifth.
        Service service(MakeConfig(2, 256, /*start_paused=*/true));
        TenantQos qos;
        qos.max_in_flight = 4;
        service.SetTenantQos(climate, qos);
        std::vector<std::future<ServiceResponse>> staged;
        for (int i = 0; i < 3; ++i) {
            staged.push_back(service.Submit(CompressRequest(
                payload, Algorithm::kSPspeed, "", false, climate)));
        }
        ServiceRequest corrupt;
        corrupt.verb = ServiceVerb::kDecompress;
        corrupt.tenant = climate;
        corrupt.payload = garbage;
        staged.push_back(service.Submit(std::move(corrupt)));
        EXPECT_THROW((void)service.Submit(CompressRequest(
                         payload, Algorithm::kSPspeed, "", false, climate)),
                     ServiceBusy);
        service.Resume();
        for (int i = 0; i < 3; ++i) {
            EXPECT_EQ(staged[i].get().status, Errc::kOk);
        }
        EXPECT_EQ(staged[3].get().status, Errc::kCorrupt);
        ASSERT_EQ(service
                      .Call(CompressRequest(payload, Algorithm::kDPspeed,
                                            "", false, physics))
                      .status,
                  Errc::kOk);
    }
    const std::string after = MetricsRegistry::Global().Exposition();
    const auto delta = [&](const std::string& name,
                           const std::vector<std::string>& labels) {
        return Scraped(after, name, labels) - Scraped(before, name, labels);
    };
    const std::string tenant = "tenant=\"" + climate + "\"";

    // Requests (every status) and failures (the non-ok statuses).
    EXPECT_EQ(delta("fpc_service_requests_total", {tenant}), 4u);
    EXPECT_EQ(delta("fpc_service_requests_total",
                    {tenant, "status=\"ok\""}),
              3u);
    EXPECT_EQ(delta("fpc_service_requests_total",
                    {tenant, "verb=\"decompress\"", "status=\"corrupt\""}),
              1u);
    // Rejects, by reason.
    EXPECT_EQ(delta("fpc_service_rejected_total", {tenant}), 1u);
    EXPECT_EQ(delta("fpc_service_rejected_total",
                    {tenant, "reason=\"in-flight\""}),
              1u);
    // Bytes: rejected requests are not counted in.
    EXPECT_EQ(delta("fpc_service_bytes_total",
                    {tenant, "direction=\"in\""}),
              3 * payload.size() + garbage.size());
    EXPECT_GT(delta("fpc_service_bytes_total",
                    {tenant, "direction=\"out\""}),
              0u);
    // Queue wait: one sample per executed request, a nonzero sum (the
    // requests sat in a paused queue).
    EXPECT_EQ(delta("fpc_service_queue_wait_ns_count", {tenant}), 4u);
    EXPECT_GT(delta("fpc_service_queue_wait_ns_sum", {tenant}), 0u);
    // Request latency: count, +Inf bucket, and quantiles off the handle.
    EXPECT_EQ(delta("fpc_service_request_ns_count", {tenant}), 4u);
    EXPECT_EQ(delta("fpc_service_request_ns_bucket",
                    {tenant, "le=\"+Inf\""}),
              4u);
    const LatencyHistogram latency =
        MetricsRegistry::Global()
            .GetHistogram("fpc_service_request_ns", "",
                          {{"tenant", climate}})
            ->Snapshot();
    EXPECT_GE(latency.count, 4u);
    EXPECT_GT(latency.P99(), 0u);
    // The other tenant's series are its own.
    EXPECT_EQ(delta("fpc_service_requests_total",
                    {"tenant=\"" + physics + "\""}),
              1u);
    EXPECT_EQ(delta("fpc_service_rejected_total",
                    {"tenant=\"" + physics + "\""}),
              0u);
}

TEST(ServiceTest, LiveMetricsCountersTrackRequests)
{
    // The scheduler feeds the process-global registry, so assert on
    // deltas: other tests in this binary (and earlier requests in this
    // one) have already moved the absolute values.
    MetricsRegistry& registry = MetricsRegistry::Global();
    Counter* ok_compress = registry.GetCounter(
        "fpc_service_requests_total",
        "Completed requests by tenant, verb, and status.",
        {{"tenant", "metrics-tenant"},
         {"verb", "compress"},
         {"status", "ok"}});
    Counter* bytes_in = registry.GetCounter(
        "fpc_service_bytes_total",
        "Request payload and response bytes by tenant and direction.",
        {{"tenant", "metrics-tenant"}, {"direction", "in"}});
    Histogram* request_hist = registry.GetHistogram(
        "fpc_service_request_ns",
        "Per-request end-to-end latency (submit to completion) by "
        "tenant, nanoseconds.",
        {{"tenant", "metrics-tenant"}});
    const uint64_t ok_before = ok_compress->Value();
    const uint64_t bytes_before = bytes_in->Value();
    const uint64_t hist_before = request_hist->Snapshot().count;

    const Bytes payload = MakePayload(20000);
    Service service(MakeConfig(2));
    constexpr size_t kRequests = 3;
    for (size_t i = 0; i < kRequests; ++i) {
        const ServiceResponse response = service.Call(CompressRequest(
            payload, Algorithm::kSPspeed, "", false, "metrics-tenant"));
        ASSERT_EQ(response.status, Errc::kOk) << response.error;
    }
    service.Stop();

    EXPECT_EQ(ok_compress->Value() - ok_before, kRequests);
    EXPECT_EQ(bytes_in->Value() - bytes_before,
              kRequests * payload.size());
    EXPECT_EQ(request_hist->Snapshot().count - hist_before, kRequests);

    // The gauges are levels, not totals: everything submitted has
    // completed, so both must read zero for this idle scheduler.
    EXPECT_EQ(registry
                  .GetGauge("fpc_service_queue_depth",
                            "Requests accepted but not yet dispatched "
                            "to a worker.")
                  ->Value(),
              0);
    EXPECT_EQ(registry
                  .GetGauge("fpc_service_in_flight",
                            "Requests currently executing.")
                  ->Value(),
              0);
}

TEST(ServiceTest, LiveMetricsCountRejections)
{
    MetricsRegistry& registry = MetricsRegistry::Global();
    Counter* rejected = registry.GetCounter(
        "fpc_service_rejected_total",
        "Requests rejected at admission by tenant and reason.",
        {{"tenant", "rejected-tenant"}, {"reason", "in-flight"}});
    const uint64_t before = rejected->Value();

    // One worker, held back, and an in-flight cap of 1: the second
    // submission must bounce and land on the reject counter.
    Service service(MakeConfig(1, 256, /*start_paused=*/true));
    TenantQos qos;
    qos.max_in_flight = 1;
    service.SetTenantQos("rejected-tenant", qos);

    const Bytes payload = MakePayload(20000);
    auto first = service.Submit(CompressRequest(
        payload, Algorithm::kSPspeed, "", false, "rejected-tenant"));
    EXPECT_THROW(
        (void)service.Submit(CompressRequest(
            payload, Algorithm::kSPspeed, "", false, "rejected-tenant")),
        ServiceBusy);
    service.Resume();
    EXPECT_EQ(first.get().status, Errc::kOk);
    service.Stop();

    EXPECT_EQ(rejected->Value() - before, 1u);
}

TEST(ServiceTest, SubmitAfterStopIsAUsageError)
{
    Service service(MakeConfig(1));
    service.Stop();
    EXPECT_THROW(
        service.Submit(CompressRequest(MakePayload(64),
                                       Algorithm::kSPspeed)),
        UsageError);
}

TEST(ServiceTest, StopDrainsAStagedBacklog)
{
    std::vector<std::future<ServiceResponse>> staged;
    {
        Service service(MakeConfig(2, 256, true));
        const Bytes payload = MakePayload(8192);
        for (int i = 0; i < 6; ++i) {
            staged.push_back(service.Submit(
                CompressRequest(payload, Algorithm::kSPspeed)));
        }
        // Destruction stops the service, which must drain — never drop —
        // accepted work, even work that dispatch never started.
    }
    for (auto& future : staged) {
        EXPECT_EQ(future.get().status, Errc::kOk);
    }
}

TEST(ErrcTest, ExitCodesAndNamesMatchTheWireContract)
{
    EXPECT_EQ(ExitCodeOf(Errc::kOk), 0);
    EXPECT_EQ(ExitCodeOf(Errc::kInternal), 1);
    EXPECT_EQ(ExitCodeOf(Errc::kUsage), 2);
    EXPECT_EQ(ExitCodeOf(Errc::kCorrupt), 3);
    EXPECT_EQ(ExitCodeOf(Errc::kBusy), 4);
    EXPECT_STREQ(ErrcName(Errc::kOk), "ok");
    EXPECT_STREQ(ErrcName(Errc::kBusy), "busy");
}

TEST(ErrcTest, CurrentErrcClassifiesTheActiveException)
{
    auto classify = [](auto&& thrower) {
        try {
            thrower();
        } catch (...) {
            return CurrentErrc();
        }
        return Errc::kOk;
    };
    EXPECT_EQ(classify([] { throw UsageError("x"); }), Errc::kUsage);
    EXPECT_EQ(classify([] { throw CorruptStreamError("x"); }),
              Errc::kCorrupt);
    EXPECT_EQ(classify([] {
        throw ServiceBusy(ServiceBusy::Reason::kQueueFull, "x");
    }),
              Errc::kBusy);
    EXPECT_EQ(classify([] { throw std::runtime_error("x"); }),
              Errc::kInternal);
    EXPECT_STREQ(ServiceBusyReasonName(ServiceBusy::Reason::kThrottled),
                 "throttled");
}

}  // namespace
}  // namespace fpc
