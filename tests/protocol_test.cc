/**
 * @file
 * fpcd wire-protocol tests (src/service/protocol.h + server/client):
 * frame round trips, hostile-input sweeps (bit mutations, truncations,
 * memory-bomb length declarations — every one must fail typed, never
 * crash or hang), the daemon's garbage tolerance, concurrent client
 * roundtrips against a live SocketServer, and the event loop's
 * transport rules: no thread or stack per connection, the stall cut,
 * the connection cap, accepting after descriptor exhaustion, and the
 * HTTP metrics exporter.
 */
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "core/codec.h"
#include "core/errc.h"
#include "core/metrics.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"

namespace fpc {
namespace {

Bytes
MakePayload(size_t values = 20000)
{
    std::vector<float> data(values);
    for (size_t i = 0; i < values; ++i) {
        data[i] = std::cos(static_cast<float>(i) * 0.002f) * 3.5f;
    }
    return Bytes(AsBytes(data).begin(), AsBytes(data).end());
}

/** A unique, sockaddr_un-sized socket path per test. */
std::string
TestSocketPath(const char* tag)
{
    return "/tmp/fpc_proto_" + std::string(tag) + "_" +
           std::to_string(::getpid()) + ".sock";
}

/** The integer value of @p key in a flat one-line JSON object. */
uint64_t
JsonField(const std::string& json, const std::string& key)
{
    const std::string needle = "\"" + key + "\": ";
    const size_t at = json.find(needle);
    EXPECT_NE(at, std::string::npos) << key << " missing from " << json;
    return at == std::string::npos
               ? 0
               : std::stoull(json.substr(at + needle.size()));
}

/** Bound every later read on @p fd by @p timeout (SO_RCVTIMEO), so a
 *  reply that never comes fails the test instead of hanging it. */
void
SetRecvTimeout(int fd, std::chrono::milliseconds timeout)
{
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(timeout.count() / 1000);
    tv.tv_usec = static_cast<suseconds_t>((timeout.count() % 1000) * 1000);
    ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv), 0);
}

/** One request over a raw connection; throws when no reply arrives
 *  within five seconds. */
ServiceResponse
CallFd(int fd, const ServiceRequest& request)
{
    SetRecvTimeout(fd, std::chrono::milliseconds(5000));
    WriteFrame(fd, ByteSpan(EncodeRequest(request)));
    Bytes body;
    if (!ReadFrame(fd, body)) {
        throw std::runtime_error("connection closed before a reply");
    }
    return DecodeResponse(ByteSpan(body));
}

ServiceRequest
HealthRequest()
{
    ServiceRequest request;
    request.verb = ServiceVerb::kHealth;
    return request;
}

/** A numeric field of /proc/self/status ("Threads", "VmSize" in kB). */
int64_t
ProcStatus(const std::string& key)
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind(key + ":", 0) == 0) {
            return std::stoll(line.substr(key.size() + 1));
        }
    }
    ADD_FAILURE() << key << " missing from /proc/self/status";
    return 0;
}

uint64_t
CounterValue(const char* name)
{
    return MetricsRegistry::Global().GetCounter(name, "")->Value();
}

/** RAII socketpair for fd-level frame tests. */
struct SocketPair {
    int fds[2] = {-1, -1};
    SocketPair() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0); }
    ~SocketPair()
    {
        if (fds[0] >= 0) ::close(fds[0]);
        if (fds[1] >= 0) ::close(fds[1]);
    }
};

TEST(ProtocolTest, RequestFrameRoundTripsEveryField)
{
    ServiceRequest request;
    request.verb = ServiceVerb::kDecompressRange;
    request.tenant = "climate-42";
    request.algorithm = Algorithm::kDPratio;
    request.adaptive = true;
    request.executor = "gpusim:a100";
    request.range_first = 123456789;
    request.range_count = 987;
    request.payload = MakePayload(64);

    const ServiceRequest back = DecodeRequest(ByteSpan(EncodeRequest(request)));
    EXPECT_EQ(back.verb, request.verb);
    EXPECT_EQ(back.tenant, request.tenant);
    EXPECT_EQ(back.algorithm, request.algorithm);
    EXPECT_EQ(back.adaptive, request.adaptive);
    EXPECT_EQ(back.executor, request.executor);
    EXPECT_EQ(back.range_first, request.range_first);
    EXPECT_EQ(back.range_count, request.range_count);
    EXPECT_EQ(back.payload, request.payload);
}

TEST(ProtocolTest, ResponseFrameRoundTripsStatusAndError)
{
    ServiceResponse response;
    response.status = Errc::kBusy;
    response.error = "tenant 'x' throttled";
    const ServiceResponse back =
        DecodeResponse(ByteSpan(EncodeResponse(response)));
    EXPECT_EQ(back.status, Errc::kBusy);
    EXPECT_EQ(back.error, response.error);
    EXPECT_TRUE(back.payload.empty());

    ServiceResponse ok;
    ok.payload = MakePayload(32);
    const ServiceResponse ok_back =
        DecodeResponse(ByteSpan(EncodeResponse(ok)));
    EXPECT_EQ(ok_back.status, Errc::kOk);
    EXPECT_EQ(ok_back.payload, ok.payload);
}

TEST(ProtocolTest, MutationSweepNeverCrashesTheDecoder)
{
    ServiceRequest request;
    request.tenant = "t";
    request.executor = "cpu";
    request.payload = MakePayload(16);
    const Bytes frame = EncodeRequest(request);

    // Flip every bit of the header region and decode: the only allowed
    // outcomes are a clean decode (payload-region flips change data, not
    // framing) or a typed CorruptStreamError. Same for the response.
    std::mt19937 rng(7);
    size_t rejected = 0;
    for (size_t at = 0; at < frame.size(); ++at) {
        for (int bit = 0; bit < 8; ++bit) {
            Bytes mutated = frame;
            mutated[at] ^= std::byte{static_cast<uint8_t>(1u << bit)};
            try {
                (void)DecodeRequest(ByteSpan(mutated));
            } catch (const CorruptStreamError&) {
                ++rejected;
            }
        }
    }
    EXPECT_GT(rejected, 0u) << "no header mutation was ever rejected";

    // Random garbage of assorted sizes, both decoders.
    for (int round = 0; round < 256; ++round) {
        Bytes garbage(rng() % 96);
        for (std::byte& b : garbage) {
            b = std::byte{static_cast<uint8_t>(rng())};
        }
        try {
            (void)DecodeRequest(ByteSpan(garbage));
        } catch (const CorruptStreamError&) {
        }
        try {
            (void)DecodeResponse(ByteSpan(garbage));
        } catch (const CorruptStreamError&) {
        }
    }
}

TEST(ProtocolTest, TruncationSweepFailsTypedInTheHeaderRegion)
{
    ServiceRequest request;
    request.tenant = "tenant";
    request.executor = "gpusim:4090";
    request.payload = MakePayload(16);
    const Bytes frame = EncodeRequest(request);
    // Every prefix that cuts inside the fixed fields must throw; a cut
    // inside the payload region just yields a shorter payload.
    const size_t header_bytes = frame.size() - request.payload.size();
    for (size_t keep = 0; keep < header_bytes; ++keep) {
        EXPECT_THROW(
            (void)DecodeRequest(ByteSpan(frame).first(keep)),
            CorruptStreamError)
            << "truncation at byte " << keep << " decoded";
    }
}

TEST(ProtocolTest, OversizedLengthDeclarationIsRejectedBeforeAllocating)
{
    SocketPair pair;
    const uint32_t bomb = UINT32_MAX;  // a 4 GiB declaration
    ASSERT_EQ(::send(pair.fds[0], &bomb, sizeof bomb, 0),
              static_cast<ssize_t>(sizeof bomb));
    Bytes body;
    try {
        (void)ReadFrame(pair.fds[1], body);
        FAIL() << "4 GiB frame declaration was accepted";
    } catch (const CorruptStreamError& e) {
        EXPECT_NE(std::string(e.what()).find("cap"), std::string::npos);
    }
    // Nothing was allocated for the declared length.
    EXPECT_EQ(body.capacity(), 0u);
}

TEST(ProtocolTest, PeerVanishingMidFrameIsATypedErrorNotAHang)
{
    {
        // Close inside the body: declared 100 bytes, sent 10.
        SocketPair pair;
        const uint32_t declared = 100;
        ASSERT_EQ(::send(pair.fds[0], &declared, sizeof declared, 0),
                  static_cast<ssize_t>(sizeof declared));
        char partial[10] = {};
        ASSERT_EQ(::send(pair.fds[0], partial, sizeof partial, 0),
                  static_cast<ssize_t>(sizeof partial));
        ::close(pair.fds[0]);
        pair.fds[0] = -1;
        Bytes body;
        EXPECT_THROW((void)ReadFrame(pair.fds[1], body),
                     CorruptStreamError);
    }
    {
        // Close inside the 4-byte length prefix itself.
        SocketPair pair;
        const char half[2] = {1, 0};
        ASSERT_EQ(::send(pair.fds[0], half, sizeof half, 0), 2);
        ::close(pair.fds[0]);
        pair.fds[0] = -1;
        Bytes body;
        EXPECT_THROW((void)ReadFrame(pair.fds[1], body),
                     CorruptStreamError);
    }
    {
        // Close at a frame boundary: clean EOF, not an error.
        SocketPair pair;
        ::close(pair.fds[0]);
        pair.fds[0] = -1;
        Bytes body;
        EXPECT_FALSE(ReadFrame(pair.fds[1], body));
    }
}

TEST(ProtocolTest, DaemonAnswersGarbageWithATypedErrorAndSurvives)
{
    ServerConfig config;
    config.socket_path = TestSocketPath("garbage");
    config.service.workers = 1;
    SocketServer server(config);

    // A hostile connection: a well-framed body of garbage bytes. The
    // server must reply with a typed error frame and drop the
    // connection — and keep serving others.
    {
        const int fd = ConnectUnix(config.socket_path);
        Bytes garbage(64, std::byte{0xee});
        WriteFrame(fd, ByteSpan(garbage));
        Bytes reply;
        ASSERT_TRUE(ReadFrame(fd, reply));
        const ServiceResponse response = DecodeResponse(ByteSpan(reply));
        EXPECT_EQ(response.status, Errc::kCorrupt);
        // The connection is dropped after the error reply.
        Bytes after;
        EXPECT_FALSE(ReadFrame(fd, after));
        ::close(fd);
    }
    // A connection that dies mid-frame must not wedge the daemon.
    {
        const int fd = ConnectUnix(config.socket_path);
        const uint32_t declared = 1000;
        ASSERT_EQ(::send(fd, &declared, sizeof declared, MSG_NOSIGNAL),
                  static_cast<ssize_t>(sizeof declared));
        ::close(fd);
    }
    // A well-behaved client still gets full service.
    {
        SocketClient client(config.socket_path);
        ServiceRequest request;
        request.verb = ServiceVerb::kCompress;
        request.payload = MakePayload();
        const ServiceResponse compressed = client.Call(request);
        ASSERT_EQ(compressed.status, Errc::kOk) << compressed.error;
        EXPECT_EQ(compressed.payload,
                  Compress(Algorithm::kSPspeed, ByteSpan(request.payload),
                           Options{}.with_threads(1)));
    }
    server.Stop();
}

TEST(ProtocolTest, ConcurrentClientsRoundTripAgainstOneDaemon)
{
    ServerConfig config;
    config.socket_path = TestSocketPath("concurrent");
    config.service.workers = 4;
    SocketServer server(config);

    constexpr int kClients = 6;
    std::vector<std::thread> clients;
    std::vector<std::string> failures(kClients);
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            try {
                SocketClient client(config.socket_path);
                const Bytes payload = MakePayload(10000 + 100 * c);
                ServiceRequest compress;
                compress.verb = ServiceVerb::kCompress;
                compress.tenant = "client-" + std::to_string(c);
                compress.algorithm =
                    static_cast<Algorithm>(static_cast<unsigned>(c) % 4);
                compress.payload = payload;
                const ServiceResponse packed = client.Call(compress);
                if (packed.status != Errc::kOk) {
                    failures[c] = "compress: " + packed.error;
                    return;
                }
                ServiceRequest decompress;
                decompress.verb = ServiceVerb::kDecompress;
                decompress.payload = packed.payload;
                const ServiceResponse restored = client.Call(decompress);
                if (restored.status != Errc::kOk) {
                    failures[c] = "decompress: " + restored.error;
                } else if (restored.payload != payload) {
                    failures[c] = "round trip changed the bytes";
                }
            } catch (const std::exception& e) {
                failures[c] = e.what();
            }
        });
    }
    for (std::thread& thread : clients) thread.join();
    for (int c = 0; c < kClients; ++c) {
        EXPECT_EQ(failures[c], "") << "client " << c;
    }
    server.Stop();
    ::unlink(config.socket_path.c_str());
}

TEST(ProtocolTest, StatsAndShutdownVerbsWorkOverTheWire)
{
    ServerConfig config;
    config.socket_path = TestSocketPath("control");
    config.service.workers = 1;
    SocketServer server(config);

    SocketClient client(config.socket_path);
    ServiceRequest compress;
    compress.verb = ServiceVerb::kCompress;
    compress.tenant = "ops";
    compress.payload = MakePayload(4096);
    ASSERT_EQ(client.Call(compress).status, Errc::kOk);

    ServiceRequest stats;
    stats.verb = ServiceVerb::kStats;
    const ServiceResponse report = client.Call(stats);
    ASSERT_EQ(report.status, Errc::kOk);
    const std::string json(
        reinterpret_cast<const char*>(report.payload.data()),
        report.payload.size());
    EXPECT_EQ(json.rfind("{\"schema\": \"fpc.telemetry.v7\"", 0), 0u);
    if (kTelemetryEnabled) {
        EXPECT_NE(json.find("\"compress\": {\"calls\": 1, "),
                  std::string::npos);
    }

    ServiceRequest shutdown;
    shutdown.verb = ServiceVerb::kShutdown;
    EXPECT_EQ(client.Call(shutdown).status, Errc::kOk);
    EXPECT_TRUE(
        server.WaitForShutdownFor(std::chrono::milliseconds(2000)));
    server.Stop();
    ::unlink(config.socket_path.c_str());
}

TEST(ProtocolTest, AdminVerbFramesRoundTrip)
{
    for (const ServiceVerb verb :
         {ServiceVerb::kMetrics, ServiceVerb::kHealth,
          ServiceVerb::kServerStats}) {
        ServiceRequest request;
        request.verb = verb;
        const ServiceRequest back =
            DecodeRequest(ByteSpan(EncodeRequest(request)));
        EXPECT_EQ(back.verb, verb);
        EXPECT_TRUE(back.request_id.empty());
    }
}

TEST(ProtocolTest, AdminVerbsAnswerOverTheWire)
{
    ServerConfig config;
    config.socket_path = TestSocketPath("admin");
    config.service.workers = 1;
    MetricsRegistry& registry = MetricsRegistry::Global();
    SocketServer server(config);
    // The server registered its fpc_server_* series at construction;
    // they are process-wide, so earlier tests' traffic is in them.
    const auto server_metric = [&](const char* name,
                                   MetricLabels labels = {}) {
        return registry.GetCounter(name, "", std::move(labels))->Value();
    };
    const uint64_t errors_before =
        server_metric("fpc_server_protocol_errors_total");
    SocketClient client(config.socket_path);

    ServiceRequest compress;
    compress.verb = ServiceVerb::kCompress;
    compress.tenant = "ops";
    compress.payload = MakePayload(4096);
    ASSERT_EQ(client.Call(compress).status, Errc::kOk);

    const auto text = [](const ServiceResponse& response) {
        return std::string(
            reinterpret_cast<const char*>(response.payload.data()),
            response.payload.size());
    };

    ServiceRequest metrics;
    metrics.verb = ServiceVerb::kMetrics;
    const ServiceResponse exposition = client.Call(metrics);
    ASSERT_EQ(exposition.status, Errc::kOk);
    EXPECT_EQ(text(exposition).rfind("# fpc.metrics.v1\n", 0), 0u);
    EXPECT_NE(text(exposition).find(
                  "fpc_service_requests_total{tenant=\"ops\""),
              std::string::npos);

    ServiceRequest health;
    health.verb = ServiceVerb::kHealth;
    const ServiceResponse liveness = client.Call(health);
    ASSERT_EQ(liveness.status, Errc::kOk);
    EXPECT_EQ(text(liveness).rfind("{\"status\": \"ok\"", 0), 0u);

    ServiceRequest stats;
    stats.verb = ServiceVerb::kServerStats;
    const ServiceResponse transport = client.Call(stats);
    ASSERT_EQ(transport.status, Errc::kOk);
    const std::string json = text(transport);
    EXPECT_NE(json.find("\"draining\": false"), std::string::npos);
    EXPECT_EQ(JsonField(json, "connections_open"),
              static_cast<uint64_t>(
                  registry.GetGauge("fpc_server_connections_open", "")
                      ->Value()));

    // Stop joins the handler, so every counter has settled: the
    // document equals the registry, except frames_written, which the
    // SERVER_STATS reply itself bumped after rendering.
    server.Stop();
    EXPECT_EQ(JsonField(json, "connections_accepted"),
              server_metric("fpc_server_connections_total"));
    EXPECT_EQ(JsonField(json, "frames_read"),
              server_metric("fpc_server_frames_total",
                            {{"direction", "read"}}));
    EXPECT_EQ(JsonField(json, "frames_written") + 1,
              server_metric("fpc_server_frames_total",
                            {{"direction", "written"}}));
    EXPECT_EQ(JsonField(json, "protocol_errors"),
              server_metric("fpc_server_protocol_errors_total"));
    EXPECT_EQ(JsonField(json, "protocol_errors"), errors_before);

    ::unlink(config.socket_path.c_str());
}

TEST(ProtocolTest, RequestIdRoundTripsThroughTheFrame)
{
    ServiceRequest request;
    request.verb = ServiceVerb::kCompress;
    request.tenant = "t";
    request.request_id = "job-42.retry_1";
    request.payload = MakePayload(16);
    const ServiceRequest back =
        DecodeRequest(ByteSpan(EncodeRequest(request)));
    EXPECT_EQ(back.request_id, request.request_id);
    EXPECT_EQ(back.payload, request.payload);

    // No id -> flag clear -> decodes back empty.
    request.request_id.clear();
    EXPECT_TRUE(DecodeRequest(ByteSpan(EncodeRequest(request)))
                    .request_id.empty());
}

TEST(ProtocolTest, HostileRequestIdsAreRejectedTyped)
{
    ServiceRequest request;
    request.verb = ServiceVerb::kCompress;
    request.tenant = "t";
    request.request_id = "abc";
    const Bytes frame = EncodeRequest(request);
    // Layout (protocol.h): tenant "t", executor "" -> the id length
    // byte sits at 25+T+E = 26, the id bytes at 27..29 (no payload).
    ASSERT_EQ(frame.size(), 30u);

    // An id byte outside [A-Za-z0-9._-].
    Bytes bad_charset = frame;
    bad_charset[27] = std::byte{' '};
    EXPECT_THROW((void)DecodeRequest(ByteSpan(bad_charset)),
                 CorruptStreamError);

    // Flag bit set but a zero-length id.
    Bytes zero_len = frame;
    zero_len[26] = std::byte{0};
    EXPECT_THROW((void)DecodeRequest(ByteSpan(zero_len)),
                 CorruptStreamError);

    // A declared id length running past the frame end.
    Bytes overrun = frame;
    overrun[26] = std::byte{64};
    EXPECT_THROW((void)DecodeRequest(ByteSpan(overrun)),
                 CorruptStreamError);

    // Unknown flag bits must be rejected, not silently ignored — they
    // are the protocol's forward-compatibility tripwire.
    Bytes bad_flags = frame;
    bad_flags[6] = std::byte{0x80};
    EXPECT_THROW((void)DecodeRequest(ByteSpan(bad_flags)),
                 CorruptStreamError);

    // Oversized ids never leave the client: EncodeRequest refuses.
    request.request_id = std::string(kMaxRequestIdBytes + 1, 'a');
    EXPECT_THROW((void)EncodeRequest(request), UsageError);
}

TEST(ProtocolTest, DrainDropsNoInFlightRequest)
{
    ServerConfig config;
    config.socket_path = TestSocketPath("drain");
    config.service.workers = 1;
    // Dispatch held back, so the request is provably *queued* (not yet
    // executing) when the drain begins — the hardest case to honour.
    config.service.start_paused = true;
    SocketServer server(config);
    // The scheduler's queue depth as the metrics registry exposes it. The
    // gauge is process-wide, so the wait is for one request above the
    // level before this test's request.
    const Gauge* queue_depth = MetricsRegistry::Global().GetGauge(
        "fpc_service_queue_depth",
        "Requests accepted but not yet dispatched to a worker.");
    const int64_t depth_before = queue_depth->Value();

    ServiceResponse response;
    std::thread caller([&] {
        SocketClient client(config.socket_path);
        ServiceRequest request;
        request.verb = ServiceVerb::kCompress;
        request.tenant = "drain";
        request.request_id = "drain-proof";
        request.payload = MakePayload(4096);
        response = client.Call(request);
    });

    // Wait until the scheduler holds the request.
    for (int i = 0; i < 500 && queue_depth->Value() == depth_before; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ASSERT_EQ(queue_depth->Value(), depth_before + 1);

    std::thread drainer(
        [&] { server.Drain(std::chrono::milliseconds(10000)); });
    // The drain must report itself while it waits for the queue.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_NE(server.HealthJson().find("\"status\": \"draining\""),
              std::string::npos);

    server.service().Resume();
    drainer.join();
    caller.join();

    EXPECT_EQ(response.status, Errc::kOk);
    EXPECT_FALSE(response.payload.empty());
    ::unlink(config.socket_path.c_str());
}

TEST(ProtocolTest, ConnectionChurnLeavesNoThreadOrStackBehind)
{
    ServerConfig config;
    config.socket_path = TestSocketPath("churn");
    config.service.workers = 1;
    SocketServer server(config);
    {
        SocketClient warm(config.socket_path);
        ASSERT_EQ(warm.Call(HealthRequest()).status, Errc::kOk);
    }
    const int64_t threads = ProcStatus("Threads");
    const int64_t vm_kib = ProcStatus("VmSize");
    for (int i = 0; i < 2000; ++i) {
        SocketClient client(config.socket_path);
        ASSERT_EQ(client.Call(HealthRequest()).status, Errc::kOk)
            << "connection " << i;
    }
    EXPECT_EQ(ProcStatus("Threads"), threads);
    EXPECT_LT(ProcStatus("VmSize") - vm_kib, 64 * 1024)
        << "VmSize grew over 2000 connections";
    server.Stop();
}

TEST(ProtocolTest, StalledHalfFrameIsCutWhileOthersAreServed)
{
    ServerConfig config;
    config.socket_path = TestSocketPath("stall");
    config.service.workers = 1;
    SocketServer server(config);
    const uint64_t stalled_before = CounterValue("fpc_server_stalled_total");

    // Two bytes of a frame length, then silence.
    const int stalled = ConnectUnix(config.socket_path);
    const char half[2] = {16, 0};
    ASSERT_EQ(::send(stalled, half, sizeof half, MSG_NOSIGNAL), 2);
    const auto sent_at = std::chrono::steady_clock::now();

    // The loop keeps serving others meanwhile.
    {
        SocketClient other(config.socket_path);
        ServiceRequest request;
        request.verb = ServiceVerb::kCompress;
        request.payload = MakePayload();
        EXPECT_EQ(other.Call(request).status, Errc::kOk);
        EXPECT_LT(std::chrono::steady_clock::now() - sent_at, kStallTimeout);
    }

    // The half frame is cut: EOF within twice the stall timeout.
    SetRecvTimeout(stalled, 2 * kStallTimeout);
    char byte = 0;
    const ssize_t got = ::recv(stalled, &byte, 1, 0);
    const auto waited = std::chrono::steady_clock::now() - sent_at;
    EXPECT_EQ(got, 0) << "the half-frame connection was not cut";
    EXPECT_GE(waited, kStallTimeout);
    EXPECT_LT(waited, 2 * kStallTimeout);
    EXPECT_EQ(CounterValue("fpc_server_stalled_total"), stalled_before + 1);
    ::close(stalled);
    server.Stop();
}

TEST(ProtocolTest, AcceptResumesAfterDescriptorExhaustion)
{
    ServerConfig config;
    config.socket_path = TestSocketPath("emfile");
    config.service.workers = 1;
    SocketServer server(config);
    {
        SocketClient warm(config.socket_path);
        ASSERT_EQ(warm.Call(HealthRequest()).status, Errc::kOk);
    }
    const uint64_t errors_before =
        CounterValue("fpc_server_accept_errors_total");

    // Lower this process's soft descriptor limit just past the lowest
    // free descriptor, fill every free slot below it, and connect with
    // the last one: the server's accept then finds no descriptor left.
    rlimit saved{};
    ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
    std::vector<int> fillers;
    fillers.push_back(::open("/dev/null", O_RDONLY | O_CLOEXEC));
    ASSERT_GE(fillers.front(), 0);
    rlimit low = saved;
    low.rlim_cur = static_cast<rlim_t>(fillers.front()) + 8;
    ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &low), 0);
    for (int fd; (fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC)) >= 0;) {
        fillers.push_back(fd);
    }
    ::close(fillers.back());
    fillers.pop_back();
    const int starved = ConnectUnix(config.socket_path);
    for (int i = 0; i < 200 && CounterValue(
                                   "fpc_server_accept_errors_total") ==
                                   errors_before;
         ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    const uint64_t errors_after =
        CounterValue("fpc_server_accept_errors_total");
    for (const int fd : fillers) ::close(fd);
    ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
    EXPECT_GT(errors_after, errors_before) << "accept never failed";

    // Both the starved client and a new one are answered.
    const int fresh = ConnectUnix(config.socket_path);
    for (const int fd : {starved, fresh}) {
        try {
            EXPECT_EQ(CallFd(fd, HealthRequest()).status, Errc::kOk);
        } catch (const std::exception& e) {
            ADD_FAILURE() << "no reply after the limit was restored: "
                          << e.what();
        }
        ::close(fd);
    }
    server.Stop();
}

TEST(ProtocolTest, PipelinedRequestsAreAnsweredInOrder)
{
    ServerConfig config;
    config.socket_path = TestSocketPath("order");
    config.service.workers = 2;
    SocketServer server(config);
    const int fd = ConnectUnix(config.socket_path);
    SetRecvTimeout(fd, std::chrono::milliseconds(5000));
    ServiceRequest compress;
    compress.verb = ServiceVerb::kCompress;
    compress.payload = MakePayload();
    // Both frames are in the socket before the first reply: the second
    // (answered inline) must still wait for the first (on a worker).
    WriteFrame(fd, ByteSpan(EncodeRequest(compress)));
    WriteFrame(fd, ByteSpan(EncodeRequest(HealthRequest())));
    Bytes body;
    ASSERT_TRUE(ReadFrame(fd, body));
    EXPECT_EQ(DecodeResponse(ByteSpan(body)).payload,
              Compress(Algorithm::kSPspeed, ByteSpan(compress.payload),
                       Options{}.with_threads(1)));
    ASSERT_TRUE(ReadFrame(fd, body));
    const ServiceResponse health = DecodeResponse(ByteSpan(body));
    EXPECT_EQ(std::string(reinterpret_cast<const char*>(health.payload.data()),
                          health.payload.size())
                  .rfind("{\"status\": \"ok\"", 0),
              0u);
    ::close(fd);
    server.Stop();
}

/** One HTTP exchange: the bytes the server sent, and whether it closed
 *  the connection afterwards (rather than a five-second timeout). */
struct HttpExchange {
    std::string reply;
    bool closed = false;

    HttpExchange(const std::string& path, const std::string& request)
    {
        const int fd = ConnectUnix(path);
        SetRecvTimeout(fd, std::chrono::milliseconds(5000));
        size_t sent = 0;
        while (sent < request.size()) {
            const ssize_t w = ::send(fd, request.data() + sent,
                                     request.size() - sent, MSG_NOSIGNAL);
            if (w <= 0) break;
            sent += static_cast<size_t>(w);
        }
        char buffer[4096];
        for (;;) {
            const ssize_t r = ::recv(fd, buffer, sizeof buffer, 0);
            if (r > 0) {
                reply.append(buffer, static_cast<size_t>(r));
                continue;
            }
            // A reset after the reply (the server closed with request
            // bytes unread) is a close too; a timeout is not.
            closed = r == 0 || errno == ECONNRESET;
            break;
        }
        ::close(fd);
    }

    std::string Body() const
    {
        const size_t at = reply.find("\r\n\r\n");
        return at == std::string::npos ? "" : reply.substr(at + 4);
    }
};

ServerConfig
HttpServerConfig(const char* tag)
{
    ServerConfig config;
    config.socket_path = TestSocketPath(tag);
    config.metrics_socket_path = TestSocketPath("http");
    config.service.workers = 1;
    return config;
}

TEST(ProtocolTest, HttpExporterRoutesAndClosesAfterEveryReply)
{
    const ServerConfig config = HttpServerConfig("exporter");
    SocketServer server(config);
    const std::string& path = config.metrics_socket_path;

    const HttpExchange metrics(path,
                               "GET /metrics HTTP/1.1\r\nHost: fpcd\r\n\r\n");
    EXPECT_EQ(metrics.reply.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
    EXPECT_NE(metrics.reply.find(
                  "Content-Type: text/plain; version=0.0.4; charset=utf-8"),
              std::string::npos);
    EXPECT_EQ(metrics.Body().rfind("# fpc.metrics.v1\n", 0), 0u);
    EXPECT_NE(metrics.Body().find("fpc_server_connections_total"),
              std::string::npos);
    EXPECT_TRUE(metrics.closed);

    const HttpExchange health(path, "GET /healthz HTTP/1.1\r\n\r\n");
    EXPECT_EQ(health.reply.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
    EXPECT_NE(health.reply.find("Content-Type: application/json"),
              std::string::npos);
    EXPECT_EQ(health.Body().rfind("{\"status\": \"ok\"", 0), 0u);
    EXPECT_EQ(JsonField(health.Body(), "workers"), 1u);
    EXPECT_TRUE(health.closed);

    const HttpExchange unknown(path, "GET /nope HTTP/1.1\r\n\r\n");
    EXPECT_EQ(unknown.reply.rfind("HTTP/1.1 404 Not Found\r\n", 0), 0u);
    EXPECT_TRUE(unknown.closed);

    const HttpExchange post(path, "POST /metrics HTTP/1.1\r\n\r\n");
    EXPECT_EQ(post.reply.rfind("HTTP/1.1 405 Method Not Allowed\r\n", 0),
              0u);
    EXPECT_TRUE(post.closed);

    const HttpExchange huge(
        path, "GET /metrics HTTP/1.1\r\nX-Pad: " +
                  std::string(kMaxHttpRequestBytes + 100, 'a'));
    EXPECT_EQ(huge.reply.rfind("HTTP/1.1 400 Bad Request\r\n", 0), 0u);
    EXPECT_TRUE(huge.closed);

    // The protocol socket is unaffected by the HTTP traffic.
    SocketClient client(config.socket_path);
    EXPECT_EQ(client.Call(HealthRequest()).status, Errc::kOk);
    server.Stop();
}

TEST(ProtocolTest, ConnectionPastTheCapIsRefusedBusy)
{
    // The cap follows the soft descriptor limit at construction; a low
    // limit keeps the connections this test holds few.
    rlimit saved{};
    ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
    rlimit low = saved;
    low.rlim_cur = std::min<rlim_t>(saved.rlim_max, 128);
    ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &low), 0);
    const ServerConfig config = HttpServerConfig("cap");
    std::unique_ptr<SocketServer> server;
    try {
        server = std::make_unique<SocketServer>(config);
    } catch (const std::exception& e) {
        ADD_FAILURE() << e.what();
    }
    ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
    ASSERT_NE(server, nullptr);
    const size_t cap = server->MaxConnections();
    ASSERT_GT(cap, 0u);
    EXPECT_LE(cap, low.rlim_cur - kHttpConnections);
    const uint64_t refused_before = CounterValue("fpc_server_refused_total");

    std::vector<int> held;
    for (size_t i = 0; i < cap; ++i) {
        held.push_back(ConnectUnix(config.socket_path));
    }
    EXPECT_EQ(CallFd(held.front(), HealthRequest()).status, Errc::kOk);

    const int extra = ConnectUnix(config.socket_path);
    SetRecvTimeout(extra, std::chrono::milliseconds(5000));
    Bytes reply;
    try {
        ASSERT_TRUE(ReadFrame(extra, reply));
        EXPECT_EQ(DecodeResponse(ByteSpan(reply)).status, Errc::kBusy);
        EXPECT_FALSE(ReadFrame(extra, reply)) << "refused but not closed";
    } catch (const std::exception& e) {
        ADD_FAILURE() << "connection past the cap: " << e.what();
    }
    EXPECT_EQ(CounterValue("fpc_server_refused_total"), refused_before + 1);
    // The held connections are still served, and monitoring has slots
    // of its own.
    EXPECT_EQ(CallFd(held.back(), HealthRequest()).status, Errc::kOk);
    const HttpExchange health(config.metrics_socket_path,
                              "GET /healthz HTTP/1.1\r\n\r\n");
    EXPECT_EQ(health.reply.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
    EXPECT_EQ(JsonField(health.Body(), "open_connections"), cap);

    // Past kHttpConnections open scrapes, the next one gets a 503.
    std::vector<int> scrapes;
    for (size_t i = 0; i < kHttpConnections; ++i) {
        scrapes.push_back(ConnectUnix(config.metrics_socket_path));
    }
    const HttpExchange refused(config.metrics_socket_path,
                               "GET /healthz HTTP/1.1\r\n\r\n");
    EXPECT_EQ(refused.reply.rfind("HTTP/1.1 503 Service Unavailable\r\n", 0),
              0u);
    EXPECT_EQ(CounterValue("fpc_server_refused_total"), refused_before + 2);
    for (const int fd : scrapes) ::close(fd);
    ::close(extra);
    for (const int fd : held) ::close(fd);
    server->Stop();
}

TEST(ProtocolTest, HealthIsAnsweredWhileALargeFrameUploads)
{
    ServerConfig config;
    config.socket_path = TestSocketPath("large");
    config.service.workers = 1;
    SocketServer server(config);
    SocketClient client(config.socket_path);

    // A 64 MiB frame whose body is garbage, sent as fast as the socket
    // takes it: the server reads all of it, then answers kCorrupt.
    std::atomic<bool> uploaded{false};
    Errc upload_status = Errc::kOk;
    std::thread uploader([&] {
        Bytes frame(kFramePrefixBytes + (size_t{64} << 20), std::byte{0xFF});
        const auto length = static_cast<uint32_t>(frame.size() -
                                                  kFramePrefixBytes);
        std::memcpy(frame.data(), &length, sizeof length);
        try {
            const int fd = ConnectUnix(config.socket_path);
            SetRecvTimeout(fd, std::chrono::milliseconds(30000));
            for (size_t sent = 0; sent < frame.size();) {
                const ssize_t w = ::send(fd, frame.data() + sent,
                                         frame.size() - sent, MSG_NOSIGNAL);
                if (w <= 0) break;
                sent += static_cast<size_t>(w);
            }
            Bytes reply;
            if (ReadFrame(fd, reply)) {
                upload_status = DecodeResponse(ByteSpan(reply)).status;
            }
            ::close(fd);
        } catch (const std::exception& e) {
            ADD_FAILURE() << "upload: " << e.what();
        }
        uploaded = true;
    });
    auto slowest = std::chrono::steady_clock::duration::zero();
    int calls = 0;
    try {
        do {
            const auto start = std::chrono::steady_clock::now();
            EXPECT_EQ(client.Call(HealthRequest()).status, Errc::kOk);
            slowest =
                std::max(slowest, std::chrono::steady_clock::now() - start);
            ++calls;
        } while (!uploaded);
    } catch (const std::exception& e) {
        ADD_FAILURE() << "health call " << calls << ": " << e.what();
    }
    uploader.join();
    EXPECT_EQ(upload_status, Errc::kCorrupt);
    EXPECT_LT(slowest, std::chrono::seconds(1))
        << "slowest of " << calls << " health calls";
    server.Stop();
}

TEST(ProtocolTest, HttpMetricsBodyPassesTheExpositionChecker)
{
#if defined(FPC_PYTHON) && defined(FPC_STATS_CHECKER)
    const ServerConfig config = HttpServerConfig("checked");
    SocketServer server(config);
    {
        // Put a request and its per-tenant histograms in the registry.
        SocketClient client(config.socket_path);
        ServiceRequest request;
        request.verb = ServiceVerb::kCompress;
        request.tenant = "scraped";
        request.payload = MakePayload(4096);
        ASSERT_EQ(client.Call(request).status, Errc::kOk);
    }
    const HttpExchange metrics(config.metrics_socket_path,
                               "GET /metrics HTTP/1.1\r\n\r\n");
    server.Stop();
    ASSERT_EQ(metrics.reply.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
    const std::string file = "/tmp/fpc_proto_exposition_" +
                             std::to_string(::getpid()) + ".txt";
    std::ofstream(file) << metrics.Body();
    const std::string command = std::string(FPC_PYTHON) + " " +
                                FPC_STATS_CHECKER + " " + file;
    const int status = std::system(command.c_str());
    ::unlink(file.c_str());
    ASSERT_TRUE(WIFEXITED(status)) << command;
    EXPECT_EQ(WEXITSTATUS(status), 0) << command;
#else
    GTEST_SKIP() << "no python3 at configure time";
#endif
}

}  // namespace
}  // namespace fpc
