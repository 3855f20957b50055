/**
 * @file
 * fpcd wire-protocol tests (src/service/protocol.h + server/client):
 * frame round trips, hostile-input sweeps (bit mutations, truncations,
 * memory-bomb length declarations — every one must fail typed, never
 * crash or hang), the daemon's garbage tolerance, and concurrent
 * client roundtrips against a live SocketServer.
 */
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
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
    for (int i = 0; i < 500 && server.service().QueueDepth() == 0; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ASSERT_EQ(server.service().QueueDepth(), 1u);

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

}  // namespace
}  // namespace fpc
