#include "service_ops.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>

#include <unistd.h>

#include "core/codec.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "spans.h"
#include "util/hash.h"

namespace fpcbench {

using fpc::Bytes;
using fpc::ByteSpan;

namespace {

constexpr const char* kTenants[3] = {"ingest", "archive", "analysis"};

size_t
KindCount(Kind kind, const RequestPool& pool)
{
    switch (kind) {
      case Kind::kDpRatioCompress: return pool.dp.size();
      case Kind::kSpRatioDecompress: return pool.sp_ratio.size();
      default: return pool.sp.size();
    }
}

const Bytes&
KindInput(Kind kind, size_t i, const RequestPool& pool)
{
    switch (kind) {
      case Kind::kDpRatioCompress: return pool.dp[i];
      case Kind::kSpRatioDecompress: return pool.sp_ratio[i];
      default: return pool.sp[i];
    }
}

/** Owns a connected socket fd. */
struct Fd {
    explicit Fd(int f) : fd(f) {}
    ~Fd() { ::close(fd); }
    Fd(const Fd&) = delete;
    Fd& operator=(const Fd&) = delete;
    int fd;
};

std::chrono::steady_clock::time_point
AtNs(int64_t ns)
{
    return std::chrono::steady_clock::time_point(std::chrono::nanoseconds(ns));
}

/** Verify one reply and count the operation. */
void
Settle(const fpc::ServiceResponse& response, const Bytes& expected,
       Report& report)
{
    const bool served = response.status == fpc::Errc::kOk;
    if (served) report.Check("service_reply_matches_library",
                             response.payload == expected);
    report.Op(!served || response.payload != expected);
}

/** Run @p body(connection) on one thread per connection; a thread that
 *  throws counts one failed operation. */
template <typename Body>
void
PerConnection(int connections, Report& report, Body&& body)
{
    std::vector<std::thread> threads;
    for (int c = 0; c < connections; ++c) {
        threads.emplace_back([&, c] {
            try {
                body(c);
            } catch (const std::exception&) {
                report.Check("service_connection", false);
                report.Op(true);
            }
        });
    }
    for (std::thread& thread : threads) thread.join();
}

/** Request @p index of the seeded schedule, a pure function of
 *  (@p seed, @p index). */
Scheduled
ScheduleAt(uint64_t seed, uint64_t index, const RequestPool& pool)
{
    const uint64_t h = fpc::Mix64(fpc::Mix64(seed ^ 0x5e7c1ce5ull) ^ index);
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    size_t k = 0;
    for (double acc = kKindShare[0]; k < 3 && u >= acc;
         acc += kKindShare[++k]) {
    }
    const Kind kind = static_cast<Kind>(k);
    return {kind, fpc::Mix64(h) % KindCount(kind, pool),
            kTenants[fpc::Mix64(h ^ 1) % 3]};
}

const Bytes&
ExpectedReply(const Scheduled& s, const RequestPool& pool)
{
    return pool.expected[static_cast<size_t>(s.kind)][s.payload];
}

/** The request's uncompressed bytes (input of a compress, output of a
 *  decompress). */
size_t
UncompressedBytes(const Scheduled& s, const RequestPool& pool)
{
    return s.kind == Kind::kSpRatioDecompress
               ? pool.sp[s.payload].size()
               : KindInput(s.kind, s.payload, pool).size();
}

/** The library call the service makes for @p request (threads = 1). */
Bytes
LibraryAnswer(const fpc::ServiceRequest& request)
{
    const fpc::Options options =
        fpc::Options{}.with_threads(1).with_adaptive(request.adaptive);
    if (request.verb == fpc::ServiceVerb::kDecompress) {
        return fpc::Decompress(ByteSpan(request.payload), options);
    }
    return fpc::Compress(request.algorithm, ByteSpan(request.payload),
                         options);
}

}  // namespace

void
RequestPool::Prepare()
{
    const fpc::Options one = fpc::Options{}.with_threads(1);
    sp_ratio.clear();
    for (auto& e : expected) e.clear();
    for (const Bytes& p : sp) {
        sp_ratio.push_back(fpc::Compress(fpc::Algorithm::kSPratio,
                                         ByteSpan(p), one));
        expected[0].push_back(
            fpc::Compress(fpc::Algorithm::kSPspeed, ByteSpan(p), one));
        expected[2].push_back(p);
        expected[3].push_back(
            fpc::Compress(fpc::Algorithm::kSPspeed, ByteSpan(p),
                          fpc::Options{one}.with_adaptive(true)));
    }
    for (const Bytes& p : dp) {
        expected[1].push_back(
            fpc::Compress(fpc::Algorithm::kDPratio, ByteSpan(p), one));
    }
}

double
RequestPool::Ratio() const
{
    double in = 0, out = 0;
    for (Kind kind : {Kind::kSpSpeedCompress, Kind::kDpRatioCompress,
                      Kind::kAutoCompress}) {
        const size_t k = static_cast<size_t>(kind);
        const size_t n = KindCount(kind, *this);
        double kind_in = 0, kind_out = 0;
        for (size_t i = 0; i < n; ++i) {
            kind_in += static_cast<double>(KindInput(kind, i, *this).size());
            kind_out += static_cast<double>(expected[k][i].size());
        }
        in += kKindShare[k] * kind_in / static_cast<double>(n);
        out += kKindShare[k] * kind_out / static_cast<double>(n);
    }
    return in / out;
}

fpc::ServiceRequest
MakeRequest(const Scheduled& s, const RequestPool& pool)
{
    fpc::ServiceRequest request;
    request.tenant = s.tenant;
    request.payload = KindInput(s.kind, s.payload, pool);
    switch (s.kind) {
      case Kind::kSpSpeedCompress:
        request.algorithm = fpc::Algorithm::kSPspeed;
        break;
      case Kind::kDpRatioCompress:
        request.algorithm = fpc::Algorithm::kDPratio;
        break;
      case Kind::kSpRatioDecompress:
        request.verb = fpc::ServiceVerb::kDecompress;
        break;
      case Kind::kAutoCompress:
        request.algorithm = fpc::Algorithm::kSPspeed;
        request.adaptive = true;
        break;
    }
    return request;
}

LoadgenStats&
LoadgenStats::Get()
{
    static LoadgenStats stats;
    return stats;
}

LoadResult
OpenLoop(const std::string& socket, uint64_t seed, const RequestPool& pool,
         uint64_t first, double rate, double seconds, int connections,
         Report& report)
{
    const uint64_t total = static_cast<uint64_t>(rate * seconds);
    std::vector<std::unique_ptr<fpc::SocketClient>> clients;
    for (int c = 0; c < connections; ++c) {
        clients.push_back(std::make_unique<fpc::SocketClient>(socket));
    }
    std::vector<std::vector<LoadSample>> per(connections);
    std::vector<std::vector<double>> late(connections);
    LoadResult out;
    out.start_ns = NowNs() + 1'000'000;
    out.end_ns = out.start_ns + static_cast<int64_t>(seconds * 1e9);
    PerConnection(connections, report, [&](int c) {
        for (uint64_t i = c; i < total; i += connections) {
            const int64_t due =
                out.start_ns + static_cast<int64_t>(static_cast<double>(i) *
                                                    1e9 / rate);
            const Scheduled s = ScheduleAt(seed, first + i, pool);
            const fpc::ServiceRequest request = MakeRequest(s, pool);
            std::this_thread::sleep_until(AtNs(due));
            const int64_t send = NowNs();
            if (send >= out.end_ns) break;
            const fpc::ServiceResponse response = clients[c]->Call(request);
            per[c].push_back({due, static_cast<double>(NowNs() - due),
                              UncompressedBytes(s, pool),
                              s.kind == Kind::kSpRatioDecompress});
            late[c].push_back(static_cast<double>(send - due));
            Settle(response, ExpectedReply(s, pool), report);
        }
    });

    LoadgenStats& stats = LoadgenStats::Get();
    std::lock_guard<std::mutex> lock(stats.mutex);
    stats.scheduled += total;
    for (int c = 0; c < connections; ++c) {
        out.samples.insert(out.samples.end(), per[c].begin(), per[c].end());
        stats.late_ns.insert(stats.late_ns.end(), late[c].begin(),
                             late[c].end());
        stats.sent += late[c].size();
    }
    std::sort(out.samples.begin(), out.samples.end(),
              [](const LoadSample& a, const LoadSample& b) {
                  return a.at_ns < b.at_ns;
              });
    return out;
}

LoadResult
ClosedLoop(const std::string& socket, uint64_t seed, const RequestPool& pool,
           uint64_t first, double seconds, int connections, Report& report)
{
    std::vector<std::unique_ptr<fpc::SocketClient>> clients;
    for (int c = 0; c < connections; ++c) {
        clients.push_back(std::make_unique<fpc::SocketClient>(socket));
    }
    std::atomic<uint64_t> cursor{first};
    std::vector<std::vector<LoadSample>> per(connections);
    LoadResult out;
    out.start_ns = NowNs();
    out.end_ns = out.start_ns + static_cast<int64_t>(seconds * 1e9);
    PerConnection(connections, report, [&](int c) {
        while (NowNs() < out.end_ns) {
            const Scheduled s = ScheduleAt(seed, cursor++, pool);
            const fpc::ServiceRequest request = MakeRequest(s, pool);
            const int64_t t0 = NowNs();
            const fpc::ServiceResponse response = clients[c]->Call(request);
            const int64_t t1 = NowNs();
            per[c].push_back({t1, static_cast<double>(t1 - t0),
                              UncompressedBytes(s, pool),
                              s.kind == Kind::kSpRatioDecompress});
            Settle(response, ExpectedReply(s, pool), report);
        }
    });
    for (const auto& samples : per) {
        out.samples.insert(out.samples.end(), samples.begin(), samples.end());
    }
    LoadgenStats& stats = LoadgenStats::Get();
    {
        std::lock_guard<std::mutex> lock(stats.mutex);
        stats.closed_requests += out.samples.size();
        stats.closed_seconds +=
            static_cast<double>(NowNs() - out.start_ns) / 1e9;
    }
    std::sort(out.samples.begin(), out.samples.end(),
              [](const LoadSample& a, const LoadSample& b) {
                  return a.at_ns < b.at_ns;
              });
    return out;
}

void
TracedRequests(const std::string& socket, uint64_t seed,
               const RequestPool& pool, uint64_t first, uint64_t count,
               int connections, Report& report)
{
    Tracer& tracer = Tracer::Get();
    PerConnection(connections, report, [&](int c) {
        const Fd conn(fpc::ConnectUnix(socket));
        for (uint64_t i = c; i < count; i += connections) {
            const Scheduled s = ScheduleAt(seed, first + i, pool);
            fpc::ServiceRequest request = MakeRequest(s, pool);
            const uint64_t op = tracer.NextOp();
            request.request_id = "fb-" + std::to_string(op & ~kTourOp);
            Span root("request", "service", op, 0);
            Bytes body;
            {
                Span encode("EncodeRequest", "protocol");
                body = fpc::EncodeRequest(request);
            }
            Bytes reply;
            {
                Span wire("socket round trip", "protocol");
                fpc::WriteFrame(conn.fd, ByteSpan(body));
                if (!fpc::ReadFrame(conn.fd, reply)) {
                    throw std::runtime_error("connection closed");
                }
                // Both frames with their 4-byte length prefixes.
                wire.SetArg(body.size() + reply.size() + 8);
            }
            fpc::ServiceResponse response;
            {
                Span decode("DecodeResponse", "protocol");
                response = fpc::DecodeResponse(ByteSpan(reply));
            }
            Span verify("verify", "bench");
            Settle(response, ExpectedReply(s, pool), report);
        }
    });
}

void
CountScheduler(fpc::Service& service)
{
    Tracer& tracer = Tracer::Get();
    const fpc::Service::Counters c = service.counters();
    const double rejected = static_cast<double>(
        c.rejected_queue_full + c.rejected_in_flight + c.rejected_throttled);
    tracer.AddCounter("service.rejected", rejected);
    tracer.AddCounter("service.offered",
                      static_cast<double>(c.submitted) + rejected);
    const double leases = static_cast<double>(service.arenas().Leases());
    tracer.AddCounter("service.arena_leases", leases);
    tracer.AddCounter(
        "service.arena_hits",
        leases - static_cast<double>(service.arenas().Created()));
}

void
ServiceTour(const std::string& socket, uint64_t seed, const RequestPool& pool,
            size_t requests, Report& report)
{
    // Schedule entries far past any the workloads send.
    const uint64_t base = uint64_t{1} << 40;
    fpc::ServerConfig config;
    config.socket_path = socket;
    config.service.workers = 2;
    fpc::SocketServer server(config);
    TracedRequests(socket, seed, pool, base, requests, 1, report);

    fpc::ServiceConfig service_config;
    service_config.workers = 2;
    fpc::Service service(service_config);
    Tracer& tracer = Tracer::Get();
    for (size_t i = 0; i < requests; ++i) {
        const Scheduled s = ScheduleAt(seed, base + i, pool);
        const fpc::ServiceRequest request = MakeRequest(s, pool);
        Span root("service-call", "bench", tracer.NextOp(), 0);
        fpc::ServiceResponse response;
        {
            Span call("Service::Call", "service");
            response = service.Call(request);
        }
        Bytes answer;
        {
            Span exec("exec", "service");
            answer = LibraryAnswer(request);
        }
        Span verify("verify", "bench");
        Settle(response, ExpectedReply(s, pool), report);
        report.Check("library_matches_expected",
                     answer == ExpectedReply(s, pool));
    }
    OpenLoop(socket, seed, pool, base + requests, 1000.0, 0.15, 3, report);
    ClosedLoop(socket, seed, pool, base + requests + 150, 0.15, 3, report);
    CountScheduler(server.service());
    CountScheduler(service);
    service.Stop();
    server.Stop();
}

}  // namespace fpcbench
