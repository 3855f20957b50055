/**
 * @file
 * The service path: a seeded request mix sent to an in-process
 * SocketServer (the fpcd front-end) over unix-socket connections, open
 * loop (independent clients on a schedule) or closed loop (each client
 * waits for its reply), with every reply compared byte for byte against
 * the library result for the same request.
 */
#ifndef FPC_BENCH_SERVICE_OPS_H
#define FPC_BENCH_SERVICE_OPS_H

#include <atomic>
#include <mutex>
#include <string>
#include <vector>

#include "report.h"
#include "service/service.h"

namespace fpcbench {

/** Request kinds of the mix, with their shares. */
enum class Kind : uint8_t {
    kSpSpeedCompress = 0,  ///< 40 %
    kDpRatioCompress = 1,  ///< 20 %
    kSpRatioDecompress = 2,  ///< 30 %
    kAutoCompress = 3,     ///< 10 %
};
inline constexpr double kKindShare[4] = {0.4, 0.2, 0.3, 0.1};

/** Payloads of the mix and the library's answer to every request. */
struct RequestPool {
    std::vector<fpc::Bytes> sp;        ///< float payloads
    std::vector<fpc::Bytes> dp;        ///< double payloads
    std::vector<fpc::Bytes> sp_ratio;  ///< SPratio containers of sp
    /** Expected replies, by kind, indexed like the kind's inputs. */
    std::vector<fpc::Bytes> expected[4];

    /** Compute the SPratio inputs and expected replies with the library
     *  (one thread, as the service runs each request). */
    void Prepare();
    /** Input bytes / stored bytes of the compress kinds, weighted by
     *  their share of the mix; exact for a given pool. */
    double Ratio() const;
};

/** One request of the mix: its kind, payload index and tenant (ingest,
 *  archive, analysis). */
struct Scheduled {
    Kind kind;
    size_t payload;
    const char* tenant;
};

fpc::ServiceRequest MakeRequest(const Scheduled& s, const RequestPool& pool);

/** Open-loop lateness samples and send counts, and closed-loop request
 *  counts, pooled over every load phase of the run (the loadgen layer's
 *  metrics). */
struct LoadgenStats {
    std::mutex mutex;
    std::vector<double> late_ns;
    uint64_t scheduled = 0;
    uint64_t sent = 0;
    uint64_t closed_requests = 0;
    double closed_seconds = 0;
    static LoadgenStats& Get();
};

/** One completed request of a load phase. */
struct LoadSample {
    int64_t at_ns = 0;  ///< due time (open loop) or reply time (closed)
    double latency_ns = 0;
    size_t bytes = 0;   ///< the request's uncompressed bytes
    bool decompress = false;
};

struct LoadResult {
    std::vector<LoadSample> samples;  ///< ordered by at_ns
    int64_t start_ns = 0;
    int64_t end_ns = 0;
};

/**
 * Open loop: schedule entries [@p first, first + rate * seconds), entry i
 * due at start + (i - first) / rate on connection i % connections; each
 * request's latency runs from its due time to its reply. Entries not sent
 * before the phase ends count as not sent.
 */
LoadResult OpenLoop(const std::string& socket, uint64_t seed,
                    const RequestPool& pool, uint64_t first, double rate,
                    double seconds, int connections, Report& report);

/** Closed loop: @p connections clients, each sending its next request
 *  (drawn from a shared cursor starting at @p first) when its reply
 *  arrives, for @p seconds. */
LoadResult ClosedLoop(const std::string& socket, uint64_t seed,
                      const RequestPool& pool, uint64_t first,
                      double seconds, int connections, Report& report);

/** Replay schedule entries [@p first, first + count) over @p connections
 *  connections, decomposed: EncodeRequest, the socket round trip and
 *  DecodeResponse in spans under one "request" root per request, whose
 *  operation id is also the request_id sent. */
void TracedRequests(const std::string& socket, uint64_t seed,
                    const RequestPool& pool, uint64_t first, uint64_t count,
                    int connections, Report& report);

/**
 * Tour of the service layer: a SocketServer of its own on @p socket,
 * @p requests decomposed requests, the same requests through an
 * in-process Service::Call and the bare library call, and short open and
 * closed loops. Arena and rejection counters are read from both
 * schedulers.
 */
void ServiceTour(const std::string& socket, uint64_t seed,
                 const RequestPool& pool, size_t requests, Report& report);

/** Record the arena-pool and rejection counters of @p service. */
void CountScheduler(fpc::Service& service);

}  // namespace fpcbench

#endif  // FPC_BENCH_SERVICE_OPS_H
