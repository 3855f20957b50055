/**
 * @file
 * fpc::Service — an async batched request scheduler over the Executor
 * registry, the library-level core of the `fpcd` daemon.
 *
 * The library's entry points serve one caller at a time; a production
 * deployment multiplexes many tenants with very different traffic
 * shapes over one process (ROADMAP "A concurrent compression service
 * front-end"). The Service turns the one-shot API into that shared
 * front-end:
 *
 *  - **Bounded submission queue.** Submit() never blocks and never
 *    queues unboundedly: past `queue_capacity` pending requests it
 *    throws ServiceBusy (core/errc.h), the typed backpressure signal
 *    clients retry on.
 *  - **Per-tenant QoS.** Each tenant has a token bucket
 *    (rate_bytes_per_sec / burst_bytes over request payload bytes) and
 *    an in-flight cap; either limit rejects with ServiceBusy *for that
 *    tenant only* — a flooding tenant burns its own budget, not the
 *    queue.
 *  - **Fair dispatch.** Pending requests are kept per tenant and
 *    workers pick tenants round-robin, so a deep backlog from one
 *    tenant cannot starve another's shallow queue (asserted by
 *    tests/service_test.cc).
 *  - **Pooled scratch.** All requests share one ArenaPool
 *    (core/arena.h) via Options::with_arenas, so steady-state requests
 *    reuse warm arenas instead of re-allocating per call.
 *  - **Same code path as the library.** Workers call the very same
 *    fpc::Compress / Decompress / DecompressRange / Inspect entry
 *    points over the same Executor registry, so service output is
 *    byte-identical to library output on every algorithm x backend.
 *
 * Observability: the live metrics registry (core/metrics.h) is the one
 * owner of every process-lifetime scheduler number — completions per
 * tenant, verb and status (failures are the non-ok statuses),
 * rejections per tenant and reason, bytes in and out per tenant,
 * per-tenant queue-wait and end-to-end latency histograms, and the
 * queue-depth and in-flight gauges — all scrapable via the daemon's
 * /metrics endpoint while requests are in flight, in every build. The
 * service's Telemetry sink (telemetry()) collects only the per-run
 * stage/chunk accounting of the library calls it executes; a TraceSink
 * (ServiceConfig::trace) additionally records one span per request.
 * Each completed request emits one structured log line (core/log.h,
 * level info) carrying the request id.
 */
#ifndef FPC_SERVICE_SERVICE_H
#define FPC_SERVICE_SERVICE_H

#include <condition_variable>
#include <deque>
#include <future>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/arena.h"
#include "core/codec.h"
#include "core/errc.h"
#include "core/metrics.h"
#include "core/telemetry.h"
#include "util/common.h"

namespace fpc {

/** Request verbs. The first four are scheduled compute verbs; the rest
 *  are control verbs answered by the front-end (the socket server)
 *  without entering the queue. Values ride the wire protocol
 *  (service/protocol.h) — append only. */
enum class ServiceVerb : uint8_t {
    kCompress = 0,
    kDecompress = 1,
    kDecompressRange = 2,
    kInspect = 3,
    kStats = 4,
    kShutdown = 5,
    kMetrics = 6,      ///< Prometheus text exposition of the registry
    kHealth = 7,       ///< liveness/readiness JSON (status, queue, uptime)
    kServerStats = 8,  ///< socket-server counters JSON (frames, conns)
};

/** Stable lower-case verb name ("compress", ...). */
const char* ServiceVerbName(ServiceVerb verb);

/** Parse a verb name; throws UsageError for unknown names. */
ServiceVerb ParseServiceVerb(const std::string& name);

/** One unit of work. Plain value; everything the scheduler and the wire
 *  protocol need travels in the request itself. */
struct ServiceRequest {
    ServiceVerb verb = ServiceVerb::kCompress;
    std::string tenant = "default";
    /** Compress only: the pipeline (or, with adaptive, the element
     *  width representative). Ignored by the decode verbs. */
    Algorithm algorithm = Algorithm::kSPspeed;
    bool adaptive = false;  ///< compress with mode=auto
    /** Executor registry name; empty selects the default backend. */
    std::string executor;
    Bytes payload;
    uint64_t range_first = 0;  ///< decompress_range only
    uint64_t range_count = 0;  ///< decompress_range only
    /** Correlation id threaded through the request log line and the
     *  trace span label. Clients may set one (propagated over the wire
     *  behind protocol flag bit 1); the server mints `srv-<n>` when
     *  absent. Empty = unset. */
    std::string request_id;
};

/** The outcome of one request. status == Errc::kOk means payload holds
 *  the result bytes (Inspect/Stats: a JSON text); any other status
 *  carries a diagnostic in error and an empty payload. */
struct ServiceResponse {
    Errc status = Errc::kOk;
    std::string error;
    Bytes payload;
};

/** Per-tenant quality-of-service limits. The zero value of each knob
 *  disables that limit. */
struct TenantQos {
    /** Token-bucket refill rate over request payload bytes; 0 = no rate
     *  limit. */
    uint64_t rate_bytes_per_sec = 0;
    /** Token-bucket capacity: the burst a tenant may submit instantly
     *  before the rate applies. */
    uint64_t burst_bytes = uint64_t{8} << 20;
    /** Max requests a tenant may have queued + executing; 0 = no cap. */
    uint32_t max_in_flight = 0;
};

struct ServiceConfig {
    /** Worker threads executing requests; 0 = min(4, hardware). */
    int workers = 0;
    /** Total pending (queued, not yet dispatched) requests across all
     *  tenants before Submit rejects with ServiceBusy. */
    size_t queue_capacity = 256;
    /** Options::threads of each executed request. Service throughput
     *  comes from request parallelism, so intra-request parallelism
     *  defaults to 1. */
    int request_threads = 1;
    /** QoS applied to tenants without an explicit SetTenantQos call. */
    TenantQos default_qos;
    /** Per-request span tracer; null = no spans. */
    TraceSink* trace = nullptr;
    /** Start with dispatch paused until Resume() — lets a caller stage
     *  a deterministic backlog (tests, batch loads). */
    bool start_paused = false;
};

/**
 * The scheduler. Construction spawns the worker pool; destruction (or
 * Stop()) drains every accepted request — each Submit()ed future is
 * always fulfilled.
 *
 * @code
 *   fpc::Service service({.workers = 4});
 *   fpc::ServiceRequest request;
 *   request.tenant = "climate";
 *   request.algorithm = fpc::Algorithm::kSPratio;
 *   request.payload = ...;
 *   std::future<fpc::ServiceResponse> done =
 *       service.Submit(std::move(request));   // throws ServiceBusy when
 *   fpc::ServiceResponse response = done.get();  // saturated
 * @endcode
 */
class Service {
 public:
    explicit Service(ServiceConfig config = {});
    Service(const Service&) = delete;
    Service& operator=(const Service&) = delete;
    ~Service();

    /**
     * Enqueue a request. Never blocks: when the queue is full, the
     * tenant is at its in-flight cap, or its token bucket is empty,
     * throws ServiceBusy (the request had no effect; retry later).
     * Throws UsageError for control verbs (kStats/kShutdown) and after
     * Stop(). The returned future is always eventually fulfilled;
     * execution errors arrive as ServiceResponse::status, not as
     * exceptions.
     */
    std::future<ServiceResponse> Submit(ServiceRequest request);

    /** Submit + wait, with every rejection folded into the response
     *  status (the front-end loop's shape: one ServiceResponse out per
     *  request in, never an exception). */
    ServiceResponse Call(ServiceRequest request);

    /** Set (or update) one tenant's QoS limits; also refills its
     *  bucket to the new burst. */
    void SetTenantQos(const std::string& tenant, const TenantQos& qos);

    /** Begin dispatch after ServiceConfig::start_paused. */
    void Resume();

    /** Reject new submissions, drain accepted ones, join the workers.
     *  Idempotent. */
    void Stop();

    /** The per-run telemetry sink every executed request reports into. */
    Telemetry& telemetry() { return telemetry_; }

    /** The shared scratch pool (diagnostics: Leases()/Created()). */
    ArenaPool& arenas() { return arenas_; }

    /** Scheduler-level totals (plain behaviour counters, collected
     *  regardless of FPC_TELEMETRY). */
    struct Counters {
        uint64_t submitted = 0;  ///< accepted into the queue
        uint64_t executed = 0;   ///< dispatched and completed
        uint64_t failed = 0;     ///< completed with status != kOk
        uint64_t rejected_queue_full = 0;
        uint64_t rejected_in_flight = 0;
        uint64_t rejected_throttled = 0;
    };
    Counters counters() const;

    /** Requests accepted but not yet dispatched by this service. */
    size_t QueueDepth() const;

    int workers() const { return static_cast<int>(threads_.size()); }

 private:
    struct Pending {
        ServiceRequest request;
        std::promise<ServiceResponse> promise;
        uint64_t submit_ns = 0;
    };

    /** Live-metrics handles a tenant's requests update; resolved once
     *  at tenant creation (TenantOf) so the per-request path never
     *  takes the registry lock. Indexed by reject reason / direction. */
    struct TenantMetrics {
        Counter* requests_ok[4] = {};  ///< by compute-verb value, kOk
        Counter* rejected[3] = {};     ///< by ServiceBusy::Reason value
        Counter* bytes_in = nullptr;
        Counter* bytes_out = nullptr;
        Histogram* queue_wait = nullptr;  ///< submit to dispatch
        Histogram* request = nullptr;     ///< submit to completion
    };

    /** Tenant scheduling state. Lives in a std::map, so pointers held
     *  by workers across unlock/relock stay valid. */
    struct TenantState {
        TenantQos qos;
        std::deque<Pending> queue;
        uint32_t in_flight = 0;  ///< queued + executing
        double tokens = 0.0;
        uint64_t refill_ns = 0;
        bool bucket_started = false;
        TenantMetrics metrics;
    };

    void WorkerLoop();
    /** Pick the next tenant round-robin; nullptr when nothing queued.
     *  Caller holds mutex_. */
    TenantState* NextTenant();
    ServiceResponse Execute(const ServiceRequest& request);
    void RecordOutcome(const ServiceRequest& request,
                       const ServiceResponse& response,
                       const TenantMetrics& metrics, uint64_t submit_ns,
                       uint64_t start_ns, uint64_t end_ns);
    TenantState& TenantOf(const std::string& tenant);  ///< holds mutex_

    ServiceConfig config_;
    Telemetry telemetry_;
    ArenaPool arenas_;

    // Process-wide live-metrics handles (core/metrics.h); stable for
    // the registry's lifetime, updated lock-free on the request path.
    Gauge* queue_depth_gauge_ = nullptr;
    Gauge* in_flight_gauge_ = nullptr;
    Counter* throttle_events_ = nullptr;

    mutable std::mutex mutex_;
    std::condition_variable work_cv_;
    std::map<std::string, TenantState> tenants_;
    std::vector<std::string> tenant_order_;  ///< round-robin ring
    size_t rr_next_ = 0;
    size_t total_queued_ = 0;
    bool paused_ = false;
    bool stopping_ = false;
    Counters counters_;

    std::vector<std::thread> threads_;
};

}  // namespace fpc

#endif  // FPC_SERVICE_SERVICE_H
