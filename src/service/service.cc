/**
 * @file
 * fpc::Service implementation — see service/service.h for the contract.
 *
 * Locking model: one mutex guards the tenant map, the per-tenant queues,
 * and the counters. Workers hold it only to pick/pop a request and to
 * post completion bookkeeping; request execution (the expensive part)
 * and promise fulfilment run unlocked. TenantState lives in a std::map,
 * so the pointer a worker takes before unlocking stays valid.
 */
#include "service/service.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <memory>
#include <thread>
#include <utility>

#include "core/executor.h"
#include "core/log.h"

namespace fpc {

namespace {

/** Inspect(payload) rendered as one JSON line — the `fpcc inspect` body,
 *  same key set as `fpczip inspect` for a bare container. */
std::string
InspectContainerJson(ByteSpan payload)
{
    const CompressedInfo info = Inspect(payload);
    std::string out = "{\"algorithm\": \"" + info.algorithm_name +
                      "\", \"algorithm_id\": " +
                      std::to_string(static_cast<unsigned>(info.algorithm)) +
                      ", \"mode\": \"" +
                      (info.adaptive ? "auto" : "fixed") +
                      "\", \"original_size\": " +
                      std::to_string(info.original_size) +
                      ", \"transformed_size\": " +
                      std::to_string(info.transformed_size) +
                      ", \"compressed_size\": " +
                      std::to_string(info.compressed_size) +
                      ", \"chunk_count\": " +
                      std::to_string(info.chunk_count) +
                      ", \"raw_chunks\": " + std::to_string(info.raw_chunks);
    if (info.adaptive) {
        out += ", \"algorithm_chunks\": {";
        for (size_t a = 0; a < info.algorithm_chunks.size(); ++a) {
            if (a != 0) out += ", ";
            out += '"';
            out += AlgorithmName(static_cast<Algorithm>(a));
            out += "\": " + std::to_string(info.algorithm_chunks[a]);
        }
        out += '}';
    }
    char ratio[32];
    std::snprintf(ratio, sizeof ratio, "%.6f", info.ratio);
    out += ", \"ratio\": ";
    out += ratio;
    out += '}';
    return out;
}

Bytes
ToBytes(const std::string& text)
{
    Bytes out(text.size());
    std::memcpy(out.data(), text.data(), text.size());
    return out;
}

}  // namespace

const char*
ServiceVerbName(ServiceVerb verb)
{
    switch (verb) {
        case ServiceVerb::kCompress: return "compress";
        case ServiceVerb::kDecompress: return "decompress";
        case ServiceVerb::kDecompressRange: return "decompress_range";
        case ServiceVerb::kInspect: return "inspect";
        case ServiceVerb::kStats: return "stats";
        case ServiceVerb::kShutdown: return "shutdown";
        case ServiceVerb::kMetrics: return "metrics";
        case ServiceVerb::kHealth: return "health";
        case ServiceVerb::kServerStats: return "server_stats";
    }
    return "unknown";
}

ServiceVerb
ParseServiceVerb(const std::string& name)
{
    for (const ServiceVerb verb :
         {ServiceVerb::kCompress, ServiceVerb::kDecompress,
          ServiceVerb::kDecompressRange, ServiceVerb::kInspect,
          ServiceVerb::kStats, ServiceVerb::kShutdown,
          ServiceVerb::kMetrics, ServiceVerb::kHealth,
          ServiceVerb::kServerStats}) {
        if (name == ServiceVerbName(verb)) return verb;
    }
    throw UsageError("unknown service verb: " + name);
}

Service::Service(ServiceConfig config) : config_(config)
{
    if (config_.workers <= 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        config_.workers = static_cast<int>(std::min(4u, std::max(1u, hw)));
    }
    if (config_.queue_capacity == 0) config_.queue_capacity = 1;
    if (config_.request_threads <= 0) config_.request_threads = 1;
    paused_ = config_.start_paused;
    MetricsRegistry& registry = MetricsRegistry::Global();
    queue_depth_gauge_ = registry.GetGauge(
        "fpc_service_queue_depth",
        "Requests accepted but not yet dispatched to a worker.");
    in_flight_gauge_ = registry.GetGauge(
        "fpc_service_in_flight", "Requests currently executing.");
    throttle_events_ = registry.GetCounter(
        "fpc_service_throttle_events_total",
        "Token-bucket throttle rejections across all tenants.");
    threads_.reserve(static_cast<size_t>(config_.workers));
    for (int i = 0; i < config_.workers; ++i) {
        threads_.emplace_back([this] { WorkerLoop(); });
    }
}

Service::~Service() { Stop(); }

Service::Counters
Service::counters() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return counters_;
}

Service::TenantState&
Service::TenantOf(const std::string& tenant)
{
    auto [it, inserted] = tenants_.try_emplace(tenant);
    if (inserted) {
        it->second.qos = config_.default_qos;
        tenant_order_.push_back(tenant);
        // Resolve this tenant's metric handles once so the per-request
        // paths never take the registry lock.
        MetricsRegistry& registry = MetricsRegistry::Global();
        TenantMetrics& metrics = it->second.metrics;
        for (size_t v = 0; v < std::size(metrics.requests_ok); ++v) {
            metrics.requests_ok[v] = registry.GetCounter(
                "fpc_service_requests_total",
                "Completed requests by tenant, verb, and status.",
                {{"tenant", tenant},
                 {"verb", ServiceVerbName(static_cast<ServiceVerb>(v))},
                 {"status", "ok"}});
        }
        for (size_t r = 0; r < std::size(metrics.rejected); ++r) {
            const auto reason = static_cast<ServiceBusy::Reason>(r);
            metrics.rejected[r] = registry.GetCounter(
                "fpc_service_rejected_total",
                "Requests rejected at admission by tenant and reason.",
                {{"tenant", tenant},
                 {"reason", ServiceBusyReasonName(reason)}});
        }
        metrics.bytes_in = registry.GetCounter(
            "fpc_service_bytes_total",
            "Request payload and response bytes by tenant and direction.",
            {{"tenant", tenant}, {"direction", "in"}});
        metrics.bytes_out = registry.GetCounter(
            "fpc_service_bytes_total",
            "Request payload and response bytes by tenant and direction.",
            {{"tenant", tenant}, {"direction", "out"}});
        metrics.queue_wait = registry.GetHistogram(
            "fpc_service_queue_wait_ns",
            "Per-request queue wait (submit to dispatch) by tenant, "
            "nanoseconds.",
            {{"tenant", tenant}});
        metrics.request = registry.GetHistogram(
            "fpc_service_request_ns",
            "Per-request end-to-end latency (submit to completion) by "
            "tenant, nanoseconds.",
            {{"tenant", tenant}});
    }
    return it->second;
}

void
Service::SetTenantQos(const std::string& tenant, const TenantQos& qos)
{
    std::lock_guard<std::mutex> lock(mutex_);
    TenantState& state = TenantOf(tenant);
    state.qos = qos;
    state.tokens = static_cast<double>(qos.burst_bytes);
    state.refill_ns = TelemetryNowNs();
    state.bucket_started = true;
}

void
Service::Submit(ServiceRequest request, Completion done)
{
    if (request.verb != ServiceVerb::kCompress &&
        request.verb != ServiceVerb::kDecompress &&
        request.verb != ServiceVerb::kDecompressRange &&
        request.verb != ServiceVerb::kInspect) {
        throw UsageError(std::string("Service::Submit: control verb '") +
                         ServiceVerbName(request.verb) +
                         "' is answered by the front-end, not scheduled");
    }
    const uint64_t now = TelemetryNowNs();
    Pending pending;
    pending.submit_ns = now;
    pending.done = std::move(done);

    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_) {
            throw UsageError("Service::Submit: service is stopped");
        }
        TenantState& state = TenantOf(request.tenant);
        const std::string tenant = request.tenant;
        auto reject = [&](ServiceBusy::Reason reason,
                          const std::string& what) {
            state.metrics.rejected[static_cast<size_t>(reason)]->Inc();
            if (reason == ServiceBusy::Reason::kThrottled) {
                throttle_events_->Inc();
            }
            if (LogEnabled(LogLevel::kDebug)) {
                const LogField fields[] = {
                    LogStr("request_id", request.request_id),
                    LogStr("tenant", tenant),
                    LogStr("reason", ServiceBusyReasonName(reason)),
                };
                Log(LogLevel::kDebug, "request_rejected", fields);
            }
            throw ServiceBusy(reason, what);
        };
        if (total_queued_ >= config_.queue_capacity) {
            ++counters_.rejected_queue_full;
            reject(ServiceBusy::Reason::kQueueFull,
                   "service queue full (" +
                       std::to_string(config_.queue_capacity) +
                       " pending requests)");
        }
        if (state.qos.max_in_flight != 0 &&
            state.in_flight >= state.qos.max_in_flight) {
            ++counters_.rejected_in_flight;
            reject(ServiceBusy::Reason::kInFlight,
                   "tenant '" + tenant + "' at max_in_flight (" +
                       std::to_string(state.qos.max_in_flight) + ")");
        }
        if (state.qos.rate_bytes_per_sec != 0) {
            if (!state.bucket_started) {
                state.tokens = static_cast<double>(state.qos.burst_bytes);
                state.refill_ns = now;
                state.bucket_started = true;
            } else if (now > state.refill_ns) {
                const double refill =
                    static_cast<double>(now - state.refill_ns) * 1e-9 *
                    static_cast<double>(state.qos.rate_bytes_per_sec);
                state.tokens =
                    std::min(state.tokens + refill,
                             static_cast<double>(state.qos.burst_bytes));
                state.refill_ns = now;
            }
            const auto need = static_cast<double>(request.payload.size());
            if (state.tokens < need) {
                ++counters_.rejected_throttled;
                reject(ServiceBusy::Reason::kThrottled,
                       "tenant '" + tenant + "' throttled (bucket " +
                           std::to_string(
                               static_cast<uint64_t>(state.tokens)) +
                           " of " + std::to_string(request.payload.size()) +
                           " bytes)");
            }
            state.tokens -= need;
        }
        pending.request = std::move(request);
        state.queue.push_back(std::move(pending));
        ++state.in_flight;
        ++total_queued_;
        ++counters_.submitted;
    }
    queue_depth_gauge_->Add(1);
    work_cv_.notify_one();
}

std::future<ServiceResponse>
Service::Submit(ServiceRequest request)
{
    auto promise = std::make_shared<std::promise<ServiceResponse>>();
    std::future<ServiceResponse> future = promise->get_future();
    Submit(std::move(request), [promise](ServiceResponse&& response) {
        promise->set_value(std::move(response));
    });
    return future;
}

ServiceResponse
Service::Call(ServiceRequest request)
{
    try {
        return Submit(std::move(request)).get();
    } catch (const std::exception& e) {
        ServiceResponse response;
        response.status = CurrentErrc();
        response.error = e.what();
        return response;
    }
}

void
Service::Resume()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        paused_ = false;
    }
    work_cv_.notify_all();
}

void
Service::Stop()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_ && threads_.empty()) return;
        stopping_ = true;
        paused_ = false;  // drain even a paused backlog
    }
    work_cv_.notify_all();
    for (std::thread& thread : threads_) {
        if (thread.joinable()) thread.join();
    }
    threads_.clear();
}

Service::TenantState*
Service::NextTenant()
{
    const size_t n = tenant_order_.size();
    for (size_t step = 0; step < n; ++step) {
        const size_t i = (rr_next_ + step) % n;
        TenantState& state = tenants_.find(tenant_order_[i])->second;
        if (!state.queue.empty()) {
            rr_next_ = (i + 1) % n;
            return &state;
        }
    }
    return nullptr;
}

void
Service::WorkerLoop()
{
    for (;;) {
        Pending pending;
        TenantState* state = nullptr;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            work_cv_.wait(lock, [this] {
                return stopping_ || (!paused_ && total_queued_ > 0);
            });
            if (total_queued_ == 0) {
                if (stopping_) return;
                continue;
            }
            if (paused_ && !stopping_) continue;
            state = NextTenant();
            if (state == nullptr) continue;
            pending = std::move(state->queue.front());
            state->queue.pop_front();
            --total_queued_;
        }
        queue_depth_gauge_->Sub(1);
        in_flight_gauge_->Add(1);

        const uint64_t start_ns = TelemetryNowNs();
        ServiceResponse response = Execute(pending.request);
        const uint64_t end_ns = TelemetryNowNs();

        in_flight_gauge_->Sub(1);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --state->in_flight;
            ++counters_.executed;
            if (response.status != Errc::kOk) ++counters_.failed;
        }
        RecordOutcome(pending.request, response, state->metrics,
                      pending.submit_ns, start_ns, end_ns);
        // Complete last, unlocked: the waiter may immediately destroy
        // the service from its continuation.
        pending.done(std::move(response));
    }
}

ServiceResponse
Service::Execute(const ServiceRequest& request)
{
    ServiceResponse response;
    try {
        Options options;
        options.with_threads(config_.request_threads)
            .with_arenas(&arenas_)
            .with_telemetry(&telemetry_)
            .with_adaptive(request.adaptive);
        if (!request.executor.empty()) {
            options.with_executor(request.executor);
        }
        const ByteSpan payload(request.payload);
        switch (request.verb) {
            case ServiceVerb::kCompress:
                response.payload =
                    Compress(request.algorithm, payload, options);
                break;
            case ServiceVerb::kDecompress:
                response.payload = Decompress(payload, options);
                break;
            case ServiceVerb::kDecompressRange:
                response.payload =
                    DecompressRange(payload, request.range_first,
                                    request.range_count, options);
                break;
            case ServiceVerb::kInspect:
                response.payload = ToBytes(InspectContainerJson(payload));
                break;
            default:
                throw UsageError("Service::Execute: unexpected verb");
        }
    } catch (const std::exception& e) {
        response.status = CurrentErrc();
        response.error = e.what();
        response.payload.clear();
    }
    return response;
}

void
Service::RecordOutcome(const ServiceRequest& request,
                       const ServiceResponse& response,
                       const TenantMetrics& metrics, uint64_t submit_ns,
                       uint64_t start_ns, uint64_t end_ns)
{
    const uint64_t queue_ns = start_ns > submit_ns ? start_ns - submit_ns : 0;
    const uint64_t total_ns = end_ns > submit_ns ? end_ns - submit_ns : 0;

    // Live metrics. The common path (kOk on a compute verb) uses the
    // handles prefilled at tenant creation; anything else resolves its
    // status-labelled counter lazily — errors are rare by design.
    const auto verb_index = static_cast<size_t>(request.verb);
    if (response.status == Errc::kOk &&
        verb_index < std::size(metrics.requests_ok)) {
        metrics.requests_ok[verb_index]->Inc();
    } else {
        MetricsRegistry::Global()
            .GetCounter("fpc_service_requests_total",
                        "Completed requests by tenant, verb, and status.",
                        {{"tenant", request.tenant},
                         {"verb", ServiceVerbName(request.verb)},
                         {"status", ErrcName(response.status)}})
            ->Inc();
    }
    metrics.bytes_in->Inc(request.payload.size());
    metrics.bytes_out->Inc(response.payload.size());
    metrics.queue_wait->Record(queue_ns);
    metrics.request->Record(total_ns);

    // One structured line per completed request (core/log.h; failures
    // escalate to warn so they survive the default threshold).
    const LogLevel level = response.status == Errc::kOk ? LogLevel::kInfo
                                                        : LogLevel::kWarn;
    if (LogEnabled(level)) {
        std::vector<LogField> fields;
        fields.reserve(9);
        fields.push_back(LogStr("request_id", request.request_id));
        fields.push_back(LogStr("tenant", request.tenant));
        fields.push_back(LogStr("verb", ServiceVerbName(request.verb)));
        fields.push_back(LogStr("status", ErrcName(response.status)));
        fields.push_back(LogU64("bytes_in", request.payload.size()));
        fields.push_back(LogU64("bytes_out", response.payload.size()));
        fields.push_back(LogU64("queue_ns", queue_ns));
        fields.push_back(LogU64("total_ns", total_ns));
        if (response.status != Errc::kOk) {
            fields.push_back(LogStr("error", response.error));
        }
        Log(level, "request", fields);
    }

    if (config_.trace != nullptr && kTelemetryEnabled) {
        const uint8_t dir = request.verb == ServiceVerb::kCompress
                                ? kTraceEncode
                                : kTraceDecode;
        std::string label = "request " + request.tenant + "/" +
                            ServiceVerbName(request.verb);
        if (!request.request_id.empty()) {
            label += " #" + request.request_id;
        }
        config_.trace->RecordRun(dir, label, submit_ns, end_ns);
    }
}

}  // namespace fpc
