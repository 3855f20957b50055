/**
 * @file
 * SocketServer — the fpcd daemon's front-end: a unix-domain stream
 * socket speaking the framed protocol (service/protocol.h), one
 * connection-handler thread per client, all requests funnelled into one
 * fpc::Service (service/service.h).
 *
 * Division of labour: the server owns transport concerns only — accept,
 * frame I/O, decode errors, the control verbs (kStats answers the
 * service telemetry JSON, kMetrics the Prometheus exposition, kHealth
 * and kServerStats their status JSONs rendered from the live metrics
 * registry, kShutdown resolves WaitForShutdown) — and forwards every
 * compute verb to Service::Call, whose ServiceResponse (success or
 * typed failure, ServiceBusy included) becomes the reply frame
 * verbatim. A connection that sends garbage gets one best-effort error
 * reply and is dropped; the daemon itself never dies on client input
 * (tests/protocol_test.cc).
 *
 * Requests without a client-propagated id are minted one (`srv-<n>`)
 * before entering the scheduler, so every request log line and trace
 * span is correlatable. Drain() is the graceful half of Stop(): it
 * half-closes the read side of every stream so no *new* frame arrives,
 * but keeps the write sides open until every accepted request has been
 * answered (or a deadline passes) — no in-flight request is dropped.
 */
#ifndef FPC_SERVICE_SERVER_H
#define FPC_SERVICE_SERVER_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/service.h"

namespace fpc {

struct ServerConfig {
    /** Filesystem path of the listening socket. A stale file at the
     *  path is unlinked before bind (the daemon's restart story). */
    std::string socket_path;
    /** Scheduler configuration (workers, queue, QoS defaults...). */
    ServiceConfig service;
    int backlog = 64;
};

class SocketServer {
 public:
    /** Bind + listen + start accepting. Throws UsageError when the
     *  socket cannot be created at the path. */
    explicit SocketServer(ServerConfig config);
    SocketServer(const SocketServer&) = delete;
    SocketServer& operator=(const SocketServer&) = delete;
    ~SocketServer();

    /** The scheduler behind this server (QoS setup, telemetry). */
    Service& service() { return service_; }

    const std::string& Path() const { return config_.socket_path; }

    /** Block until a client sends the shutdown verb or Stop() is
     *  called. */
    void WaitForShutdown();

    /** WaitForShutdown with a timeout; returns true when shutdown was
     *  requested, false on timeout — the daemon's signal-polling loop
     *  (signals cannot wake a condition variable). */
    bool WaitForShutdownFor(std::chrono::milliseconds timeout);

    /** Stop accepting, drop every connection, drain the scheduler, and
     *  join all threads. Idempotent; unlinks the socket path. */
    void Stop();

    /**
     * Graceful shutdown: half-close (SHUT_RD) the listen socket and
     * every open connection so no new frame can arrive, then wait up
     * to @p deadline for the in-flight requests to be answered over
     * the still-open write sides, then Stop(). Every request accepted
     * before the drain began receives its response
     * (tests/protocol_test.cc DrainDropsNoInFlightRequest).
     */
    void Drain(std::chrono::milliseconds deadline);

    /** Liveness JSON: {"status": "ok"|"draining", "uptime_ns",
     *  "queue_depth", "executing", "workers", "open_connections"};
     *  queue_depth and executing are the fpc_service_queue_depth and
     *  fpc_service_in_flight gauges. */
    std::string HealthJson() const;

    /** Transport-counter JSON: connections accepted/open, frames
     *  read/written, protocol errors (the process-wide fpc_server_*
     *  registry values), draining flag. */
    std::string ServerStatsJson() const;

 private:
    void AcceptLoop();
    void Serve(int fd);
    ServiceResponse Answer(const ServiceRequest& request);

    ServerConfig config_;
    Service service_;
    int listen_fd_ = -1;
    uint64_t start_ns_ = 0;

    mutable std::mutex mutex_;
    std::condition_variable shutdown_cv_;
    bool shutdown_ = false;
    bool stopped_ = false;
    bool draining_ = false;
    std::vector<std::thread> handlers_;
    std::map<uint64_t, int> open_fds_;  ///< live connection fds, by id
    uint64_t next_conn_ = 0;

    std::atomic<uint64_t> next_request_id_{0};  ///< srv-<n> minting

    // Live-metrics handles (core/metrics.h), the only owner of the
    // transport counters; SERVER_STATS and HEALTH render from them.
    Counter* metric_connections_ = nullptr;
    Gauge* metric_open_ = nullptr;
    Counter* metric_frames_in_ = nullptr;
    Counter* metric_frames_out_ = nullptr;
    Counter* metric_protocol_errors_ = nullptr;
    const Gauge* metric_queue_depth_ = nullptr;
    const Gauge* metric_in_flight_ = nullptr;

    std::thread accept_thread_;
};

}  // namespace fpc

#endif  // FPC_SERVICE_SERVER_H
