/**
 * @file
 * SocketServer — the fpcd daemon's front-end. One poll() loop thread
 * owns every socket: the unix-domain listener speaking the framed
 * protocol (service/protocol.h), an optional HTTP metrics listener, a
 * wake pipe, and every connection. The server answers the control verbs
 * itself (kStats: telemetry JSON, kMetrics: the exposition, kHealth and
 * kServerStats: JSON rendered from the metrics registry, kShutdown:
 * resolves WaitForShutdown) and hands every compute verb to one
 * fpc::Service, whose ServiceResponse (ServiceBusy included) becomes the
 * reply frame verbatim. A malformed frame gets one best-effort typed
 * error reply and the connection is dropped; client input never kills
 * the daemon.
 *
 * Transport rules, each counted in the metrics registry:
 *  - one request in flight per protocol connection: the loop does not
 *    read it while its request runs or its reply is written, so replies
 *    leave in request order;
 *  - one Read or write call moves at most 1 MiB per poll pass, so a
 *    large frame never holds the loop while other sockets wait;
 *  - a partial frame, partial HTTP head or reply write that makes no
 *    progress for kStallTimeout is cut (fpc_server_stalled_total);
 *  - past MaxConnections() protocol connections, or kHttpConnections on
 *    the HTTP socket, a new connection gets one kBusy frame (a 503) and
 *    is closed (fpc_server_refused_total);
 *  - a failed accept (EMFILE, ...) rests the listeners briefly and never
 *    ends accepting (fpc_server_accept_errors_total).
 *
 * The HTTP socket is a scrape target: `GET /metrics` (fpc.metrics.v1
 * exposition) and `GET /healthz` (HealthJson), one request per
 * connection, the head capped at kMaxHttpRequestBytes (400), other
 * paths 404, other methods 405, `Connection: close` always:
 *     curl --unix-socket PATH http://localhost/metrics
 *
 * Requests without a client-propagated id are minted one (`srv-<n>`), so
 * every request log line and trace span is correlatable.
 */
#ifndef FPC_SERVICE_SERVER_H
#define FPC_SERVICE_SERVER_H

#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "service/protocol.h"
#include "service/service.h"

namespace fpc {

/** How long a partial frame, partial HTTP head, or pending reply may
 *  go without progress before its connection is cut. */
inline constexpr std::chrono::milliseconds kStallTimeout{2000};

/** Open connections on the HTTP socket past which a scrape is refused;
 *  they do not count against MaxConnections(), so a full protocol
 *  socket never locks monitoring out. */
inline constexpr size_t kHttpConnections = 4;

/** Cap on one HTTP request head (request line + headers). A scraper
 *  needs ~100 bytes; anything larger is hostile and gets 400. */
inline constexpr size_t kMaxHttpRequestBytes = 8192;

struct ServerConfig {
    /** Filesystem path of the listening socket. A stale file at the
     *  path is unlinked before bind (the daemon's restart story). */
    std::string socket_path;
    /** Path of the HTTP metrics socket (`GET /metrics`, `/healthz`);
     *  empty = none. A stale file is replaced as for socket_path. */
    std::string metrics_socket_path;
    /** Scheduler configuration (workers, queue, QoS defaults...). */
    ServiceConfig service;
    int backlog = 64;
};

class SocketServer {
 public:
    /** Bind + listen + start the loop. Throws UsageError when a socket
     *  cannot be created at its path. */
    explicit SocketServer(ServerConfig config);
    SocketServer(const SocketServer&) = delete;
    SocketServer& operator=(const SocketServer&) = delete;
    ~SocketServer();

    /** The scheduler behind this server (QoS setup, telemetry). */
    Service& service() { return service_; }

    const std::string& Path() const { return config_.socket_path; }

    /** Protocol connections served at once: the soft RLIMIT_NOFILE at
     *  construction, less kHttpConnections and a reserve for the
     *  listeners, the wake pipe and the process's other files. */
    size_t MaxConnections() const { return max_connections_; }

    /** Block until a client sends the shutdown verb or Stop() is
     *  called. */
    void WaitForShutdown();

    /** WaitForShutdown with a timeout; returns true when shutdown was
     *  requested, false on timeout — the daemon's signal-polling loop
     *  (signals cannot wake a condition variable). */
    bool WaitForShutdownFor(std::chrono::milliseconds timeout);

    /** Stop the loop, close every connection, drain the scheduler, and
     *  join all threads. Idempotent; unlinks the socket paths. */
    void Stop();

    /**
     * Graceful shutdown: stop accepting and reading protocol
     * connections, keep writing until every accepted request has been
     * answered or @p deadline passes, then Stop(). The HTTP socket
     * serves scrapes until Stop(). Every request accepted before the
     * drain began receives its response (tests/protocol_test.cc
     * DrainDropsNoInFlightRequest).
     */
    void Drain(std::chrono::milliseconds deadline);

    /** Liveness JSON: {"status": "ok"|"draining", "uptime_ns",
     *  "queue_depth", "executing", "workers", "open_connections" (protocol
     *  connections, as fpc_server_connections_open)};
     *  queue_depth and executing are the fpc_service_queue_depth and
     *  fpc_service_in_flight gauges. */
    std::string HealthJson() const;

    /** Transport-counter JSON: connections accepted/open, frames
     *  read/written, protocol errors, stalled and refused connections,
     *  accept errors (the process-wide fpc_server_* registry values),
     *  draining flag. */
    std::string ServerStatsJson() const;

 private:
    /** One accepted socket; touched by the loop thread only. */
    struct Connection {
        uint64_t id = 0;
        int fd = -1;  ///< -1 once closed, until the loop erases it
        bool http = false;
        uint64_t progress_ns = 0;  ///< last byte moved, or the accept
        std::byte prefix[kFramePrefixBytes]{};  ///< frame length
        Bytes in{};      ///< frame body, or HTTP head
        size_t got = 0;  ///< bytes received: prefix + body, or head
        uint32_t length = 0;  ///< declared body length
        bool in_flight = false;    ///< submitted, reply not yet queued
        Bytes out{};               ///< reply bytes being written
        size_t out_at = 0;
        bool close_after_write = false;
    };

    void Loop();
    void Accept(int listen_fd, bool http);
    void Read(Connection& c);
    void OnFrame(Connection& c);
    void ProtocolError(Connection& c);
    Bytes HttpReply(std::string_view head) const;
    void Queue(Connection& c, Bytes bytes);
    void Flush(Connection& c);
    void Close(Connection& c);
    void WakeLocked();  ///< caller holds mutex_

    ServerConfig config_;
    Service service_;
    uint64_t start_ns_ = 0;
    size_t max_connections_ = 0;

    // Loop-thread state; the loop closes the listeners at drain or exit.
    int listen_fds_[2] = {-1, -1};  ///< protocol, HTTP metrics
    std::map<uint64_t, Connection> connections_;
    uint64_t next_conn_ = 0;
    size_t http_open_ = 0;
    uint64_t next_request_id_ = 0;  ///< srv-<n> minting
    uint64_t accept_resume_ns_ = 0;
    uint64_t now_ns_ = 0;  ///< this loop pass's clock
    bool draining_seen_ = false;

    mutable std::mutex mutex_;  // guards the fields below
    std::condition_variable state_cv_;
    bool shutdown_ = false;
    bool stopped_ = false;
    bool draining_ = false;
    size_t open_ = 0;  ///< protocol connections open
    /** Reply frames by connection id, posted by workers. */
    std::vector<std::pair<uint64_t, Bytes>> replies_;
    int wake_fds_[2] = {-1, -1};  ///< pipe: the loop polls the read end

    // Live-metrics handles (core/metrics.h), the only owner of the
    // transport counters; SERVER_STATS and HEALTH render from them.
    Counter* metric_connections_ = nullptr;
    Gauge* metric_open_ = nullptr;
    Counter* metric_frames_in_ = nullptr;
    Counter* metric_frames_out_ = nullptr;
    Counter* metric_protocol_errors_ = nullptr;
    Counter* metric_stalled_ = nullptr;
    Counter* metric_refused_ = nullptr;
    Counter* metric_accept_errors_ = nullptr;
    const Gauge* metric_queue_depth_ = nullptr;
    const Gauge* metric_in_flight_ = nullptr;

    std::thread loop_;
};

}  // namespace fpc

#endif  // FPC_SERVICE_SERVER_H
