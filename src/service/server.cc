/**
 * @file
 * SocketServer implementation — see service/server.h for the contract.
 *
 * Only the loop thread touches the listeners and the connections; other
 * threads reach it through mutex_-guarded state plus a wake-pipe byte.
 */
#include "service/server.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string_view>

#include <fcntl.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include "core/log.h"
#include "service/protocol.h"

namespace fpc {

namespace {

/** How long the listeners rest after a failed accept (EMFILE, ...):
 *  the connection stays queued, and the loop does not spin on it. */
constexpr uint64_t kAcceptBackoffNs = 100'000'000;

/** Bytes one Read or Flush call moves per poll pass, and the first
 *  buffer of a frame: a larger frame gets its declared size only once
 *  this much of it has arrived. */
constexpr size_t kIoSlice = size_t{1} << 20;

/** Descriptors RLIMIT_NOFILE keeps back from connections: stdio, the
 *  listeners, the wake pipe, and the files a daemon writes. */
constexpr rlim_t kReservedFds = 32;

size_t
ConnectionCap()
{
    rlimit limit{};
    if (::getrlimit(RLIMIT_NOFILE, &limit) != 0) return SIZE_MAX;
    const rlim_t keep = kReservedFds + kHttpConnections;
    return static_cast<size_t>(
        limit.rlim_cur > keep ? limit.rlim_cur - keep : 1);
}

Bytes
ToBytes(const std::string& text)
{
    const auto* bytes = reinterpret_cast<const std::byte*>(text.data());
    return Bytes(bytes, bytes + text.size());
}

/** Flat HTTP/1.1 response; the status line carries @p status verbatim. */
Bytes
HttpResponse(const char* status, const char* content_type,
             const std::string& body)
{
    return ToBytes(std::string("HTTP/1.1 ") + status +
                   "\r\nContent-Type: " + content_type +
                   "\r\nContent-Length: " + std::to_string(body.size()) +
                   "\r\nConnection: close\r\n\r\n" + body);
}

/** One send into a fresh or drained socket; it never waits, and a peer
 *  that is not reading loses the bytes. */
void
SendOnce(int fd, const Bytes& bytes)
{
    [[maybe_unused]] const ssize_t n =
        ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
}

Bytes
ErrorFrame(Errc status, const char* error)
{
    ServiceResponse response;
    response.status = status;
    response.error = error;
    return EncodeResponseFrame(response);
}

/** The reply frame for @p response; a payload past the frame cap (a
 *  huge decompress) becomes a typed error instead. */
Bytes
ReplyFrame(const ServiceResponse& response)
{
    try {
        return EncodeResponseFrame(response);
    } catch (const UsageError&) {
        return ErrorFrame(Errc::kUsage, "response exceeds the frame cap");
    }
}

}  // namespace

SocketServer::SocketServer(ServerConfig config)
    : config_(std::move(config)),
      service_(config_.service),
      max_connections_(ConnectionCap())
{
    try {
        listen_fds_[0] = ListenUnix(config_.socket_path, config_.backlog);
        if (!config_.metrics_socket_path.empty()) {
            listen_fds_[1] =
                ListenUnix(config_.metrics_socket_path, config_.backlog);
        }
        if (::pipe2(wake_fds_, O_NONBLOCK | O_CLOEXEC) != 0) {
            throw std::runtime_error(std::string("pipe: ") +
                                     std::strerror(errno));
        }
    } catch (...) {
        for (const int fd : {listen_fds_[0], listen_fds_[1], wake_fds_[0]}) {
            if (fd >= 0) ::close(fd);
        }
        if (listen_fds_[0] >= 0) ::unlink(config_.socket_path.c_str());
        throw;
    }
    start_ns_ = TelemetryNowNs();
    MetricsRegistry& registry = MetricsRegistry::Global();
    metric_connections_ = registry.GetCounter(
        "fpc_server_connections_total", "Connections accepted.");
    metric_open_ = registry.GetGauge("fpc_server_connections_open",
                                     "Connections currently open.");
    metric_frames_in_ = registry.GetCounter(
        "fpc_server_frames_total", "Protocol frames by direction.",
        {{"direction", "read"}});
    metric_frames_out_ = registry.GetCounter(
        "fpc_server_frames_total", "Protocol frames by direction.",
        {{"direction", "written"}});
    metric_protocol_errors_ = registry.GetCounter(
        "fpc_server_protocol_errors_total",
        "Connections dropped after a malformed frame.");
    metric_stalled_ = registry.GetCounter(
        "fpc_server_stalled_total",
        "Connections cut after a partial request or pending reply made "
        "no progress for the stall timeout.");
    metric_refused_ = registry.GetCounter(
        "fpc_server_refused_total",
        "Connections refused at the connection cap.");
    metric_accept_errors_ = registry.GetCounter(
        "fpc_server_accept_errors_total",
        "Failed accept calls; the listeners rest briefly and retry.");
    metric_queue_depth_ = registry.GetGauge(
        "fpc_service_queue_depth",
        "Requests accepted but not yet dispatched to a worker.");
    metric_in_flight_ = registry.GetGauge("fpc_service_in_flight",
                                          "Requests currently executing.");
    loop_ = std::thread([this] { Loop(); });
}

SocketServer::~SocketServer() { Stop(); }

void
SocketServer::WakeLocked()
{
    const char byte = 0;
    // A full pipe already holds a pending wake-up.
    [[maybe_unused]] const ssize_t n = ::write(wake_fds_[1], &byte, 1);
}

void
SocketServer::Loop()
{
    const uint64_t stall_ns =
        static_cast<uint64_t>(kStallTimeout.count()) * 1'000'000;
    std::vector<pollfd> fds;
    std::vector<std::pair<uint64_t, Bytes>> replies;
    for (;;) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (stopped_) break;
            draining_seen_ = draining_;
            replies.swap(replies_);
        }
        now_ns_ = TelemetryNowNs();
        for (auto& [id, frame] : replies) {
            const auto it = connections_.find(id);
            if (it == connections_.end() || it->second.fd < 0) continue;
            it->second.in_flight = false;
            Queue(it->second, std::move(frame));
        }
        replies.clear();

        // Poll set: the wake pipe, the listeners unless resting (a
        // drain closes the protocol one), then every connection. A
        // stalled connection is cut here; the earliest deadline left
        // bounds the wait.
        uint64_t wake_at = UINT64_MAX;
        fds.assign(1, {wake_fds_[0], POLLIN, 0});
        if (now_ns_ < accept_resume_ns_) wake_at = accept_resume_ns_;
        if (draining_seen_ && listen_fds_[0] >= 0) {
            ::close(listen_fds_[0]);  // new connects are refused from here on
            listen_fds_[0] = -1;
        }
        for (const int fd : listen_fds_) {
            if (fd >= 0 && now_ns_ >= accept_resume_ns_) {
                fds.push_back({fd, POLLIN, 0});
            }
        }
        const size_t listeners = fds.size();
        for (auto it = connections_.begin(); it != connections_.end();) {
            Connection& c = it->second;
            // A drain stops reading: a protocol connection closes once
            // nothing of its own is in flight or being written.
            if (draining_seen_ && !c.http && c.out.empty() && !c.in_flight) {
                Close(c);
            }
            const uint64_t deadline = c.progress_ns + stall_ns;
            if (c.fd >= 0 && (!c.out.empty() || c.http || c.got > 0)) {
                if (now_ns_ < deadline) {
                    wake_at = std::min(wake_at, deadline);
                } else {
                    metric_stalled_->Inc();
                    Close(c);
                }
            }
            if (c.fd < 0) {
                it = connections_.erase(it);
                continue;
            }
            // A request in flight: poll only for hang-up or error.
            fds.push_back({c.fd,
                           static_cast<short>(!c.out.empty() ? POLLOUT
                                              : c.in_flight  ? 0
                                                             : POLLIN),
                           0});
            ++it;
        }
        const int timeout_ms =
            wake_at == UINT64_MAX
                ? -1
                : static_cast<int>((wake_at - now_ns_ + 999'999) / 1'000'000);
        if (::poll(fds.data(), fds.size(), timeout_ms) < 0) {
            if (errno == EINTR) continue;
            const LogField fields[] = {
                LogStr("error", std::strerror(errno))};
            Log(LogLevel::kError, "poll_failed", fields);
            break;
        }
        now_ns_ = TelemetryNowNs();
        if (fds[0].revents != 0) {
            char drain[64];
            while (::read(wake_fds_[0], drain, sizeof drain) > 0) {
            }
        }
        for (size_t i = 1; i < listeners; ++i) {
            if (fds[i].revents != 0) {
                Accept(fds[i].fd, fds[i].fd == listen_fds_[1]);
            }
        }
        // Connections follow in map order; Accept added ids past the end.
        auto it = connections_.begin();
        for (size_t i = listeners; i < fds.size(); ++i, ++it) {
            Connection& c = it->second;
            if (fds[i].revents == 0) continue;
            if ((fds[i].revents & POLLOUT) != 0) {
                Flush(c);
            } else if ((fds[i].revents & POLLIN) != 0) {
                Read(c);
            } else {
                Close(c);  // hang-up while its request runs: no taker
            }
        }
    }
    for (auto& [id, c] : connections_) Close(c);
    connections_.clear();
    for (int& fd : listen_fds_) {
        if (fd >= 0) ::close(fd);
        fd = -1;
    }
}

void
SocketServer::Accept(int listen_fd, bool http)
{
    for (;;) {
        const int fd = ::accept4(listen_fd, nullptr, nullptr,
                                 SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) {
            if (errno == EINTR || errno == ECONNABORTED) continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK) return;
            metric_accept_errors_->Inc();
            accept_resume_ns_ = now_ns_ + kAcceptBackoffNs;
            const LogField fields[] = {
                LogStr("error", std::strerror(errno))};
            Log(LogLevel::kWarn, "accept_failed", fields);
            return;
        }
        if ((http ? http_open_ : open_) >=
            (http ? kHttpConnections : max_connections_)) {
            // Counted before the peer can see the refusal, so a client
            // that reads the counter after its reply sees this one.
            metric_refused_->Inc();
            SendOnce(fd, http ? HttpResponse("503 Service Unavailable",
                                             "text/plain",
                                             "connection limit reached\n")
                              : ErrorFrame(Errc::kBusy,
                                           "connection limit reached"));
            ::close(fd);
            continue;
        }
        const uint64_t id = next_conn_++;
        connections_[id] = Connection{
            .id = id, .fd = fd, .http = http, .progress_ns = now_ns_};
        if (http) {
            ++http_open_;
            continue;
        }
        metric_connections_->Inc();
        metric_open_->Add(1);
        std::lock_guard<std::mutex> lock(mutex_);
        ++open_;
    }
}

void
SocketServer::Read(Connection& c)
{
    // At most kIoSlice bytes a pass: poll reports the rest on the next
    // one, after every other ready socket had its turn.
    for (size_t moved = 0; moved < kIoSlice;) {
        // Receive up to one byte past the HTTP head cap, or exactly to
        // the end of the frame's prefix, then of its body. The body grows
        // a slice at a time, its declared size reserved once the first
        // slice arrived: memory follows what the peer sent.
        std::byte* to = nullptr;
        size_t room = 0;
        if (c.http) {
            if (c.in.empty()) c.in.resize(kMaxHttpRequestBytes + 1);
            to = c.in.data() + c.got;
            room = c.in.size() - c.got;
        } else if (c.got < kFramePrefixBytes) {
            to = c.prefix + c.got;
            room = kFramePrefixBytes - c.got;
        } else {
            const size_t at = c.got - kFramePrefixBytes;
            if (at == c.in.size()) {
                if (at == kIoSlice) c.in.reserve(c.length);
                c.in.resize(std::min<size_t>(c.length, at + kIoSlice));
            }
            to = c.in.data() + at;
            room = c.in.size() - at;
        }
        const ssize_t got =
            ::recv(c.fd, to, std::min(room, kIoSlice - moved), 0);
        if (got < 0 && errno == EINTR) continue;
        if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
        if (got <= 0) {
            // EOF or a socket error: a clean hang-up between frames; a
            // broken frame inside one. A partial HTTP head gets no reply.
            if (!c.http && c.got > 0) metric_protocol_errors_->Inc();
            Close(c);
            return;
        }
        c.got += static_cast<size_t>(got);
        moved += static_cast<size_t>(got);
        c.progress_ns = now_ns_;
        if (c.http) {
            const std::string_view head(
                reinterpret_cast<const char*>(c.in.data()), c.got);
            if (head.find("\r\n\r\n") != std::string_view::npos) {
                Queue(c, HttpReply(head));
                return;
            }
            if (c.got > kMaxHttpRequestBytes) {
                Queue(c, HttpResponse("400 Bad Request", "text/plain",
                                      "request too large\n"));
                return;
            }
            continue;
        }
        try {
            if (c.got == kFramePrefixBytes) {
                c.length = FrameBodyLength(ByteSpan(c.prefix));
            }
            if (c.got == kFramePrefixBytes + c.length) {
                OnFrame(c);
                return;
            }
        } catch (const std::exception&) {
            ProtocolError(c);
            return;
        }
    }
}

void
SocketServer::OnFrame(Connection& c)
{
    metric_frames_in_->Inc();
    // The payload moves into the request; only its header is shifted.
    ServiceRequest request = DecodeRequest(std::move(c.in));
    c.in = Bytes();
    c.got = 0;
    if (request.request_id.empty()) {
        // Mint a server-side id so every log line and trace span stays
        // correlatable even for id-less clients.
        request.request_id = "srv-" + std::to_string(next_request_id_++);
    }
    ServiceResponse response;
    switch (request.verb) {
        case ServiceVerb::kStats:
            response.payload = ToBytes(service_.telemetry().ToJson());
            break;
        case ServiceVerb::kMetrics:
            response.payload =
                ToBytes(MetricsRegistry::Global().Exposition());
            break;
        case ServiceVerb::kHealth:
            response.payload = ToBytes(HealthJson());
            break;
        case ServiceVerb::kServerStats:
            response.payload = ToBytes(ServerStatsJson());
            break;
        case ServiceVerb::kShutdown:
            {
                std::lock_guard<std::mutex> lock(mutex_);
                shutdown_ = true;
            }
            state_cv_.notify_all();
            c.close_after_write = true;  // the kOk ack still goes out
            break;
        default:
            try {
                service_.Submit(std::move(request),
                                [this, id = c.id](ServiceResponse&& done) {
                                    Bytes frame = ReplyFrame(done);
                                    std::lock_guard<std::mutex> lock(mutex_);
                                    if (stopped_) return;  // loop is gone
                                    replies_.emplace_back(id,
                                                          std::move(frame));
                                    // One wake-up per batch the loop takes.
                                    if (replies_.size() == 1) WakeLocked();
                                });
                c.in_flight = true;
                return;
            } catch (const std::exception& e) {
                // Rejected at admission (ServiceBusy) or stopped.
                response.status = CurrentErrc();
                response.error = e.what();
            }
    }
    Queue(c, ReplyFrame(response));
}

void
SocketServer::ProtocolError(Connection& c)
{
    // One best-effort typed reply, then drop the connection: the framing
    // cannot be trusted past this point.
    metric_protocol_errors_->Inc();
    SendOnce(c.fd, ErrorFrame(CurrentErrc(), "protocol error"));
    Close(c);
}

Bytes
SocketServer::HttpReply(std::string_view head) const
{
    // Request line "METHOD TARGET VERSION"; headers and any body are
    // ignored.
    const std::string_view line = head.substr(0, head.find("\r\n"));
    const size_t method_end = line.find(' ');
    const size_t target_end = line.find(' ', method_end + 1);
    if (method_end == std::string_view::npos ||
        target_end == std::string_view::npos) {
        return HttpResponse("400 Bad Request", "text/plain",
                            "malformed request line\n");
    }
    const std::string_view target =
        line.substr(method_end + 1, target_end - method_end - 1);
    if (line.substr(0, method_end) != "GET") {
        return HttpResponse("405 Method Not Allowed", "text/plain",
                            "only GET is supported\n");
    }
    if (target == "/metrics") {
        return HttpResponse("200 OK",
                            "text/plain; version=0.0.4; charset=utf-8",
                            MetricsRegistry::Global().Exposition());
    }
    if (target == "/healthz") {
        return HttpResponse("200 OK", "application/json", HealthJson());
    }
    return HttpResponse("404 Not Found", "text/plain", "unknown path\n");
}

void
SocketServer::Queue(Connection& c, Bytes bytes)
{
    c.out = std::move(bytes);
    c.out_at = 0;
    c.progress_ns = now_ns_;
    Flush(c);
}

void
SocketServer::Flush(Connection& c)
{
    for (size_t moved = 0; c.out_at < c.out.size();) {
        if (moved >= kIoSlice) return;  // the rest on a later pass
        const ssize_t sent = ::send(
            c.fd, c.out.data() + c.out_at,
            std::min(c.out.size() - c.out_at, kIoSlice - moved), MSG_NOSIGNAL);
        if (sent < 0 && errno == EINTR) continue;
        if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
        if (sent < 0) {
            Close(c);  // the peer stopped reading
            return;
        }
        c.out_at += static_cast<size_t>(sent);
        moved += static_cast<size_t>(sent);
        c.progress_ns = now_ns_;
    }
    c.out = Bytes();
    if (!c.http) metric_frames_out_->Inc();
    // HTTP is one request per connection; a drain answers the last one.
    if (c.http || c.close_after_write || draining_seen_) Close(c);
}

void
SocketServer::Close(Connection& c)
{
    if (c.fd < 0) return;
    ::close(c.fd);
    c.fd = -1;
    if (c.http) {
        --http_open_;
        return;
    }
    metric_open_->Sub(1);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        --open_;
    }
    state_cv_.notify_all();  // a Drain may be waiting for zero
}

std::string
SocketServer::HealthJson() const
{
    size_t open = 0;
    bool draining = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        open = open_;
        draining = draining_ || shutdown_ || stopped_;
    }
    const uint64_t uptime = TelemetryNowNs() - start_ns_;
    std::string out = "{\"status\": \"";
    out += draining ? "draining" : "ok";
    out += "\", \"uptime_ns\": " + std::to_string(uptime);
    out += ", \"queue_depth\": " +
           std::to_string(metric_queue_depth_->Value());
    out += ", \"executing\": " + std::to_string(metric_in_flight_->Value());
    out += ", \"workers\": " + std::to_string(service_.workers());
    out += ", \"open_connections\": " + std::to_string(open);
    out += '}';
    return out;
}

std::string
SocketServer::ServerStatsJson() const
{
    bool draining = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        draining = draining_ || shutdown_ || stopped_;
    }
    std::string out = "{\"connections_accepted\": " +
                      std::to_string(metric_connections_->Value());
    out += ", \"connections_open\": " + std::to_string(metric_open_->Value());
    out += ", \"frames_read\": " +
           std::to_string(metric_frames_in_->Value());
    out += ", \"frames_written\": " +
           std::to_string(metric_frames_out_->Value());
    out += ", \"protocol_errors\": " +
           std::to_string(metric_protocol_errors_->Value());
    out += ", \"stalled\": " + std::to_string(metric_stalled_->Value());
    out += ", \"refused\": " + std::to_string(metric_refused_->Value());
    out += ", \"accept_errors\": " +
           std::to_string(metric_accept_errors_->Value());
    out += ", \"draining\": ";
    out += draining ? "true" : "false";
    out += '}';
    return out;
}

void
SocketServer::WaitForShutdown()
{
    std::unique_lock<std::mutex> lock(mutex_);
    state_cv_.wait(lock, [this] { return shutdown_ || stopped_; });
}

bool
SocketServer::WaitForShutdownFor(std::chrono::milliseconds timeout)
{
    std::unique_lock<std::mutex> lock(mutex_);
    return state_cv_.wait_for(lock, timeout,
                              [this] { return shutdown_ || stopped_; });
}

void
SocketServer::Drain(std::chrono::milliseconds deadline)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopped_) return;
        draining_ = true;
        WakeLocked();
    }
    if (LogEnabled(LogLevel::kInfo)) {
        const LogField fields[] = {
            LogU64("deadline_ms", static_cast<uint64_t>(deadline.count()))};
        Log(LogLevel::kInfo, "drain_begin", fields);
    }
    size_t open = 0;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        state_cv_.wait_for(lock, deadline, [this] { return open_ == 0; });
        open = open_;
    }
    if (LogEnabled(LogLevel::kInfo)) {
        const LogField fields[] = {LogU64("connections_cut", open)};
        Log(LogLevel::kInfo, "drain_end", fields);
    }
    Stop();
}

void
SocketServer::Stop()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopped_) return;
        stopped_ = true;
        shutdown_ = true;
        WakeLocked();
    }
    state_cv_.notify_all();
    if (loop_.joinable()) loop_.join();
    ::unlink(config_.socket_path.c_str());
    if (!config_.metrics_socket_path.empty()) {
        ::unlink(config_.metrics_socket_path.c_str());
    }
    // Workers finishing queued requests see stopped_ and drop their
    // replies; after this no worker is left to write the wake pipe.
    service_.Stop();
    replies_.clear();
    ::close(wake_fds_[0]);
    ::close(wake_fds_[1]);
}

}  // namespace fpc
