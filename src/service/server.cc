/**
 * @file
 * SocketServer implementation — see service/server.h for the contract.
 */
#include "service/server.h"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "core/log.h"
#include "service/protocol.h"

namespace fpc {

namespace {

Bytes
ToBytes(const std::string& text)
{
    Bytes out(text.size());
    std::memcpy(out.data(), text.data(), text.size());
    return out;
}

}  // namespace

SocketServer::SocketServer(ServerConfig config)
    : config_(std::move(config)), service_(config_.service)
{
    sockaddr_un address{};
    address.sun_family = AF_UNIX;
    if (config_.socket_path.empty() ||
        config_.socket_path.size() >= sizeof address.sun_path) {
        throw UsageError("socket path too long: " + config_.socket_path);
    }
    std::memcpy(address.sun_path, config_.socket_path.c_str(),
                config_.socket_path.size() + 1);
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
        throw std::runtime_error(std::string("socket: ") +
                                 std::strerror(errno));
    }
    ::unlink(config_.socket_path.c_str());  // stale socket from a crash
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&address),
               sizeof address) != 0 ||
        ::listen(listen_fd_, config_.backlog) != 0) {
        const int err = errno;
        ::close(listen_fd_);
        listen_fd_ = -1;
        throw UsageError("cannot listen on " + config_.socket_path + ": " +
                         std::strerror(err));
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
    metric_queue_depth_ = registry.GetGauge(
        "fpc_service_queue_depth",
        "Requests accepted but not yet dispatched to a worker.");
    metric_in_flight_ = registry.GetGauge("fpc_service_in_flight",
                                          "Requests currently executing.");
    accept_thread_ = std::thread([this] { AcceptLoop(); });
}

SocketServer::~SocketServer() { Stop(); }

void
SocketServer::AcceptLoop()
{
    for (;;) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR) continue;
            return;  // listen fd shut down by Stop()
        }
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopped_) {
            ::close(fd);
            return;
        }
        const uint64_t id = next_conn_++;
        open_fds_.emplace(id, fd);
        metric_connections_->Inc();
        metric_open_->Add(1);
        handlers_.emplace_back([this, fd, id] {
            Serve(fd);
            metric_open_->Sub(1);
            std::lock_guard<std::mutex> inner(mutex_);
            open_fds_.erase(id);
        });
    }
}

void
SocketServer::Serve(int fd)
{
    Bytes body;
    for (;;) {
        bool have_frame = false;
        ServiceResponse response;
        try {
            have_frame = ReadFrame(fd, body);
            if (!have_frame) break;  // clean disconnect between frames
            metric_frames_in_->Inc();
            ServiceRequest request = DecodeRequest(ByteSpan(body));
            if (request.request_id.empty()) {
                // Mint a server-side id so every log line and trace
                // span stays correlatable even for id-less clients.
                request.request_id =
                    "srv-" + std::to_string(next_request_id_.fetch_add(
                                 1, std::memory_order_relaxed));
            }
            response = Answer(request);
        } catch (const std::exception&) {
            // Malformed frame (or the peer died mid-frame): one
            // best-effort typed error reply, then drop the connection —
            // the framing cannot be trusted past this point.
            metric_protocol_errors_->Inc();
            response.status = CurrentErrc();
            try {
                response.error = "protocol error";
                WriteFrame(fd, ByteSpan(EncodeResponse(response)));
            } catch (...) {
            }
            break;
        }
        try {
            WriteFrame(fd, ByteSpan(EncodeResponse(response)));
            metric_frames_out_->Inc();
        } catch (...) {
            break;  // peer stopped reading
        }
        if (response.status == Errc::kOk) {
            std::lock_guard<std::mutex> lock(mutex_);
            if (shutdown_) break;  // this frame was the shutdown verb
        }
    }
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
}

ServiceResponse
SocketServer::Answer(const ServiceRequest& request)
{
    ServiceResponse response;
    switch (request.verb) {
        case ServiceVerb::kStats:
            response.payload = ToBytes(service_.telemetry().ToJson());
            return response;
        case ServiceVerb::kMetrics:
            response.payload =
                ToBytes(MetricsRegistry::Global().Exposition());
            return response;
        case ServiceVerb::kHealth:
            response.payload = ToBytes(HealthJson());
            return response;
        case ServiceVerb::kServerStats:
            response.payload = ToBytes(ServerStatsJson());
            return response;
        case ServiceVerb::kShutdown: {
            {
                std::lock_guard<std::mutex> lock(mutex_);
                shutdown_ = true;
            }
            shutdown_cv_.notify_all();
            return response;  // kOk ack; the reply still goes out
        }
        default:
            return service_.Call(request);
    }
}

std::string
SocketServer::HealthJson() const
{
    size_t open = 0;
    bool draining = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        open = open_fds_.size();
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
    out += ", \"draining\": ";
    out += draining ? "true" : "false";
    out += '}';
    return out;
}

void
SocketServer::WaitForShutdown()
{
    std::unique_lock<std::mutex> lock(mutex_);
    shutdown_cv_.wait(lock, [this] { return shutdown_ || stopped_; });
}

bool
SocketServer::WaitForShutdownFor(std::chrono::milliseconds timeout)
{
    std::unique_lock<std::mutex> lock(mutex_);
    return shutdown_cv_.wait_for(
        lock, timeout, [this] { return shutdown_ || stopped_; });
}

void
SocketServer::Drain(std::chrono::milliseconds deadline)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopped_) return;
        draining_ = true;
        // Half-close only: the read sides see EOF (no new frames, the
        // accept loop exits), while the write sides stay open so every
        // already-accepted request can still be answered.
        if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RD);
        for (const auto& [id, fd] : open_fds_) ::shutdown(fd, SHUT_RD);
    }
    if (LogEnabled(LogLevel::kInfo)) {
        const LogField fields[] = {
            LogU64("deadline_ms", static_cast<uint64_t>(deadline.count()))};
        Log(LogLevel::kInfo, "drain_begin", fields);
    }
    const auto give_up = std::chrono::steady_clock::now() + deadline;
    for (;;) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (open_fds_.empty()) break;
        }
        if (std::chrono::steady_clock::now() >= give_up) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (LogEnabled(LogLevel::kInfo)) {
        size_t open = 0;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            open = open_fds_.size();
        }
        const LogField fields[] = {LogU64("connections_cut", open)};
        Log(LogLevel::kInfo, "drain_end", fields);
    }
    Stop();
}

void
SocketServer::Stop()
{
    std::vector<std::thread> handlers;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopped_) return;
        stopped_ = true;
        shutdown_ = true;
        // Wake the accept loop and every blocked connection read; the
        // handlers own close(), Stop only shuts the streams down.
        if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
        for (const auto& [id, fd] : open_fds_) ::shutdown(fd, SHUT_RDWR);
    }
    shutdown_cv_.notify_all();
    if (accept_thread_.joinable()) accept_thread_.join();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        handlers.swap(handlers_);
    }
    for (std::thread& handler : handlers) {
        if (handler.joinable()) handler.join();
    }
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
        ::unlink(config_.socket_path.c_str());
    }
    service_.Stop();
}

}  // namespace fpc
