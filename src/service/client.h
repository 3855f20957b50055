/**
 * @file
 * SocketClient — a blocking connection to a running fpcd daemon. One
 * request/response in flight per client; open several clients for
 * concurrency (the daemon answers one request at a time per
 * connection, and different connections in parallel).
 *
 * @code
 *   fpc::SocketClient client("/run/fpcd.sock");
 *   fpc::ServiceRequest request;
 *   request.verb = fpc::ServiceVerb::kCompress;
 *   request.algorithm = fpc::Algorithm::kDPratio;
 *   request.payload = ...;
 *   fpc::ServiceResponse response = client.Call(request);
 *   if (response.status != fpc::Errc::kOk) ...  // typed, never parsed
 * @endcode
 */
#ifndef FPC_SERVICE_CLIENT_H
#define FPC_SERVICE_CLIENT_H

#include <string>

#include "service/service.h"

namespace fpc {

class SocketClient {
 public:
    /** Connect to the daemon at @p socket_path; throws UsageError when
     *  no daemon listens there. */
    explicit SocketClient(const std::string& socket_path);
    SocketClient(const SocketClient&) = delete;
    SocketClient& operator=(const SocketClient&) = delete;
    ~SocketClient();

    /** Send one request and wait for its reply. Throws
     *  CorruptStreamError when the daemon's reply is malformed and
     *  std::runtime_error when the connection drops; service-level
     *  failures (ServiceBusy included) arrive as ServiceResponse::status,
     *  never as exceptions. */
    ServiceResponse Call(const ServiceRequest& request);

 private:
    int fd_ = -1;
};

}  // namespace fpc

#endif  // FPC_SERVICE_CLIENT_H
