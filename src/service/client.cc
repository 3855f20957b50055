/**
 * @file
 * SocketClient implementation — see service/client.h.
 */
#include "service/client.h"

#include <unistd.h>

#include "service/protocol.h"

namespace fpc {

SocketClient::SocketClient(const std::string& socket_path)
    : fd_(ConnectUnix(socket_path))
{
}

SocketClient::~SocketClient()
{
    if (fd_ >= 0) ::close(fd_);
}

ServiceResponse
SocketClient::Call(const ServiceRequest& request)
{
    WriteFrame(fd_, ByteSpan(EncodeRequest(request)));
    Bytes body;
    if (!ReadFrame(fd_, body)) {
        throw std::runtime_error(
            "service connection closed before a reply");
    }
    return DecodeResponse(std::move(body));
}

}  // namespace fpc
