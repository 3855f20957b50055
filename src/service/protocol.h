/**
 * @file
 * fpcd wire protocol: length-prefixed frames over a unix-domain stream
 * socket, shared by the daemon (service/server.h), the client
 * (service/client.h), and the protocol fuzz tests.
 *
 * Framing: every message is a 4-byte little-endian body length followed
 * by the body. Bodies start with a fixed preamble:
 *
 *     offset  size  field
 *     0       2     magic 'F','Q'
 *     2       1     protocol version (kProtocolVersion)
 *     3       1     kind: 0 = request, 1 = response
 *
 * Request body (after the preamble):
 *
 *     4       1     verb            (ServiceVerb)
 *     5       1     algorithm       (Algorithm; compress only)
 *     6       1     flags           (bit 0: adaptive / mode=auto;
 *                                    bit 1: request id present)
 *     7       1     tenant length T
 *     8       T     tenant id (bytes, no NUL)
 *     8+T     1     executor length E
 *     9+T     E     executor registry name ("" = default backend)
 *     9+T+E   8     range_first     (u64 LE; decompress_range only)
 *     17+T+E  8     range_count     (u64 LE; decompress_range only)
 *     25+T+E  1+I   request id length I + id bytes — only when flag
 *                   bit 1 is set (alnum plus `-_.`, 1..64 bytes)
 *     rest          payload
 *
 * Response body (after the preamble):
 *
 *     4       1     status          (Errc — the shared exit-code table)
 *     5       4     error length L  (u32 LE)
 *     9       L     error text (empty when status == kOk)
 *     9+L     rest  payload
 *
 * Hostility rules (asserted by tests/protocol_test.cc): a declared
 * length past kMaxFrameBytes is rejected *before* any allocation; any
 * malformed body decodes to CorruptStreamError (never a crash or hang);
 * a peer that disappears mid-frame surfaces as clean EOF/error, and the
 * connection is dropped after one error reply.
 */
#ifndef FPC_SERVICE_PROTOCOL_H
#define FPC_SERVICE_PROTOCOL_H

#include <string>

#include "service/service.h"
#include "util/common.h"

namespace fpc {

inline constexpr uint8_t kProtocolVersion = 1;
inline constexpr uint8_t kFrameRequest = 0;
inline constexpr uint8_t kFrameResponse = 1;

/** Hard cap on one frame body. A declared length past this is a protocol
 *  error answered without allocating — the daemon's defence against
 *  memory-bomb frames. */
inline constexpr uint32_t kMaxFrameBytes = uint32_t{256} << 20;

/** Cap on a client-propagated request id (flag bit 1). Ids are
 *  restricted to [A-Za-z0-9._-] so they can ride log lines, trace
 *  labels, and metric exposition without escaping. */
inline constexpr size_t kMaxRequestIdBytes = 64;

/** Serialize a request/response into a frame body (no length prefix —
 *  WriteFrame adds it). */
Bytes EncodeRequest(const ServiceRequest& request);
Bytes EncodeResponse(const ServiceResponse& response);

/** Parse a frame body. Throws CorruptStreamError (with the offending
 *  field named) for bad magic/version/kind, out-of-range enum values,
 *  or truncated variable-length fields. */
ServiceRequest DecodeRequest(ByteSpan body);
ServiceResponse DecodeResponse(ByteSpan body);

/** DecodeRequest/DecodeResponse that move the payload out of @p body
 *  instead of copying it into fresh memory: the header is erased in
 *  place. */
ServiceRequest DecodeRequest(Bytes&& body);
ServiceResponse DecodeResponse(Bytes&& body);

/** Bytes of a frame's length prefix (the body length, host order). */
inline constexpr size_t kFramePrefixBytes = 4;

/** The body length a frame's prefix declares. Throws CorruptStreamError
 *  past kMaxFrameBytes, before anything is allocated for the body. */
uint32_t FrameBodyLength(ByteSpan prefix);

/**
 * Read one length-prefixed frame from @p fd into @p body. Returns false
 * on clean EOF at a frame boundary (the peer hung up between frames);
 * throws CorruptStreamError when the peer vanishes mid-frame or
 * declares a length past kMaxFrameBytes, and std::runtime_error on
 * socket errors. Retries EINTR.
 */
bool ReadFrame(int fd, Bytes& body);

/** @p body as one length-prefixed frame, the bytes WriteFrame sends.
 *  Throws UsageError when body.size() exceeds kMaxFrameBytes. */
Bytes EncodeFrame(ByteSpan body);

/** EncodeFrame(EncodeResponse(@p response)) with one copy of the
 *  payload: the body is encoded straight after the length prefix.
 *  Throws UsageError when the body exceeds kMaxFrameBytes. */
Bytes EncodeResponseFrame(const ServiceResponse& response);

/** Write EncodeFrame(@p body) to a blocking socket (MSG_NOSIGNAL,
 *  retries EINTR and short writes). Throws std::runtime_error on
 *  socket errors. */
void WriteFrame(int fd, ByteSpan body);

/** Connect to the unix-domain socket at @p path. Returns the fd; throws
 *  UsageError when the path does not fit sockaddr_un or the connect
 *  fails (daemon not running). */
int ConnectUnix(const std::string& path);

/** A non-blocking listener at @p path; a stale socket file there is
 *  replaced. Throws UsageError when it cannot bind or listen. */
int ListenUnix(const std::string& path, int backlog);

}  // namespace fpc

#endif  // FPC_SERVICE_PROTOCOL_H
