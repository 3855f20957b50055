/**
 * @file
 * fpcc — client for the fpcd compression daemon: sends one request over
 * the unix-domain socket (framed protocol, service/protocol.h) and maps
 * the reply's wire status byte straight to its exit code — the same
 * fpc::Errc table fpczip uses (core/errc.h), so scripts never parse
 * error text.
 *
 * Usage:
 *   fpcc --socket=PATH compress   [-a ALGO] [--mode=auto|fixed]
 *        [--backend=NAME] [--tenant=ID] IN OUT
 *   fpcc --socket=PATH decompress [--backend=NAME] [--tenant=ID] IN OUT
 *   fpcc --socket=PATH range --range=FIRST:COUNT [--backend=NAME]
 *        [--tenant=ID] IN OUT
 *   fpcc --socket=PATH inspect IN           one JSON line of metadata
 *   fpcc --socket=PATH stats                daemon telemetry JSON
 *        ("fpc.telemetry.v7": per-run stage/chunk accounting)
 *   fpcc --socket=PATH metrics              Prometheus text exposition
 *        of the daemon's live metrics (fpc.metrics.v1)
 *   fpcc --socket=PATH health               daemon health JSON (status,
 *        uptime, queue depth, open connections)
 *   fpcc --socket=PATH server_stats         transport counters JSON
 *   fpcc --socket=PATH shutdown             ask the daemon to exit
 *
 * --tenant names the QoS bucket the daemon accounts the request to
 * (default "default"). --request-id=ID tags the request in the
 * daemon's log and trace (alnum plus `-_.`, at most 64 bytes; the
 * daemon mints `srv-<n>` when absent). When the daemon rejects for
 * backpressure the exit code is 4 (busy) — retry after a backoff.
 */
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/errc.h"
#include "service/client.h"

namespace {

fpc::Bytes
ReadFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in) throw fpc::UsageError("cannot open " + path);
    const std::streamsize size = in.tellg();
    in.seekg(0);
    fpc::Bytes data(static_cast<size_t>(size));
    in.read(reinterpret_cast<char*>(data.data()), size);
    if (!in) throw fpc::UsageError("cannot read " + path);
    return data;
}

void
WriteFile(const std::string& path, const fpc::Bytes& data)
{
    std::ofstream out(path, std::ios::binary);
    if (!out) throw fpc::UsageError("cannot open " + path);
    out.write(reinterpret_cast<const char*>(data.data()),
              static_cast<std::streamsize>(data.size()));
    if (!out) throw fpc::UsageError("cannot write " + path);
}

int
Usage()
{
    std::fprintf(
        stderr,
        "usage: fpcc --socket=PATH VERB [options] [IN [OUT]]\n"
        "VERB:  compress [-a ALGO] [--mode=auto|fixed] [--backend=NAME]\n"
        "           [--tenant=ID] IN OUT\n"
        "       decompress [--backend=NAME] [--tenant=ID] IN OUT\n"
        "       range --range=FIRST:COUNT [--backend=NAME] [--tenant=ID]\n"
        "           IN OUT\n"
        "       inspect IN          print container metadata JSON\n"
        "       stats               print daemon telemetry JSON\n"
        "       metrics             print Prometheus text exposition\n"
        "       health              print daemon health JSON\n"
        "       server_stats        print transport counters JSON\n"
        "       shutdown            ask the daemon to exit\n"
        "Every verb accepts --request-id=ID (tags the daemon's request\n"
        "log and trace; alnum plus -_. only).\n"
        "ALGO:  SPspeed (default) | SPratio | DPspeed | DPratio\n"
        "Exit codes (fpc::Errc): 0 ok, 1 internal, 2 usage, 3 corrupt,\n"
        "4 busy (backpressure: retry later)\n");
    return fpc::ExitCodeOf(fpc::Errc::kUsage);
}

void
ParseRange(const std::string& text, uint64_t& first, uint64_t& count)
{
    const size_t colon = text.find(':');
    try {
        if (colon == std::string::npos) throw std::invalid_argument(text);
        size_t pos = 0;
        first = std::stoull(text.substr(0, colon), &pos);
        if (pos != colon) throw std::invalid_argument(text);
        const std::string rest = text.substr(colon + 1);
        count = std::stoull(rest, &pos);
        if (pos != rest.size()) throw std::invalid_argument(text);
    } catch (const std::exception&) {
        throw fpc::UsageError("--range expects FIRST:COUNT, got " + text);
    }
}

}  // namespace

int
main(int argc, char** argv)
{
    try {
        std::string socket_path;
        fpc::ServiceRequest request;
        bool have_verb = false;
        bool have_range = false;
        std::vector<std::string> files;

        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg.rfind("--socket=", 0) == 0) {
                socket_path = arg.substr(std::strlen("--socket="));
            } else if (arg.rfind("--tenant=", 0) == 0) {
                request.tenant = arg.substr(std::strlen("--tenant="));
                if (request.tenant.empty()) return Usage();
            } else if (arg.rfind("--backend=", 0) == 0) {
                request.executor = arg.substr(std::strlen("--backend="));
            } else if (arg.rfind("--request-id=", 0) == 0) {
                request.request_id =
                    arg.substr(std::strlen("--request-id="));
                if (request.request_id.empty()) return Usage();
            } else if (arg.rfind("--mode=", 0) == 0) {
                const std::string mode = arg.substr(std::strlen("--mode="));
                if (mode == "auto") request.adaptive = true;
                else if (mode == "fixed") request.adaptive = false;
                else throw fpc::UsageError("unknown mode: " + mode);
            } else if (arg.rfind("--range=", 0) == 0) {
                have_range = true;
                ParseRange(arg.substr(std::strlen("--range=")),
                           request.range_first, request.range_count);
            } else if (arg == "-a" && i + 1 < argc) {
                request.algorithm = fpc::ParseAlgorithm(argv[++i]);
            } else if (!arg.empty() && arg[0] == '-') {
                return Usage();
            } else if (!have_verb) {
                // "range" is the CLI spelling of decompress_range.
                request.verb = arg == "range"
                                   ? fpc::ServiceVerb::kDecompressRange
                                   : fpc::ParseServiceVerb(arg);
                have_verb = true;
            } else {
                files.push_back(arg);
            }
        }
        if (socket_path.empty() || !have_verb) return Usage();

        size_t expected_files = 2;
        switch (request.verb) {
            case fpc::ServiceVerb::kInspect:
                expected_files = 1;
                break;
            case fpc::ServiceVerb::kStats:
            case fpc::ServiceVerb::kShutdown:
            case fpc::ServiceVerb::kMetrics:
            case fpc::ServiceVerb::kHealth:
            case fpc::ServiceVerb::kServerStats:
                expected_files = 0;
                break;
            case fpc::ServiceVerb::kDecompressRange:
                if (!have_range) {
                    throw fpc::UsageError("range requires --range");
                }
                break;
            default:
                break;
        }
        if (files.size() != expected_files) return Usage();
        if (!files.empty()) request.payload = ReadFile(files[0]);

        fpc::SocketClient client(socket_path);
        const fpc::ServiceResponse response = client.Call(request);
        if (response.status != fpc::Errc::kOk) {
            std::fprintf(stderr, "fpcc: %s: %s\n",
                         fpc::ErrcName(response.status),
                         response.error.c_str());
            return fpc::ExitCodeOf(response.status);
        }
        if (files.size() == 2) {
            WriteFile(files[1], response.payload);
        } else if (!response.payload.empty()) {
            // inspect/stats/health/server_stats: one JSON line for
            // stdout; metrics: multi-line text already newline-ended.
            std::fwrite(response.payload.data(), 1, response.payload.size(),
                        stdout);
            if (static_cast<char>(response.payload.back()) != '\n') {
                std::fputc('\n', stdout);
            }
        }
        return fpc::ExitCodeOf(fpc::Errc::kOk);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "fpcc: %s\n", e.what());
        return fpc::ExitCodeOf(fpc::CurrentErrc());
    }
}
