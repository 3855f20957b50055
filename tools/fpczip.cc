/**
 * @file
 * fpczip — command-line lossless compressor for scientific floating-point
 * data (the four ASPLOS'25 algorithms).
 *
 * Usage:
 *   fpczip -c [-a SPspeed|SPratio|DPspeed|DPratio] [--backend=NAME]
 *          [--frame-bytes=N] IN OUT
 *   fpczip -d [--backend=NAME] IN OUT
 *   fpczip cat [--range=FIRST:COUNT] [--workers=N] [--in-flight=M]
 *          [--read=auto|pread|mmap] IN OUT
 *   fpczip -i IN                  human-readable header summary
 *   fpczip inspect IN             one JSON line of container metadata
 *   fpczip -V | --version         version, compiled + dispatched ISA
 *
 * -a picks the algorithm (default SPspeed — pick DP* for doubles; the
 *    element width is never guessed from the file size).
 * --mode=auto probes every 16 KiB chunk at encode time and records the
 *    best-scoring pipeline per chunk in a v5 container (-a then only
 *    fixes the element width). --mode=fixed (the default) writes the
 *    single-algorithm v4 container. -d also reads the v1/v3 containers
 *    of earlier releases.
 * --frame-bytes=N makes -c emit a seekable stream: the input is cut into
 *    N-byte frames (N is rounded down to a whole number of elements),
 *    each compressed as an independent container, and a trailing seek
 *    index (format v2, core/container.h) is appended. Without it -c
 *    writes a single bare container, byte-identical to before.
 * `cat` decompresses any input — bare container, frame stream, indexed
 *    stream — reading it through a ranged ByteSource (the file is never
 *    loaded whole). Frames decode on a bounded worker pool and are
 *    written strictly in order; --workers and --in-flight bound the pool
 *    and its memory. --range=FIRST:COUNT instead decodes only the values
 *    [FIRST, FIRST+COUNT), touching only the covering frames/chunks.
 *    --read picks the ByteSource backing.
 * --backend selects an executor-registry backend (cpu, gpusim:4090,
 *    gpusim:a100); all backends produce bit-identical containers (see
 *    DESIGN.md). -g is shorthand for --backend=gpusim:4090.
 * --stats prints one "fpc.telemetry.v7" JSON line (per-stage wall time
 *    and byte flow, chunk/raw counts, latency histogram digests; see
 *    DESIGN.md "Observability") to stderr after a -c/-d run, so stdout
 *    stays scriptable.
 * --stats-file=PATH writes that same JSON line to PATH instead of stderr
 *    (implies --stats).
 * --trace=FILE records a hierarchical span timeline of the run (run →
 *    worker → chunk → stage; "fpc.trace.v1") and writes it to FILE as
 *    Chrome trace-event JSON, loadable in Perfetto / chrome://tracing.
 * --isa=NAME forces the CPU kernel dispatch level (scalar, avx2,
 *    avx512); errors out if the level is not compiled in or the CPU
 *    lacks it. Every level produces bit-identical containers.
 *
 * Exit codes follow the shared fpc::Errc table (core/errc.h) — the same
 * numbers fpcc exits with and fpcd puts in the wire status byte:
 * 0 success, 1 I/O or internal error, 2 usage error, 3 corrupt or
 * truncated compressed stream (the message names the stage and byte
 * offset that failed validation).
 */
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>

#include "core/codec.h"
#include "core/errc.h"
#include "core/executor.h"
#include "core/stream.h"
#include "core/telemetry.h"
#include "core/trace.h"
#include "util/byte_source.h"
#include "util/cpu_features.h"
#include "util/timer.h"

namespace {

fpc::Bytes
ReadFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in) throw fpc::UsageError("cannot open " + path);
    std::streamsize size = in.tellg();
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
        "usage: fpczip -c [-a ALGO] [--backend=NAME] [--frame-bytes=N]\n"
        "              IN OUT                                compress\n"
        "       fpczip -d [--backend=NAME] IN OUT             decompress\n"
        "       fpczip cat [--range=FIRST:COUNT] [--workers=N]\n"
        "              [--in-flight=M] [--read=auto|pread|mmap] IN OUT\n"
        "                     streaming / random-access decompress\n"
        "       fpczip -i IN                      inspect header (text)\n"
        "       fpczip inspect IN                 inspect header (JSON)\n"
        "       fpczip -V | --version     version + SIMD kernel levels\n"
        "ALGO:    SPspeed (default) | SPratio | DPspeed | DPratio\n"
        "NAME:    cpu (default) | gpusim:4090 | gpusim:a100\n"
        "--mode=auto|fixed: auto probes every 16 KiB chunk and records\n"
        "         the best pipeline per chunk (a v5 container; -a then\n"
        "         only fixes the element width). Default: fixed\n"
        "-g:      shorthand for --backend=gpusim:4090 (identical output)\n"
        "--frame-bytes=N: cut the input into N-byte frames (suffixes k/m/g)\n"
        "         and append a seek index — a seekable v2 stream\n"
        "--range=FIRST:COUNT: decode only values [FIRST, FIRST+COUNT),\n"
        "         touching only the covering frames and 16 KiB chunks\n"
        "--workers=N / --in-flight=M: worker pool size and max frames in\n"
        "         flight for `cat` (defaults: cores, 2 x workers)\n"
        "--read=S: ByteSource backing for `cat` (auto | pread | mmap)\n"
        "--isa=LEVEL: force the CPU kernel level (scalar | avx2 | avx512;\n"
        "         every level produces bit-identical containers)\n"
        "--stats: print per-stage telemetry JSON to stderr after a run\n"
        "--stats-file=PATH: write that JSON to PATH instead of stderr\n"
        "--trace=FILE: write a Chrome trace-event timeline of the run\n");
    return 2;
}

/** Parse a non-negative integer with an optional k/m/g (KiB/MiB/GiB)
 *  suffix. Throws UsageError on garbage, negative input, or a value
 *  whose scaled result would not fit in 64 bits. */
uint64_t
ParseSize(const std::string& text, const char* flag)
{
    // std::stoull accepts leading whitespace, '+', and even '-' (the
    // negative value wraps); none of those is a size here.
    if (text.empty() ||
        !std::isdigit(static_cast<unsigned char>(text[0]))) {
        throw fpc::UsageError(std::string(flag) + ": not a number: " + text);
    }
    size_t pos = 0;
    uint64_t value = 0;
    try {
        value = std::stoull(text, &pos);
    } catch (const std::exception&) {
        // invalid_argument, or out_of_range for > 64-bit digit strings
        throw fpc::UsageError(std::string(flag) + ": not a number: " + text);
    }
    uint64_t scale = 1;
    if (pos < text.size()) {
        const char suffix = text[pos];
        if (suffix == 'k' || suffix == 'K') scale = uint64_t{1} << 10;
        else if (suffix == 'm' || suffix == 'M') scale = uint64_t{1} << 20;
        else if (suffix == 'g' || suffix == 'G') scale = uint64_t{1} << 30;
        else pos = text.size() + 1;  // unknown suffix -> reject below
        ++pos;
    }
    if (pos != text.size()) {
        throw fpc::UsageError(std::string(flag) + ": bad size: " + text);
    }
    if (scale != 1 && value > UINT64_MAX / scale) {
        throw fpc::UsageError(std::string(flag) +
                              ": size overflows 64 bits: " + text);
    }
    return value * scale;
}

/** Parse "FIRST:COUNT" for --range. */
void
ParseRange(const std::string& text, uint64_t& first, uint64_t& count)
{
    const size_t colon = text.find(':');
    if (colon == std::string::npos) {
        throw fpc::UsageError("--range expects FIRST:COUNT, got " + text);
    }
    first = ParseSize(text.substr(0, colon), "--range");
    count = ParseSize(text.substr(colon + 1), "--range");
}

/** JSON array of the per-frame element prefix table. */
std::string
FrameTableJson(const std::vector<fpc::SeekIndexEntry>& frames)
{
    std::string out = "[";
    for (size_t f = 0; f < frames.size(); ++f) {
        if (f != 0) out += ", ";
        out += "{\"offset\": " + std::to_string(frames[f].frame_offset) +
               ", \"size\": " + std::to_string(frames[f].frame_size) +
               ", \"elements\": " +
               std::to_string(frames[f].element_count) +
               ", \"element_prefix\": " +
               std::to_string(frames[f].element_prefix) + "}";
    }
    out += "]";
    return out;
}

/**
 * Print the metadata of @p path as one JSON line. A bare container keeps
 * the original key set (plus "format"/"seek_index"); a frame stream
 * reports the frame table instead — index presence, frame count, and the
 * per-frame element prefix table. A damaged seek-index footer throws
 * CorruptStreamError (exit code 3).
 */
int
InspectJson(const std::string& path)
{
    fpc::Bytes data = ReadFile(path);
    fpc::MemoryByteSource source{fpc::ByteSpan(data)};
    const fpc::StreamLayout layout = fpc::ResolveStreamLayout(source);
    if (layout.format == fpc::StreamLayout::Format::kStream) {
        std::printf(
            "{\"format\": \"stream\", \"seek_index\": %s, "
            "\"frame_count\": %zu, \"total_elements\": %llu, "
            "\"frames\": %s, \"isa\": \"%s\"}\n",
            layout.from_index ? "true" : "false", layout.frames.size(),
            static_cast<unsigned long long>(layout.TotalElements()),
            FrameTableJson(layout.frames).c_str(),
            fpc::simd::IsaName(fpc::simd::DefaultIsa()));
        return 0;
    }
    fpc::CompressedInfo info = fpc::Inspect(data);
    std::string raw_indices = "[";
    for (size_t c = 0; c < info.chunk_raw.size(); ++c) {
        if (info.chunk_raw[c] == 0) continue;
        if (raw_indices.size() > 1) raw_indices += ", ";
        raw_indices += std::to_string(c);
    }
    raw_indices += "]";
    // mode=auto (v5/v3) containers additionally report the per-chunk
    // algorithm table and its per-algorithm histogram; fixed (v4/v1)
    // containers keep the original key set plus "mode": "fixed".
    std::string adaptive;
    if (info.adaptive) {
        adaptive = "\"chunk_algorithms\": [";
        for (size_t c = 0; c < info.chunk_algorithms.size(); ++c) {
            if (c != 0) adaptive += ", ";
            adaptive += '"';
            adaptive += fpc::AlgorithmName(
                static_cast<fpc::Algorithm>(info.chunk_algorithms[c]));
            adaptive += '"';
        }
        adaptive += "], \"algorithm_chunks\": {";
        for (size_t a = 0; a < info.algorithm_chunks.size(); ++a) {
            if (a != 0) adaptive += ", ";
            adaptive += '"';
            adaptive += fpc::AlgorithmName(static_cast<fpc::Algorithm>(a));
            adaptive += "\": ";
            adaptive += std::to_string(info.algorithm_chunks[a]);
        }
        adaptive += "}, ";
    }
    std::printf("{\"algorithm\": \"%s\", \"algorithm_id\": %u, "
                "\"mode\": \"%s\", "
                "\"original_size\": %llu, "
                "\"transformed_size\": %llu, \"compressed_size\": %llu, "
                "\"chunk_count\": %u, \"raw_chunks\": %u, "
                "\"raw_chunk_indices\": %s, %s\"isa\": \"%s\", "
                "\"format\": \"container\", \"seek_index\": false, "
                "\"ratio\": %.6f}\n",
                info.algorithm_name.c_str(),
                static_cast<unsigned>(info.algorithm),
                info.adaptive ? "auto" : "fixed",
                static_cast<unsigned long long>(info.original_size),
                static_cast<unsigned long long>(info.transformed_size),
                static_cast<unsigned long long>(info.compressed_size),
                info.chunk_count, info.raw_chunks, raw_indices.c_str(),
                adaptive.c_str(),
                fpc::simd::IsaName(fpc::simd::DefaultIsa()), info.ratio);
    return 0;
}

/** -V / --version: version plus compiled and dispatched kernel levels. */
int
PrintVersion()
{
    std::printf("fpczip 1.0.0\n"
                "compiled ISA levels: %s\n"
                "dispatched ISA:      %s\n",
                fpc::simd::CompiledIsaLevels().c_str(),
                fpc::simd::IsaName(fpc::simd::DefaultIsa()));
    return 0;
}

}  // namespace

int
main(int argc, char** argv)
{
    try {
        enum {
            kNone,
            kCompress,
            kDecompress,
            kCat,
            kInspect,
            kInspectJson
        } action = kNone;
        fpc::Options options;
        fpc::Telemetry stats_sink;
        fpc::TraceSink trace_sink;
        bool want_stats = false;
        std::string stats_path;
        std::string trace_path;
        fpc::Algorithm algorithm = fpc::Algorithm::kSPspeed;
        uint64_t frame_bytes = 0;  // 0 = single bare container
        bool have_range = false;
        uint64_t range_first = 0;
        uint64_t range_count = 0;
        fpc::StreamPoolOptions pool;
        fpc::ReadStrategy read_strategy = fpc::ReadStrategy::kAuto;
        std::vector<std::string> files;

        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            if (arg == "-c") {
                action = kCompress;
            } else if (arg == "-d") {
                action = kDecompress;
            } else if (arg == "cat" && action == kNone) {
                action = kCat;
            } else if (arg == "-i") {
                action = kInspect;
            } else if (arg == "inspect" && action == kNone) {
                action = kInspectJson;
            } else if (arg == "-V" || arg == "--version") {
                return PrintVersion();
            } else if (arg.rfind("--frame-bytes=", 0) == 0) {
                frame_bytes = ParseSize(
                    arg.substr(std::strlen("--frame-bytes=")),
                    "--frame-bytes");
                if (frame_bytes == 0) {
                    throw fpc::UsageError("--frame-bytes must be > 0");
                }
            } else if (arg.rfind("--range=", 0) == 0) {
                have_range = true;
                ParseRange(arg.substr(std::strlen("--range=")), range_first,
                           range_count);
            } else if (arg.rfind("--workers=", 0) == 0) {
                pool.workers = static_cast<int>(ParseSize(
                    arg.substr(std::strlen("--workers=")), "--workers"));
            } else if (arg.rfind("--in-flight=", 0) == 0) {
                pool.max_in_flight = static_cast<int>(ParseSize(
                    arg.substr(std::strlen("--in-flight=")), "--in-flight"));
            } else if (arg.rfind("--read=", 0) == 0) {
                read_strategy = fpc::ParseReadStrategy(
                    arg.substr(std::strlen("--read=")));
            } else if (arg.rfind("--mode=", 0) == 0) {
                options.with_mode(arg.substr(std::strlen("--mode=")));
            } else if (arg.rfind("--isa=", 0) == 0) {
                options.with_isa(arg.substr(std::strlen("--isa=")));
            } else if (arg == "-g") {
                options.executor = &fpc::GetExecutor("gpusim:4090");
            } else if (arg.rfind("--backend=", 0) == 0) {
                options.executor =
                    &fpc::GetExecutor(arg.substr(std::strlen("--backend=")));
            } else if (arg == "--stats") {
                want_stats = true;
                options.telemetry = &stats_sink;
            } else if (arg.rfind("--stats-file=", 0) == 0) {
                want_stats = true;
                stats_path = arg.substr(std::strlen("--stats-file="));
                if (stats_path.empty()) return Usage();
                options.telemetry = &stats_sink;
            } else if (arg.rfind("--trace=", 0) == 0) {
                trace_path = arg.substr(std::strlen("--trace="));
                if (trace_path.empty()) return Usage();
                options.trace = &trace_sink;
            } else if (arg == "-a" && i + 1 < argc) {
                algorithm = fpc::ParseAlgorithm(argv[++i]);
            } else if (!arg.empty() && arg[0] == '-') {
                return Usage();
            } else {
                files.push_back(arg);
            }
        }

        if (action == kInspectJson) {
            if (files.size() != 1) return Usage();
            return InspectJson(files[0]);
        }

        if (action == kInspect) {
            if (files.size() != 1) return Usage();
            fpc::Bytes data = ReadFile(files[0]);
            fpc::CompressedInfo info = fpc::Inspect(data);
            std::printf("algorithm:        %s\n",
                        fpc::AlgorithmName(info.algorithm));
            std::printf("mode:             %s\n",
                        info.adaptive ? "auto" : "fixed");
            std::printf("original size:    %llu bytes\n",
                        static_cast<unsigned long long>(info.original_size));
            std::printf("compressed size:  %zu bytes\n", data.size());
            std::printf("ratio:            %.3f\n", info.ratio);
            std::printf("chunks:           %u (%u stored raw)\n",
                        info.chunk_count, info.raw_chunks);
            if (info.adaptive) {
                for (size_t a = 0; a < info.algorithm_chunks.size(); ++a) {
                    if (info.algorithm_chunks[a] == 0) continue;
                    std::printf("  %-8s        %u chunk(s)\n",
                                fpc::AlgorithmName(
                                    static_cast<fpc::Algorithm>(a)),
                                info.algorithm_chunks[a]);
                }
            }
            return 0;
        }

        if (action == kNone || files.size() != 2) return Usage();

        if (action == kCat) {
            // The input is read through a ranged ByteSource: only the
            // bytes a decode touches are ever resident.
            std::unique_ptr<fpc::ByteSource> source =
                fpc::OpenByteSource(files[0], read_strategy);
            fpc::Timer timer;
            if (have_range) {
                fpc::Bytes out = fpc::DecompressRange(
                    *source, range_first, range_count, options);
                WriteFile(files[1], out);
                double seconds = timer.Seconds();
                std::printf("values [%llu, %llu): %zu bytes in %.3fs\n",
                            static_cast<unsigned long long>(range_first),
                            static_cast<unsigned long long>(range_first +
                                                            range_count),
                            out.size(), seconds);
            } else {
                fpc::ParallelStreamDecoder decoder(*source, pool, options);
                std::ofstream out(files[1], std::ios::binary);
                if (!out) {
                    throw fpc::UsageError("cannot open " + files[1]);
                }
                uint64_t total = 0;
                size_t frames = 0;
                while (decoder.HasNext()) {
                    fpc::Bytes frame = decoder.NextFrame();
                    out.write(reinterpret_cast<const char*>(frame.data()),
                              static_cast<std::streamsize>(frame.size()));
                    if (!out) {
                        throw fpc::UsageError("cannot write " + files[1]);
                    }
                    total += frame.size();
                    ++frames;
                }
                out.close();
                double seconds = timer.Seconds();
                std::printf("%zu frame(s), %llu -> %llu bytes in %.3fs "
                            "(%.2f GB/s, %d worker(s)%s)\n",
                            frames,
                            static_cast<unsigned long long>(source->Size()),
                            static_cast<unsigned long long>(total), seconds,
                            total / 1e9 / seconds, decoder.Workers(),
                            decoder.UsedIndex() ? ", seek index" : "");
                if (want_stats) {
                    // Merge worker shards before the snapshot below.
                    (void)decoder.stats();
                }
            }
            if (want_stats) {
                if (stats_path.empty()) {
                    std::fprintf(stderr, "%s\n",
                                 stats_sink.ToJson().c_str());
                } else {
                    std::ofstream stats_out(stats_path);
                    if (!stats_out) {
                        throw fpc::UsageError("cannot open " + stats_path);
                    }
                    stats_out << stats_sink.ToJson() << "\n";
                    if (!stats_out) {
                        throw fpc::UsageError("cannot write " + stats_path);
                    }
                }
            }
            if (!trace_path.empty() && !trace_sink.WriteJson(trace_path)) {
                throw fpc::UsageError("cannot write " + trace_path);
            }
            return 0;
        }

        fpc::Bytes input = ReadFile(files[0]);
        fpc::Timer timer;
        fpc::Bytes output;
        const char* algo_label =
            options.adaptive ? "auto" : fpc::AlgorithmName(algorithm);
        if (action == kCompress && frame_bytes > 0) {
            // Seekable v2 stream: whole-element frames + trailing index.
            const uint64_t word = fpc::AlgorithmWordSize(algorithm);
            uint64_t step = frame_bytes - frame_bytes % word;
            if (step == 0) step = word;
            if (input.size() % word != 0) {
                throw fpc::UsageError(
                    "--frame-bytes: input is not a whole number of " +
                    std::string(fpc::AlgorithmName(algorithm)) +
                    " elements");
            }
            fpc::StreamCompressor compressor(algorithm, options);
            for (uint64_t at = 0; at < input.size(); at += step) {
                const uint64_t len =
                    std::min<uint64_t>(step, input.size() - at);
                compressor.PutFrame(fpc::ByteSpan(input).subspan(
                    static_cast<size_t>(at), static_cast<size_t>(len)));
            }
            output = compressor.FinishWithIndex();
            double seconds = timer.Seconds();
            std::printf("%s: %zu -> %zu bytes (%zu frame(s) + seek index, "
                        "ratio %.3f) in %.3fs (%.2f GB/s)\n",
                        algo_label, input.size(),
                        output.size(), compressor.FrameCount(),
                        static_cast<double>(input.size()) /
                            static_cast<double>(output.size()),
                        seconds, input.size() / 1e9 / seconds);
        } else if (action == kCompress) {
            output = fpc::Compress(algorithm, fpc::ByteSpan(input), options);
            double seconds = timer.Seconds();
            std::printf("%s: %zu -> %zu bytes (ratio %.3f) in %.3fs "
                        "(%.2f GB/s)\n",
                        algo_label, input.size(),
                        output.size(),
                        static_cast<double>(input.size()) /
                            static_cast<double>(output.size()),
                        seconds, input.size() / 1e9 / seconds);
        } else {
            output = fpc::Decompress(fpc::ByteSpan(input), options);
            double seconds = timer.Seconds();
            std::printf("%zu -> %zu bytes in %.3fs (%.2f GB/s)\n",
                        input.size(), output.size(), seconds,
                        output.size() / 1e9 / seconds);
        }
        WriteFile(files[1], output);
        if (want_stats) {
            if (stats_path.empty()) {
                // stderr keeps stdout scriptable; with FPC_TELEMETRY=0
                // the line still appears, with zeroed counters.
                std::fprintf(stderr, "%s\n", stats_sink.ToJson().c_str());
            } else {
                std::ofstream stats_out(stats_path);
                if (!stats_out) {
                    throw fpc::UsageError("cannot open " + stats_path);
                }
                stats_out << stats_sink.ToJson() << "\n";
                if (!stats_out) {
                    throw fpc::UsageError("cannot write " + stats_path);
                }
            }
        }
        if (!trace_path.empty() && !trace_sink.WriteJson(trace_path)) {
            throw fpc::UsageError("cannot write " + trace_path);
        }
        return 0;
    } catch (const std::exception& e) {
        // One mapping table for every front-end (core/errc.h): corrupt
        // input, usage errors, and internal failures keep their distinct
        // exit codes; e.what() carries stage + offset for corrupt input.
        std::fprintf(stderr, "fpczip: %s\n", e.what());
        return fpc::ExitCodeOf(fpc::CurrentErrc());
    }
}
