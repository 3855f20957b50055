#include "core/codec.h"

#include "core/container.h"
#include "core/executor.h"
#include "core/orchestrate.h"
#include "core/stream.h"
#include "core/telemetry.h"
#include "core/trace.h"
#include "util/byte_source.h"

namespace fpc {

namespace {

/** Reject typed decompression of a container whose algorithm holds the
 *  other element width (e.g. NextFloats/DecompressFloats on a DP*
 *  container) before any payload bytes are reinterpreted. */
void
CheckElementSize(ByteSpan compressed, size_t element_size,
                 const char* caller)
{
    const Algorithm algorithm = static_cast<Algorithm>(
        ParseContainer(compressed).header.algorithm);
    if (AlgorithmWordSize(algorithm) != element_size) {
        throw UsageError(std::string(caller) + ": container holds " +
                         AlgorithmName(algorithm) + " data, not " +
                         std::to_string(element_size) + "-byte elements");
    }
}

/** Frame body bytes: a zero-copy view when the source supports one, a
 *  ReadAt copy into @p staging otherwise. */
ByteSpan
FrameBytes(const ByteSource& source, uint64_t offset, uint64_t size,
           Bytes& staging)
{
    ByteSpan view = source.View(offset, static_cast<size_t>(size));
    if (view.size() == size) return view;
    staging.resize(static_cast<size_t>(size));
    source.ReadAt(offset, staging);
    return ByteSpan(staging);
}

}  // namespace

// The drivers in core/orchestrate.h run every call on the resolved
// backend and record its run totals and spans, so no entry point or
// backend repeats the bookkeeping.

Bytes
Compress(Algorithm algorithm, ByteSpan input, const Options& options)
{
    return CompressOn(ResolveExecutor(options), algorithm, input, options);
}

Bytes
Decompress(ByteSpan compressed, const Options& options)
{
    return DecompressOn(ResolveExecutor(options), compressed, options);
}

void
DecompressInto(ByteSpan compressed, std::span<std::byte> out,
               const Options& options)
{
    DecompressOn(ResolveExecutor(options), compressed, options, out);
}

namespace detail {

Bytes
DecompressRange(const ByteSource& source, uint64_t first_value,
                uint64_t count, const Options& options, size_t expected_word,
                const char* caller)
{
    const Executor& executor = ResolveExecutor(options);
    Telemetry* sink = SinkOf(options);
    const ByteSourceStats io_before = source.Stats();
    const uint64_t t0 = TelemetryNowNs();

    const StreamLayout layout = ResolveStreamLayout(source);
    const uint64_t total = layout.TotalElements();
    // An empty range is satisfiable anywhere — including first_value past
    // the end and on zero-element streams — and returns empty bytes.
    if (count > 0 &&
        !(first_value <= total && count <= total - first_value)) {
        throw UsageError(std::string(caller) + ": range first=" +
                         std::to_string(first_value) + " count=" +
                         std::to_string(count) +
                         " reaches past the stream's " +
                         std::to_string(total) + " elements");
    }

    Bytes out;
    RangedTotals delta;
    delta.calls = 1;
    delta.elements = count;
    if (layout.from_index) delta.index_hits = 1;
    const char* run_algorithm = nullptr;  // from the last covering frame
    size_t word = 0;

    if (count > 0) {
        const size_t frame_lo = layout.FrameCovering(first_value);
        const size_t frame_hi = layout.FrameCovering(first_value + count - 1);
        Bytes staging;
        for (size_t f = frame_lo; f <= frame_hi; ++f) {
            const SeekIndexEntry& frame = layout.frames[f];
            const ContainerPrefix prefix = ParseContainerPrefix(
                source, frame.frame_offset, frame.frame_size);
            const Algorithm algorithm =
                static_cast<Algorithm>(prefix.header.algorithm);
            const size_t frame_word = AlgorithmWordSize(algorithm);
            if (expected_word != 0 && frame_word != expected_word) {
                throw UsageError(std::string(caller) + ": frame holds " +
                                 AlgorithmName(algorithm) + " data, not " +
                                 std::to_string(expected_word) +
                                 "-byte elements");
            }
            if (word == 0) {
                word = frame_word;
            } else if (frame_word != word) {
                throw UsageError(
                    std::string(caller) +
                    ": covering frames hold mixed element widths");
            }
            if (prefix.header.original_size % frame_word != 0) {
                throw UsageError(
                    std::string(caller) +
                    ": frame is not element-aligned; element-ranged "
                    "decode is undefined");
            }
            FPC_PARSE_CHECK_AT(
                prefix.header.original_size ==
                    frame.element_count * frame_word,
                "seek index disagrees with frame header", "seek-index",
                static_cast<size_t>(frame.frame_offset));
            run_algorithm = RunAlgorithmName(prefix.header);

            // Frame-local element range covered by [first, first+count).
            const uint64_t frame_first =
                std::max(first_value, frame.element_prefix) -
                frame.element_prefix;
            const uint64_t frame_end =
                std::min(first_value + count,
                         frame.element_prefix + frame.element_count) -
                frame.element_prefix;
            const size_t n_chunks = prefix.chunk_sizes.size();
            if (frame_end <= frame_first) {  // empty frame inside the range
                delta.chunks_skipped += n_chunks;
                continue;
            }
            const uint64_t lo_b = frame_first * frame_word;
            const uint64_t hi_b = frame_end * frame_word;
            const PipelineSpec& spec = GetPipeline(algorithm);
            if (spec.pre.decode != nullptr) {
                // The whole-input pre-stage (FCM) needs every transformed
                // byte: decode the full frame, then slice.
                ByteSpan body = FrameBytes(source, frame.frame_offset,
                                           frame.frame_size, staging);
                const Bytes whole = DecompressOn(executor, body, options,
                                                 std::nullopt,
                                                 /*record_run=*/false);
                AppendBytes(out, ByteSpan(whole).subspan(
                                     static_cast<size_t>(lo_b),
                                     static_cast<size_t>(hi_b - lo_b)));
                delta.frames_decoded += 1;
                delta.chunks_decoded += n_chunks;
            } else {
                // transformed == original here, so chunk c holds bytes
                // [c*16Ki, ...): decode only the covering chunks.
                const size_t first_chunk =
                    static_cast<size_t>(lo_b / kChunkSize);
                const size_t chunk_end = std::min(
                    n_chunks,
                    static_cast<size_t>((hi_b + kChunkSize - 1) /
                                        kChunkSize));
                const uint64_t payload_begin =
                    prefix.chunk_offsets[first_chunk];
                const uint64_t payload_end =
                    chunk_end == n_chunks ? prefix.payload_size
                                          : prefix.chunk_offsets[chunk_end];
                ByteSpan payload = FrameBytes(
                    source,
                    frame.frame_offset + prefix.payload_offset +
                        payload_begin,
                    payload_end - payload_begin, staging);
                const ContainerView sub = MakeChunkRangeView(
                    prefix, first_chunk, chunk_end, payload);
                Bytes buf(ChunkRangeBytes(
                    static_cast<size_t>(prefix.header.transformed_size),
                    first_chunk, chunk_end));
                DecodeChunkRange(executor, sub, spec, buf.data(), options);
                const uint64_t base =
                    static_cast<uint64_t>(first_chunk) * kChunkSize;
                AppendBytes(out, ByteSpan(buf).subspan(
                                     static_cast<size_t>(lo_b - base),
                                     static_cast<size_t>(hi_b - lo_b)));
                delta.frames_decoded += 1;
                delta.chunks_decoded += chunk_end - first_chunk;
                delta.chunks_skipped += n_chunks - (chunk_end - first_chunk);
            }
        }
    }

    const uint64_t t1 = TelemetryNowNs();
    if (sink != nullptr) {
        const ByteSourceStats io_after = source.Stats();
        delta.io_reads = io_after.reads - io_before.reads;
        delta.io_bytes = io_after.bytes - io_before.bytes;
        sink->AddRangedRead(delta);
    }
    RecordRun(executor, options, "decompress-range", kTraceDecode,
              run_algorithm, t0, t1);
    return out;
}

Bytes
DecompressRange(ByteSpan stream, uint64_t first_value, uint64_t count,
                const Options& options, size_t expected_word,
                const char* caller)
{
    MemoryByteSource source(stream);
    return DecompressRange(source, first_value, count, options,
                           expected_word, caller);
}

std::vector<float>
DecompressFloats(ByteSpan compressed, const Options& options)
{
    CheckElementSize(compressed, sizeof(float), "DecompressFloats");
    Bytes raw = fpc::Decompress(compressed, options);
    FPC_PARSE_CHECK(raw.size() % sizeof(float) == 0,
                    "payload is not a float array");
    std::vector<float> values(raw.size() / sizeof(float));
    std::memcpy(values.data(), raw.data(), raw.size());
    return values;
}

std::vector<double>
DecompressDoubles(ByteSpan compressed, const Options& options)
{
    CheckElementSize(compressed, sizeof(double), "DecompressDoubles");
    Bytes raw = fpc::Decompress(compressed, options);
    FPC_PARSE_CHECK(raw.size() % sizeof(double) == 0,
                    "payload is not a double array");
    std::vector<double> values(raw.size() / sizeof(double));
    std::memcpy(values.data(), raw.data(), raw.size());
    return values;
}

}  // namespace detail

Bytes
DecompressRange(const ByteSource& source, uint64_t first_value,
                uint64_t count, const Options& options)
{
    return detail::DecompressRange(source, first_value, count, options, 0,
                                   "DecompressRange");
}

Bytes
DecompressRange(ByteSpan stream, uint64_t first_value, uint64_t count,
                const Options& options)
{
    return detail::DecompressRange(stream, first_value, count, options, 0,
                                   "DecompressRange");
}

CompressedInfo
Inspect(ByteSpan compressed)
{
    ContainerView view = ParseContainer(compressed);
    CompressedInfo info;
    info.algorithm = static_cast<Algorithm>(view.header.algorithm);
    info.algorithm_name = AlgorithmName(info.algorithm);
    info.original_size = view.header.original_size;
    info.compressed_size = compressed.size();
    info.transformed_size = view.header.transformed_size;
    info.chunk_count = view.header.chunk_count;
    info.chunk_sizes = std::move(view.chunk_sizes);
    info.chunk_raw = std::move(view.chunk_raw);
    for (uint8_t raw : info.chunk_raw) info.raw_chunks += raw;
    info.adaptive = view.header.Adaptive();
    info.chunk_algorithms = std::move(view.chunk_algorithms);
    for (uint8_t id : info.chunk_algorithms) ++info.algorithm_chunks[id];
    info.ratio = compressed.empty()
                     ? 0.0
                     : static_cast<double>(info.original_size) /
                           static_cast<double>(compressed.size());
    return info;
}

Options&
Options::with_mode(const std::string& name)
{
    if (name == "auto") {
        adaptive = true;
    } else if (name == "fixed") {
        adaptive = false;
    } else {
        throw UsageError("Options::with_mode: unknown mode \"" + name +
                         "\" (expected \"auto\" or \"fixed\")");
    }
    return *this;
}

// ---------------------------------------------------------------------
// Codec facade
// ---------------------------------------------------------------------

Codec::Codec(Algorithm algorithm, const std::string& executor_name)
    : algorithm_(algorithm)
{
    options_.with_executor(executor_name);
}

Bytes
Codec::compress(ByteSpan input) const
{
    return Compress(algorithm_, input, options_);
}

Bytes
Codec::decompress(ByteSpan compressed) const
{
    return Decompress(compressed, options_);
}

void
Codec::decompress_into(ByteSpan compressed, std::span<std::byte> out) const
{
    DecompressInto(compressed, out, options_);
}

Bytes
Codec::decompress_range(const ByteSource& source, uint64_t first_value,
                        uint64_t count) const
{
    return detail::DecompressRange(source, first_value, count, options_, 0,
                                   "Codec::decompress_range");
}

Bytes
Codec::decompress_range(ByteSpan stream, uint64_t first_value,
                        uint64_t count) const
{
    return detail::DecompressRange(stream, first_value, count, options_, 0,
                                   "Codec::decompress_range");
}

Telemetry&
Codec::enable_telemetry()
{
    if (options_.telemetry == nullptr) {
        owned_sink_ = std::make_shared<Telemetry>();
        options_.telemetry = owned_sink_.get();
    }
    return *options_.telemetry;
}

TraceSink&
Codec::enable_tracing(const std::string& path)
{
    if (options_.trace == nullptr) {
        if (path.empty()) {
            owned_trace_ = std::make_shared<TraceSink>();
        } else {
            // Flush to the requested file when the last sharing codec
            // copy lets go; destructors must not throw, so a failed
            // write is dropped (flush explicitly via WriteJson to
            // observe errors).
            owned_trace_ = std::shared_ptr<TraceSink>(
                new TraceSink, [path](TraceSink* sink) {
                    sink->WriteJson(path);
                    delete sink;
                });
        }
        options_.trace = owned_trace_.get();
    }
    return *options_.trace;
}

void
Codec::RequireWordSize(size_t element_size, const char* caller) const
{
    if (AlgorithmWordSize(algorithm_) != element_size) {
        throw UsageError(std::string(caller) + ": " +
                         AlgorithmName(algorithm_) + " expects " +
                         std::to_string(AlgorithmWordSize(algorithm_)) +
                         "-byte elements, got " +
                         std::to_string(element_size) + "-byte elements");
    }
}

void
Codec::RequireContainerWordSize(ByteSpan compressed, size_t element_size,
                                const char* caller)
{
    CheckElementSize(compressed, element_size, caller);
}

}  // namespace fpc
