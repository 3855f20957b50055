#include "core/orchestrate.h"

#include <cstdint>
#include <memory>

#include "core/adaptive.h"
#include "core/telemetry.h"
#include "core/trace.h"
#include "util/hash.h"
#include "util/scan.h"

namespace fpc {

Algorithm
AdaptiveRepresentative(Algorithm algorithm)
{
    return GetPipeline(algorithm).word_size == 8 ? Algorithm::kDPspeed
                                                 : Algorithm::kSPspeed;
}

ContainerHeader
MakeContainerHeader(Algorithm algorithm, size_t transformed_size,
                    const EncodePlan& plan, TelemetryShard* shard)
{
    ContainerHeader header;
    if (plan.Adaptive()) {
        header.version = ContainerHeader::kVersionAdaptive;
        algorithm = AdaptiveRepresentative(algorithm);
    }
    header.algorithm = static_cast<uint8_t>(algorithm);
    header.original_size = plan.input_size;
    header.transformed_size = transformed_size;
    header.chunk_count = static_cast<uint32_t>(ChunkCountOf(transformed_size));
    const uint64_t t0 = shard != nullptr ? TelemetryNowNs() : 0;
    header.checksum = plan.InputChecksum();
    if (shard != nullptr && shard->trace != nullptr) {
        shard->trace->Record(TraceSpanKind::kChecksum, kTraceEncode, 0, 0,
                             t0, TelemetryNowNs());
    }
    return header;
}

WritePositions
ComputeWritePositions(const std::vector<uint32_t>& sizes)
{
    WritePositions wp;
    wp.offsets.assign(sizes.begin(), sizes.end());
    wp.total = ExclusiveScan(std::span<uint64_t>(wp.offsets));
    return wp;
}

Bytes
AssembleContainer(const ContainerHeader& header, const EncodePlan& plan,
                  std::span<const uint64_t> offsets, uint64_t total,
                  int threads)
{
    const size_t n_chunks = plan.ChunkCount();
    FPC_CHECK(offsets.size() == n_chunks, "write-position count mismatch");

    const size_t prefix_size = ContainerHeaderSize() + n_chunks * 4;
    Bytes out;
    out.reserve(prefix_size + total);
    WriteContainerPrefix(header, plan.sizes, plan.raw_flags,
                         plan.algorithm_ids, out);
    FPC_CHECK(out.size() == prefix_size, "container prefix size mismatch");
    out.resize(prefix_size + total);

    // Each staged payload goes to its prefix-summed offset; chunks are
    // disjoint, so placement parallelizes trivially.
    std::byte* payload_base = out.data() + prefix_size;
#ifdef _OPENMP
#pragma omp parallel for schedule(static) num_threads(std::max(threads, 1))
#endif
    for (std::int64_t c = 0; c < static_cast<std::int64_t>(n_chunks); ++c) {
        FPC_CHECK(offsets[c] + plan.sizes[c] <= total,
                  "write position out of range");
        const ByteSpan payload = plan.Payload(static_cast<size_t>(c));
        if (payload.empty()) continue;
        std::memcpy(payload_base + offsets[c], payload.data(),
                    payload.size());
    }
    (void)threads;
    return out;
}

namespace {

/** Run @p body as chunk @p c's work on @p scratch, recording the chunk's
 *  latency and kChunk span (direction @p dir) in the arena's shard. */
template <typename Body>
ChunkTimes
TimeChunk(ScratchArena& scratch, size_t c, uint8_t dir, const Body& body)
{
    TelemetryShard* shard = scratch.Telemetry();
    if (shard == nullptr) {
        body();
        return {};
    }
    if (shard->trace != nullptr) shard->trace->SetChunk(c);
    ChunkTimes times;
    times.t0 = TelemetryNowNs();
    body();
    times.t1 = TelemetryNowNs();
    if (dir == kTraceEncode) {
        shard->OnChunkEncode(times.t1 - times.t0);
    } else {
        shard->OnChunkDecode(times.t1 - times.t0);
    }
    if (shard->trace != nullptr) {
        shard->trace->Record(TraceSpanKind::kChunk, dir, 0, c, times.t0,
                             times.t1);
    }
    return times;
}

/** Account one whole-input pre-stage call to @p shard: its stage
 *  counters, and a kPre span when the shard has a trace ring. */
void
RecordPreStage(TelemetryShard& shard, uint8_t dir, StageId id,
               size_t in_bytes, size_t out_bytes, uint64_t t0, uint64_t t1)
{
    if (dir == kTraceEncode) {
        shard.OnStageEncode(id, in_bytes, out_bytes, t1 - t0);
    } else {
        shard.OnStageDecode(id, in_bytes, out_bytes, t1 - t0);
    }
    if (shard.trace != nullptr) {
        shard.trace->Record(TraceSpanKind::kPre, dir,
                            static_cast<uint8_t>(id), 0, t0, t1);
    }
}

}  // namespace

ChunkTimes
EncodeChunkAt(const PipelineSpec& spec, ByteSpan input, ByteSpan chunk_src,
              size_t c, ScratchArena& scratch, ChunkEncodeFn encode,
              EncodePlan& plan)
{
    return TimeChunk(scratch, c, kTraceEncode, [&] {
        bool raw = false;
        ByteSpan payload;
        if (plan.Adaptive()) {
            uint8_t id = 0;
            payload = EncodeChunkAuto(ChunkAt(chunk_src, c), raw, id,
                                      scratch, encode);
            plan.algorithm_ids[c] = id;
        } else {
            payload = encode(spec, ChunkAt(chunk_src, c), raw, scratch);
        }
        plan.Record(c, payload, raw);
        if (c * kChunkSize < plan.input_size) {
            plan.input_hashes[c] = ChecksumBlock(ChunkAt(input, c));
        }
    });
}

ChunkTimes
DecodeChunkAt(const ContainerView& view, const PipelineSpec& spec, size_t c,
              std::byte* dest, ScratchArena& scratch, ChunkDecodeFn decode,
              uint64_t* block_hashes)
{
    return TimeChunk(scratch, c, kTraceDecode, [&] {
        const std::span<std::byte> slot =
            ChunkSlotAt(dest, view.header.transformed_size, c);
        decode(ChunkSpec(view, spec, c),
               view.payload.subspan(view.chunk_offsets[c],
                                    view.chunk_sizes[c]),
               view.chunk_raw[c], slot, scratch);
        if (block_hashes != nullptr) block_hashes[c] = ChecksumBlock(slot);
    });
}

void
RethrowAsCorrupt(std::exception_ptr error)
{
    try {
        std::rethrow_exception(error);
    } catch (const CorruptStreamError&) {
        throw;
    } catch (const std::exception& e) {
        throw CorruptStreamError(e.what());
    }
}

ByteSpan
PreEncode(const PipelineSpec& spec, ByteSpan input, bool adaptive,
          simd::Isa isa, TelemetryShard* shard, Bytes& work)
{
    if (adaptive || spec.pre.encode == nullptr) return input;
    ScratchArena scratch;
    scratch.SetKernelIsa(isa);
    const uint64_t t0 = shard != nullptr ? TelemetryNowNs() : 0;
    spec.pre.encode(input, work, scratch);
    if (shard != nullptr) {
        RecordPreStage(*shard, kTraceEncode, spec.pre.id, input.size(),
                       work.size(), t0, TelemetryNowNs());
    }
    return ByteSpan(work);
}

PreDecodeFn
PreDecodeHook(Telemetry* sink, TraceSink* trace, simd::Isa isa)
{
    return [sink, trace, isa](const PipelineSpec& spec, ByteSpan transformed,
                              std::span<std::byte> out) {
        ScratchArena scratch;
        scratch.SetKernelIsa(isa);
        if (sink == nullptr && trace == nullptr) {
            spec.pre.decode_into(transformed, out, scratch);
            return;
        }
        const uint64_t t0 = TelemetryNowNs();
        spec.pre.decode_into(transformed, out, scratch);
        const uint64_t t1 = TelemetryNowNs();
        if (sink != nullptr) {
            TelemetryShard shard;
            RecordPreStage(shard, kTraceDecode, spec.pre.id,
                           transformed.size(), out.size(), t0, t1);
            sink->Merge(shard);
        }
        if (trace != nullptr) {
            TraceSpan span;
            span.start_ns = t0;
            span.dur_ns = t1 - t0;
            span.worker = 0;  // runs on the orchestrating thread
            span.kind = TraceSpanKind::kPre;
            span.dir = kTraceDecode;
            span.stage = static_cast<uint8_t>(spec.pre.id);
            trace->Record(span);
        }
    };
}

namespace {

/**
 * The one content check: compare @p out's size and content checksum with
 * @p header. The checksum is @p block_hashes combined when the decode
 * loop hashed the chunks it wrote (non-null); otherwise — a pre-stage
 * ran, or the container stores the serial Fnv1a64 — the whole output is
 * hashed here. With @p trace set, that step is recorded as a worker-0
 * kChecksum span (it runs on the orchestrating thread, after the join).
 */
void
VerifyContent(const ContainerHeader& header, ByteSpan out,
              const std::vector<uint64_t>* block_hashes, TraceSink* trace)
{
    FPC_PARSE_CHECK(out.size() == header.original_size,
                    "decompressed size mismatch");
    const uint64_t t0 = trace != nullptr ? TelemetryNowNs() : 0;
    const uint64_t checksum =
        header.FnvChecksum()     ? Fnv1a64(out)
        : block_hashes != nullptr ? ChecksumCombine(*block_hashes, out.size())
                                  : Checksum64(out);
    if (trace != nullptr) {
        TraceSpan span;
        span.start_ns = t0;
        span.dur_ns = TelemetryNowNs() - t0;
        span.worker = 0;
        span.kind = TraceSpanKind::kChecksum;
        span.dir = kTraceDecode;
        trace->Record(span);
    }
    FPC_PARSE_CHECK(checksum == header.checksum, "content checksum mismatch");
}

/** @p header's pipeline, after checking its sizes against the pipeline's
 *  shape — before any output is sized from the header. A pre-stage-free
 *  stream is the output itself. FCM (the only pre-stage) always expands,
 *  so a valid container's original size never exceeds its transformed
 *  size, and a forged original_size cannot drive an allocation beyond
 *  the file-bounded transformed stream. */
const PipelineSpec&
CheckedPipeline(const ContainerHeader& header)
{
    const PipelineSpec& spec =
        GetPipeline(static_cast<Algorithm>(header.algorithm));
    if (spec.pre.decode == nullptr) {
        FPC_PARSE_CHECK(
            header.transformed_size == header.original_size,
            "transformed size mismatch for pre-stage-free algorithm");
    } else {
        FPC_PARSE_CHECK_AT(header.original_size <= header.transformed_size,
                           "original size exceeds transformed size",
                           "container", 8);
    }
    return spec;
}

/** Decode @p view into @p out (exactly original_size bytes) and verify
 *  its content. Without a whole-input stage the chunks decode straight
 *  into @p out, each hashed as it lands when the checksum is
 *  chunk-laned. With one, the chunks fill a transformed-stream buffer
 *  that @p pre_decode restores into @p out; the buffer is left
 *  uninitialised, since every chunk decode fills its slot or throws. */
void
DecodeVerified(const ContainerView& view, const PipelineSpec& spec,
               std::span<std::byte> out, const DecodeChunksFn& decode_chunks,
               const PreDecodeFn& pre_decode, TraceSink* trace)
{
    std::vector<uint64_t> block_hashes;
    const bool laned =
        spec.pre.decode == nullptr && !view.header.FnvChecksum();
    if (spec.pre.decode == nullptr) {
        if (laned) block_hashes.resize(view.header.chunk_count);
        decode_chunks(view, spec, out.data(),
                      laned ? block_hashes.data() : nullptr);
    } else {
        const size_t n = view.header.transformed_size;
        const auto work = std::make_unique_for_overwrite<std::byte[]>(n);
        decode_chunks(view, spec, work.get(), nullptr);
        pre_decode(spec, ByteSpan(work.get(), n), out);
    }
    VerifyContent(view.header, ByteSpan(out.data(), out.size()),
                  laned ? &block_hashes : nullptr, trace);
}

}  // namespace

Bytes
RunDecompress(ByteSpan compressed, const DecodeChunksFn& decode_chunks,
              const PreDecodeFn& pre_decode, TraceSink* trace)
{
    const ContainerView view = ParseContainer(compressed);
    const PipelineSpec& spec = CheckedPipeline(view.header);
    Bytes out(view.header.original_size);
    DecodeVerified(view, spec, std::span<std::byte>(out), decode_chunks,
                   pre_decode, trace);
    return out;
}

void
RunDecompressInto(ByteSpan compressed, std::span<std::byte> out,
                  const DecodeChunksFn& decode_chunks,
                  const PreDecodeFn& pre_decode, TraceSink* trace)
{
    const ContainerView view = ParseContainer(compressed);
    if (out.size() != view.header.original_size) {
        throw UsageError("DecompressInto: output span must be exactly " +
                         std::to_string(view.header.original_size) +
                         " bytes");
    }
    DecodeVerified(view, CheckedPipeline(view.header), out, decode_chunks,
                   pre_decode, trace);
}

size_t
ChunkRangeBytes(size_t transformed_size, size_t first_chunk,
                size_t chunk_end)
{
    const size_t n_chunks = ChunkCountOf(transformed_size);
    FPC_CHECK(first_chunk <= chunk_end && chunk_end <= n_chunks,
              "chunk range out of bounds");
    if (first_chunk == chunk_end) return 0;
    const size_t last_begin = (chunk_end - 1) * kChunkSize;
    return (chunk_end - 1 - first_chunk) * kChunkSize +
           std::min(kChunkSize, transformed_size - last_begin);
}

ContainerView
MakeChunkRangeView(const ContainerPrefix& prefix, size_t first_chunk,
                   size_t chunk_end, ByteSpan payload)
{
    FPC_CHECK(first_chunk <= chunk_end &&
                  chunk_end <= prefix.chunk_sizes.size(),
              "chunk range out of bounds");
    const size_t n = chunk_end - first_chunk;
    ContainerView view;
    view.header = prefix.header;
    view.header.chunk_count = static_cast<uint32_t>(n);
    const size_t covered = ChunkRangeBytes(
        prefix.header.transformed_size, first_chunk, chunk_end);
    view.header.transformed_size = covered;
    // The sub-range has no checksum of its own; original_size mirrors the
    // covered bytes so pre-stage-free invariants hold, and the caller is
    // responsible for not running a content check against this view.
    view.header.original_size = covered;
    view.header.checksum = 0;

    view.chunk_sizes.assign(prefix.chunk_sizes.begin() + first_chunk,
                            prefix.chunk_sizes.begin() + chunk_end);
    view.chunk_raw.assign(prefix.chunk_raw.begin() + first_chunk,
                          prefix.chunk_raw.begin() + chunk_end);
    if (!prefix.chunk_algorithms.empty()) {
        view.chunk_algorithms.assign(
            prefix.chunk_algorithms.begin() + first_chunk,
            prefix.chunk_algorithms.begin() + chunk_end);
    }
    view.chunk_offsets.resize(n);
    size_t offset = 0;
    for (size_t c = 0; c < n; ++c) {
        view.chunk_offsets[c] = offset;
        offset += view.chunk_sizes[c];
    }
    FPC_CHECK(payload.size() == offset, "range payload size mismatch");
    view.payload = payload;
    return view;
}

Bytes
RunDecompressSerial(ByteSpan compressed, ScratchArena& scratch)
{
    // Both hooks run on the calling thread against the one arena.
    const DecodeChunksFn decode_all = [&scratch](const ContainerView& view,
                                                 const PipelineSpec& spec,
                                                 std::byte* dest,
                                                 uint64_t* block_hashes) {
        for (size_t c = 0; c < view.header.chunk_count; ++c) {
            DecodeChunkAt(view, spec, c, dest, scratch, &DecodeChunk,
                          block_hashes);
        }
    };
    const PreDecodeFn pre_decode = [&scratch](const PipelineSpec& spec,
                                              ByteSpan transformed,
                                              std::span<std::byte> out) {
        TelemetryShard* shard = scratch.Telemetry();
        const uint64_t t0 = shard != nullptr ? TelemetryNowNs() : 0;
        spec.pre.decode_into(transformed, out, scratch);
        if (shard != nullptr) {
            RecordPreStage(*shard, kTraceDecode, spec.pre.id,
                           transformed.size(), out.size(), t0,
                           TelemetryNowNs());
        }
    };
    return RunDecompress(compressed, decode_all, pre_decode, nullptr);
}

}  // namespace fpc
