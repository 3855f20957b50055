#include "core/orchestrate.h"

#include <cstdint>
#include <memory>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "core/adaptive.h"
#include "core/executor.h"
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

size_t
TeamSize()
{
#ifdef _OPENMP
    return static_cast<size_t>(omp_get_max_threads());
#else
    return 1;
#endif
}

size_t
TeamWorkerId()
{
#ifdef _OPENMP
    return static_cast<size_t>(omp_get_thread_num());
#else
    return 0;
#endif
}

const char*
RunAlgorithmName(const ContainerHeader& header)
{
    return header.Adaptive()
               ? "auto"
               : AlgorithmName(static_cast<Algorithm>(header.algorithm));
}

void
RecordRun(const Executor& executor, const Options& options, const char* verb,
          uint8_t dir, const char* algorithm_name, uint64_t t0, uint64_t t1)
{
    Telemetry* sink = SinkOf(options);
    TraceSink* trace = TraceOf(options);
    if (sink != nullptr && algorithm_name != nullptr) {
        sink->SetContext(executor.Name(), std::string(algorithm_name),
                         simd::IsaName(ResolveIsa(options)));
    }
    if (trace != nullptr) {
        // Run-span label: "compress SPspeed@cpu", "decompress auto@gpusim".
        std::string label = verb;
        if (algorithm_name != nullptr) {
            label += ' ';
            label += algorithm_name;
        }
        label += '@';
        label += executor.Name();
        trace->RecordRun(dir, label, t0, t1);
    }
}

namespace {

/** The workers of one driver call: @p executor's worker count for
 *  @p options, that many arenas leased from Options::arenas dispatching
 *  on the call's kernel ISA, and the run scope that holds their
 *  telemetry shards. */
struct DriverCall {
    DriverCall(const Executor& executor, const Options& options)
        : isa(ResolveIsa(options)), workers(executor.Workers(options)),
          lease(AcquireScratch(options.arenas, workers)),
          scope(SinkOf(options), TraceOf(options), workers)
    {
        for (ScratchArena& arena : lease.Span()) arena.SetKernelIsa(isa);
    }

    std::span<ScratchArena> Arenas() { return lease.Span(); }

    simd::Isa isa;
    size_t workers;
    ArenaLease lease;
    TelemetryRunScope scope;
};

/** Run @p body with @p arenas attached to @p scope's worker shards,
 *  sized for @p n_chunks chunks; the shards merge and detach when it
 *  returns or throws. */
template <typename Body>
void
Attached(TelemetryRunScope& scope, std::span<ScratchArena> arenas,
         size_t n_chunks, const Body& body)
{
    scope.HintChunks(n_chunks);
    scope.Attach(arenas);
    try {
        body();
    } catch (...) {
        scope.Finish(arenas);
        throw;
    }
    scope.Finish(arenas);
}

/**
 * The stream a compress loop chunks: @p input itself, or — for a
 * fixed-mode encode of a pipeline with a whole-input pre-stage
 * (DPratio's FCM) — that stage's output, written to @p work on the
 * calling thread with kernels dispatching on @p isa. The stage counters
 * and kPre span go to @p shard (the run scope's MainShard) when it is
 * non-null. Adaptive encodes never run a pre-stage: each chunk picks its
 * own (possibly FCM-chunked) pipeline.
 */
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

/** The whole-input pre-stage decode (FCM for DPratio) of @p transformed
 *  into @p out, exactly the container's original size, on @p scratch;
 *  its counters and kPre span go to the arena's shard. */
void
PreDecode(const PipelineSpec& spec, ByteSpan transformed,
          std::span<std::byte> out, ScratchArena& scratch)
{
    TelemetryShard* shard = scratch.Telemetry();
    const uint64_t t0 = shard != nullptr ? TelemetryNowNs() : 0;
    spec.pre.decode_into(transformed, out, scratch);
    if (shard != nullptr) {
        RecordPreStage(*shard, kTraceDecode, spec.pre.id, transformed.size(),
                       out.size(), t0, TelemetryNowNs());
    }
}

/**
 * The one content check: compare @p out's size and content checksum with
 * @p header. The checksum is @p block_hashes combined when the decode
 * loop hashed the chunks it wrote (non-null); otherwise — a pre-stage
 * ran, or the container stores the serial Fnv1a64 — the whole output is
 * hashed here. With a trace ring on @p shard that step is recorded as a
 * kChecksum span (it runs on the orchestrating thread, after the join).
 */
void
VerifyContent(const ContainerHeader& header, ByteSpan out,
              const std::vector<uint64_t>* block_hashes,
              TelemetryShard* shard)
{
    FPC_PARSE_CHECK(out.size() == header.original_size,
                    "decompressed size mismatch");
    TraceRing* ring = shard != nullptr ? shard->trace : nullptr;
    const uint64_t t0 = ring != nullptr ? TelemetryNowNs() : 0;
    const uint64_t checksum =
        header.FnvChecksum()     ? Fnv1a64(out)
        : block_hashes != nullptr ? ChecksumCombine(*block_hashes, out.size())
                                  : Checksum64(out);
    if (ring != nullptr) {
        ring->Record(TraceSpanKind::kChecksum, kTraceDecode, 0, 0, t0,
                     TelemetryNowNs());
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

/** @p executor's decode hook over @p view, its first failure rethrown
 *  with stage/offset context intact: a CorruptStreamError as itself, any
 *  other std::exception as a CorruptStreamError carrying its message. */
void
DecodeChunksOf(const Executor& executor, const ContainerView& view,
               const PipelineSpec& spec, std::byte* dest,
               uint64_t* block_hashes, std::span<ScratchArena> arenas)
{
    try {
        executor.DecodeChunks(view, spec, dest, block_hashes, arenas);
    } catch (const CorruptStreamError&) {
        throw;
    } catch (const std::exception& e) {
        throw CorruptStreamError(e.what());
    }
}

/**
 * The one decompress body: decode the parsed @p view into @p into
 * (exactly original_size bytes, else UsageError) or into a new buffer it
 * returns, through @p executor's decode hook on @p arenas, with the
 * arenas attached to @p scope. Without a whole-input stage the chunks
 * decode straight into the output, each hashed as it lands when the
 * checksum is chunk-laned. With one, the chunks fill a transformed-stream
 * buffer — left uninitialised, since every chunk decode fills its slot or
 * throws — that the pre-stage restores into the output on arenas[0].
 * The pre-stage and the content check account to arenas[0]'s shard.
 */
Bytes
DecodeView(const Executor& executor, const ContainerView& view,
           std::optional<std::span<std::byte>> into,
           std::span<ScratchArena> arenas, TelemetryRunScope& scope)
{
    const ContainerHeader& header = view.header;
    if (into && into->size() != header.original_size) {
        throw UsageError("DecompressInto: output span must be exactly " +
                         std::to_string(header.original_size) + " bytes");
    }
    const PipelineSpec& spec = CheckedPipeline(header);
    Bytes owned(into ? 0 : header.original_size);
    const std::span<std::byte> out = into ? *into : std::span(owned);
    Attached(scope, arenas, header.chunk_count, [&] {
        std::vector<uint64_t> block_hashes;
        const bool laned = spec.pre.decode == nullptr && !header.FnvChecksum();
        if (spec.pre.decode == nullptr) {
            if (laned) block_hashes.resize(header.chunk_count);
            DecodeChunksOf(executor, view, spec, out.data(),
                           laned ? block_hashes.data() : nullptr, arenas);
        } else {
            const size_t n = header.transformed_size;
            const auto work = std::make_unique_for_overwrite<std::byte[]>(n);
            DecodeChunksOf(executor, view, spec, work.get(), nullptr, arenas);
            PreDecode(spec, ByteSpan(work.get(), n), out, arenas.front());
        }
        VerifyContent(header, ByteSpan(out.data(), out.size()),
                      laned ? &block_hashes : nullptr,
                      arenas.front().Telemetry());
    });
    return owned;
}

}  // namespace

Bytes
CompressOn(const Executor& executor, Algorithm algorithm, ByteSpan input,
           const Options& options)
{
    Telemetry* sink = SinkOf(options);
    TraceSink* trace = TraceOf(options);
    const bool recorded = sink != nullptr || trace != nullptr;
    const uint64_t t0 = recorded ? TelemetryNowNs() : 0;
    const PipelineSpec& spec = GetPipeline(algorithm);
    DriverCall call(executor, options);

    // Whole-input pre-stage (FCM); algorithms without one chunk the
    // input in place — no staging copy.
    Bytes work;
    const ByteSpan chunk_src = PreEncode(spec, input, options.adaptive,
                                         call.isa, call.scope.MainShard(),
                                         work);
    EncodePlan plan(ChunkCountOf(chunk_src.size()), input.size());
    if (options.adaptive) plan.EnableAdaptive();
    Bytes out;
    // Pass 1 (paper Section 3) is the executor's: every chunk encoded on
    // its worker's arena, staged in the plan, its input block hashed.
    // Pass 2 places the payloads at the write positions it returns.
    Attached(call.scope, call.Arenas(), plan.ChunkCount(), [&] {
        const WritePositions wp = executor.EncodeChunks(
            spec, input, chunk_src, plan, call.Arenas());
        const ContainerHeader header = MakeContainerHeader(
            algorithm, chunk_src.size(), plan, call.scope.MainShard());
        out = AssembleContainer(header, plan, wp.offsets, wp.total,
                                static_cast<int>(call.workers));
    });
    if (recorded) {
        const uint64_t t1 = TelemetryNowNs();
        if (sink != nullptr) {
            sink->AddCompress(input.size(), out.size(), t1 - t0);
        }
        RecordRun(executor, options, "compress", kTraceEncode,
                  options.adaptive ? "auto" : AlgorithmName(algorithm), t0,
                  t1);
    }
    return out;
}

Bytes
DecompressOn(const Executor& executor, ByteSpan compressed,
             const Options& options, std::optional<std::span<std::byte>> into,
             bool record_run)
{
    Telemetry* sink = record_run ? SinkOf(options) : nullptr;
    TraceSink* trace = record_run ? TraceOf(options) : nullptr;
    const bool recorded = sink != nullptr || trace != nullptr;
    const uint64_t t0 = recorded ? TelemetryNowNs() : 0;
    const ContainerView view = ParseContainer(compressed);
    DriverCall call(executor, options);
    Bytes out = DecodeView(executor, view, into, call.Arenas(), call.scope);
    if (recorded) {
        const uint64_t t1 = TelemetryNowNs();
        if (sink != nullptr) {
            sink->AddDecompress(compressed.size(), view.header.original_size,
                                t1 - t0);
        }
        RecordRun(executor, options, "decompress", kTraceDecode,
                  RunAlgorithmName(view.header), t0, t1);
    }
    return out;
}

void
DecodeChunkRange(const Executor& executor, const ContainerView& view,
                 const PipelineSpec& spec, std::byte* dest,
                 const Options& options)
{
    DriverCall call(executor, options);
    Attached(call.scope, call.Arenas(), view.header.chunk_count, [&] {
        DecodeChunksOf(executor, view, spec, dest, nullptr, call.Arenas());
    });
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
    // The cpu executor's hook over one arena runs every chunk on the
    // calling thread. The scope has no sink, so it leaves the arena's own
    // shard attached.
    TelemetryRunScope unattached(nullptr, nullptr, 1);
    return DecodeView(DefaultExecutor(), ParseContainer(compressed),
                      std::nullopt, std::span<ScratchArena>(&scratch, 1),
                      unattached);
}

}  // namespace fpc
