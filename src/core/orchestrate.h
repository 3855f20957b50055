/**
 * @file
 * Shared compression/decompression orchestration used by every executor
 * (core/executor.h). The paper's container pipeline is the same on both
 * device paths — partition the transformed stream into 16 KiB chunks,
 * encode each chunk independently (raw fallback when a chunk expands),
 * prefix-sum the compressed sizes into write positions, and place every
 * payload behind one container prefix — and only the *scheduling* of the
 * chunk work differs (shared-cursor OpenMP loop vs simulated grid launch
 * with decoupled look-back). This file owns everything except the scheduling,
 * so the executors cannot drift apart: identical partition math, identical
 * chunk tables, identical prefix bytes, and one content-checksum check.
 * The content checksum is chunk-laned too (Checksum64, util/hash.h): the
 * shared per-chunk bodies hash their block — EncodeChunkAt the input
 * block of its chunk, DecodeChunkAt the chunk it just wrote — and the
 * driver combines the block hashes after the join, so both schedulers
 * hash through the same two functions (DESIGN.md §3a).
 */
#ifndef FPC_CORE_ORCHESTRATE_H
#define FPC_CORE_ORCHESTRATE_H

#include <exception>
#include <functional>
#include <memory>

#include "core/arena.h"
#include "core/container.h"
#include "core/pipeline.h"
#include "core/types.h"
#include "util/common.h"
#include "util/hash.h"

namespace fpc {

class TraceSink;
struct TelemetryShard;

/** Number of 16 KiB chunks covering a transformed stream. */
inline size_t
ChunkCountOf(size_t transformed_size)
{
    return (transformed_size + kChunkSize - 1) / kChunkSize;
}

/** The @p c-th chunk of the transformed stream (last one may be short). */
inline ByteSpan
ChunkAt(ByteSpan chunk_src, size_t c)
{
    const size_t begin = c * kChunkSize;
    return chunk_src.subspan(begin,
                             std::min(kChunkSize, chunk_src.size() - begin));
}

/** The @p c-th chunk's slot in a decode destination buffer. */
inline std::span<std::byte>
ChunkSlotAt(std::byte* dest, size_t transformed_size, size_t c)
{
    const size_t begin = c * kChunkSize;
    return {dest + begin, std::min(kChunkSize, transformed_size - begin)};
}

/**
 * Pass-1 results of a parallel chunk encode: per-chunk stored size and
 * raw flag, the ChecksumBlock of each 16 KiB block of the original input
 * (kept with the chunk of the same index), and the staging buffer that
 * holds every payload until assembly. No payload exceeds its chunk (an
 * expanding chunk is stored raw), so the paper's worst-case cap sizes
 * the buffer: n_chunks × kChunkSize, one slot per chunk at
 * c × kChunkSize. It is allocated once, uninitialised, by the thread
 * that builds the plan; the worker that records a chunk is the first to
 * touch its slot's pages, and pages past a short payload are never
 * touched. Workers fill disjoint chunk indices, so no synchronisation is
 * needed beyond the scheduler's own join.
 */
struct EncodePlan {
    /** A plan for @p n_chunks chunks of an @p input_size-byte input.
     *  Block b of the input is hashed with chunk b; a whole-input
     *  pre-stage only ever expands its input, so every block has one.
     *  With @p input_size 0 nothing is hashed, for callers that build
     *  the header's checksum themselves. */
    explicit EncodePlan(size_t n_chunks, size_t input_size = 0)
        : raw_flags(n_chunks, 0), sizes(n_chunks, 0),
          input_hashes(n_chunks, 0), input_size(input_size),
          staging_(std::make_unique_for_overwrite<std::byte[]>(
              n_chunks * kChunkSize))
    {
        FPC_CHECK(ChunkCountOf(input_size) <= n_chunks,
                  "input has more checksum blocks than chunks");
    }

    /** Record chunk @p c's encoded @p payload: copy it into the chunk's
     *  staging slot and note its size and raw flag for pass 2. */
    void
    Record(size_t c, ByteSpan payload, bool raw)
    {
        FPC_CHECK(payload.size() <= kChunkSize,
                  "chunk payload larger than its staging slot");
        raw_flags[c] = raw ? 1 : 0;
        sizes[c] = static_cast<uint32_t>(payload.size());
        if (!payload.empty()) {
            std::memcpy(staging_.get() + c * kChunkSize, payload.data(),
                        payload.size());
        }
    }

    /** Record() as fpc_bench's serial replay calls it: the worker and
     *  its arena no longer hold the payload, so both are ignored. */
    void
    Record(size_t c, uint32_t /*worker*/, ByteSpan payload, bool raw,
           ScratchArena& /*scratch*/)
    {
        Record(c, payload, raw);
    }

    /** Chunk @p c's recorded payload, in its staging slot. */
    ByteSpan
    Payload(size_t c) const
    {
        return {staging_.get() + c * kChunkSize, sizes[c]};
    }

    size_t ChunkCount() const { return sizes.size(); }

    std::vector<uint8_t> raw_flags;
    std::vector<uint32_t> sizes;
    /** ChecksumBlock of input block c, stored by the chunk c that hashes
     *  it (EncodeChunkAt). */
    std::vector<uint64_t> input_hashes;
    /** Per-chunk algorithm ids of an adaptive (mode=auto) encode, filled
     *  by the scheduler next to each Record call; sized by
     *  EnableAdaptive, empty for fixed-algorithm encodes. */
    std::vector<uint8_t> algorithm_ids;

    void EnableAdaptive() { algorithm_ids.assign(sizes.size(), 0); }
    bool Adaptive() const { return !algorithm_ids.empty(); }

    size_t input_size;

    /** Checksum64 of the input; valid once every chunk is encoded. */
    uint64_t
    InputChecksum() const
    {
        uint64_t h = ChecksumSeed(input_size);
        for (size_t b = 0; b < ChunkCountOf(input_size); ++b) {
            h = ChecksumFold(h, input_hashes[b]);
        }
        return h;
    }

 private:
    std::unique_ptr<std::byte[]> staging_;
};

/** The pre-stage-free algorithm of @p algorithm's element width —
 *  kSPspeed for 4-byte, kDPspeed for 8-byte — recorded as the
 *  representative in an adaptive header (the per-chunk id table holds
 *  the real decisions). */
Algorithm AdaptiveRepresentative(Algorithm algorithm);

/**
 * The header of a finished encode of @p plan: version 5 with
 * @p algorithm's width representative when the plan is adaptive
 * (transformed == original: adaptive containers never run a whole-input
 * pre-stage), version 4 with @p algorithm otherwise. @p transformed_size
 * is the chunked stream's length and the checksum plan.InputChecksum().
 * With a trace ring on @p shard (the run scope's MainShard) that combine
 * is recorded as a kChecksum span.
 */
ContainerHeader MakeContainerHeader(Algorithm algorithm,
                                    size_t transformed_size,
                                    const EncodePlan& plan,
                                    TelemetryShard* shard);

/** The pipeline that decodes chunk @p c of @p view: the recorded
 *  per-chunk pipeline for an adaptive view, @p frame_spec otherwise. */
inline const PipelineSpec&
ChunkSpec(const ContainerView& view, const PipelineSpec& frame_spec,
          size_t c)
{
    return view.chunk_algorithms.empty()
               ? frame_spec
               : GetChunkPipeline(
                     static_cast<Algorithm>(view.chunk_algorithms[c]));
}

/** [t0, t1] (TelemetryNowNs) of one chunk's kChunk span; both zero when
 *  the arena has no telemetry shard. */
struct ChunkTimes {
    uint64_t t0 = 0;
    uint64_t t1 = 0;
};

/**
 * The per-chunk encode body both compress loops run: encode chunk @p c
 * of @p chunk_src through @p encode — with @p spec, or by
 * EncodeChunkAuto's per-chunk selection when @p plan is adaptive — on
 * the calling worker's arena @p scratch, stage the payload in @p plan,
 * hash block @p c of @p input (the original data, which is @p chunk_src
 * unless a pre-stage ran) into plan.input_hashes[c], and record the
 * chunk's latency and kChunk span in the arena's telemetry shard.
 */
ChunkTimes EncodeChunkAt(const PipelineSpec& spec, ByteSpan input,
                         ByteSpan chunk_src, size_t c, ScratchArena& scratch,
                         ChunkEncodeFn encode, EncodePlan& plan);

/**
 * The per-chunk decode body of every decode loop (both executors and
 * RunDecompressSerial): decode chunk @p c of @p view through @p decode
 * into its slot of @p dest (sized view.header.transformed_size) on
 * @p scratch, store the slot's ChecksumBlock at @p block_hashes[c] when
 * @p block_hashes is non-null, and record the chunk's latency and kChunk
 * span in the arena's telemetry shard.
 */
ChunkTimes DecodeChunkAt(const ContainerView& view, const PipelineSpec& spec,
                         size_t c, std::byte* dest, ScratchArena& scratch,
                         ChunkDecodeFn decode, uint64_t* block_hashes);

/** Rethrow a chunk loop's first failure with its stage/offset context
 *  intact: a CorruptStreamError as itself, any other std::exception as
 *  a CorruptStreamError carrying its message. */
[[noreturn]] void RethrowAsCorrupt(std::exception_ptr error);

/**
 * The stream a compress loop chunks: @p input itself, or — for a
 * fixed-mode encode of a pipeline with a whole-input pre-stage
 * (DPratio's FCM) — that stage's output, written to @p work on the
 * calling thread with kernels dispatching on @p isa. The stage counters
 * and kPre span go to @p shard (the run scope's MainShard) when it is
 * non-null. Adaptive encodes never run a pre-stage: each chunk picks its
 * own (possibly FCM-chunked) pipeline.
 */
ByteSpan PreEncode(const PipelineSpec& spec, ByteSpan input, bool adaptive,
                   simd::Isa isa, TelemetryShard* shard, Bytes& work);

/** Final payload write positions: exclusive prefix sum over the stored
 *  chunk sizes. The device path computes the same offsets with the
 *  decoupled look-back instead and passes them to AssembleContainer. */
struct WritePositions {
    std::vector<uint64_t> offsets;  ///< payload-relative, per chunk
    uint64_t total = 0;             ///< payload bytes overall
};
WritePositions ComputeWritePositions(const std::vector<uint32_t>& sizes);

/**
 * Pass 2: write the container prefix (header + chunk table), then copy
 * every staged payload to its prefix-summed offset. Placement is
 * embarrassingly parallel; @p threads > 1 distributes the memcpys (pass 0
 * or 1 for serial placement). The result is byte-identical regardless of
 * @p threads or of which scheduler produced @p plan — that is the
 * cross-device bit-identity the paper claims, and tests assert.
 */
Bytes AssembleContainer(const ContainerHeader& header,
                        const EncodePlan& plan,
                        std::span<const uint64_t> offsets, uint64_t total,
                        int threads);

/** AssembleContainer() as fpc_bench's serial replay calls it: the
 *  payloads live in @p plan, so its workers' arenas are ignored. */
inline Bytes
AssembleContainer(const ContainerHeader& header, const EncodePlan& plan,
                  std::span<const uint64_t> offsets, uint64_t total,
                  std::span<ScratchArena> /*arenas*/, int threads)
{
    return AssembleContainer(header, plan, offsets, total, threads);
}

/** Executor hook: decode every chunk of @p view into @p dest, which is
 *  sized view.header.transformed_size, each through DecodeChunkAt with
 *  @p block_hashes. That is non-null when the decoded chunks are the
 *  output and the container's checksum is chunk-laned; the driver then
 *  combines the hashes the workers stored. */
using DecodeChunksFn =
    std::function<void(const ContainerView& view, const PipelineSpec& spec,
                       std::byte* dest, uint64_t* block_hashes)>;

/** Executor hook: the whole-input pre-stage decode (FCM for DPratio)
 *  into @p out, exactly the container's original size. Only invoked
 *  when spec.pre.decode is set. */
using PreDecodeFn = std::function<void(
    const PipelineSpec& spec, ByteSpan transformed, std::span<std::byte> out)>;

/** The pre-decode hook both executors pass the decompression driver:
 *  spec.pre.decode_into on the orchestrating thread, kernels dispatching on
 *  @p isa. Its stage counters merge into @p sink and its kPre span
 *  (worker 0) goes to @p trace, each when non-null. */
PreDecodeFn PreDecodeHook(Telemetry* sink, TraceSink* trace, simd::Isa isa);

/**
 * Shared decompression driver: parse + validate the container, decode the
 * chunks through @p decode_chunks (directly into the result, hashing each
 * chunk as it lands, when the algorithm has no whole-input stage), run
 * @p pre_decode otherwise, and verify the size and content checksum: the
 * combined block hashes, or — after a pre-stage, or for a v1/v3
 * container's Fnv1a64 — a hash of the whole output. Throws
 * CorruptStreamError on any mismatch. With @p trace set, that final step
 * is recorded as a kChecksum span.
 */
Bytes RunDecompress(ByteSpan compressed, const DecodeChunksFn& decode_chunks,
                    const PreDecodeFn& pre_decode, TraceSink* trace);

/** RunDecompress into caller-owned memory of exactly original_size bytes
 *  (throws UsageError otherwise). */
void RunDecompressInto(ByteSpan compressed, std::span<std::byte> out,
                       const DecodeChunksFn& decode_chunks,
                       const PreDecodeFn& pre_decode, TraceSink* trace);

/**
 * Synthetic sub-container over chunks [@p first_chunk, @p chunk_end) of a
 * parsed frame prefix, whose payload bytes are @p payload (exactly those
 * chunks' stored bytes, contiguous as on disk). The sub-view's
 * transformed_size covers only the selected chunks, so ChunkSlotAt math —
 * and therefore every Executor::DecodeChunks backend — applies unchanged.
 * The content checksum does NOT describe the sub-range; callers verify
 * ranged reads against a full decode in tests, not per call.
 */
ContainerView MakeChunkRangeView(const ContainerPrefix& prefix,
                                 size_t first_chunk, size_t chunk_end,
                                 ByteSpan payload);

/** Logical (uncompressed) bytes covered by chunks
 *  [@p first_chunk, @p chunk_end) of a stream of @p transformed_size. */
size_t ChunkRangeBytes(size_t transformed_size, size_t first_chunk,
                       size_t chunk_end);

/**
 * RunDecompress with fully serial hooks, for streaming-pool workers: every
 * chunk (and the pre-stage, when the algorithm has one) decodes on the
 * calling thread against one persistent @p scratch arena, so a worker's
 * buffers stay warm across frames. Telemetry flows through the shard attached to
 * @p scratch, if any — the pool merges shards once, at join.
 */
Bytes RunDecompressSerial(ByteSpan compressed, ScratchArena& scratch);

}  // namespace fpc

#endif  // FPC_CORE_ORCHESTRATE_H
