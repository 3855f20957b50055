/**
 * @file
 * The compress and decompress drivers every executor (core/executor.h)
 * runs through. The paper's container pipeline is the same on both
 * device paths — partition the transformed stream into 16 KiB chunks,
 * encode each chunk independently (raw fallback when a chunk expands),
 * turn the compressed sizes into write positions, and place every
 * payload behind one container prefix — and only the *scheduling* of the
 * chunk work differs (shared-cursor OpenMP loop vs simulated grid launch
 * with decoupled look-back). The drivers here own everything else — ISA
 * resolution, arena leases, run telemetry, the whole-input pre-stage,
 * header construction, container assembly, parsing and the one content
 * check — and call the executor's two scheduling hooks for the chunk
 * loops, so the backends cannot drift apart: identical partition math,
 * identical chunk tables, identical prefix bytes.
 * The content checksum is chunk-laned too (Checksum64, util/hash.h): the
 * shared per-chunk bodies hash their block — EncodeChunkAt the input
 * block of its chunk, DecodeChunkAt the chunk it just wrote — and the
 * driver combines the block hashes after the join, so every scheduler
 * hashes through the same two functions (DESIGN.md §3a).
 */
#ifndef FPC_CORE_ORCHESTRATE_H
#define FPC_CORE_ORCHESTRATE_H

#include <atomic>
#include <exception>
#include <memory>
#include <optional>

#include "core/arena.h"
#include "core/container.h"
#include "core/pipeline.h"
#include "core/types.h"
#include "util/common.h"
#include "util/hash.h"

namespace fpc {

class Executor;
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
 * The per-chunk encode body every encode hook runs: encode chunk @p c
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
 * The per-chunk decode body every decode hook runs: decode chunk @p c
 * of @p view through @p decode into its slot of @p dest (sized
 * view.header.transformed_size) on @p scratch, store the slot's
 * ChecksumBlock at @p block_hashes[c] when
 * @p block_hashes is non-null, and record the chunk's latency and kChunk
 * span in the arena's telemetry shard.
 */
ChunkTimes DecodeChunkAt(const ContainerView& view, const PipelineSpec& spec,
                         size_t c, std::byte* dest, ScratchArena& scratch,
                         ChunkDecodeFn decode, uint64_t* block_hashes);

/** Final payload write positions: exclusive prefix sum over the stored
 *  chunk sizes — what the cpu executor's encode hook returns; the device
 *  hook computes the same offsets with the decoupled look-back. */
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

/**
 * First-failure capture for a chunk loop. Each worker runs its chunk
 * work through Run(); the first exception is kept, later ones are
 * dropped, and Failed() tells the other workers to stop claiming. The
 * atomic exchange picks the single writer of the stored exception and
 * the loop's join publishes it, so no lock is needed; call Rethrow()
 * after the join.
 */
class FirstFailure {
 public:
    bool Failed() const { return failed_.load(std::memory_order_relaxed); }

    /** Run @p work unless a worker has already failed; true when it ran
     *  to completion. */
    template <typename Work>
    bool
    Run(const Work& work)
    {
        if (Failed()) return false;
        try {
            work();
            return true;
        } catch (...) {
            if (!failed_.exchange(true)) error_ = std::current_exception();
            return false;
        }
    }

    void
    Rethrow() const
    {
        if (error_) std::rethrow_exception(error_);
    }

 private:
    std::atomic<bool> failed_{false};
    std::exception_ptr error_;
};

/** Threads an OpenMP region started by the caller runs on
 *  (omp_get_max_threads(); 1 without OpenMP). */
size_t TeamSize();

/** The calling thread's index in its OpenMP team (0 outside a parallel
 *  region or without OpenMP). */
size_t TeamWorkerId();

/**
 * The compress driver behind fpc::Compress on every backend: resolve the
 * ISA, lease @p executor's worker count of arenas (Options::arenas),
 * run the whole-input pre-stage, build the EncodePlan, run the
 * executor's encode hook, then write the header and assemble the
 * container with that many threads. Run telemetry (sink context and
 * totals, trace run span) is recorded when the options carry a sink or
 * tracer.
 */
Bytes CompressOn(const Executor& executor, Algorithm algorithm,
                 ByteSpan input, const Options& options);

/**
 * The decompress driver behind fpc::Decompress and fpc::DecompressInto on
 * every backend: parse @p compressed once, check its sizes against the
 * pipeline, decode the chunks through the executor's decode hook —
 * straight into the output, hashing each chunk as it lands, when the
 * algorithm has no whole-input stage — run the pre-stage decode
 * otherwise, and verify the size and content checksum (throws
 * CorruptStreamError on any mismatch). Writes into @p into when given
 * (exactly original_size bytes, else UsageError) and returns an empty
 * buffer; otherwise returns a new one. With @p record_run the call's
 * run telemetry is recorded as in CompressOn.
 */
Bytes DecompressOn(const Executor& executor, ByteSpan compressed,
                   const Options& options,
                   std::optional<std::span<std::byte>> into = std::nullopt,
                   bool record_run = true);

/** Decode every chunk of a chunk-range @p view (MakeChunkRangeView) into
 *  @p dest through @p executor's decode hook, with the leases and chunk
 *  telemetry of a decompress call but no content check: the ranged-read
 *  path. */
void DecodeChunkRange(const Executor& executor, const ContainerView& view,
                      const PipelineSpec& spec, std::byte* dest,
                      const Options& options);

/** Algorithm label of a run over a container with @p header: "auto"
 *  for adaptive containers, the fixed algorithm's name otherwise. */
const char* RunAlgorithmName(const ContainerHeader& header);

/** Record one finished entry-point call of @p executor with @p options
 *  that ran [@p t0, @p t1]: the sink's context (@p algorithm_name when
 *  known, and the call's ISA) and the trace's run span ("decompress
 *  SPspeed@cpu"), each when the options carry one. Byte totals are the
 *  caller's to add. */
void RecordRun(const Executor& executor, const Options& options,
               const char* verb, uint8_t dir, const char* algorithm_name,
               uint64_t t0, uint64_t t1);

/**
 * Synthetic sub-container over chunks [@p first_chunk, @p chunk_end) of a
 * parsed frame prefix, whose payload bytes are @p payload (exactly those
 * chunks' stored bytes, contiguous as on disk). The sub-view's
 * transformed_size covers only the selected chunks, so ChunkSlotAt math —
 * and therefore every executor's decode hook — applies unchanged.
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
 * The decompress driver's body with a serial chunk loop, for
 * streaming-pool workers: every chunk (and the pre-stage, when the
 * algorithm has one) decodes on the calling thread against one
 * persistent @p scratch arena, so a worker's buffers stay warm across
 * frames. Telemetry flows through the shard attached to @p scratch, if
 * any — the pool merges shards once, at join.
 */
Bytes RunDecompressSerial(ByteSpan compressed, ScratchArena& scratch);

}  // namespace fpc

#endif  // FPC_CORE_ORCHESTRATE_H
