/**
 * @file
 * Stage pipelines for the four algorithms (paper Figure 1):
 *
 *   SPspeed: DIFFMS32 -> MPLG32
 *   DPspeed: DIFFMS64 -> MPLG64
 *   SPratio: DIFFMS32 -> BIT32 -> RZE
 *   DPratio: FCM (whole input) -> DIFFMS64 -> RAZE64 -> RARE64
 *
 * Every stage maps a byte buffer to a byte buffer; decoding runs the
 * inverse stages in reverse order. All stages except FCM are applied
 * independently to 16 KiB chunks; a chunk whose pipeline output is not
 * smaller than the chunk itself is stored raw (worst-case expansion cap,
 * paper Section 3).
 *
 * The chunk entry points are allocation-free in steady state: all stage
 * buffers come from a caller-owned per-thread ScratchArena (core/arena.h),
 * EncodeChunk returns a view into the arena instead of a fresh vector, and
 * DecodeChunk writes straight into the caller's destination span.
 */
#ifndef FPC_CORE_PIPELINE_H
#define FPC_CORE_PIPELINE_H

#include "core/arena.h"
#include "core/telemetry.h"
#include "core/types.h"
#include "util/common.h"

namespace fpc {

/** A reversible data transformation stage. */
struct Stage {
    const char* name = nullptr;
    StageId id{};  ///< telemetry identity (core/telemetry.h)
    void (*encode)(ByteSpan, Bytes&, ScratchArena&) = nullptr;
    void (*decode)(ByteSpan, Bytes&, ScratchArena&) = nullptr;
    /** Optional: decode directly into a span of exactly the decoded size.
     *  Set on the first pipeline stage so chunk decode can write straight
     *  into the destination buffer with no intermediate copy; required on
     *  a whole-input pre-stage, which decodes into the caller's output. */
    void (*decode_into)(ByteSpan, std::span<std::byte>, ScratchArena&) =
        nullptr;
};

/** The stage composition of one algorithm. */
struct PipelineSpec {
    const char* name = nullptr;
    Algorithm algorithm{};
    unsigned word_size = 4;            ///< bytes per value (4 or 8)
    Stage pre;                         ///< whole-input stage; null if none
    std::vector<Stage> stages;         ///< per-chunk stages, encode order
    /** Multiplier on the destination size when budgeting intermediate
     *  decode buffers: an FCM chunk stage legitimately expands a chunk to
     *  about twice its size, which the fixed kChunkDecodeSlack alone does
     *  not cover. */
    unsigned decode_budget_factor = 1;
};

/** Pipeline for one of the four algorithms. */
const PipelineSpec& GetPipeline(Algorithm algorithm);

/**
 * Pipeline used for a single chunk of a v3 (mixed-algorithm) container.
 * Identical to GetPipeline except for kDPratio, whose whole-input FCM
 * pre-stage becomes a per-chunk stage — adaptive selection is a
 * per-chunk decision, so no stage may span chunks.
 */
const PipelineSpec& GetChunkPipeline(Algorithm algorithm);

/**
 * Run the chunk stages forward over @p chunk using @p scratch for every
 * buffer. Returns a view of the encoded payload — into @p scratch's
 * pipeline buffers, or @p chunk itself when the chunk is stored raw (sets
 * @p raw; pipeline output would not have been smaller). The view is
 * invalidated by the next EncodeChunk/DecodeChunk call on the same arena.
 */
ByteSpan EncodeChunk(const PipelineSpec& spec, ByteSpan chunk, bool& raw,
                     ScratchArena& scratch);

/**
 * Inverse of EncodeChunk for one chunk payload. Writes exactly
 * @p dest.size() bytes into @p dest (the chunk's slot in the output
 * buffer); throws CorruptStreamError when the payload decodes to any other
 * size.
 */
void DecodeChunk(const PipelineSpec& spec, ByteSpan payload, bool raw,
                 std::span<std::byte> dest, ScratchArena& scratch);

/** A backend's chunk encoder and decoder: EncodeChunk/DecodeChunk, or
 *  gpusim::EncodeChunkDevice/DecodeChunkDevice, which run the same
 *  driver over the device kernels. Plain function pointers, so the chunk
 *  loops pay no std::function or virtual call per chunk. */
using ChunkEncodeFn = ByteSpan (*)(const PipelineSpec&, ByteSpan, bool&,
                                   ScratchArena&);
using ChunkDecodeFn = void (*)(const PipelineSpec&, ByteSpan, bool,
                               std::span<std::byte>, ScratchArena&);

}  // namespace fpc

#endif  // FPC_CORE_PIPELINE_H
