/**
 * @file
 * Per-chunk adaptive algorithm selection (`mode=auto`).
 *
 * A cheap feature probe samples each 16 KiB chunk on a fixed stride and
 * derives leading-zero statistics of the 32- and 64-bit successive
 * deltas, the repeated-value fraction, and a delta-byte entropy
 * estimate. From those features a closed-form model predicts the
 * compressed size under each of the four pipelines; the best candidate
 * is encoded, with a second trial encode when the runner-up's
 * prediction is within a fixed margin (predictions are heuristics — the
 * trial makes the final call byte-exact). Chunks the model expects to
 * expand everywhere are stored raw without encoding at all.
 *
 * The probe and the selection rule are pure functions of the chunk
 * bytes, and the stage encoders are bit-identical across backends, so
 * the cpu and gpusim executors make the same per-chunk decisions and
 * produce the same v3 container — the executor passes its own chunk
 * encoder in as a ChunkEncodeFn (core/pipeline.h): EncodeChunk, or
 * gpusim::EncodeChunkDevice, the same driver over the device kernels.
 */
#ifndef FPC_CORE_ADAPTIVE_H
#define FPC_CORE_ADAPTIVE_H

#include <array>

#include "core/pipeline.h"

namespace fpc {

/** Probe features of one chunk; see ProbeChunk. */
struct ChunkFeatures {
    double avg_lz32 = 0.0;  ///< mean leading zeros, zigzag u32 deltas
    double min_lz32 = 32.0; ///< minimum (tracks the largest delta)
    double avg_lz64 = 0.0;
    double min_lz64 = 64.0;
    double repeat64 = 0.0;  ///< fraction of exactly repeated u64 values
    double entropy = 0.0;   ///< delta-byte Shannon entropy, bits/byte
    size_t samples = 0;     ///< sample points actually taken
};

/** Compute the selection features from a strided subsample of @p chunk.
 *  Deterministic, allocation-free, and independent of the backend. */
ChunkFeatures ProbeChunk(ByteSpan chunk);

/** Predicted compressed sizes (bytes) of @p chunk_bytes under each
 *  pipeline, indexed by Algorithm id. With no samples (chunks under one
 *  sample window) every prediction equals @p chunk_bytes. */
std::array<double, 4> PredictChunkSizes(const ChunkFeatures& features,
                                        size_t chunk_bytes);

/**
 * Probe @p chunk, pick a pipeline (or raw), and encode it with
 * @p encode. On return @p algorithm_id names the chunk's pipeline (the
 * best-scoring one even when the chunk is stored raw — decode ignores
 * the id of raw chunks) and @p raw mirrors EncodeChunk's raw-fallback
 * flag. The returned payload view lives in @p scratch (pipeline buffers,
 * the trial stash, or @p chunk itself when raw) and is invalidated by
 * the next encode/decode call on the same arena.
 */
ByteSpan EncodeChunkAuto(ByteSpan chunk, bool& raw, uint8_t& algorithm_id,
                         ScratchArena& scratch, ChunkEncodeFn encode);

}  // namespace fpc

#endif  // FPC_CORE_ADAPTIVE_H
