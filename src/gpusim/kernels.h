/**
 * @file
 * GPU-path chunk codecs built on the execution-model simulator
 * (src/gpusim/device.h). The warp/block kernels in kernels.cc mirror the
 * CUDA parallelization the paper describes in Section 3 — chunks map to
 * thread blocks, MPLG subchunks and BIT groups map to warps, RZE
 * compaction uses block-wide prefix sums.
 *
 * There is one chunk driver: each entry point below runs the device
 * twin of a pipeline (its stages swapped for the kernels) through
 * fpc::EncodeChunk/DecodeChunk, and FCM is the CPU transform on both
 * backends. The wire format is identical to the CPU path; tests assert
 * byte equality, which is the cross-device compatibility claim of the
 * paper.
 */
#ifndef FPC_GPUSIM_KERNELS_H
#define FPC_GPUSIM_KERNELS_H

#include "core/pipeline.h"
#include "util/common.h"

namespace fpc::gpusim {

/** fpc::EncodeChunk over the device kernels (one thread block per stage
 *  call). @p spec is one of the library's pipelines (GetPipeline /
 *  GetChunkPipeline); same contract and result as the CPU driver. */
ByteSpan EncodeChunkDevice(const PipelineSpec& spec, ByteSpan chunk,
                           bool& raw, ScratchArena& scratch);

/** fpc::DecodeChunk over the device kernels: writes exactly
 *  @p dest.size() bytes into the chunk's slot of the output buffer. */
void DecodeChunkDevice(const PipelineSpec& spec, ByteSpan payload, bool raw,
                       std::span<std::byte> dest, ScratchArena& scratch);

/** The whole-input FCM of DPratio: tf::FcmEncode / tf::FcmDecode, the
 *  one FCM both backends run. */
void FcmEncodeDevice(ByteSpan in, Bytes& out);
void FcmDecodeDevice(ByteSpan in, Bytes& out);

}  // namespace fpc::gpusim

#endif  // FPC_GPUSIM_KERNELS_H
