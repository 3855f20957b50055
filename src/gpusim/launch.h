/**
 * @file
 * The device backends' two scheduling hooks (core/executor.h): chunk
 * work driven through the simulated device, one thread block per chunk
 * scheduled across the profile's SMs. On encode the blocks communicate
 * their write positions via Merrill & Garland's decoupled look-back
 * (paper Section 3.1); on decode the chunk offsets come from the parsed
 * chunk table and every block is independent. The compress and
 * decompress drivers (core/orchestrate.h) do the rest, so the
 * containers are exactly those of the cpu executor; the GPU-figure
 * benchmarks run this path under the RTX 4090-like and A100-like
 * profiles.
 */
#ifndef FPC_GPUSIM_LAUNCH_H
#define FPC_GPUSIM_LAUNCH_H

#include "core/container.h"
#include "core/orchestrate.h"
#include "core/pipeline.h"
#include "core/types.h"
#include "gpusim/device.h"

namespace fpc::gpusim {

/** Encode hook: one block per chunk of @p plan runs EncodeChunkAt with
 *  the device kernels on the arena of its host thread (@p arenas holds at
 *  least TeamSize()), publishes its compressed size and resolves its
 *  write position by looking back. Per-block spans go to the arenas'
 *  trace rings. */
WritePositions EncodeChunksOnDevice(const Device& device,
                                    const PipelineSpec& spec, ByteSpan input,
                                    ByteSpan chunk_src, EncodePlan& plan,
                                    std::span<ScratchArena> arenas);

/** Decode hook: one block per chunk of @p view runs DecodeChunkAt with the
 *  device kernels into @p dest, hashing the chunk it wrote into
 *  @p block_hashes when given. */
void DecodeChunksOnDevice(const Device& device, const ContainerView& view,
                          const PipelineSpec& spec, std::byte* dest,
                          uint64_t* block_hashes,
                          std::span<ScratchArena> arenas);

}  // namespace fpc::gpusim

#endif  // FPC_GPUSIM_LAUNCH_H
