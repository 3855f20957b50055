#include "gpusim/launch.h"

#include "core/arena.h"
#include "core/telemetry.h"
#include "gpusim/kernels.h"
#include "gpusim/primitives.h"

namespace fpc::gpusim {

namespace {

/** Record block @p c's span [@p t0, @p t1] when the arena traces. */
void
RecordBlock(ScratchArena& scratch, uint8_t dir, size_t c, uint64_t t0,
            uint64_t t1)
{
    TelemetryShard* shard = scratch.Telemetry();
    if (shard != nullptr && shard->trace != nullptr) {
        shard->trace->Record(TraceSpanKind::kBlock, dir, 0, c, t0, t1);
    }
}

}  // namespace

WritePositions
EncodeChunksOnDevice(const Device& device, const PipelineSpec& spec,
                     ByteSpan input, ByteSpan chunk_src, EncodePlan& plan,
                     std::span<ScratchArena> arenas)
{
    FPC_CHECK(arenas.size() >= TeamSize(), "one arena per launch worker");
    const size_t n_chunks = plan.ChunkCount();
    WritePositions wp;
    wp.offsets.assign(n_chunks, 0);
    DecoupledLookback lookback(n_chunks);
    FirstFailure failure;
    device.Launch(n_chunks, [&](ThreadBlock& block) {
        const size_t c = block.BlockId();
        ScratchArena& scratch = arenas[TeamWorkerId()];
        ChunkTimes times;
        const bool encoded = failure.Run([&] {
            times = EncodeChunkAt(spec, input, chunk_src, c, scratch,
                                  &EncodeChunkDevice, plan);
        });
        // After encoding (and hashing its input block) the block
        // publishes its size and looks back for its write position. A
        // failed or skipped block publishes zero, so no successor waits
        // on it.
        lookback.PublishAggregate(c, encoded ? plan.sizes[c] : 0);
        wp.offsets[c] = lookback.ResolvePrefix(c);
        // The block span additionally covers the look-back hand-off.
        if (encoded) {
            RecordBlock(scratch, kTraceEncode, c, times.t0, TelemetryNowNs());
        }
    });
    failure.Rethrow();
    if (n_chunks > 0) wp.total = wp.offsets.back() + plan.sizes.back();
    return wp;
}

void
DecodeChunksOnDevice(const Device& device, const ContainerView& view,
                     const PipelineSpec& spec, std::byte* dest,
                     uint64_t* block_hashes, std::span<ScratchArena> arenas)
{
    FPC_CHECK(arenas.size() >= TeamSize(), "one arena per launch worker");
    FirstFailure failure;
    device.Launch(view.header.chunk_count, [&](ThreadBlock& block) {
        const size_t c = block.BlockId();
        failure.Run([&] {
            ScratchArena& scratch = arenas[TeamWorkerId()];
            const ChunkTimes times =
                DecodeChunkAt(view, spec, c, dest, scratch,
                              &DecodeChunkDevice, block_hashes);
            // The decode block body is the chunk decode, so the block
            // span shares the chunk span's extent.
            RecordBlock(scratch, kTraceDecode, c, times.t0, times.t1);
        });
    });
    failure.Rethrow();
}

}  // namespace fpc::gpusim
