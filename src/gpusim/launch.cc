#include "gpusim/launch.h"

#include <atomic>
#include <exception>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "core/arena.h"
#include "core/orchestrate.h"
#include "core/telemetry.h"
#include "gpusim/kernels.h"
#include "gpusim/primitives.h"

namespace fpc::gpusim {

namespace {

/** Arenas for the host threads that model SMs in Device::Launch. */
size_t
MaxLaunchWorkers()
{
#ifdef _OPENMP
    return static_cast<size_t>(omp_get_max_threads());
#else
    return 1;
#endif
}

size_t
LaunchWorkerId()
{
#ifdef _OPENMP
    return static_cast<size_t>(omp_get_thread_num());
#else
    return 0;
#endif
}

/** Chunk decode hook for the orchestration driver: one thread block per
 *  chunk, scheduled by the device; each block hashes the chunk it wrote
 *  into @p block_hashes when given. */
DecodeChunksFn
DecodeChunksOn(const Device& device, Telemetry* sink, TraceSink* trace)
{
    return [&device, sink, trace](const ContainerView& view,
                                  const PipelineSpec& spec,
                                  std::byte* dest, uint64_t* block_hashes) {
        std::vector<ScratchArena> arenas(MaxLaunchWorkers());
        TelemetryRunScope scope(sink, trace, MaxLaunchWorkers());
        scope.HintChunks(view.header.chunk_count);
        scope.Attach(arenas);
        std::atomic<bool> failed{false};
        std::exception_ptr first_error;
#ifdef _OPENMP
        omp_lock_t error_lock;
        omp_init_lock(&error_lock);
#endif
        device.Launch(view.header.chunk_count, [&](ThreadBlock& block) {
            if (failed.load(std::memory_order_relaxed)) return;
            const size_t c = block.BlockId();
            try {
                ScratchArena& scratch = arenas[LaunchWorkerId()];
                const ChunkTimes times =
                    DecodeChunkAt(view, spec, c, dest, scratch,
                                  &DecodeChunkDevice, block_hashes);
                TelemetryShard* shard = scratch.Telemetry();
                if (shard != nullptr && shard->trace != nullptr) {
                    // The decode block body is the chunk decode, so the
                    // block span shares the chunk span's extent.
                    shard->trace->Record(TraceSpanKind::kBlock, kTraceDecode,
                                         0, c, times.t0, times.t1);
                }
            } catch (...) {
#ifdef _OPENMP
                omp_set_lock(&error_lock);
#endif
                if (!failed.exchange(true)) {
                    first_error = std::current_exception();
                }
#ifdef _OPENMP
                omp_unset_lock(&error_lock);
#endif
            }
        });
#ifdef _OPENMP
        omp_destroy_lock(&error_lock);
#endif
        scope.Finish(arenas);
        if (failed.load()) RethrowAsCorrupt(first_error);
    };
}

}  // namespace

Bytes
CompressOnDevice(const Device& device, Algorithm algorithm, ByteSpan input,
                 Telemetry* sink, TraceSink* trace, bool adaptive)
{
    const PipelineSpec& spec = GetPipeline(algorithm);
    TelemetryRunScope scope(sink, trace, MaxLaunchWorkers());

    // Device kernels and the pre-stage dispatch on the process default
    // ISA.
    Bytes work;
    const ByteSpan chunk_src = PreEncode(spec, input, adaptive,
                                         simd::DefaultIsa(),
                                         scope.MainShard(), work);

    const size_t n_chunks = ChunkCountOf(chunk_src.size());
    EncodePlan plan(n_chunks, input.size());
    if (adaptive) plan.EnableAdaptive();
    std::vector<uint64_t> offsets(n_chunks, 0);
    DecoupledLookback lookback(n_chunks);
    std::vector<ScratchArena> arenas(MaxLaunchWorkers());
    scope.HintChunks(n_chunks);
    scope.Attach(arenas);

    // One thread block per chunk; after encoding (and hashing its input
    // block), each block publishes its compressed size and resolves its
    // write position by looking back.
    device.Launch(n_chunks, [&](ThreadBlock& block) {
        const size_t c = block.BlockId();
        ScratchArena& scratch = arenas[LaunchWorkerId()];
        const ChunkTimes times = EncodeChunkAt(spec, input, chunk_src, c,
                                               scratch, &EncodeChunkDevice,
                                               plan);
        lookback.PublishAggregate(c, plan.sizes[c]);
        offsets[c] = lookback.ResolvePrefix(c);
        TelemetryShard* shard = scratch.Telemetry();
        if (shard != nullptr && shard->trace != nullptr) {
            // The block span additionally covers the look-back hand-off.
            shard->trace->Record(TraceSpanKind::kBlock, kTraceEncode, 0, c,
                                 times.t0, TelemetryNowNs());
        }
    });

    const ContainerHeader header = MakeContainerHeader(
        algorithm, chunk_src.size(), plan, scope.MainShard());
    uint64_t total = 0;
    for (uint32_t size : plan.sizes) total += size;
    // Placement at the look-back-resolved positions; bytes are identical
    // to the CPU executor's prefix-sum placement (tests assert).
    Bytes out = AssembleContainer(header, plan, offsets, total,
                                  /*threads=*/1);
    scope.Finish(arenas);
    return out;
}

Bytes
DecompressOnDevice(const Device& device, ByteSpan compressed,
                   Telemetry* sink, TraceSink* trace)
{
    return RunDecompress(compressed, DecodeChunksOn(device, sink, trace),
                         PreDecodeHook(sink, trace, simd::DefaultIsa()),
                         trace);
}

void
DecompressIntoOnDevice(const Device& device, ByteSpan compressed,
                       std::span<std::byte> out, Telemetry* sink,
                       TraceSink* trace)
{
    RunDecompressInto(compressed, out, DecodeChunksOn(device, sink, trace),
                      PreDecodeHook(sink, trace, simd::DefaultIsa()), trace);
}

void
DecodeChunksOnDevice(const Device& device, const ContainerView& view,
                     const PipelineSpec& spec, std::byte* dest,
                     Telemetry* sink, TraceSink* trace)
{
    DecodeChunksOn(device, sink, trace)(view, spec, dest, nullptr);
}

}  // namespace fpc::gpusim
