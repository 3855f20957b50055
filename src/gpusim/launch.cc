#include "gpusim/launch.h"

#include <atomic>
#include <exception>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "core/adaptive.h"
#include "core/arena.h"
#include "core/orchestrate.h"
#include "core/telemetry.h"
#include "gpusim/kernels.h"
#include "gpusim/primitives.h"
#include "util/hash.h"

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
 *  chunk, scheduled by the device. It folds no checksum; the driver
 *  checksums the whole output after the launch. */
DecodeChunksFn
DecodeChunksOn(const Device& device, Telemetry* sink, TraceSink* trace)
{
    return [&device, sink, trace](const ContainerView& view,
                                  const PipelineSpec& spec,
                                  std::byte* dest, Checksum64Stream*) {
        const size_t transformed_size = view.header.transformed_size;
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
                TelemetryShard* shard = scratch.Telemetry();
                TraceRing* ring = shard != nullptr ? shard->trace : nullptr;
                if (ring != nullptr) ring->SetChunk(c);
                const uint64_t t0 = shard != nullptr ? TelemetryNowNs() : 0;
                DecodeChunkDevice(
                    ChunkSpec(view, spec, c),
                    view.payload.subspan(view.chunk_offsets[c],
                                         view.chunk_sizes[c]),
                    view.chunk_raw[c],
                    ChunkSlotAt(dest, transformed_size, c), scratch);
                if (shard != nullptr) {
                    const uint64_t t1 = TelemetryNowNs();
                    shard->OnChunkDecode(t1 - t0);
                    if (ring != nullptr) {
                        // The decode block body is the chunk decode, so
                        // the block span shares the chunk span's extent.
                        ring->Record(TraceSpanKind::kBlock, kTraceDecode,
                                     0, c, t0, t1);
                        ring->Record(TraceSpanKind::kChunk, kTraceDecode,
                                     0, c, t0, t1);
                    }
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
        if (failed.load()) {
            // Rethrow the first failure so stage/offset context in a
            // CorruptStreamError survives the launch, matching the CPU
            // executor's error reporting.
            try {
                std::rethrow_exception(first_error);
            } catch (const CorruptStreamError&) {
                throw;
            } catch (const std::exception& e) {
                throw CorruptStreamError(e.what());
            }
        }
    };
}

/** Whole-input pre-stage hook (FCM) on the device path. */
PreDecodeFn
DevicePreDecode(Telemetry* sink, TraceSink* trace)
{
    return [sink, trace](const PipelineSpec& spec, ByteSpan transformed,
                         Bytes& out) {
        if (sink == nullptr && trace == nullptr) {
            (void)spec;  // only DPratio has a pre-stage, and it is FCM
            FcmDecodeDevice(transformed, out);
            return;
        }
        const uint64_t t0 = TelemetryNowNs();
        FcmDecodeDevice(transformed, out);
        const uint64_t t1 = TelemetryNowNs();
        if (sink != nullptr) {
            TelemetryShard shard;
            shard.OnStageDecode(spec.pre.id, transformed.size(), out.size(),
                                t1 - t0);
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

}  // namespace

Bytes
CompressOnDevice(const Device& device, Algorithm algorithm, ByteSpan input,
                 Telemetry* sink, TraceSink* trace, bool adaptive)
{
    const PipelineSpec& spec = GetPipeline(algorithm);
    TelemetryRunScope scope(sink, trace, MaxLaunchWorkers());

    // Adaptive encodes never run a whole-input pre-stage: each block
    // picks its chunk's (possibly FCM-chunked) pipeline below.
    Bytes work;
    ByteSpan chunk_src = input;
    if (!adaptive && spec.pre.encode != nullptr) {
        const uint64_t t0 = scope.Enabled() ? TelemetryNowNs() : 0;
        FcmEncodeDevice(input, work);
        if (TelemetryShard* shard = scope.MainShard()) {
            const uint64_t t1 = TelemetryNowNs();
            shard->OnStageEncode(spec.pre.id, input.size(), work.size(),
                                 t1 - t0);
            if (shard->trace != nullptr) {
                shard->trace->Record(TraceSpanKind::kPre, kTraceEncode,
                                     static_cast<uint8_t>(spec.pre.id), 0,
                                     t0, t1);
            }
        }
        chunk_src = ByteSpan(work);
    }

    const size_t n_chunks = ChunkCountOf(chunk_src.size());
    EncodePlan plan(n_chunks);
    if (adaptive) plan.EnableAdaptive();
    std::vector<uint64_t> offsets(n_chunks, 0);
    DecoupledLookback lookback(n_chunks);
    std::vector<ScratchArena> arenas(MaxLaunchWorkers());
    scope.HintChunks(n_chunks);
    scope.Attach(arenas);

    // One thread block per chunk; after encoding, each block publishes its
    // compressed size and resolves its write position by looking back.
    device.Launch(n_chunks, [&](ThreadBlock& block) {
        const size_t c = block.BlockId();
        ScratchArena& scratch = arenas[LaunchWorkerId()];
        TelemetryShard* shard = scratch.Telemetry();
        TraceRing* ring = shard != nullptr ? shard->trace : nullptr;
        if (ring != nullptr) ring->SetChunk(c);
        const uint64_t t0 = shard != nullptr ? TelemetryNowNs() : 0;
        bool raw = false;
        ByteSpan payload;
        if (adaptive) {
            uint8_t id = 0;
            payload = EncodeChunkAuto(ChunkAt(chunk_src, c), raw, id,
                                      scratch, &EncodeChunkDevice);
            plan.algorithm_ids[c] = id;
        } else {
            payload = EncodeChunkDevice(spec, ChunkAt(chunk_src, c), raw,
                                        scratch);
        }
        plan.Record(c, static_cast<uint32_t>(LaunchWorkerId()), payload,
                    raw, scratch);
        const uint64_t t1 = shard != nullptr ? TelemetryNowNs() : 0;
        lookback.PublishAggregate(c, payload.size());
        offsets[c] = lookback.ResolvePrefix(c);
        if (shard != nullptr) {
            shard->OnChunkEncode(t1 - t0);
            if (ring != nullptr) {
                ring->Record(TraceSpanKind::kChunk, kTraceEncode, 0, c, t0,
                             t1);
                // Block span additionally covers the look-back hand-off.
                ring->Record(TraceSpanKind::kBlock, kTraceEncode, 0, c, t0,
                             TelemetryNowNs());
            }
        }
    });

    // The device path keeps the content hash serial, after the launch.
    const uint64_t t0 = scope.Enabled() ? TelemetryNowNs() : 0;
    const uint64_t checksum = Checksum64(input);
    if (TelemetryShard* shard = scope.MainShard()) {
        if (shard->trace != nullptr) {
            shard->trace->Record(TraceSpanKind::kChecksum, kTraceEncode, 0,
                                 0, t0, TelemetryNowNs());
        }
    }
    const ContainerHeader header =
        adaptive ? MakeAdaptiveContainerHeader(algorithm, input.size(),
                                               checksum)
                 : MakeContainerHeader(algorithm, input.size(),
                                       chunk_src.size(), checksum);
    uint64_t total = 0;
    for (uint32_t size : plan.sizes) total += size;
    // Placement at the look-back-resolved positions; bytes are identical
    // to the CPU executor's prefix-sum placement (tests assert).
    Bytes out = AssembleContainer(header, plan, offsets, total, arenas,
                                  /*threads=*/1);
    scope.Finish(arenas);
    return out;
}

Bytes
DecompressOnDevice(const Device& device, ByteSpan compressed,
                   Telemetry* sink, TraceSink* trace)
{
    return RunDecompress(compressed, DecodeChunksOn(device, sink, trace),
                         DevicePreDecode(sink, trace), trace);
}

void
DecompressIntoOnDevice(const Device& device, ByteSpan compressed,
                       std::span<std::byte> out, Telemetry* sink,
                       TraceSink* trace)
{
    RunDecompressInto(compressed, out, DecodeChunksOn(device, sink, trace),
                      DevicePreDecode(sink, trace), trace);
}

void
DecodeChunksOnDevice(const Device& device, const ContainerView& view,
                     const PipelineSpec& spec, std::byte* dest,
                     Telemetry* sink, TraceSink* trace)
{
    DecodeChunksOn(device, sink, trace)(view, spec, dest, nullptr);
}

}  // namespace fpc::gpusim
