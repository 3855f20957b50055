#include "library_ops.h"

#include <atomic>
#include <cmath>
#include <exception>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "core/adaptive.h"
#include "core/codec.h"
#include "core/orchestrate.h"
#include "gpusim/kernels.h"
#include "spans.h"
#include "util/hash.h"

namespace fpcbench {

using fpc::Bytes;
using fpc::ByteSpan;

namespace {

int
WorkerId()
{
#ifdef _OPENMP
    return omp_get_thread_num();
#else
    return 0;
#endif
}

/** Run @p body(chunk, worker) for every chunk on @p threads OpenMP
 *  threads, rethrowing the first exception after the loop. */
template <typename Body>
void
ForEachChunk(size_t n_chunks, int threads, Body&& body)
{
    std::atomic<bool> failed{false};
    std::exception_ptr first;
#ifdef _OPENMP
#pragma omp parallel for schedule(dynamic) num_threads(threads)
#endif
    for (std::int64_t c = 0; c < static_cast<std::int64_t>(n_chunks); ++c) {
        if (failed.load(std::memory_order_relaxed)) continue;
        try {
            body(static_cast<size_t>(c), WorkerId());
        } catch (...) {
#ifdef _OPENMP
#pragma omp critical(fpc_bench_chunk_error)
#endif
            {
                if (!failed.exchange(true)) first = std::current_exception();
            }
        }
    }
    (void)threads;
    if (failed.load()) std::rethrow_exception(first);
}

/** Span name of one transform stage: the stage name plus the element
 *  width for the width-specific stages (DIFFMS32, RAZE64, ...). */
const char*
StageSpanName(const fpc::Stage& stage, unsigned word, const char* dir)
{
    const std::string name = stage.name;
    const bool plain = name == "RZE" || name == "FCM";
    return Intern(name + (plain ? "" : word == 4 ? "32" : "64") + "." + dir);
}

}  // namespace

fpc::Options
Backend::OptionsFor(const Item& item) const
{
    fpc::Options options;
    options.executor = executor;
    options.threads = threads;
    options.adaptive = item.adaptive;
    return options;
}

RoundTripNs
RoundTrip(const Item& item, const Backend& backend, Bytes& container,
          std::span<std::byte> out)
{
    const fpc::Options options = backend.OptionsFor(item);
    const int64_t t0 = NowNs();
    container = fpc::Compress(item.algorithm, ByteSpan(item.raw), options);
    const int64_t t1 = NowNs();
    fpc::DecompressInto(ByteSpan(container), out, options);
    const int64_t t2 = NowNs();
    return {t1 - t0, t2 - t1};
}

Bytes
TracedCompress(const Item& item, const Backend& backend)
{
    Span span("compress", "orchestrate");
    const fpc::PipelineSpec& spec = fpc::GetPipeline(item.algorithm);
    const ByteSpan input(item.raw);
    Bytes work;
    ByteSpan chunk_src = input;
    if (!item.adaptive && spec.pre.encode != nullptr) {
        if (backend.device) {
            Span pre("FcmEncodeDevice", "gpusim");
            pre.SetArg(input.size());
            fpc::gpusim::FcmEncodeDevice(input, work);
        } else {
            Span pre(StageSpanName(spec.pre, spec.word_size, "encode"),
                     "transforms");
            pre.SetArg(input.size());
            fpc::ScratchArena scratch;
            spec.pre.encode(input, work, scratch);
        }
        chunk_src = ByteSpan(work);
    }

    const size_t n_chunks = fpc::ChunkCountOf(chunk_src.size());
    fpc::EncodePlan plan(n_chunks);
    if (item.adaptive) plan.EnableAdaptive();
    const int threads = std::max(1, backend.threads);
    std::vector<fpc::ScratchArena> arenas(threads);
    // Trial counts are read through the telemetry shard the adaptive
    // encoder reports into; only auto encodes attach one.
    std::vector<fpc::TelemetryShard> shards(item.adaptive ? threads : 0);
    for (size_t w = 0; w < shards.size(); ++w) {
        arenas[w].SetTelemetryShard(&shards[w]);
    }
    std::vector<uint64_t> raw_chunks(threads, 0);
    std::vector<double> pred_error(threads, 0.0);
    std::vector<uint64_t> predicted(threads, 0);
    const fpc::ChunkEncodeFn encode = backend.device
                                          ? &fpc::gpusim::EncodeChunkDevice
                                          : &fpc::EncodeChunk;
    {
        Span region("encode_chunks", "executor");
        region.SetArg(static_cast<uint64_t>(threads));
        const uint64_t op = region.Op();
        const uint64_t parent = region.Id();
        ForEachChunk(n_chunks, threads, [&](size_t c, int w) {
            fpc::ScratchArena& scratch = arenas[w];
            const ByteSpan chunk = fpc::ChunkAt(chunk_src, c);
            bool raw = false;
            ByteSpan payload;
            if (item.adaptive) {
                std::array<double, 4> pred{};
                {
                    Span probe("ProbeChunk", "adaptive", op, parent);
                    pred = fpc::PredictChunkSizes(fpc::ProbeChunk(chunk),
                                                  chunk.size());
                }
                uint8_t id = 0;
                {
                    Span auto_span("EncodeChunkAuto", "adaptive", op, parent);
                    payload =
                        fpc::EncodeChunkAuto(chunk, raw, id, scratch, encode);
                }
                plan.algorithm_ids[c] = id;
                if (!raw) {
                    const double actual = static_cast<double>(payload.size());
                    pred_error[w] += std::fabs(pred[id] - actual) / actual;
                    ++predicted[w];
                }
            } else {
                Span chunk_span(
                    backend.device ? "EncodeChunkDevice" : "EncodeChunk",
                    backend.device ? "gpusim" : "pipeline", op, parent);
                payload = encode(spec, chunk, raw, scratch);
            }
            if (raw) ++raw_chunks[w];
            plan.Record(c, static_cast<uint32_t>(w), payload, raw, scratch);
        });
    }

    // The container header as MakeContainerHeader / the adaptive variant
    // build it, with the content checksum timed on its own.
    fpc::ContainerHeader header;
    header.version = item.adaptive ? fpc::ContainerHeader::kVersionAdaptive
                                   : fpc::ContainerHeader::kVersion;
    header.algorithm = static_cast<uint8_t>(
        item.adaptive ? fpc::AdaptiveRepresentative(item.algorithm)
                      : item.algorithm);
    header.original_size = input.size();
    header.transformed_size = chunk_src.size();
    header.chunk_count = static_cast<uint32_t>(n_chunks);
    {
        Span checksum("Checksum64", "orchestrate");
        checksum.SetArg(input.size());
        header.checksum = fpc::Checksum64(input);
    }
    Bytes container;
    {
        Span assemble("AssembleContainer", "orchestrate");
        const fpc::WritePositions wp = fpc::ComputeWritePositions(plan.sizes);
        container = fpc::AssembleContainer(header, plan, wp.offsets, wp.total,
                                           arenas, threads);
    }

    Tracer& tracer = Tracer::Get();
    uint64_t raw_total = 0;
    for (uint64_t r : raw_chunks) raw_total += r;
    tracer.AddCounter("pipeline.chunks", static_cast<double>(n_chunks));
    tracer.AddCounter("pipeline.raw_chunks", static_cast<double>(raw_total));
    if (item.adaptive) {
        double error = 0, trials = 0, n = 0;
        for (int w = 0; w < threads; ++w) {
            error += pred_error[w];
            n += static_cast<double>(predicted[w]);
            trials += static_cast<double>(shards[w].adaptive_trials);
        }
        tracer.AddCounter("adaptive.chunks", static_cast<double>(n_chunks));
        tracer.AddCounter("adaptive.trials", trials);
        tracer.AddCounter("adaptive.pred_error", error);
        tracer.AddCounter("adaptive.predicted", n);
    }
    return container;
}

bool
TracedDecompress(ByteSpan container, std::span<std::byte> out,
                 const Backend& backend)
{
    Span span("decompress", "orchestrate");
    fpc::ContainerView view;
    {
        Span parse("ParseContainer", "orchestrate");
        view = fpc::ParseContainer(container);
    }
    const fpc::PipelineSpec& spec = fpc::GetPipeline(
        static_cast<fpc::Algorithm>(view.header.algorithm));
    const size_t transformed = view.header.transformed_size;
    if (out.size() != view.header.original_size) return false;
    const bool pre = spec.pre.decode != nullptr;
    Bytes work(pre ? transformed : 0);
    std::byte* dest = pre ? work.data() : out.data();
    if (!pre && transformed != out.size()) return false;

    const int threads = std::max(1, backend.threads);
    std::vector<fpc::ScratchArena> arenas(threads);
    {
        Span region("decode_chunks", "executor");
        region.SetArg(static_cast<uint64_t>(threads));
        const uint64_t op = region.Op();
        const uint64_t parent = region.Id();
        ForEachChunk(view.header.chunk_count, threads, [&](size_t c, int w) {
            Span chunk_span(
                backend.device ? "DecodeChunkDevice" : "DecodeChunk",
                backend.device ? "gpusim" : "pipeline", op, parent);
            const ByteSpan payload =
                view.payload.subspan(view.chunk_offsets[c],
                                     view.chunk_sizes[c]);
            const fpc::PipelineSpec& chunk_spec = fpc::ChunkSpec(view, spec, c);
            const std::span<std::byte> slot =
                fpc::ChunkSlotAt(dest, transformed, c);
            if (backend.device) {
                fpc::gpusim::DecodeChunkDevice(chunk_spec, payload,
                                               view.chunk_raw[c], slot,
                                               arenas[w]);
            } else {
                fpc::DecodeChunk(chunk_spec, payload, view.chunk_raw[c], slot,
                                 arenas[w]);
            }
        });
    }
    if (pre) {
        Bytes restored;
        restored.reserve(out.size());
        if (backend.device) {
            Span fcm("FcmDecodeDevice", "gpusim");
            fcm.SetArg(out.size());
            fpc::gpusim::FcmDecodeDevice(ByteSpan(work), restored);
        } else {
            Span fcm(StageSpanName(spec.pre, spec.word_size, "decode"),
                     "transforms");
            fcm.SetArg(out.size());
            fpc::ScratchArena scratch;
            spec.pre.decode(ByteSpan(work), restored, scratch);
        }
        if (restored.size() != out.size()) return false;
        std::memcpy(out.data(), restored.data(), out.size());
    }
    Span checksum("Checksum64", "orchestrate");
    checksum.SetArg(out.size());
    return fpc::Checksum64(ByteSpan(out.data(), out.size())) ==
           view.header.checksum;
}

bool
TracedStageChain(fpc::Algorithm algorithm, ByteSpan sample,
                 size_t max_chunks)
{
    const fpc::PipelineSpec& spec = fpc::GetPipeline(algorithm);
    const unsigned word = spec.word_size;
    const ByteSpan input = sample.first(sample.size() / word * word);
    fpc::ScratchArena stage_scratch;  // stage-local scratch of the chain
    fpc::ScratchArena pipe_scratch;   // EncodeChunk / DecodeChunk buffers
    bool ok = true;

    Bytes fcm;
    ByteSpan chunk_src = input;
    if (spec.pre.encode != nullptr) {
        Span pre(StageSpanName(spec.pre, word, "encode"), "transforms");
        pre.SetArg(input.size());
        spec.pre.encode(input, fcm, stage_scratch);
        chunk_src = ByteSpan(fcm);
    }

    Tracer& tracer = Tracer::Get();
    Bytes ping, pong, encoded, decoded;
    const size_t n_chunks =
        std::min(max_chunks, fpc::ChunkCountOf(chunk_src.size()));
    for (size_t c = 0; c < n_chunks; ++c) {
        const ByteSpan chunk = fpc::ChunkAt(chunk_src, c);
        int64_t pipeline_ns = 0;
        int64_t stage_ns = 0;

        bool raw = false;
        {
            Span enc("EncodeChunk", "pipeline");
            const int64_t t0 = NowNs();
            const ByteSpan payload =
                fpc::EncodeChunk(spec, chunk, raw, pipe_scratch);
            pipeline_ns += NowNs() - t0;
            encoded.assign(payload.begin(), payload.end());
        }
        // The same chunk one stage call at a time.
        ByteSpan x = chunk;
        Bytes* src = &ping;
        Bytes* dst = &pong;
        for (const fpc::Stage& stage : spec.stages) {
            dst->clear();
            Span s(StageSpanName(stage, word, "encode"), "transforms");
            s.SetArg(x.size());
            const int64_t t0 = NowNs();
            stage.encode(x, *dst, stage_scratch);
            stage_ns += NowNs() - t0;
            std::swap(src, dst);
            x = ByteSpan(*src);
        }
        if (!raw) ok &= Bytes(x.begin(), x.end()) == encoded;

        decoded.assign(chunk.size(), std::byte{0});
        {
            Span dec("DecodeChunk", "pipeline");
            const int64_t t0 = NowNs();
            fpc::DecodeChunk(spec, ByteSpan(encoded), raw,
                             std::span<std::byte>(decoded), pipe_scratch);
            pipeline_ns += NowNs() - t0;
        }
        ok &= std::equal(decoded.begin(), decoded.end(), chunk.begin());

        Bytes chain(x.begin(), x.end());
        ByteSpan y(chain);
        for (size_t s = spec.stages.size(); s-- > 0;) {
            dst->clear();
            Span sp(StageSpanName(spec.stages[s], word, "decode"),
                    "transforms");
            const int64_t t0 = NowNs();
            spec.stages[s].decode(y, *dst, stage_scratch);
            stage_ns += NowNs() - t0;
            sp.SetArg(dst->size());
            std::swap(src, dst);
            y = ByteSpan(*src);
        }
        ok &= y.size() == chunk.size() &&
              std::equal(y.begin(), y.end(), chunk.begin());
        // A raw chunk's pipeline decode is a copy, so only pipeline-coded
        // chunks compare pipeline time with the sum of its stages.
        if (!raw) {
            tracer.AddCounter("pipeline.glue_pipeline_ns",
                              static_cast<double>(pipeline_ns));
            tracer.AddCounter("pipeline.glue_stage_ns",
                              static_cast<double>(stage_ns));
        }
    }

    if (spec.pre.decode != nullptr) {
        Bytes restored;
        Span pre(StageSpanName(spec.pre, word, "decode"), "transforms");
        pre.SetArg(input.size());
        spec.pre.decode(ByteSpan(fcm), restored, stage_scratch);
        ok &= restored.size() == input.size() &&
              std::equal(restored.begin(), restored.end(), input.begin());
    }
    return ok;
}

}  // namespace fpcbench
