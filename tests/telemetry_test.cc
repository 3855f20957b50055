/**
 * @file
 * Telemetry subsystem tests (core/telemetry.h):
 *
 *  - byte accounting: stage and chunk counters reconcile exactly with the
 *    container totals reported by Inspect, for all four algorithms on the
 *    CPU backend and a gpusim backend;
 *  - neutrality: attaching a sink must not change one compressed byte
 *    (asserted against the executor_test golden checksums);
 *  - zero allocations on the instrumented chunk hot path (counting
 *    operator new — the sink may only allocate at merge/snapshot time);
 *  - the FPC_TELEMETRY=0 build keeps the API but collects nothing;
 *  - the Codec facade and StreamCompressor::stats() plumbing.
 */
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>

#include "core/codec.h"
#include "core/executor.h"
#include "core/orchestrate.h"
#include "core/pipeline.h"
#include "core/stream.h"
#include "core/telemetry.h"
#include "golden_form.h"
#include "util/hash.h"

// The counting operators below pair a malloc-backed operator new with a
// free-backed operator delete — a valid replacement pair, but GCC's
// -Wmismatched-new-delete cannot see that once it inlines them into the
// test bodies.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {

std::atomic<size_t> g_alloc_count{0};

}  // namespace

void*
operator new(std::size_t size)
{
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size)) return p;
    throw std::bad_alloc();
}

void*
operator new[](std::size_t size)
{
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size)) return p;
    throw std::bad_alloc();
}

void
operator delete(void* p) noexcept
{
    std::free(p);
}

void
operator delete[](void* p) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, std::size_t) noexcept
{
    std::free(p);
}

namespace fpc {
namespace {

/** Same generator as executor_test.cc so the golden checksums there apply
 *  verbatim here. */
Bytes
MakeInput(size_t n_bytes, uint64_t seed)
{
    Bytes data(n_bytes);
    uint64_t state = seed;
    uint32_t x = 0x3f800000u;
    for (size_t i = 0; i + 4 <= n_bytes; i += 4) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        x += static_cast<uint32_t>((state >> 33) & 0x3ff) - 512;
        std::memcpy(data.data() + i, &x, 4);
    }
    for (size_t i = n_bytes & ~size_t{3}; i < n_bytes; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        data[i] = static_cast<std::byte>(state >> 56);
    }
    return data;
}

constexpr Algorithm kAlgorithms[] = {
    Algorithm::kSPspeed,
    Algorithm::kSPratio,
    Algorithm::kDPspeed,
    Algorithm::kDPratio,
};

const char* const kBackends[] = {"cpu", "gpusim:4090"};

StageId
FirstStageOf(Algorithm algorithm)
{
    return GetPipeline(algorithm).stages.front().id;
}

TEST(TelemetryCounters, ReconcileWithContainerTotals)
{
    if (!kTelemetryEnabled) GTEST_SKIP() << "built with FPC_TELEMETRY=0";
    const Bytes input = MakeInput((size_t{1} << 18) + 13, 0xc0ffee);
    for (const char* backend : kBackends) {
        for (Algorithm algorithm : kAlgorithms) {
            Telemetry sink;
            Options options = Options{}
                                  .with_executor(backend)
                                  .with_threads(2)
                                  .with_telemetry(&sink);
            const Bytes compressed =
                Compress(algorithm, ByteSpan(input), options);
            const Bytes restored = Decompress(ByteSpan(compressed), options);
            ASSERT_EQ(restored, input);

            const CompressedInfo info = Inspect(ByteSpan(compressed));
            const TelemetrySnapshot snap = sink.Snapshot();
            SCOPED_TRACE(std::string(backend) + " / " +
                         AlgorithmName(algorithm));

            // Run totals are the exact end-to-end byte counts.
            EXPECT_EQ(snap.executor, backend);
            EXPECT_EQ(snap.algorithm, AlgorithmName(algorithm));
            EXPECT_EQ(snap.compress.calls, 1u);
            EXPECT_EQ(snap.compress.input_bytes, input.size());
            EXPECT_EQ(snap.compress.output_bytes, compressed.size());
            EXPECT_GT(snap.compress.wall_ns, 0u);
            EXPECT_EQ(snap.decompress.calls, 1u);
            EXPECT_EQ(snap.decompress.input_bytes, compressed.size());
            EXPECT_EQ(snap.decompress.output_bytes, input.size());

            // Chunk counters match the container's chunk table.
            const TelemetryShard& counters = snap.counters;
            EXPECT_EQ(counters.chunks_encoded, info.chunk_count);
            EXPECT_EQ(counters.chunks_raw, info.raw_chunks);
            EXPECT_EQ(counters.chunks_decoded, info.chunk_count);
            EXPECT_GT(counters.arena_high_water_bytes, 0u);

            // Every chunk runs the stage pipeline on encode (the raw
            // decision happens after), so the first stage consumed exactly
            // the chunked stream.
            const StageMetrics& first = counters[FirstStageOf(algorithm)];
            EXPECT_EQ(first.encode.calls, info.chunk_count);
            EXPECT_EQ(first.encode.input_bytes, info.transformed_size);

            // On decode, raw chunks skip the stages; the first stage
            // reproduces exactly the non-raw part of the chunked stream.
            uint64_t raw_bytes = 0;
            for (size_t c = 0; c < info.chunk_raw.size(); ++c) {
                if (info.chunk_raw[c] != 0) raw_bytes += info.chunk_sizes[c];
            }
            EXPECT_EQ(first.decode.calls, info.chunk_count - info.raw_chunks);
            EXPECT_EQ(first.decode.output_bytes,
                      info.transformed_size - raw_bytes);

            // Whole-input pre-stage (DPratio only): FCM sees the original
            // bytes and emits the chunked stream.
            const StageMetrics& fcm = counters[StageId::kFcm];
            if (GetPipeline(algorithm).pre.encode != nullptr) {
                EXPECT_EQ(fcm.encode.calls, 1u);
                EXPECT_EQ(fcm.encode.input_bytes, info.original_size);
                EXPECT_EQ(fcm.encode.output_bytes, info.transformed_size);
                EXPECT_EQ(fcm.decode.calls, 1u);
                EXPECT_EQ(fcm.decode.input_bytes, info.transformed_size);
                EXPECT_EQ(fcm.decode.output_bytes, info.original_size);
            } else {
                EXPECT_EQ(fcm.encode.calls, 0u);
                EXPECT_EQ(fcm.decode.calls, 0u);
            }

            // MPLG subchunk counters fire exactly for the MPLG pipelines.
            const StageMetrics& mplg = counters[StageId::kMplg];
            if (mplg.encode.calls != 0) {
                EXPECT_GT(counters.mplg_subchunks, 0u);
                EXPECT_LE(counters.mplg_enhanced, counters.mplg_subchunks);
            } else {
                EXPECT_EQ(counters.mplg_subchunks, 0u);
            }
        }
    }
}

/** The CPU pass-1 loop and the device header-parsing path must agree on
 *  every byte and subchunk counter (only wall times may differ). */
TEST(TelemetryCounters, CpuAndDeviceShardsAgree)
{
    if (!kTelemetryEnabled) GTEST_SKIP() << "built with FPC_TELEMETRY=0";
    const Bytes input = MakeInput(size_t{3} << 16, 0xfeed);
    for (Algorithm algorithm : kAlgorithms) {
        std::array<TelemetrySnapshot, 2> snaps;
        for (size_t b = 0; b < 2; ++b) {
            Telemetry sink;
            Options options =
                Options{}.with_executor(kBackends[b]).with_telemetry(&sink);
            Bytes compressed = Compress(algorithm, ByteSpan(input), options);
            Decompress(ByteSpan(compressed), options);
            snaps[b] = sink.Snapshot();
        }
        SCOPED_TRACE(AlgorithmName(algorithm));
        const TelemetryShard& cpu = snaps[0].counters;
        const TelemetryShard& dev = snaps[1].counters;
        EXPECT_EQ(cpu.chunks_encoded, dev.chunks_encoded);
        EXPECT_EQ(cpu.chunks_raw, dev.chunks_raw);
        EXPECT_EQ(cpu.chunks_decoded, dev.chunks_decoded);
        EXPECT_EQ(cpu.mplg_subchunks, dev.mplg_subchunks);
        EXPECT_EQ(cpu.mplg_enhanced, dev.mplg_enhanced);
        for (size_t s = 0; s < kStageCount; ++s) {
            SCOPED_TRACE(StageName(static_cast<StageId>(s)));
            EXPECT_EQ(cpu.stages[s].encode.calls, dev.stages[s].encode.calls);
            EXPECT_EQ(cpu.stages[s].encode.input_bytes,
                      dev.stages[s].encode.input_bytes);
            EXPECT_EQ(cpu.stages[s].encode.output_bytes,
                      dev.stages[s].encode.output_bytes);
            EXPECT_EQ(cpu.stages[s].decode.calls, dev.stages[s].decode.calls);
            EXPECT_EQ(cpu.stages[s].decode.input_bytes,
                      dev.stages[s].decode.input_bytes);
            EXPECT_EQ(cpu.stages[s].decode.output_bytes,
                      dev.stages[s].decode.output_bytes);
        }
    }
}

/** Attaching a sink must not change the compressed bytes: the two golden
 *  rows below are copied from executor_test.cc (1 MiB, seed 0x5eed+size,
 *  threads=1) and must hold with and without telemetry. */
TEST(TelemetryNeutrality, GoldenChecksumsWithAndWithoutSink)
{
    struct Golden {
        Algorithm algorithm;
        size_t compressed_bytes;
        uint64_t fingerprint;      ///< Fnv1a64 of the v1 form
        uint64_t header_checksum;  ///< the v4 header's Checksum64
    };
    const Golden kGolden[] = {
        {Algorithm::kSPspeed, 352288, 0x8164796542bb988bull,
         0x8a0f621c658823edull},
        {Algorithm::kDPratio, 709370, 0x69a8a775ae901fbcull,
         0x8a0f621c658823edull},
    };
    const Bytes input = MakeInput(size_t{1} << 20, 0x5eed + (size_t{1} << 20));
    for (const char* backend : kBackends) {
        for (const Golden& g : kGolden) {
            SCOPED_TRACE(std::string(backend) + " / " +
                         AlgorithmName(g.algorithm));
            Telemetry sink;
            Options plain = Options{}.with_executor(backend).with_threads(1);
            Options instrumented = plain;
            instrumented.with_telemetry(&sink);

            const Bytes without =
                Compress(g.algorithm, ByteSpan(input), plain);
            const Bytes with =
                Compress(g.algorithm, ByteSpan(input), instrumented);
            EXPECT_EQ(without, with);
            EXPECT_EQ(with.size(), g.compressed_bytes);
            EXPECT_EQ(GoldenFingerprint(ByteSpan(with), ByteSpan(input)),
                      g.fingerprint);
            EXPECT_EQ(HeaderChecksum(ByteSpan(with)), g.header_checksum);
            EXPECT_EQ(Decompress(ByteSpan(with), instrumented), input);
        }
    }
}

/** The instrumented chunk hot path allocates nothing once the arena is
 *  warm: shards are plain structs bumped in place, and the sink is only
 *  touched at merge time (which happens outside this loop). */
TEST(TelemetryAllocation, InstrumentedChunkLoopIsAllocationFree)
{
    if (!kTelemetryEnabled) GTEST_SKIP() << "built with FPC_TELEMETRY=0";
    const Bytes data = MakeInput(kChunkSize * 8, 0xa110c);
    for (Algorithm algorithm : kAlgorithms) {
        const PipelineSpec& spec = GetPipeline(algorithm);
        ScratchArena scratch;
        TelemetryShard shard;
        scratch.SetTelemetryShard(&shard);

        auto encode_all = [&] {
            for (size_t c = 0; c < ChunkCountOf(data.size()); ++c) {
                bool raw = false;
                EncodeChunk(spec, ChunkAt(ByteSpan(data), c), raw, scratch);
            }
        };
        encode_all();  // warm the arena (and the clock's first-use paths)
        const size_t before = g_alloc_count.load();
        encode_all();
        EXPECT_EQ(g_alloc_count.load() - before, 0u)
            << AlgorithmName(algorithm)
            << ": instrumented encode loop allocated";

        // Folding the shard into a sink allocates at most transiently and
        // never per chunk; the counters survive the merge.
        Telemetry sink;
        sink.Merge(shard);
        EXPECT_EQ(sink.Snapshot().counters.chunks_encoded,
                  shard.chunks_encoded);
    }
}

/** With FPC_TELEMETRY=0 the API compiles and runs, but a sink stays
 *  empty; with hooks compiled in the same run fills it. */
TEST(TelemetryCompileSwitch, OffBuildCollectsNothing)
{
    Telemetry sink;
    Options options = Options{}.with_telemetry(&sink);
    const Bytes input = MakeInput(kChunkSize * 4, 0x0ff);
    Bytes compressed = Compress(Algorithm::kSPspeed, ByteSpan(input), options);
    EXPECT_EQ(Decompress(ByteSpan(compressed), options), input);
    const TelemetrySnapshot snap = sink.Snapshot();
    if (kTelemetryEnabled) {
        EXPECT_EQ(snap.compress.calls, 1u);
        EXPECT_GT(snap.counters.chunks_encoded, 0u);
    } else {
        EXPECT_EQ(snap.compress.calls, 0u);
        EXPECT_EQ(snap.counters.chunks_encoded, 0u);
        EXPECT_TRUE(snap.executor.empty());
    }
    // The JSON schema line renders either way.
    EXPECT_NE(sink.ToJson().find("\"schema\": \"fpc.telemetry.v7\""),
              std::string::npos);
}

TEST(TelemetryJson, SchemaShape)
{
    Telemetry sink;
    Options options = Options{}.with_telemetry(&sink);
    Bytes input = MakeInput(kChunkSize * 2, 0x15);
    Bytes compressed = Compress(Algorithm::kSPratio, ByteSpan(input), options);
    Decompress(ByteSpan(compressed), options);
    const std::string json = sink.ToJson();
    for (const char* field :
         {"\"schema\": \"fpc.telemetry.v7\"", "\"compress\"",
          "\"decompress\"", "\"ranged\"", "\"chunks\"", "\"adaptive\"",
          "\"mplg\"", "\"arena\"", "\"stages\"", "\"DIFFMS\"",
          "\"RARE\"", "\"histograms\"", "\"chunk_encode\"",
          "\"chunk_decode\"", "\"latency\"", "\"p50_ns\"", "\"p95_ns\"",
          "\"p99_ns\"", "\"max_ns\""}) {
        EXPECT_NE(json.find(field), std::string::npos) << field;
    }
    // v7 dropped the blocks whose numbers the metrics registry owns.
    for (const char* retired :
         {"\"service\"", "\"tenants\"", "\"metrics_snapshot\""}) {
        EXPECT_EQ(json.find(retired), std::string::npos) << retired;
    }
    sink.Reset();
    const TelemetrySnapshot after = sink.Snapshot();
    EXPECT_EQ(after.compress.calls, 0u);
    EXPECT_EQ(after.counters.chunks_encoded, 0u);
}

TEST(CodecFacade, TypedRoundTripAndValidation)
{
    std::vector<float> floats(20000);
    for (size_t i = 0; i < floats.size(); ++i) {
        floats[i] = 0.5f * static_cast<float>(i % 127);
    }
    Codec codec = Codec::For<float>(Mode::kRatio);
    EXPECT_EQ(codec.algorithm(), Algorithm::kSPratio);
    Bytes packed = codec.compress(std::span<const float>(floats));
    EXPECT_EQ(codec.decompress_as<float>(ByteSpan(packed)), floats);

    // decompress_into, typed and raw.
    std::vector<float> into(floats.size());
    codec.decompress_into(ByteSpan(packed), std::span<float>(into));
    EXPECT_EQ(into, floats);

    // Word-size misuse throws before any work happens.
    std::vector<double> doubles(16, 1.5);
    EXPECT_THROW(codec.compress(std::span<const double>(doubles)),
                 UsageError);
    Codec dp = Codec::For<double>(Mode::kSpeed);
    EXPECT_EQ(dp.algorithm(), Algorithm::kDPspeed);
    EXPECT_THROW(dp.decompress_as<double>(ByteSpan(packed)), UsageError);
    std::vector<double> dinto(4);
    EXPECT_THROW(
        dp.decompress_into(ByteSpan(packed), std::span<double>(dinto)),
        UsageError);

    // inspect is the same data as the free function.
    CompressedInfo info = Codec::inspect(ByteSpan(packed));
    EXPECT_EQ(info.algorithm, Algorithm::kSPratio);
    EXPECT_EQ(info.algorithm_name, "SPratio");
    EXPECT_EQ(info.compressed_size, packed.size());
    EXPECT_EQ(info.chunk_sizes.size(), info.chunk_count);
    EXPECT_EQ(info.chunk_raw.size(), info.chunk_count);
}

TEST(CodecFacade, BackendByNameMatchesExecutorOption)
{
    const Bytes input = MakeInput(kChunkSize * 3 + 7, 0xabc);
    Codec by_name(Algorithm::kSPspeed, "gpusim:a100");
    EXPECT_EQ(by_name.options().executor, &GetExecutor("gpusim:a100"));
    Codec by_option(Algorithm::kSPspeed,
                    Options{}.with_executor("gpusim:a100"));
    EXPECT_EQ(by_name.compress(ByteSpan(input)),
              by_option.compress(ByteSpan(input)));
    EXPECT_THROW(Codec(Algorithm::kSPspeed, "tpu"), UsageError);
}

TEST(CodecFacade, EnableTelemetryAccumulatesAcrossCalls)
{
    Codec codec(Algorithm::kDPspeed);
    EXPECT_EQ(codec.telemetry(), nullptr);
    Telemetry& sink = codec.enable_telemetry();
    EXPECT_EQ(codec.telemetry(), &sink);
    EXPECT_EQ(&codec.enable_telemetry(), &sink);  // idempotent

    const Bytes input = MakeInput(kChunkSize * 2, 0xd00d);
    Bytes packed = codec.compress(ByteSpan(input));
    EXPECT_EQ(codec.decompress(ByteSpan(packed)), input);
    Bytes packed2 = codec.compress(ByteSpan(input));
    const TelemetrySnapshot snap = sink.Snapshot();
    if (kTelemetryEnabled) {
        EXPECT_EQ(snap.compress.calls, 2u);
        EXPECT_EQ(snap.decompress.calls, 1u);
        EXPECT_EQ(snap.compress.input_bytes, 2 * input.size());
    } else {
        EXPECT_EQ(snap.compress.calls, 0u);
    }

    // Copies share the owned sink.
    Codec copy = codec;
    copy.compress(ByteSpan(input));
    if (kTelemetryEnabled) {
        EXPECT_EQ(sink.Snapshot().compress.calls, 3u);
    }
}

TEST(StreamStats, PerStageMetricsAcrossFrames)
{
    std::vector<double> frame(4096);
    for (size_t i = 0; i < frame.size(); ++i) {
        frame[i] = 1.0 / static_cast<double>(i + 1);
    }
    StreamCompressor compressor(Algorithm::kDPspeed);
    compressor.stats();  // attach the owned sink before the first frame
    compressor.PutDoubles(frame);
    compressor.PutDoubles(frame);
    const TelemetrySnapshot comp_stats = compressor.stats();

    StreamDecompressor decompressor{ByteSpan(compressor.Stream())};
    decompressor.stats();
    EXPECT_EQ(decompressor.NextDoubles(), frame);
    EXPECT_EQ(decompressor.NextDoubles(), frame);
    const TelemetrySnapshot decomp_stats = decompressor.stats();

    if (kTelemetryEnabled) {
        EXPECT_EQ(comp_stats.compress.calls, 2u);
        EXPECT_EQ(comp_stats.compress.input_bytes,
                  2 * frame.size() * sizeof(double));
        EXPECT_EQ(decomp_stats.decompress.calls, 2u);
        EXPECT_EQ(decomp_stats.decompress.output_bytes,
                  2 * frame.size() * sizeof(double));
    } else {
        EXPECT_EQ(comp_stats.compress.calls, 0u);
        EXPECT_EQ(decomp_stats.decompress.calls, 0u);
    }
}

}  // namespace
}  // namespace fpc
