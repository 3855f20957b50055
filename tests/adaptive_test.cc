/**
 * @file
 * Per-chunk adaptive algorithm selection — mode=auto (DESIGN.md
 * "Adaptive selection"):
 *
 *  - round-trips of mixed-content inputs whose chunks want different
 *    pipelines, on both backends, with bit-identical v3 containers;
 *  - the acceptance bar: auto's geo-mean ratio over the mixed corpus is
 *    at least that of every fixed pipeline of the same element width,
 *    and on constant input it is within the id table of the best one;
 *  - the chunked DPratio pipeline (per-chunk FCM) round-trips through
 *    EncodeChunk/DecodeChunk directly, for every algorithm id;
 *  - probe/selection determinism, Options::with_mode and Mode::kAuto
 *    plumbing, Inspect's adaptive fields, ranged reads on adaptive
 *    streams, and the telemetry v7 adaptive counters, including the
 *    inputs of the probe budget;
 *  - the probe budget itself (ProbeBudget, run alone as the serial
 *    `probe_budget` ctest entry): probing costs at most 5% of the
 *    encode work on a seeded corpus, on both backends.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <random>

#include "core/adaptive.h"
#include "core/codec.h"
#include "core/executor.h"
#include "core/stream.h"
#include "core/telemetry.h"
#include "data/datasets.h"
#include "eval/harness.h"
#include "util/byte_source.h"

namespace fpc {
namespace {

/** Mixed-content values: consecutive chunk-sized regions alternate
 *  between smooth ramps (speed pipelines win), white noise (raw / BIT
 *  territory), constant runs (repeats), and quantized steps — so a
 *  single fixed pipeline is the wrong answer for some region. */
template <typename T>
std::vector<T>
MixedValues(size_t n, uint64_t seed)
{
    std::vector<T> values(n);
    std::mt19937_64 rng(seed);
    const size_t region = kChunkSize / sizeof(T);
    double x = 1.0;
    for (size_t i = 0; i < n; ++i) {
        switch ((i / region) % 4) {
          case 0:  // smooth ramp
            x += 1.0 / 1024.0;
            values[i] = static_cast<T>(x);
            break;
          case 1: {  // white noise mantissas
            uint64_t bits = rng();
            if constexpr (sizeof(T) == 4) {
                uint32_t b = static_cast<uint32_t>(bits);
                b = (b & 0x007fffffu) | 0x3f800000u;  // [1, 2) floats
                std::memcpy(&values[i], &b, sizeof(T));
            } else {
                bits = (bits & 0x000fffffffffffffull) |
                       0x3ff0000000000000ull;
                std::memcpy(&values[i], &bits, sizeof(T));
            }
            break;
          }
          case 2:  // constant run
            values[i] = static_cast<T>(42.5);
            break;
          default:  // coarse quantized steps
            values[i] = static_cast<T>((i / 64) % 16) / T(16);
            break;
        }
    }
    return values;
}

template <typename T>
Bytes
ToBytes(const std::vector<T>& values)
{
    ByteSpan span = AsBytes(std::span<const T>(values));
    return Bytes(span.begin(), span.end());
}

constexpr const char* kBackends[] = {"cpu", "gpusim:4090"};

TEST(AdaptiveSelect, MixedInputRoundTripsAndMixesPipelines)
{
    const Bytes sp = ToBytes(MixedValues<float>(24 * kChunkSize / 4, 1));
    const Bytes dp = ToBytes(MixedValues<double>(24 * kChunkSize / 8, 2));
    const struct {
        const Bytes* input;
        Algorithm width;
    } cases[] = {
        {&sp, Algorithm::kSPspeed},
        {&dp, Algorithm::kDPspeed},
    };
    for (const auto& c : cases) {
        for (const char* backend : kBackends) {
            Options options =
                Options{}.with_mode("auto").with_executor(backend);
            const Bytes packed =
                Compress(c.width, ByteSpan(*c.input), options);
            const CompressedInfo info = Inspect(packed);
            EXPECT_TRUE(info.adaptive);
            ASSERT_EQ(info.chunk_algorithms.size(), info.chunk_count);
            // The crafted regions must not collapse to one pipeline.
            size_t distinct = 0;
            for (uint32_t n : info.algorithm_chunks) distinct += n > 0;
            EXPECT_GE(distinct, 2u) << backend;
            EXPECT_EQ(Decompress(ByteSpan(packed), options), *c.input)
                << backend;
            // Any backend decodes any backend's container.
            EXPECT_EQ(Decompress(ByteSpan(packed), Options{}), *c.input);
        }
    }
}

TEST(AdaptiveSelect, BackendsProduceBitIdenticalContainers)
{
    const Bytes sp = ToBytes(MixedValues<float>(17 * kChunkSize / 4, 3));
    const Bytes dp = ToBytes(MixedValues<double>(17 * kChunkSize / 8, 4));
    for (const auto& [input, width] :
         {std::pair{&sp, Algorithm::kSPspeed},
          std::pair{&dp, Algorithm::kDPspeed}}) {
        Bytes first;
        for (const char* backend : kBackends) {
            Options options =
                Options{}.with_mode("auto").with_executor(backend);
            const Bytes packed = Compress(width, ByteSpan(*input), options);
            if (first.empty()) {
                first = packed;
            } else {
                EXPECT_EQ(packed, first)
                    << "adaptive containers diverge across backends";
            }
        }
    }
}

TEST(AdaptiveSelect, FixedModeBytesAreUntouched)
{
    const Bytes input = ToBytes(MixedValues<float>(6 * kChunkSize / 4, 5));
    const Bytes fixed = Compress(Algorithm::kSPratio, ByteSpan(input));
    const Bytes fixed_explicit = Compress(
        Algorithm::kSPratio, ByteSpan(input), Options{}.with_mode("fixed"));
    EXPECT_EQ(fixed, fixed_explicit);
    EXPECT_FALSE(Inspect(fixed).adaptive);

    const Bytes adaptive = Compress(Algorithm::kSPratio, ByteSpan(input),
                                    Options{}.with_mode("auto"));
    EXPECT_TRUE(Inspect(adaptive).adaptive);
    EXPECT_EQ(Decompress(ByteSpan(adaptive)), input);
}

TEST(AdaptiveSelect, RatioAtLeastEveryFixedPipeline)
{
    // The mixed corpus of the acceptance bar: the synthetic SP + DP
    // suites, scaled down to keep the test fast but multi-chunk.
    data::SuiteConfig config;
    config.values_per_file = 1 << 15;  // 128 KiB SP / 256 KiB DP files
    config.file_scale = 0.2;
    eval::EvalConfig eval_config;
    eval_config.runs = 1;

    const auto sp_inputs = eval::ToInputs(data::SingleSuite(config));
    const auto dp_inputs = eval::ToInputs(data::DoubleSuite(config));
    const Executor& cpu = GetExecutor("cpu");

    const double auto_sp =
        eval::Evaluate(eval::OurAdaptiveCodec(Algorithm::kSPspeed, cpu),
                       sp_inputs, eval_config)
            .ratio;
    for (Algorithm fixed : {Algorithm::kSPspeed, Algorithm::kSPratio}) {
        const double ratio =
            eval::Evaluate(eval::OurCodec(fixed, cpu), sp_inputs,
                           eval_config)
                .ratio;
        EXPECT_GE(auto_sp, ratio) << "auto-SP loses to "
                                  << AlgorithmName(fixed);
    }

    const double auto_dp =
        eval::Evaluate(eval::OurAdaptiveCodec(Algorithm::kDPspeed, cpu),
                       dp_inputs, eval_config)
            .ratio;
    for (Algorithm fixed : {Algorithm::kDPspeed, Algorithm::kDPratio}) {
        const double ratio =
            eval::Evaluate(eval::OurCodec(fixed, cpu), dp_inputs,
                           eval_config)
                .ratio;
        EXPECT_GE(auto_dp, ratio) << "auto-DP loses to "
                                  << AlgorithmName(fixed);
    }
}

/** A constant chunk gives the probe only zero deltas, so the model has
 *  nothing to rank the pipelines by; auto then trial-encodes all four.
 *  On 4 MiB of 0.0 it must come within its id table (one byte per
 *  chunk) of the best fixed pipeline, at either element width. */
TEST(AdaptiveSelect, ConstantChunksTrialEveryPipeline)
{
    const Bytes zeros(size_t{4} << 20);
    const size_t n_chunks = zeros.size() / kChunkSize;
    size_t best_fixed = SIZE_MAX;
    for (Algorithm fixed : {Algorithm::kSPspeed, Algorithm::kSPratio,
                            Algorithm::kDPspeed, Algorithm::kDPratio}) {
        best_fixed =
            std::min(best_fixed, Compress(fixed, ByteSpan(zeros)).size());
    }
    for (Algorithm width : {Algorithm::kSPspeed, Algorithm::kDPspeed}) {
        const Bytes packed = Compress(width, ByteSpan(zeros),
                                      Options{}.with_mode("auto"));
        EXPECT_LE(packed.size(), best_fixed + n_chunks)
            << "auto at " << AlgorithmName(width) << "'s width";
        EXPECT_EQ(Decompress(ByteSpan(packed)), zeros);
    }
}

TEST(AdaptiveSelect, ChunkPipelinesRoundTripEveryAlgorithm)
{
    // GetChunkPipeline(kDPratio) turns the whole-input FCM pre-stage
    // into a per-chunk stage; every id must round-trip at the chunk
    // level, since a v3 container can record any of them.
    ScratchArena scratch;
    for (int a = 0; a < 4; ++a) {
        const Algorithm algorithm = static_cast<Algorithm>(a);
        const PipelineSpec& spec = GetChunkPipeline(algorithm);
        const size_t word = AlgorithmWordSize(algorithm);
        Bytes chunk;
        if (word == 4) {
            chunk = ToBytes(MixedValues<float>(kChunkSize / 4, 7 + a));
        } else {
            chunk = ToBytes(MixedValues<double>(kChunkSize / 8, 7 + a));
        }
        bool raw = false;
        const ByteSpan payload =
            EncodeChunk(spec, ByteSpan(chunk), raw, scratch);
        Bytes out(chunk.size());
        const Bytes payload_copy(payload.begin(), payload.end());
        DecodeChunk(spec, ByteSpan(payload_copy), raw,
                    std::span<std::byte>(out.data(), out.size()), scratch);
        EXPECT_EQ(out, chunk) << AlgorithmName(algorithm);
    }
}

TEST(AdaptiveSelect, ProbeAndSelectionAreDeterministic)
{
    const Bytes chunk = ToBytes(MixedValues<float>(kChunkSize / 4, 11));
    const ChunkFeatures f1 = ProbeChunk(ByteSpan(chunk));
    const ChunkFeatures f2 = ProbeChunk(ByteSpan(chunk));
    EXPECT_EQ(f1.avg_lz32, f2.avg_lz32);
    EXPECT_EQ(f1.min_lz32, f2.min_lz32);
    EXPECT_EQ(f1.avg_lz64, f2.avg_lz64);
    EXPECT_EQ(f1.repeat64, f2.repeat64);
    EXPECT_EQ(f1.entropy, f2.entropy);
    EXPECT_GT(f1.samples, 0u);
    EXPECT_EQ(PredictChunkSizes(f1, chunk.size()),
              PredictChunkSizes(f2, chunk.size()));

    ScratchArena scratch;
    uint8_t id1 = 0xff, id2 = 0xff;
    bool raw1 = false, raw2 = false;
    const ByteSpan p1 =
        EncodeChunkAuto(ByteSpan(chunk), raw1, id1, scratch, &EncodeChunk);
    const Bytes bytes1(p1.begin(), p1.end());
    const ByteSpan p2 =
        EncodeChunkAuto(ByteSpan(chunk), raw2, id2, scratch, &EncodeChunk);
    EXPECT_EQ(id1, id2);
    EXPECT_EQ(raw1, raw2);
    EXPECT_LE(id1, 3);
    EXPECT_EQ(bytes1, Bytes(p2.begin(), p2.end()));
}

TEST(AdaptiveSelect, ModePlumbing)
{
    EXPECT_FALSE(Options{}.adaptive);
    EXPECT_TRUE(Options{}.with_mode("auto").adaptive);
    EXPECT_FALSE(Options{}.with_mode("auto").with_mode("fixed").adaptive);
    EXPECT_THROW(Options{}.with_mode("adaptive"), UsageError);
    EXPECT_THROW(Options{}.with_mode(""), UsageError);

    const auto values = MixedValues<float>(5 * kChunkSize / 4, 13);
    Codec codec = Codec::For<float>(Mode::kAuto);
    const Bytes packed =
        codec.compress(std::span<const float>(values.data(), values.size()));
    const CompressedInfo info = Inspect(packed);
    EXPECT_TRUE(info.adaptive);
    // The recorded width representative keeps typed decode working.
    EXPECT_EQ(AlgorithmWordSize(info.algorithm), sizeof(float));
    const std::vector<float> restored =
        codec.decompress_as<float>(ByteSpan(packed));
    EXPECT_TRUE(std::equal(
        restored.begin(), restored.end(), values.begin(),
        [](float a, float b) {
            return std::memcmp(&a, &b, sizeof(float)) == 0;
        }));
}

TEST(AdaptiveSelect, InspectReportsPerChunkTable)
{
    const Bytes input = ToBytes(MixedValues<double>(9 * kChunkSize / 8, 17));
    const Bytes packed = Compress(Algorithm::kDPspeed, ByteSpan(input),
                                  Options{}.with_mode("auto"));
    const CompressedInfo info = Inspect(packed);
    ASSERT_TRUE(info.adaptive);
    ASSERT_EQ(info.chunk_algorithms.size(), info.chunk_count);
    uint32_t counted = 0;
    for (uint32_t n : info.algorithm_chunks) counted += n;
    EXPECT_EQ(counted, info.chunk_count);
    for (uint8_t id : info.chunk_algorithms) EXPECT_LE(id, 3);
    // Fixed containers report an empty table and a zero histogram.
    const CompressedInfo fixed =
        Inspect(Compress(Algorithm::kDPspeed, ByteSpan(input)));
    EXPECT_FALSE(fixed.adaptive);
    EXPECT_TRUE(fixed.chunk_algorithms.empty());
}

TEST(AdaptiveSelect, RangedReadsHonorPerChunkIds)
{
    const auto values = MixedValues<float>(10 * kChunkSize / 4, 19);
    const Bytes original = ToBytes(values);
    Options options = Options{}.with_mode("auto");
    StreamCompressor compressor(Algorithm::kSPspeed, options);
    compressor.PutFrame(ByteSpan(original).subspan(0, original.size() / 2));
    compressor.PutFrame(ByteSpan(original).subspan(original.size() / 2));
    const Bytes stream = compressor.FinishWithIndex();
    MemoryByteSource source{ByteSpan(stream)};

    const size_t elements = values.size();
    const size_t chunk_elements = kChunkSize / 4;
    const struct {
        uint64_t first;
        uint64_t count;
    } cases[] = {
        {0, elements},                        // everything
        {chunk_elements + 5, 17},             // inside a noise chunk
        {3 * chunk_elements - 4, 9},          // chunk boundary straddle
        {elements / 2 - 6, 13},               // frame boundary straddle
        {elements - 1, 1},                    // last element
        {elements, 0},                        // empty at the end
    };
    for (const char* backend : kBackends) {
        Options read = Options{}.with_executor(backend);
        for (const auto& c : cases) {
            const Bytes got =
                DecompressRange(source, c.first, c.count, read);
            ASSERT_EQ(got.size(), c.count * 4) << backend;
            EXPECT_TRUE(std::equal(
                got.begin(), got.end(),
                original.begin() +
                    static_cast<std::ptrdiff_t>(c.first * 4)))
                << backend << " range [" << c.first << ", "
                << c.first + c.count << ")";
        }
    }
}

TEST(AdaptiveSelect, TelemetryCountsProbesAndSelections)
{
    if (!kTelemetryEnabled) GTEST_SKIP() << "FPC_TELEMETRY=0";
    const Bytes input = ToBytes(MixedValues<float>(12 * kChunkSize / 4, 23));
    Telemetry sink;
    Options options = Options{}.with_mode("auto").with_telemetry(&sink);
    const Bytes packed =
        Compress(Algorithm::kSPspeed, ByteSpan(input), options);
    const CompressedInfo info = Inspect(packed);

    const TelemetrySnapshot snap = sink.Snapshot();
    EXPECT_EQ(snap.algorithm, "auto");
    EXPECT_EQ(snap.counters.adaptive_probe_calls, info.chunk_count);
    uint64_t selected = snap.counters.adaptive_raw_chunks;
    for (uint64_t n : snap.counters.adaptive_chunks) selected += n;
    EXPECT_EQ(selected, info.chunk_count);
    // Every in-margin candidate can be trial-encoded, so up to three
    // trials per probed chunk.
    EXPECT_LE(snap.counters.adaptive_trials,
              3 * snap.counters.adaptive_probe_calls);
    EXPECT_GT(snap.counters.adaptive_actual_bytes, 0u);
    EXPECT_GT(snap.counters.adaptive_predicted_bytes, 0u);

    // Fixed runs leave the adaptive block all-zero.
    Telemetry fixed_sink;
    (void)Compress(Algorithm::kSPspeed, ByteSpan(input),
                   Options{}.with_telemetry(&fixed_sink));
    const TelemetrySnapshot fixed = fixed_sink.Snapshot();
    EXPECT_EQ(fixed.counters.adaptive_probe_calls, 0u);
    EXPECT_EQ(fixed.counters.adaptive_trials, 0u);
}

// ProbeBudget below budgets the probe at 5% of the encode work: probe
// plus stage encode time, summed over the same per-worker shards. Pin what
// that ratio relies on, with no timing bound: at one worker the probe
// and stage intervals are disjoint and lie inside the compress wall
// interval (so the share is never below probe / compress wall), and
// both sides count the same work at every thread count.
TEST(AdaptiveSelect, ProbeShareInputsCountTheSameWorkAtEveryThreadCount)
{
    if (!kTelemetryEnabled) GTEST_SKIP() << "FPC_TELEMETRY=0";
    const Bytes input = ToBytes(MixedValues<float>(16 * kChunkSize / 4, 29));
    auto run = [&](int threads) {
        Telemetry sink;
        (void)Compress(Algorithm::kSPspeed, ByteSpan(input),
                       Options{}
                           .with_executor("cpu")
                           .with_mode("auto")
                           .with_threads(threads)
                           .with_telemetry(&sink));
        return sink.Snapshot();
    };

    const TelemetrySnapshot one = run(1);
    ASSERT_GT(one.counters.adaptive_probe_calls, 0u);
    EXPECT_GT(one.counters.adaptive_trials, 0u);  // trials are in the sum
    uint64_t encode_work_ns = one.counters.adaptive_probe_ns;
    for (const StageMetrics& stage : one.counters.stages)
        encode_work_ns += stage.encode.wall_ns;
    EXPECT_GE(one.compress.wall_ns, encode_work_ns);

    const TelemetrySnapshot four = run(4);
    EXPECT_EQ(four.counters.adaptive_probe_calls,
              one.counters.adaptive_probe_calls);
    EXPECT_EQ(four.counters.adaptive_trials, one.counters.adaptive_trials);
    for (size_t s = 0; s < kStageCount; ++s) {
        EXPECT_EQ(four.counters.stages[s].encode.calls,
                  one.counters.stages[s].encode.calls)
            << StageName(static_cast<StageId>(s));
    }
}

// The probe must stay cheap: probing may cost at most 5% of the encode
// work, that is probe plus stage encode time (trial encodes included),
// summed over the same workers, on a seeded corpus (16384 values per
// file, SP suite at scale 0.1, DP suite at 0.25) on both backends. Both
// sides are per-worker thread time, so the share does not move with the
// thread count the way a share of elapsed compress wall time does.
// Timing-sensitive: ctest runs it alone as `probe_budget` (RUN_SERIAL)
// and filters it out of the plain adaptive_test entry.
TEST(ProbeBudget, ProbeCostsAtMostFivePercentOfTheEncodeWork)
{
    if (!kTelemetryEnabled) GTEST_SKIP() << "FPC_TELEMETRY=0";
    data::SuiteConfig sp_config;
    sp_config.values_per_file = 16384;
    sp_config.file_scale = 0.1;
    data::SuiteConfig dp_config = sp_config;
    dp_config.file_scale = 0.25;
    const std::vector<eval::EvalInput> sp_inputs =
        eval::ToInputs(data::SingleSuite(sp_config));
    const std::vector<eval::EvalInput> dp_inputs =
        eval::ToInputs(data::DoubleSuite(dp_config));
    eval::EvalConfig eval_config;
    eval_config.runs = 3;

    for (const char* backend : {"cpu", "gpusim:4090"}) {
        const Executor& executor = GetExecutor(backend);
        for (Algorithm width : {Algorithm::kSPspeed, Algorithm::kDPspeed}) {
            const bool dp = AlgorithmWordSize(width) == 8;
            const eval::CodecResult result = eval::Evaluate(
                eval::OurAdaptiveCodec(width, executor),
                dp ? dp_inputs : sp_inputs, eval_config);
            const TelemetryShard& counters = result.telemetry.counters;
            const uint64_t probe_ns = counters.adaptive_probe_ns;
            uint64_t encode_work_ns = probe_ns;
            for (const StageMetrics& stage : counters.stages)
                encode_work_ns += stage.encode.wall_ns;
            ASSERT_GT(probe_ns, 0u) << result.name << "@" << backend;
            EXPECT_LE(probe_ns * 20, encode_work_ns)
                << result.name << "@" << backend << ": probe "
                << 100.0 * static_cast<double>(probe_ns) /
                       static_cast<double>(encode_work_ns)
                << "% of the encode work";
        }
    }
}

}  // namespace
}  // namespace fpc
