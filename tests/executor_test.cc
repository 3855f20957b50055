/**
 * @file
 * Executor-registry tests: name lookup and error reporting, capability
 * metadata, Options-based resolution, and the paper's cross-device
 * compatibility property asserted across the *whole registry* — every
 * backend must produce byte-identical containers for all four algorithms
 * and decode containers produced by every other backend. Golden sizes and
 * checksums pin the wire format per backend: any change here is a
 * breaking format change and must be deliberate (bump the container
 * version), not a side effect of a performance or scheduling change.
 * The chunk-checksum tests drive the CPU executor's shared-cursor chunk
 * loop (each worker hashes the chunks it decodes) through failures, edge
 * sizes and repetition at several thread counts. A test-local backend
 * made of nothing but the two scheduling hooks pins that the drivers,
 * not the backends, own container assembly and verification.
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "core/codec.h"
#include "core/container.h"
#include "core/executor.h"
#include "core/orchestrate.h"
#include "core/stream.h"
#include "golden_form.h"
#include "util/hash.h"

namespace fpc {
namespace {

/**
 * Deterministic smooth low-entropy stream typical of scientific fields:
 * a random walk over 32-bit words with small steps (LCG-driven), plus an
 * LCG byte tail when the size is not word-aligned. Matches the golden
 * table below — do not change one without the other.
 */
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

TEST(ExecutorRegistry, BuiltinBackendsAreRegistered)
{
    const std::vector<std::string> names = ExecutorNames();
    ASSERT_GE(names.size(), 3u);
    EXPECT_NE(std::find(names.begin(), names.end(), "cpu"), names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "gpusim:4090"),
              names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "gpusim:a100"),
              names.end());
    for (const std::string& name : names) {
        EXPECT_EQ(GetExecutor(name).Name(), name);
    }
}

TEST(ExecutorRegistry, LookupIsCaseInsensitive)
{
    EXPECT_EQ(GetExecutor("CPU").Name(), "cpu");
    EXPECT_EQ(GetExecutor("GpuSim:4090").Name(), "gpusim:4090");
    EXPECT_EQ(FindExecutor("GPUSIM:A100"), FindExecutor("gpusim:a100"));
}

TEST(ExecutorRegistry, UnknownNameThrowsListingBackends)
{
    EXPECT_EQ(FindExecutor("cuda:h100"), nullptr);
    try {
        GetExecutor("cuda:h100");
        FAIL() << "GetExecutor did not throw";
    } catch (const UsageError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("cuda:h100"), std::string::npos) << what;
        EXPECT_NE(what.find("cpu"), std::string::npos) << what;
        EXPECT_NE(what.find("gpusim:4090"), std::string::npos) << what;
    }
}

TEST(ExecutorRegistry, Capabilities)
{
    const ExecutorCaps cpu = GetExecutor("cpu").Capabilities();
    EXPECT_TRUE(cpu.chunk_parallel);
    EXPECT_FALSE(cpu.device_kernels);
    EXPECT_EQ(cpu.profile, nullptr);

    const ExecutorCaps gpu = GetExecutor("gpusim:4090").Capabilities();
    EXPECT_FALSE(gpu.chunk_parallel);
    EXPECT_TRUE(gpu.device_kernels);
    ASSERT_NE(gpu.profile, nullptr);
    EXPECT_STRNE(gpu.profile, GetExecutor("gpusim:a100").Capabilities()
                                  .profile);
}

TEST(ExecutorRegistry, ResolveExecutorHonoursOptionsPrecedence)
{
    EXPECT_EQ(&ResolveExecutor(Options{}), &DefaultExecutor());
    EXPECT_EQ(DefaultExecutor().Name(), "cpu");

    // with_executor is the only backend spelling: the named backend is
    // resolved verbatim, anything else falls back to the default.
    Options named;
    named.with_executor("gpusim:4090");
    EXPECT_EQ(ResolveExecutor(named).Name(), "gpusim:4090");

    Options by_ref;
    by_ref.executor = &GetExecutor("cpu");
    EXPECT_EQ(&ResolveExecutor(by_ref), &GetExecutor("cpu"));
}

/** A backend that is only the two scheduling hooks, each a plain serial
 *  loop on the first arena. It is not in the registry: calls select it
 *  through Options::executor. */
class SerialLoopExecutor final : public Executor {
 public:
    const std::string&
    Name() const override
    {
        static const std::string name = "test-serial-loop";
        return name;
    }

    ExecutorCaps
    Capabilities() const override
    {
        return {.chunk_parallel = false};
    }

    WritePositions
    EncodeChunks(const PipelineSpec& spec, ByteSpan input, ByteSpan chunk_src,
                 EncodePlan& plan,
                 std::span<ScratchArena> arenas) const override
    {
        for (size_t c = 0; c < plan.ChunkCount(); ++c) {
            EncodeChunkAt(spec, input, chunk_src, c, arenas[0], &EncodeChunk,
                          plan);
        }
        return ComputeWritePositions(plan.sizes);
    }

    void
    DecodeChunks(const ContainerView& view, const PipelineSpec& spec,
                 std::byte* dest, uint64_t* block_hashes,
                 std::span<ScratchArena> arenas) const override
    {
        for (size_t c = 0; c < view.header.chunk_count; ++c) {
            DecodeChunkAt(view, spec, c, dest, arenas[0], &DecodeChunk,
                          block_hashes);
        }
    }
};

/** The drivers own the container: a hooks-only serial backend writes the
 *  cpu executor's bytes for every algorithm in both modes, and its
 *  containers round-trip through every decode entry point and have their
 *  header checksum verified. */
TEST(ExecutorHooks, SerialLoopBackendRunsThroughTheDrivers)
{
    const SerialLoopExecutor serial;
    ASSERT_EQ(FindExecutor(serial.Name()), nullptr);
    const Bytes input = MakeInput(5 * kChunkSize + 40, 0x5e71);
    for (bool adaptive : {false, true}) {
        for (Algorithm algorithm : kAlgorithms) {
            SCOPED_TRACE(std::string(AlgorithmName(algorithm)) +
                         (adaptive ? ", mode=auto" : ", fixed"));
            const Options local =
                Options{}.with_executor(serial).with_adaptive(adaptive);
            const Options cpu =
                Options{}.with_executor("cpu").with_adaptive(adaptive);
            const Bytes container =
                Compress(algorithm, ByteSpan(input), local);
            EXPECT_EQ(container, Compress(algorithm, ByteSpan(input), cpu));

            EXPECT_EQ(Decompress(ByteSpan(container), local), input);
            Bytes into(input.size());
            DecompressInto(ByteSpan(container), std::span<std::byte>(into),
                           local);
            EXPECT_EQ(into, input);
            // Elements spanning chunks 2 and 3 (the whole frame for
            // DPratio, whose FCM pre-stage is whole-input).
            const size_t word = AlgorithmWordSize(algorithm);
            const size_t first = (2 * kChunkSize - 12) / word;
            const size_t count = (kChunkSize + 24) / word;
            const Bytes range =
                DecompressRange(ByteSpan(container), first, count, local);
            EXPECT_EQ(range, Bytes(input.begin() + first * word,
                                   input.begin() + (first + count) * word));

            Bytes flipped = container;
            flipped[24] ^= std::byte{0x01};  // low byte of the checksum
            try {
                Decompress(ByteSpan(flipped), local);
                ADD_FAILURE() << "flipped checksum bit not detected";
            } catch (const CorruptStreamError& e) {
                EXPECT_NE(std::string(e.what()).find(
                              "content checksum mismatch"),
                          std::string::npos)
                    << e.what();
            }
        }
    }
}

/** Every registered backend must emit byte-identical containers and must
 *  decode containers emitted by every other backend (DESIGN.md: the
 *  cross-device compatibility property). */
TEST(ExecutorMatrix, AllBackendsBitIdenticalAndInteroperable)
{
    const Bytes input = MakeInput((size_t{1} << 18) + 13, 0xc0ffee);
    for (Algorithm algorithm : kAlgorithms) {
        std::vector<Bytes> containers;
        for (const std::string& name : ExecutorNames()) {
            Options options;
            options.executor = &GetExecutor(name);
            containers.push_back(
                Compress(algorithm, ByteSpan(input), options));
            EXPECT_EQ(containers.back(), containers.front())
                << "backend " << name << " diverged on "
                << AlgorithmName(algorithm);
        }
        // Decode the (shared) container on every backend, both APIs.
        for (const std::string& name : ExecutorNames()) {
            Options options;
            options.executor = &GetExecutor(name);
            EXPECT_EQ(Decompress(ByteSpan(containers.front()), options),
                      input)
                << "backend " << name << " failed to decode "
                << AlgorithmName(algorithm);
            Bytes into(input.size());
            DecompressInto(ByteSpan(containers.front()),
                           std::span<std::byte>(into), options);
            EXPECT_EQ(into, input)
                << "backend " << name << " DecompressInto diverged on "
                << AlgorithmName(algorithm);
        }
    }
}

/**
 * Golden sizes and checksums of the compressed streams, asserted for
 * every registered backend (folded in from the former determinism_test
 * golden table when the executor layer was introduced). `fingerprint`
 * is the original wire-format value: Fnv1a64 of the container's v1 form
 * (golden_form.h). `header_checksum` is the v4 header's Checksum64 of
 * the input, so it is the same for every algorithm of one input.
 */
struct Golden {
    size_t size;
    Algorithm algorithm;
    size_t compressed_bytes;
    uint64_t fingerprint;
    uint64_t header_checksum;
};
constexpr Golden kGolden[] = {
    {size_t{1} << 20, Algorithm::kSPspeed, 352288, 0x8164796542bb988bull,
     0x8a0f621c658823edull},
    {size_t{1} << 20, Algorithm::kSPratio, 339156, 0x526deebca63acd9bull,
     0x8a0f621c658823edull},
    {size_t{1} << 20, Algorithm::kDPspeed, 718032, 0x82032e9934e4fad5ull,
     0x8a0f621c658823edull},
    {size_t{1} << 20, Algorithm::kDPratio, 709370, 0x69a8a775ae901fbcull,
     0x8a0f621c658823edull},
    {(size_t{1} << 18) + 13, Algorithm::kSPspeed, 88117,
     0x6f130cb3aec62125ull, 0x93618be47cf9f9f0ull},
    {(size_t{1} << 18) + 13, Algorithm::kSPratio, 84488,
     0x5b4e8bd20eba4a96ull, 0x93618be47cf9f9f0ull},
    {(size_t{1} << 18) + 13, Algorithm::kDPspeed, 179552,
     0xe451776ff8bb5f24ull, 0x93618be47cf9f9f0ull},
    {(size_t{1} << 18) + 13, Algorithm::kDPratio, 177416,
     0x28355c9472bc8f68ull, 0x93618be47cf9f9f0ull},
};

TEST(ExecutorGolden, CompressedChecksumsOnEveryBackend)
{
    for (const std::string& name : ExecutorNames()) {
        Options options;
        options.executor = &GetExecutor(name);
        options.threads = 1;
        for (const Golden& g : kGolden) {
            const Bytes input = MakeInput(g.size, 0x5eed + g.size);
            const Bytes compressed =
                Compress(g.algorithm, ByteSpan(input), options);
            EXPECT_EQ(compressed.size(), g.compressed_bytes)
                << name << ", alg " << static_cast<int>(g.algorithm)
                << ", size " << g.size;
            EXPECT_EQ(GoldenFingerprint(ByteSpan(compressed),
                                        ByteSpan(input)),
                      g.fingerprint)
                << name << ", alg " << static_cast<int>(g.algorithm)
                << ", size " << g.size;
            EXPECT_EQ(HeaderChecksum(ByteSpan(compressed)),
                      g.header_checksum)
                << name << ", alg " << static_cast<int>(g.algorithm)
                << ", size " << g.size;
        }
    }
}

/** Containers written before v4 — the golden rows' v1 form, and a
 *  mode=auto container's v3 form — still decode on every backend with
 *  their Fnv1a64 checksum verified: a flipped checksum bit throws. */
TEST(ExecutorGolden, LegacyFormsDecodeOnEveryBackend)
{
    const Bytes auto_input = MakeInput(5 * kChunkSize + 9, 0xa7e5);
    const Bytes auto_container = Compress(
        Algorithm::kSPspeed, ByteSpan(auto_input), Options{}.with_mode("auto"));
    ASSERT_EQ(static_cast<uint8_t>(auto_container[4]),
              ContainerHeader::kVersionAdaptive);
    std::vector<std::pair<Bytes, Bytes>> cases;  // (legacy form, original)
    cases.emplace_back(LegacyForm(ByteSpan(auto_container),
                                  ByteSpan(auto_input)),
                       auto_input);
    for (const Golden& g : kGolden) {
        const Bytes input = MakeInput(g.size, 0x5eed + g.size);
        const Bytes container = Compress(g.algorithm, ByteSpan(input));
        ASSERT_EQ(static_cast<uint8_t>(container[4]),
                  ContainerHeader::kVersion);
        cases.emplace_back(LegacyForm(ByteSpan(container), ByteSpan(input)),
                           input);
    }
    for (const std::string& name : ExecutorNames()) {
        const Options options = Options{}.with_executor(name).with_threads(2);
        for (const auto& [legacy, original] : cases) {
            SCOPED_TRACE(name + ", " + std::to_string(original.size()) +
                         " bytes, version " +
                         std::to_string(static_cast<int>(legacy[4])));
            EXPECT_EQ(Decompress(ByteSpan(legacy), options), original);
            Bytes into(original.size());
            DecompressInto(ByteSpan(legacy), std::span<std::byte>(into),
                           options);
            EXPECT_EQ(into, original);

            Bytes flipped = legacy;
            flipped[24] ^= std::byte{0x01};  // low byte of the checksum
            EXPECT_THROW(Decompress(ByteSpan(flipped), options),
                         CorruptStreamError);
        }
    }
}

TEST(ExecutorStream, FramesCrossBackends)
{
    std::vector<float> frame0(20000);
    std::vector<float> frame1(777);
    for (size_t i = 0; i < frame0.size(); ++i) {
        frame0[i] = 0.25f * static_cast<float>(i % 97);
    }
    for (size_t i = 0; i < frame1.size(); ++i) {
        frame1[i] = 1.0f / static_cast<float>(i + 1);
    }

    StreamCompressor compressor(Algorithm::kSPratio,
                                GetExecutor("gpusim:a100"));
    compressor.PutFloats(frame0);
    compressor.PutFloats(frame1);

    StreamDecompressor decompressor(ByteSpan(compressor.Stream()),
                                    GetExecutor("cpu"));
    EXPECT_EQ(decompressor.NextFloats(), frame0);
    EXPECT_EQ(decompressor.NextFloats(), frame1);
    EXPECT_FALSE(decompressor.HasNext());
}

TEST(ExecutorStream, TypedReadRejectsWrongElementWidthWithoutConsuming)
{
    std::vector<double> doubles(4096, 3.5);
    std::vector<float> floats(512, -1.0f);
    StreamCompressor compressor(Algorithm::kDPspeed);
    compressor.PutDoubles(doubles);
    {
        StreamCompressor sp(Algorithm::kSPspeed);
        sp.PutFloats(floats);
        Bytes stream = compressor.Stream();
        AppendBytes(stream, ByteSpan(sp.Stream()));

        StreamDecompressor decompressor((ByteSpan(stream)));
        // Wrong width: UsageError, and the frame stays unconsumed.
        EXPECT_THROW(decompressor.NextFloats(), UsageError);
        EXPECT_TRUE(decompressor.HasNext());
        EXPECT_EQ(decompressor.NextDoubles(), doubles);
        // Second frame is SP data; the mirror-image misuse also throws.
        EXPECT_THROW(decompressor.NextDoubles(), UsageError);
        EXPECT_EQ(decompressor.NextFloats(), floats);
        EXPECT_FALSE(decompressor.HasNext());
    }
}

TEST(ExecutorTyped, TypedDecodeRejectsWrongWidthContainers)
{
    std::vector<double> values(1000, 2.5);
    const Codec dp = Codec::For<double>(Mode::kSpeed);
    Bytes c = dp.compress(std::span<const double>(values));
    EXPECT_THROW(dp.decompress_as<float>(ByteSpan(c)), UsageError);
    EXPECT_EQ(dp.decompress_as<double>(ByteSpan(c)), values);

    std::vector<float> fvalues(1000, 2.5f);
    const Codec sp = Codec::For<float>(Mode::kRatio);
    Bytes fc = sp.compress(std::span<const float>(fvalues));
    EXPECT_THROW(sp.decompress_as<double>(ByteSpan(fc)), UsageError);
    EXPECT_EQ(sp.decompress_as<float>(ByteSpan(fc)), fvalues);
}

/** Thread counts of the chunk-checksum tests: serial, two, the
 *  benchmark's three, and more workers than this host has cores. */
constexpr int kLaneThreads[] = {1, 2, 3, 8};

Options
CpuThreads(int threads)
{
    return Options{}.with_executor("cpu").with_threads(threads);
}

/** What one decode of @p container does: "" when it returns @p expected,
 *  the CorruptStreamError message when it throws one, and a failure
 *  marker otherwise. Both entry points must agree; the caller compares. */
std::string
DecodeOutcome(ByteSpan container, const Bytes& expected, int threads,
              bool into)
{
    const Options options = CpuThreads(threads);
    try {
        Bytes out;
        if (into) {
            out.resize(expected.size());
            DecompressInto(container, std::span<std::byte>(out), options);
        } else {
            out = Decompress(container, options);
        }
        return out == expected ? "" : "decoded to wrong bytes";
    } catch (const CorruptStreamError& e) {
        return e.what();
    }
}

/** Absolute offset of chunk @p c's payload within @p container. */
size_t
ChunkPayloadOffset(const Bytes& container, size_t c)
{
    const ContainerView view = ParseContainer(ByteSpan(container));
    return static_cast<size_t>(view.payload.data() - container.data()) +
           view.chunk_offsets[c];
}

TEST(ExecutorChunkChecksum, StructuralCorruptionInAMiddleChunkThrows)
{
    const size_t n_chunks = 24;
    const Bytes input = MakeInput(kChunkSize * n_chunks, 0x51de);
    const Bytes container =
        Compress(Algorithm::kSPratio, ByteSpan(input), CpuThreads(1));
    const ContainerView view = ParseContainer(ByteSpan(container));
    const size_t mid = n_chunks / 2;
    ASSERT_EQ(view.chunk_raw[mid], 0) << "middle chunk must be encoded";

    // Find a byte of the middle chunk whose inversion the chunk decoder
    // itself rejects (not the final checksum), then require every thread
    // count and both entry points to surface that same error.
    const size_t begin = ChunkPayloadOffset(container, mid);
    std::string expected;
    Bytes damaged;
    for (size_t i = 0; i < view.chunk_sizes[mid] && expected.empty(); ++i) {
        damaged = container;
        damaged[begin + i] = ~damaged[begin + i];
        const std::string outcome =
            DecodeOutcome(ByteSpan(damaged), input, 1, false);
        if (!outcome.empty() &&
            outcome.find("content checksum mismatch") == std::string::npos) {
            expected = outcome;
        }
    }
    ASSERT_FALSE(expected.empty()) << "no structural mutation found";
    ASSERT_NE(expected, "decoded to wrong bytes");
    for (int threads : kLaneThreads) {
        for (bool into : {false, true}) {
            EXPECT_EQ(DecodeOutcome(ByteSpan(damaged), input, threads, into),
                      expected)
                << threads << " threads, into=" << into;
        }
    }
}

TEST(ExecutorChunkChecksum, PayloadFlipThatDecodesWrongFailsTheChecksum)
{
    // Incompressible input stores every chunk verbatim, so a flipped
    // payload bit decodes without complaint to wrong bytes — only the
    // content checksum can catch it. SPspeed has no pre-stage, so the
    // worker that decodes the damaged chunk also hashes it.
    const size_t n_chunks = 16;
    Bytes input(kChunkSize * n_chunks + 5);
    Rng rng(0xf11e);
    for (std::byte& b : input) b = static_cast<std::byte>(rng.Next());
    const Bytes container =
        Compress(Algorithm::kSPspeed, ByteSpan(input), CpuThreads(1));
    const ContainerView view = ParseContainer(ByteSpan(container));
    for (size_t mid : {size_t{0}, n_chunks / 2, n_chunks}) {
        ASSERT_EQ(view.chunk_raw[mid], 1);
        Bytes damaged = container;
        damaged[ChunkPayloadOffset(container, mid) + 3] ^= std::byte{0x10};
        for (int threads : kLaneThreads) {
            for (bool into : {false, true}) {
                const std::string outcome =
                    DecodeOutcome(ByteSpan(damaged), input, threads, into);
                EXPECT_NE(outcome.find("content checksum mismatch"),
                          std::string::npos)
                    << "chunk " << mid << ", " << threads
                    << " threads, into=" << into << ": " << outcome;
            }
        }
    }
}

TEST(ExecutorChunkChecksum, EdgeSizesRoundTripAtEveryThreadCount)
{
    // Empty, one short chunk, fewer chunks than threads, and sizes whose
    // final chunk ends in a 1-7 byte partial word.
    const size_t kSizes[] = {0,
                             1,
                             7,
                             100,
                             kChunkSize - 4,
                             kChunkSize,
                             kChunkSize + 3,
                             kChunkSize * 3 + 12,
                             kChunkSize * 5 + 4};
    for (size_t size : kSizes) {
        const Bytes input = MakeInput(size, 0xed9e + size);
        for (Algorithm algorithm : kAlgorithms) {
            for (int threads : kLaneThreads) {
                SCOPED_TRACE(std::string(AlgorithmName(algorithm)) + ", " +
                             std::to_string(size) + " bytes, " +
                             std::to_string(threads) + " threads");
                const Options options = CpuThreads(threads);
                const Bytes container =
                    Compress(algorithm, ByteSpan(input), options);
                EXPECT_EQ(container, Compress(algorithm, ByteSpan(input),
                                              CpuThreads(1)));
                for (bool into : {false, true}) {
                    EXPECT_EQ(DecodeOutcome(ByteSpan(container), input,
                                            threads, into),
                              "")
                        << "into=" << into;
                }
            }
        }
    }
}

TEST(ExecutorChunkChecksum, RepeatedThreeThreadRoundTripsAreIdentical)
{
    const Bytes input = MakeInput(kChunkSize * 64, 0x4e9e);
    const Options options = CpuThreads(3);
    const Bytes first =
        Compress(Algorithm::kSPspeed, ByteSpan(input), options);
    Bytes into(input.size());
    for (int round = 0; round < 200; ++round) {
        const Bytes container =
            Compress(Algorithm::kSPspeed, ByteSpan(input), options);
        ASSERT_EQ(container, first) << "round " << round;
        ASSERT_EQ(Decompress(ByteSpan(container), options), input)
            << "round " << round;
        DecompressInto(ByteSpan(container), std::span<std::byte>(into),
                       options);
        ASSERT_EQ(into, input) << "round " << round;
    }
}

}  // namespace
}  // namespace fpc
