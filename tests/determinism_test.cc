/**
 * @file
 * Compressed output must be a pure function of (algorithm, input): the
 * same bytes regardless of thread count or device path (DESIGN.md §3:
 * "Both devices must produce identical compressed bytes"). The parallel
 * two-pass container assembly makes this non-trivial — chunk payloads are
 * encoded by whichever worker claims them, in nondeterministic order,
 * staged in per-chunk slots, and only the prefix-summed placement
 * restores a canonical layout — so this test pins it down for every
 * algorithm. Golden wire-format checksums live in tests/executor_test.cc,
 * asserted per registered backend; the staging-path shapes below (raw
 * and compressed chunks mixed, a partial last chunk, more workers than
 * chunks) pin their own.
 */
#include <gtest/gtest.h>

#include "core/codec.h"
#include "core/container.h"
#include "util/hash.h"

namespace fpc {
namespace {

/**
 * Deterministic smooth low-entropy stream typical of scientific fields:
 * a random walk over 32-bit words with small steps (LCG-driven), plus an
 * LCG byte tail when the size is not word-aligned.
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

TEST(DeterminismTest, ThreadCountAndDeviceDoNotChangeOutput)
{
    for (size_t size : {size_t{1} << 20, (size_t{1} << 18) + 13}) {
        const Bytes input = MakeInput(size, 0x5eed + size);
        for (Algorithm algorithm : kAlgorithms) {
            Options one;
            one.threads = 1;
            const Bytes reference = Compress(algorithm, ByteSpan(input), one);

            Options four;
            four.threads = 4;
            const Bytes parallel =
                Compress(algorithm, ByteSpan(input), four);
            EXPECT_EQ(reference, parallel)
                << "threads=4 changed the compressed bytes (alg "
                << static_cast<int>(algorithm) << ", size " << size << ")";

            Options gpu;
            gpu.with_executor("gpusim:4090");
            const Bytes on_device = Compress(algorithm, ByteSpan(input), gpu);
            EXPECT_EQ(reference, on_device)
                << "gpusim changed the compressed bytes (alg "
                << static_cast<int>(algorithm) << ", size " << size << ")";

            // Cross-device round trip: CPU-compressed decodes on the
            // device path and vice versa.
            EXPECT_EQ(input, Decompress(ByteSpan(reference), gpu));
            EXPECT_EQ(input, Decompress(ByteSpan(on_device), four));
        }
    }
}

/**
 * Six whole chunks alternating between the smooth walk (compressed) and
 * LCG noise (stored raw by every pipeline's fallback), then a short,
 * odd-sized last chunk of the walk.
 */
Bytes
MakeMixedInput()
{
    Bytes data = MakeInput(6 * kChunkSize + 5003, 0xfeed);
    uint64_t state = 0xbadc0ffee0ddf00dull;
    for (size_t c = 1; c < 6; c += 2) {
        for (size_t i = c * kChunkSize; i < (c + 1) * kChunkSize; i += 8) {
            state = state * 6364136223846793005ull + 1442695040888963407ull;
            std::memcpy(data.data() + i, &state, 8);
        }
    }
    return data;
}

/** Pinned size and Fnv1a64 of the whole container for one input. */
struct StagedGolden {
    Algorithm algorithm;
    size_t compressed_bytes;
    uint64_t fingerprint;
};

/**
 * The staging path — every payload copied into its slot of the call's
 * staging buffer, then out to its prefix-summed position — on the shapes
 * that stress it: raw and compressed chunks in one container, a partial
 * last chunk, and more workers than chunks. Every cpu thread count and
 * the gpusim backend must write the pinned bytes.
 */
TEST(DeterminismTest, StagedPayloadsMatchGoldensOnEveryShape)
{
    const Bytes mixed = MakeMixedInput();
    const Bytes two_chunks = MakeInput(2 * kChunkSize - 100, 0x2c);
    // Pinned from the per-worker retained-buffer assembly that the
    // staging buffer replaced: the same bytes, chunk for chunk.
    constexpr StagedGolden kMixed[] = {
        {Algorithm::kSPspeed, 67638, 0x8f6c45dc6f9b7193ull},
        {Algorithm::kSPratio, 66744, 0x91981714adbbcb92ull},
        {Algorithm::kDPspeed, 86407, 0x1fa8067ffc83ac80ull},
        {Algorithm::kDPratio, 87487, 0xa8932b4f036649fbull},
    };
    constexpr StagedGolden kTwoChunks[] = {
        {Algorithm::kSPspeed, 11012, 0xf5af6e56d6bb5a2full},
        {Algorithm::kSPratio, 10620, 0xe4a305ebb03d0d3eull},
        {Algorithm::kDPspeed, 22407, 0x647f58c95032ae75ull},
        {Algorithm::kDPratio, 22216, 0x483122a9d92092acull},
    };
    const struct {
        const char* name;
        const Bytes& input;
        const StagedGolden* goldens;
    } cases[] = {{"mixed", mixed, kMixed},
                 {"two-chunk", two_chunks, kTwoChunks}};

    for (const auto& shape : cases) {
        for (size_t a = 0; a < 4; ++a) {
            const StagedGolden& g = shape.goldens[a];
            SCOPED_TRACE(std::string(shape.name) + ", " +
                         AlgorithmName(g.algorithm));
            const Bytes reference = Compress(
                g.algorithm, ByteSpan(shape.input), Options{}.with_threads(1));
            EXPECT_EQ(reference.size(), g.compressed_bytes);
            EXPECT_EQ(Fnv1a64(ByteSpan(reference)), g.fingerprint);

            const ContainerView view = ParseContainer(ByteSpan(reference));
            EXPECT_NE(view.header.transformed_size % kChunkSize, 0u)
                << "the last chunk should be partial";
            if (&shape.input == &mixed) {
                size_t raw = 0;
                for (const auto flag : view.chunk_raw) raw += flag ? 1 : 0;
                EXPECT_GT(raw, 0u) << "no chunk took the raw fallback";
                EXPECT_LT(raw, view.chunk_raw.size())
                    << "no chunk was compressed";
            } else {
                // Two chunks of input; DPratio's FCM stream is longer.
                EXPECT_LT(view.header.chunk_count, 8u)
                    << "8 workers should outnumber the chunks";
            }

            for (int threads : {3, 8}) {
                EXPECT_EQ(Compress(g.algorithm, ByteSpan(shape.input),
                                   Options{}.with_threads(threads)),
                          reference)
                    << "cpu at " << threads << " threads";
            }
            const Bytes on_device =
                Compress(g.algorithm, ByteSpan(shape.input),
                         Options{}.with_executor("gpusim:4090"));
            EXPECT_EQ(on_device, reference) << "gpusim:4090";
            EXPECT_EQ(Decompress(ByteSpan(on_device),
                                 Options{}.with_threads(8)),
                      shape.input);
        }
    }
}

}  // namespace
}  // namespace fpc
