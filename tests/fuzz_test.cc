/**
 * @file
 * Randomized differential tests: structured random inputs sweep through
 * every algorithm on both device paths, asserting (a) round-trip
 * identity, (b) CPU/GPU-sim byte-identical streams, (c) DecompressInto
 * agreement with Decompress, and (d) bitmap-codec round trips on random
 * bitmaps of awkward sizes. Seeds are fixed, so failures reproduce.
 */
#include <gtest/gtest.h>

#include <functional>

#include "core/codec.h"
#include "transforms/bitmap_codec.h"
#include "transforms/transforms.h"
#include "util/bitio.h"
#include "util/hash.h"

namespace fpc {
namespace {

/** Random structured generator: stitches together segments of different
 *  character (constant, ramp, noise, float-like, repeats of earlier
 *  content) to hit many codec paths in one buffer. */
Bytes
StructuredRandom(uint64_t seed)
{
    Rng rng(seed);
    size_t n = 1 + rng.NextBelow(200000);
    Bytes data(n);
    size_t i = 0;
    while (i < n) {
        size_t run = 1 + rng.NextBelow(4096);
        run = std::min(run, n - i);
        switch (rng.NextBelow(6)) {
          case 0: {  // constant bytes
            std::byte v = static_cast<std::byte>(rng.Next() & 0xff);
            for (size_t k = 0; k < run; ++k) data[i + k] = v;
            break;
          }
          case 1: {  // byte ramp
            uint8_t v = static_cast<uint8_t>(rng.Next());
            for (size_t k = 0; k < run; ++k) {
                data[i + k] = static_cast<std::byte>(v++);
            }
            break;
          }
          case 2: {  // pure noise
            for (size_t k = 0; k < run; ++k) {
                data[i + k] = static_cast<std::byte>(rng.Next() & 0xff);
            }
            break;
          }
          case 3: {  // smooth float walk
            float x = static_cast<float>(rng.NextGaussian());
            for (size_t k = 0; k + 4 <= run; k += 4) {
                x += 0.01f * static_cast<float>(rng.NextGaussian());
                std::memcpy(data.data() + i + k, &x, 4);
            }
            break;
          }
          case 4: {  // copy of earlier content
            if (i > 0) {
                size_t src = rng.NextBelow(i);
                for (size_t k = 0; k < run; ++k) {
                    data[i + k] = data[src + k % (i - src)];
                }
            }
            break;
          }
          default:  // leave zeros
            break;
        }
        i += run;
    }
    return data;
}

class FuzzRoundTrip
    : public ::testing::TestWithParam<std::tuple<size_t, uint64_t>> {};

const Algorithm kAll[] = {Algorithm::kSPspeed, Algorithm::kSPratio,
                          Algorithm::kDPspeed, Algorithm::kDPratio};

TEST_P(FuzzRoundTrip, BothDevicesAgreeAndRoundTrip)
{
    auto [algo_idx, seed] = GetParam();
    Algorithm algorithm = kAll[algo_idx];
    Bytes input = StructuredRandom(seed);

    Options cpu;
    Options gpu;
    gpu.with_executor("gpusim:4090");

    Bytes from_cpu = Compress(algorithm, ByteSpan(input), cpu);
    Bytes from_gpu = Compress(algorithm, ByteSpan(input), gpu);
    ASSERT_EQ(from_cpu, from_gpu);

    EXPECT_EQ(Decompress(ByteSpan(from_cpu), gpu), input);
    EXPECT_EQ(Decompress(ByteSpan(from_gpu), cpu), input);

    // DecompressInto must agree with Decompress.
    Bytes into(input.size());
    DecompressInto(ByteSpan(from_cpu), std::span<std::byte>(into), cpu);
    EXPECT_EQ(into, input);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, FuzzRoundTrip,
    ::testing::Combine(::testing::Range(size_t{0}, size_t{4}),
                       ::testing::Values(uint64_t{1}, uint64_t{2},
                                         uint64_t{3}, uint64_t{5},
                                         uint64_t{8}, uint64_t{13},
                                         uint64_t{21}, uint64_t{34})),
    [](const auto& info) {
        return std::string(AlgorithmName(kAll[std::get<0>(info.param)])) +
               "_seed" + std::to_string(std::get<1>(info.param));
    });

TEST(FuzzBitmap, RandomBitmapsRoundTrip)
{
    Rng rng(77);
    for (int trial = 0; trial < 200; ++trial) {
        size_t n = rng.NextBelow(5000);
        Bytes bitmap(n);
        // Mix of sparse, dense, and run-heavy bitmaps.
        switch (trial % 3) {
          case 0:
            for (auto& b : bitmap) {
                b = static_cast<std::byte>(
                    rng.NextBelow(100) < 5 ? rng.Next() & 0xff : 0);
            }
            break;
          case 1:
            for (auto& b : bitmap) {
                b = static_cast<std::byte>(rng.Next() & 0xff);
            }
            break;
          default: {
            std::byte v{0};
            for (auto& b : bitmap) {
                if (rng.NextBelow(20) == 0) {
                    v = static_cast<std::byte>(rng.Next() & 0xff);
                }
                b = v;
            }
            break;
          }
        }
        Bytes coded;
        tf::CompressBitmap(ByteSpan(bitmap), coded);
        ByteReader br{ByteSpan(coded)};
        Bytes restored = tf::DecompressBitmap(br, bitmap.size());
        ASSERT_EQ(restored, bitmap) << "trial " << trial << " n " << n;
        ASSERT_EQ(br.Remaining(), 0u);
    }
}

TEST(FuzzDecompressInto, RejectsWrongSizes)
{
    Bytes input = StructuredRandom(99);
    Bytes c = Compress(Algorithm::kSPspeed, ByteSpan(input));
    Bytes small(input.size() - 1);
    EXPECT_THROW(DecompressInto(ByteSpan(c), std::span<std::byte>(small)),
                 UsageError);
    Bytes big(input.size() + 1);
    EXPECT_THROW(DecompressInto(ByteSpan(c), std::span<std::byte>(big)),
                 UsageError);
}

// Byte offset of the uint32 chunk_count field in the container header
// (magic u32, version u8, algorithm u8, reserved u16, original u64,
// transformed u64, checksum u64 precede it — see WriteContainerPrefix).
constexpr size_t kChunkCountOffset = 32;

TEST(FuzzContainer, RejectsInconsistentChunkCount)
{
    Bytes input = StructuredRandom(42);
    Bytes c = Compress(Algorithm::kSPspeed, ByteSpan(input));
    uint32_t count = 0;
    std::memcpy(&count, c.data() + kChunkCountOffset, sizeof(count));
    ASSERT_GT(count, 0u);

    // chunk_count must match ceil(transformed_size / kChunkSize); any
    // other value — one off either way, zero, or wildly oversized (which
    // would otherwise drive huge table allocations) — is corruption.
    for (uint32_t patched :
         {count - 1, count + 1, uint32_t{0}, count + 1000000u,
          uint32_t{0x7fffffff}}) {
        Bytes bad = c;
        std::memcpy(bad.data() + kChunkCountOffset, &patched,
                    sizeof(patched));
        EXPECT_THROW(Decompress(ByteSpan(bad)), CorruptStreamError)
            << "patched chunk_count " << patched;
        EXPECT_THROW(Inspect(ByteSpan(bad)), CorruptStreamError)
            << "patched chunk_count " << patched;
    }
}

TEST(FuzzContainer, RejectsTruncation)
{
    // Large enough for several chunks so truncation points land inside
    // the header, inside the chunk table, and inside the payload.
    Bytes input = StructuredRandom(34);
    ASSERT_GT(input.size(), 2 * kChunkSize);
    Bytes c = Compress(Algorithm::kSPratio, ByteSpan(input));

    uint32_t count = 0;
    std::memcpy(&count, c.data() + kChunkCountOffset, sizeof(count));
    const size_t table_end = kChunkCountOffset + 4 + count * 4;
    const size_t cuts[] = {0, 1, kChunkCountOffset,
                           kChunkCountOffset + 4 + 2,  // mid chunk table
                           table_end - 1, table_end, c.size() - 1};
    for (size_t cut : cuts) {
        ASSERT_LT(cut, c.size());
        Bytes bad(c.begin(), c.begin() + static_cast<ptrdiff_t>(cut));
        EXPECT_THROW(Decompress(ByteSpan(bad)), CorruptStreamError)
            << "truncated to " << cut << " bytes";
    }
}

/**
 * Per-transform decoder fuzzing: encode a valid input, then hit the coded
 * bytes with an exhaustive mutation + truncation sweep and decode on an
 * arena whose decode budget matches what the chunk pipeline would set. A
 * stage decoder has no checksum, so a mutant may decode "successfully" to
 * wrong bytes — the container layer catches that — but it must never
 * crash, hang, or throw anything except CorruptStreamError, and must
 * respect the budget.
 */
void
SweepTransformDecoder(const char* name,
                      void (*encode)(ByteSpan, Bytes&, ScratchArena&),
                      void (*decode)(ByteSpan, Bytes&, ScratchArena&),
                      ByteSpan input)
{
    ScratchArena scratch;
    Bytes coded;
    encode(input, coded, scratch);

    ScratchArena decode_scratch;
    decode_scratch.SetDecodeBudget(input.size() + kChunkDecodeSlack);
    const auto attempt = [&](ByteSpan damaged, size_t pos, int mutant) {
        Bytes out;
        try {
            decode(damaged, out, decode_scratch);
        } catch (const CorruptStreamError&) {
            return;  // the expected rejection
        }
        // Tolerated: decoded without error. The budget bounds the output.
        EXPECT_LE(out.size(), input.size() + kChunkDecodeSlack)
            << name << " mutant " << mutant << " at byte " << pos
            << " exceeded the decode budget";
    };

    Bytes damaged = coded;
    for (size_t pos = 0; pos < damaged.size(); ++pos) {
        const auto orig = static_cast<uint8_t>(damaged[pos]);
        for (uint8_t mutant : {static_cast<uint8_t>(orig ^ 0x01),
                               static_cast<uint8_t>(0x00),
                               static_cast<uint8_t>(0xff)}) {
            if (mutant == orig) continue;
            damaged[pos] = static_cast<std::byte>(mutant);
            attempt(ByteSpan(damaged), pos, mutant);
        }
        damaged[pos] = static_cast<std::byte>(orig);
    }
    for (size_t len = 0; len < coded.size(); ++len) {
        attempt(ByteSpan(coded.data(), len), len, -1);
    }
}

TEST(FuzzTransformDecoders, RareRazeFcmSurviveMutationSweep)
{
    // Word-structured data with zero runs and repeats: all three adaptive
    // paths (zero elimination, repetition elimination, context matches)
    // are exercised, so the mutants hit populated bitmaps and survivors.
    Rng rng(1234);
    std::vector<uint64_t> words(700);
    uint64_t prev = 0;
    for (auto& w : words) {
        switch (rng.NextBelow(4)) {
          case 0: w = 0; break;
          case 1: w = prev; break;
          case 2: w = rng.Next() & 0xffff; break;
          default: w = rng.Next(); break;
        }
        prev = w;
    }
    Bytes input(AsBytes(words).begin(), AsBytes(words).end());
    input.push_back(std::byte{0x7e});  // odd tail byte

    SweepTransformDecoder("RARE64", tf::RareEncode64, tf::RareDecode64,
                          ByteSpan(input));
    SweepTransformDecoder("RAZE64", tf::RazeEncode64, tf::RazeDecode64,
                          ByteSpan(input));
    SweepTransformDecoder("FCM", tf::FcmEncode, tf::FcmDecode,
                          ByteSpan(input));
}

/** One real 16 KiB chunk of the kind the pipelines see: a smooth float
 *  walk (@p dp false) or a double walk with exact repeats, so FCM finds
 *  matches. */
Bytes
SmoothChunk(bool dp, uint64_t seed)
{
    Rng rng(seed);
    Bytes chunk(kChunkSize);
    double x = rng.NextGaussian();
    const size_t word = dp ? 8 : 4;
    for (size_t i = 0; i + word <= chunk.size(); i += word) {
        if (dp && i % 256 == 0 && i >= 1024 && rng.NextBelow(3) == 0) {
            // Replay an earlier 32-word run: its words repeat with the
            // same three-word contexts, so FCM matches them.
            const size_t from = 256 * rng.NextBelow(i / 256);
            std::memcpy(chunk.data() + i, chunk.data() + from, 256);
            i += 256 - word;
            continue;
        }
        x += 0.01 * rng.NextGaussian();
        if (dp) {
            std::memcpy(chunk.data() + i, &x, 8);
        } else {
            const float f = static_cast<float>(x);
            std::memcpy(chunk.data() + i, &f, 4);
        }
    }
    return chunk;
}

/** A stage decoder under test: decodes a whole payload or throws. */
using StageDecodeFn = std::function<Bytes(ByteSpan)>;

/** How a damaged payload that decodes without error is judged. */
enum class Undetected {
    kNever,    ///< it must decode to exactly the original
    kInBounds  ///< it may differ, within the decode budget
};

/** Decode @p payload, whose buffer is sized exactly (so a sanitizer
 *  build sees any read past it): a typed CorruptStreamError passes, and
 *  so does a decode allowed by @p undetected. Any other exception fails
 *  the test. */
void
ExpectTyped(const StageDecodeFn& decode, const Bytes& payload,
            const Bytes& original, Undetected undetected,
            const std::string& what)
{
    Bytes out;
    try {
        out = decode(ByteSpan(payload));
    } catch (const CorruptStreamError&) {
        return;
    }
    if (undetected == Undetected::kNever) {
        EXPECT_TRUE(out == original) << what << " decoded to different bytes";
    } else {
        EXPECT_LE(out.size(), original.size() + kChunkDecodeSlack) << what;
    }
}

/**
 * The sweep every decoder with an unchecked inner loop gets: the intact
 * payload round trips; every truncation throws CorruptStreamError; and
 * every value of each of the eight size-field bytes gives a typed error
 * or, per @p undetected, the exact original (only the encoded value can
 * give it) or an in-budget decode.
 */
void
SweepStageDecoder(const char* name, const StageDecodeFn& decode,
                  const Bytes& coded, const Bytes& original,
                  Undetected undetected = Undetected::kNever)
{
    ASSERT_EQ(decode(ByteSpan(coded)), original) << name;
    for (size_t len = 0; len < coded.size(); ++len) {
        const Bytes cut(coded.begin(),
                        coded.begin() + static_cast<ptrdiff_t>(len));
        EXPECT_THROW((void)decode(ByteSpan(cut)), CorruptStreamError)
            << name << " truncated to " << len << " bytes";
    }
    Bytes damaged = coded;
    for (size_t pos = 0; pos < sizeof(uint64_t); ++pos) {
        for (unsigned v = 0; v < 256; ++v) {
            damaged[pos] = static_cast<std::byte>(v);
            ExpectTyped(decode, damaged, original, undetected,
                        std::string(name) + " size byte " +
                            std::to_string(pos) + " = " + std::to_string(v));
        }
        damaged[pos] = coded[pos];
    }
}

/** An arena with the decode budget DecodeChunk sets for @p original. */
struct ChunkArena {
    explicit ChunkArena(const Bytes& original)
    {
        arena.SetDecodeBudget(original.size() + kChunkDecodeSlack);
    }
    ScratchArena arena;
};

TEST(FuzzStageDecoders, DiffmsAndBitRejectTruncationAndSizeBytesTyped)
{
    for (const bool dp : {false, true}) {
        const Bytes chunk = SmoothChunk(dp, dp ? 71 : 70);
        ChunkArena scratch(chunk);
        Bytes diffms;
        if (dp) {
            tf::DiffmsEncode64(ByteSpan(chunk), diffms, scratch.arena);
        } else {
            tf::DiffmsEncode32(ByteSpan(chunk), diffms, scratch.arena);
        }
        SweepStageDecoder(
            dp ? "DIFFMS64 into" : "DIFFMS32 into",
            [&](ByteSpan in) {
                Bytes out(chunk.size());
                if (dp) {
                    tf::DiffmsDecodeInto64(in, std::span<std::byte>(out),
                                           scratch.arena);
                } else {
                    tf::DiffmsDecodeInto32(in, std::span<std::byte>(out),
                                           scratch.arena);
                }
                return out;
            },
            diffms, chunk);
        if (dp) continue;

        // BIT32 on the pipeline's own input (DIFFMS output: 4098 words,
        // the blocked shape) and on a whole number of 32-word blocks.
        const Bytes* inputs[] = {&diffms, &chunk};
        for (const Bytes* input : inputs) {
            ChunkArena bit_scratch(*input);
            Bytes bit;
            tf::BitEncode32(ByteSpan(*input), bit, bit_scratch.arena);
            SweepStageDecoder(
                input == &diffms ? "BIT32 blocked" : "BIT32 aligned",
                [&](ByteSpan in) {
                    Bytes out;
                    tf::BitDecode32(in, out, bit_scratch.arena);
                    return out;
                },
                bit, *input);
        }
    }
}

TEST(FuzzStageDecoders, MplgRejectsTruncationAndEveryWidthTyped)
{
    for (const bool dp : {false, true}) {
        const Bytes chunk = SmoothChunk(dp, dp ? 73 : 72);
        Bytes diffms;
        if (dp) {
            tf::DiffmsEncode64(ByteSpan(chunk), diffms);
        } else {
            tf::DiffmsEncode32(ByteSpan(chunk), diffms);
        }
        ChunkArena scratch(diffms);
        Bytes coded;
        if (dp) {
            tf::MplgEncode64(ByteSpan(diffms), coded, scratch.arena);
        } else {
            tf::MplgEncode32(ByteSpan(diffms), coded, scratch.arena);
        }
        const char* name = dp ? "MPLG64" : "MPLG32";
        const StageDecodeFn decode = [&](ByteSpan in) {
            Bytes out;
            if (dp) {
                tf::MplgDecode64(in, out, scratch.arena);
            } else {
                tf::MplgDecode32(in, out, scratch.arena);
            }
            return out;
        };
        // A smaller size field can drop the last word into the verbatim
        // tail while the packed stream shrinks by exactly the tail's
        // bytes (a 16-bit width and a 2-byte tail): no stage check can
        // see that, the container checksum does. So here a size byte
        // must give a typed error or an in-budget decode.
        SweepStageDecoder(name, decode, coded, diffms, Undetected::kInBounds);

        // Every width value (the low seven bits) of every subchunk
        // header, the enhancement flag kept. A full subchunk's width
        // moves the packed size by whole bytes, so any other width is a
        // typed size error. The last subchunk holds few words, and a
        // width change there can leave the packed byte count unchanged,
        // so there the decode need only stay in budget.
        const size_t word = dp ? 8 : 4;
        const size_t nw = diffms.size() / word;
        const size_t per_sub = kSubchunkSize / word;
        const size_t n_sub = (nw + per_sub - 1) / per_sub;
        ASSERT_NE(nw % per_sub, 0u) << "the sweep wants a partial subchunk";
        Bytes damaged = coded;
        for (size_t s = 0; s < n_sub; ++s) {
            const size_t pos = sizeof(uint64_t) + s;
            const auto orig = static_cast<uint8_t>(coded[pos]);
            for (unsigned width = 0; width < 128; ++width) {
                damaged[pos] = static_cast<std::byte>((orig & 0x80u) | width);
                const std::string what = std::string(name) + " subchunk " +
                                         std::to_string(s) + " width " +
                                         std::to_string(width);
                ExpectTyped(decode, damaged, diffms,
                            s + 1 < n_sub ? Undetected::kNever
                                          : Undetected::kInBounds,
                            what);
            }
            damaged[pos] = coded[pos];
        }
    }
}

TEST(FuzzStageDecoders, FcmDecodeIntoRejectsTruncationSizeAndDistanceTyped)
{
    const Bytes chunk = SmoothChunk(true, 74);
    Bytes coded;
    tf::FcmEncode(ByteSpan(chunk), coded);
    ScratchArena arena;
    const StageDecodeFn decode = [&](ByteSpan in) {
        Bytes out(chunk.size());
        tf::FcmDecodeInto(in, std::span<std::byte>(out), arena);
        return out;
    };
    SweepStageDecoder("FCM into", decode, coded, chunk);

    // A distance past its own index points before the data: typed.
    const size_t n = chunk.size() / 8;
    size_t matches = 0;
    Bytes damaged = coded;
    for (size_t i = 0; i < n; ++i) {
        const size_t pos = sizeof(uint64_t) + (n + i) * sizeof(uint64_t);
        uint64_t d;
        std::memcpy(&d, coded.data() + pos, sizeof d);
        matches += d != 0 ? 1 : 0;
        for (const uint64_t bad : {uint64_t{i + 1}, ~uint64_t{0}}) {
            std::memcpy(damaged.data() + pos, &bad, sizeof bad);
            EXPECT_THROW((void)decode(ByteSpan(damaged)), CorruptStreamError)
                << "distance " << bad << " at word " << i;
        }
        std::memcpy(damaged.data() + pos, coded.data() + pos, sizeof d);
    }
    EXPECT_GT(matches, n / 8) << "the chunk should exercise FCM matches";
}

TEST(FuzzBitmapCodec, DecoderSurvivesMutationSweep)
{
    // Sparse bitmap: several recursion levels with non-trivial kept sets.
    Rng rng(99);
    Bytes bitmap(2048);
    for (auto& b : bitmap) {
        b = static_cast<std::byte>(rng.NextBelow(50) == 0 ? 0xff : 0);
    }
    Bytes coded;
    tf::CompressBitmap(ByteSpan(bitmap), coded);

    const auto attempt = [&](ByteSpan damaged) {
        ByteReader br{damaged};
        try {
            Bytes out = tf::DecompressBitmap(br, bitmap.size());
            EXPECT_EQ(out.size(), bitmap.size());
        } catch (const CorruptStreamError&) {
            // expected for most mutants
        }
    };

    Bytes damaged = coded;
    for (size_t pos = 0; pos < damaged.size(); ++pos) {
        const auto orig = static_cast<uint8_t>(damaged[pos]);
        for (uint8_t mutant : {static_cast<uint8_t>(orig ^ 0x01),
                               static_cast<uint8_t>(0x00),
                               static_cast<uint8_t>(0xff)}) {
            if (mutant == orig) continue;
            damaged[pos] = static_cast<std::byte>(mutant);
            attempt(ByteSpan(damaged));
        }
        damaged[pos] = static_cast<std::byte>(orig);
    }
    for (size_t len = 0; len < coded.size(); ++len) {
        attempt(ByteSpan(coded.data(), len));
    }
}

TEST(FuzzChecksum, DistinctInputsDistinctChecksums)
{
    // Smoke-check the checksum: different structured inputs essentially
    // never collide.
    Rng rng(5);
    std::vector<uint64_t> seen;
    for (int i = 0; i < 200; ++i) {
        Bytes data = StructuredRandom(1000 + i);
        seen.push_back(Checksum64(ByteSpan(data)));
    }
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
}

}  // namespace
}  // namespace fpc
