/**
 * @file
 * Tests for the device backends' scheduling hooks (gpusim/launch.h): the
 * grid-scheduled, decoupled-look-back encode must find the same write
 * positions as the prefix sum and, through the drivers, produce container
 * bytes identical to the cpu executor's on both device profiles; the
 * BitArena used by the kernels must match BitWriter/BitReader layout
 * exactly, including the fast/slow path boundary of BitReader.
 */
#include <gtest/gtest.h>

#include "core/codec.h"
#include "core/executor.h"
#include "data/fields.h"
#include "gpusim/bit_arena.h"
#include "gpusim/launch.h"
#include "util/bitio.h"
#include "util/hash.h"

namespace fpc::gpusim {
namespace {

TEST(Launch, ContainerIdenticalToHostCompress)
{
    auto doubles = data::QuantizedObservations(60000, 5, 0.001);
    Bytes input(doubles.size() * 8);
    std::memcpy(input.data(), doubles.data(), input.size());

    for (const char* backend : {"gpusim:4090", "gpusim:a100"}) {
        const Options device = Options{}.with_executor(backend);
        for (Algorithm a : {Algorithm::kSPspeed, Algorithm::kSPratio,
                            Algorithm::kDPspeed, Algorithm::kDPratio}) {
            Bytes host = Compress(a, ByteSpan(input));
            Bytes dev = Compress(a, ByteSpan(input), device);
            ASSERT_EQ(host, dev) << AlgorithmName(a) << " on " << backend;
            EXPECT_EQ(Decompress(ByteSpan(dev), device), input);
        }
    }
}

TEST(Launch, ManyChunksExerciseLookback)
{
    // Enough chunks that the dynamic block schedule and the look-back
    // matter: the encode hook's write positions must equal the prefix
    // sum, and each hook must launch one block per chunk.
    auto floats =
        data::ToFloats(data::SmoothField(1 << 20, 6, 5, 0.001));
    Bytes input(floats.size() * 4);
    std::memcpy(input.data(), floats.data(), input.size());
    const PipelineSpec& spec = GetPipeline(Algorithm::kSPspeed);
    const size_t n_chunks = ChunkCountOf(input.size());

    Device device(Rtx4090Profile());
    std::vector<ScratchArena> arenas(TeamSize());
    EncodePlan plan(n_chunks, input.size());
    const WritePositions wp = EncodeChunksOnDevice(
        device, spec, ByteSpan(input), ByteSpan(input), plan, arenas);
    EXPECT_EQ(device.BlocksExecuted(), input.size() / kChunkSize);
    const WritePositions scan = ComputeWritePositions(plan.sizes);
    EXPECT_EQ(wp.offsets, scan.offsets);
    EXPECT_EQ(wp.total, scan.total);

    const ContainerHeader header = MakeContainerHeader(
        Algorithm::kSPspeed, input.size(), plan, nullptr);
    const Bytes dev =
        AssembleContainer(header, plan, wp.offsets, wp.total, 1);
    EXPECT_EQ(dev, Compress(Algorithm::kSPspeed, ByteSpan(input)));

    const ContainerView view = ParseContainer(ByteSpan(dev));
    Bytes out(input.size());
    DecodeChunksOnDevice(device, view, spec, out.data(), nullptr, arenas);
    EXPECT_EQ(device.BlocksExecuted(), n_chunks);
    EXPECT_EQ(out, input);
}

TEST(BitArena, MatchesBitWriterLayout)
{
    Rng rng(9);
    std::vector<std::pair<uint64_t, unsigned>> fields;
    size_t total_bits = 0;
    for (int i = 0; i < 5000; ++i) {
        unsigned width = static_cast<unsigned>(rng.NextBelow(65));
        uint64_t value = rng.Next();
        if (width < 64) value &= (uint64_t{1} << width) - 1;
        fields.emplace_back(value, width);
        total_bits += width;
    }

    Bytes via_writer;
    BitWriter bw(via_writer);
    for (auto [value, width] : fields) bw.Put(value, width);
    bw.Finish();

    BitArena arena(total_bits);
    size_t pos = 0;
    for (auto [value, width] : fields) {
        arena.SetBits(pos, value, width);
        pos += width;
    }
    Bytes via_arena;
    arena.AppendTo(via_arena);
    EXPECT_EQ(via_arena, via_writer);

    // And reads agree with BitReader on the same stream.
    BitArena loaded = BitArena::FromBytes(ByteSpan(via_writer), total_bits);
    BitReader br{ByteSpan(via_writer)};
    pos = 0;
    for (auto [value, width] : fields) {
        ASSERT_EQ(br.Get(width), value);
        ASSERT_EQ(loaded.GetBits(pos, width), value);
        pos += width;
    }
}

TEST(BitArena, BoundsChecked)
{
    BitArena arena(10);
    arena.SetBits(3, 0x7f, 7);
    EXPECT_EQ(arena.GetBits(3, 7), 0x7fu);
    EXPECT_THROW(BitArena::FromBytes(ByteSpan(), 9), CorruptStreamError);
}

TEST(BitReader, FastAndSlowPathsAgree)
{
    // Fields straddling the last 16 bytes take the byte-loop path; the
    // values must match what the word-load fast path produced earlier.
    Rng rng(10);
    for (size_t n : {size_t{17}, size_t{24}, size_t{33}, size_t{100}}) {
        Bytes buf(n);
        for (auto& b : buf) b = static_cast<std::byte>(rng.Next() & 0xff);
        // Two readers, one pass each with different field splits, must
        // extract identical total content.
        BitReader a{ByteSpan(buf)};
        BitReader b{ByteSpan(buf)};
        uint64_t bits_a_lo = a.Get(64);
        uint64_t got = 0;
        uint64_t bits_b_lo = 0;
        for (unsigned i = 0; i < 8; ++i) {
            bits_b_lo |= b.Get(8) << got;
            got += 8;
        }
        EXPECT_EQ(bits_a_lo, bits_b_lo) << n;
        // Remaining bits, read as 3-bit fields from both readers.
        size_t remaining = n * 8 - 64;
        while (remaining >= 3) {
            ASSERT_EQ(a.Get(3), b.Get(3));
            remaining -= 3;
        }
    }
}

}  // namespace
}  // namespace fpc::gpusim
