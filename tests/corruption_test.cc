/**
 * @file
 * Structure-aware corruption-injection harness (the "no byte of damage may
 * do anything but throw CorruptStreamError" property): golden containers
 * for all four algorithms are mutated at EVERY byte position (single-bit
 * flip, zero, 0xFF) and truncated at every length, then decoded on both
 * the cpu and gpusim backends. Every attempt must either throw
 * CorruptStreamError or round-trip the exact original bytes — never crash,
 * hang, or allocate more than a fixed cap (global operator new is replaced
 * with a max-single-allocation tracker, so decompression-bomb amplification
 * from forged size fields fails the test even when the decode eventually
 * throws). A payload mutant that decodes to wrong bytes would have to
 * collide with the stored 64-bit content checksum — the wire format's only
 * stored redundancy; the harness identifies such escapes exactly and the
 * sweeps allow none (see ExpectSafeDecode and DESIGN.md "Untrusted-input
 * validation"). Also pins
 * the stream-layer recovery contract: a corrupt frame leaves the cursor in
 * place so callers can repair and retry.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string_view>

#include "core/codec.h"
#include "core/container.h"
#include "core/executor.h"
#include "core/stream.h"
#include "util/bitio.h"
#include "util/hash.h"

namespace {

std::atomic<size_t> g_max_alloc{0};

void
NoteAlloc(std::size_t size)
{
    size_t cur = g_max_alloc.load(std::memory_order_relaxed);
    while (size > cur && !g_max_alloc.compare_exchange_weak(
                             cur, size, std::memory_order_relaxed)) {
    }
}

}  // namespace

// GCC cannot see that the replaced operator new below is malloc-backed
// and flags every free() in the matching deletes.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void*
operator new(std::size_t size)
{
    NoteAlloc(size);
    if (void* p = std::malloc(size)) return p;
    throw std::bad_alloc();
}

void*
operator new[](std::size_t size)
{
    NoteAlloc(size);
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

/**
 * Hard cap on any single heap allocation during a decode attempt. The
 * legitimate maximum is tens of KiB (a chunk plus kChunkDecodeSlack, the
 * FCM word arrays for these inputs, the output buffer itself); a forged
 * size field that escaped budget enforcement would ask for MiB to GiB.
 */
constexpr size_t kMaxSingleAllocation = size_t{4} << 20;

/** Smooth low-entropy walk, the same character as executor_test's golden
 *  inputs (compressible, so the coded paths — not raw chunks — are hit). */
Bytes
SmoothInput(size_t n_bytes, uint64_t seed)
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

struct SweepStats {
    size_t attempts = 0;
    size_t silent_escapes = 0;
};

/**
 * One decode attempt. The required outcome is: throw CorruptStreamError or
 * reproduce the original bytes, under the allocation cap either way. A
 * third outcome is counted so the sweeps can report it: damage to
 * *payload* bytes whose decoded result collides with the stored 64-bit
 * content checksum — the only stored redundancy, so no decode-side check
 * could tell such output from clean data (DESIGN.md "Untrusted-input
 * validation"). The sweeps require the count to be zero. Mutations of
 * structural bytes (header + chunk table, pos < payload_start) must never
 * escape at all.
 */
void
ExpectSafeDecode(ByteSpan container, const Bytes& original,
                 const Options& options, size_t pos, int mutant,
                 size_t payload_start, SweepStats& stats)
{
    ++stats.attempts;
    g_max_alloc.store(0, std::memory_order_relaxed);
    try {
        Bytes out = Decompress(container, options);
        if (out != original) {
            EXPECT_EQ(Checksum64(ByteSpan(out)),
                      Checksum64(ByteSpan(original)))
                << "mutant " << mutant << " at byte " << pos
                << " silently decoded to wrong bytes that the content "
                << "checksum should have caught";
            EXPECT_GE(pos, payload_start)
                << "structural mutation at byte " << pos
                << " escaped the header/chunk-table cross-checks";
            ++stats.silent_escapes;
        }
    } catch (const CorruptStreamError&) {
        // The expected rejection.
    }
    EXPECT_LE(g_max_alloc.load(std::memory_order_relaxed),
              kMaxSingleAllocation)
        << "oversized allocation decoding mutant " << mutant << " at byte "
        << pos;
}

class CorruptionSweep
    : public ::testing::TestWithParam<std::tuple<size_t, const char*>> {};

TEST_P(CorruptionSweep, EveryByteMutationIsRejectedOrHarmless)
{
    auto [algo_idx, backend] = GetParam();
    const Algorithm algorithm = kAlgorithms[algo_idx];
    // DPratio's FCM pre-stage doubles the transformed stream, so halve the
    // input to keep the sweep size comparable; all containers span at
    // least two 16 KiB chunks so the chunk table is exercised.
    const size_t n_bytes =
        algorithm == Algorithm::kDPratio ? 9000 : 18000;
    const Bytes input = SmoothInput(n_bytes, 0xabcd + algo_idx);
    Bytes container = Compress(algorithm, ByteSpan(input));
    const CompressedInfo info = Inspect(ByteSpan(container));
    ASSERT_GE(info.chunk_count, 2u);
    const size_t payload_start =
        ContainerHeaderSize() + info.chunk_count * sizeof(uint32_t);

    Options options;
    options.executor = &GetExecutor(backend);
    options.threads = 2;

    SweepStats stats;

    // The undamaged container must round-trip (and obey the cap).
    ExpectSafeDecode(ByteSpan(container), input, options, SIZE_MAX, -1,
                     payload_start, stats);
    ASSERT_EQ(stats.silent_escapes, 0u);

    // cpu: all three mutants at every position. gpusim models the same
    // kernels but is slower per call, so it rotates through the mutants —
    // still covering every byte position of every container.
    const bool all_mutants = std::string_view(backend) == "cpu";
    for (size_t pos = 0; pos < container.size(); ++pos) {
        const auto orig = static_cast<uint8_t>(container[pos]);
        const uint8_t mutants[3] = {static_cast<uint8_t>(orig ^ 0x01), 0x00,
                                    0xff};
        const int first = all_mutants ? 0 : static_cast<int>(pos % 3);
        const int last = all_mutants ? 2 : first;
        for (int m = first; m <= last; ++m) {
            if (mutants[m] == orig) continue;
            container[pos] = static_cast<std::byte>(mutants[m]);
            ExpectSafeDecode(ByteSpan(container), input, options, pos, m,
                             payload_start, stats);
        }
        container[pos] = static_cast<std::byte>(orig);
    }

    // The chunk-laned checksum has no constant-offset blind spot (DESIGN.md
    // §3b): no mutant may decode to wrong bytes.
    EXPECT_EQ(stats.silent_escapes, 0u)
        << stats.silent_escapes << " of " << stats.attempts
        << " mutants decoded to wrong bytes";
}

TEST_P(CorruptionSweep, EveryTruncationLengthThrows)
{
    auto [algo_idx, backend] = GetParam();
    const Algorithm algorithm = kAlgorithms[algo_idx];
    const size_t n_bytes =
        algorithm == Algorithm::kDPratio ? 9000 : 18000;
    const Bytes input = SmoothInput(n_bytes, 0xabcd + algo_idx);
    const Bytes container = Compress(algorithm, ByteSpan(input));

    Options options;
    options.executor = &GetExecutor(backend);
    options.threads = 2;

    // A shortened container can never round-trip; every prefix length must
    // be rejected (header cut, chunk-table cut, payload cut alike).
    for (size_t len = 0; len < container.size(); ++len) {
        g_max_alloc.store(0, std::memory_order_relaxed);
        EXPECT_THROW(Decompress(ByteSpan(container.data(), len), options),
                     CorruptStreamError)
            << "truncated to " << len << " of " << container.size();
        EXPECT_LE(g_max_alloc.load(std::memory_order_relaxed),
                  kMaxSingleAllocation)
            << "oversized allocation at truncation " << len;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, CorruptionSweep,
    ::testing::Combine(::testing::Range(size_t{0}, size_t{4}),
                       ::testing::Values("cpu", "gpusim:4090")),
    [](const auto& info) {
        std::string backend = std::get<1>(info.param);
        for (char& c : backend) {
            if (c == ':') c = '_';
        }
        return std::string(
                   AlgorithmName(kAlgorithms[std::get<0>(info.param)])) +
               "_" + backend;
    });

TEST(CorruptionError, TruncationReportsStageAndOffset)
{
    const Bytes input = SmoothInput(18000, 7);
    const Bytes container = Compress(Algorithm::kSPspeed, ByteSpan(input));
    try {
        Decompress(ByteSpan(container.data(), container.size() - 5));
        FAIL() << "truncated container decoded";
    } catch (const CorruptStreamError& e) {
        EXPECT_STREQ(e.Stage(), "container");
        EXPECT_NE(e.Offset(), kNoOffset);
        EXPECT_NE(std::string(e.what()).find("[container"),
                  std::string::npos)
            << e.what();
    }
}

TEST(CorruptionStream, NearSizeMaxFrameLengthDoesNotWrap)
{
    // Regression for the wrap-prone reader bounds: a stream frame whose
    // varint length is near SIZE_MAX must throw, not wrap `pos_ + n` and
    // read out of bounds (or allocate).
    for (uint64_t declared :
         {uint64_t{SIZE_MAX}, uint64_t{SIZE_MAX} - 7, uint64_t{1} << 62}) {
        Bytes stream;
        ByteWriter wr(stream);
        wr.PutVarint(declared);
        for (int i = 0; i < 64; ++i) wr.PutU8(0x5a);

        StreamDecompressor dec{ByteSpan(stream)};
        g_max_alloc.store(0, std::memory_order_relaxed);
        EXPECT_THROW(dec.NextFrame(), CorruptStreamError);
        EXPECT_LE(g_max_alloc.load(std::memory_order_relaxed),
                  kMaxSingleAllocation);
        // The failed frame was not consumed.
        EXPECT_TRUE(dec.HasNext());
    }
}

TEST(CorruptionStream, CorruptFrameLeavesCursorForRetry)
{
    std::vector<float> frame0(5000);
    std::vector<float> frame1(300);
    for (size_t i = 0; i < frame0.size(); ++i) {
        frame0[i] = 0.5f * static_cast<float>(i % 61);
    }
    for (size_t i = 0; i < frame1.size(); ++i) {
        frame1[i] = 2.0f / static_cast<float>(i + 1);
    }
    StreamCompressor compressor(Algorithm::kSPspeed);
    compressor.PutFloats(frame0);
    compressor.PutFloats(frame1);
    Bytes stream = compressor.Stream();

    // Damage a byte of the first frame's container header (well past the
    // frame-length varint). The decompressor views the caller's buffer, so
    // the caller can repair it in place and retry.
    const size_t target = 20;
    const std::byte original = stream[target];
    stream[target] ^= std::byte{0xff};

    StreamDecompressor dec{ByteSpan(stream)};
    EXPECT_THROW(dec.NextFrame(), CorruptStreamError);
    EXPECT_TRUE(dec.HasNext());
    EXPECT_THROW(dec.NextFloats(), CorruptStreamError);
    EXPECT_TRUE(dec.HasNext());

    stream[target] = original;
    EXPECT_EQ(dec.NextFloats(), frame0);
    EXPECT_EQ(dec.NextFloats(), frame1);
    EXPECT_FALSE(dec.HasNext());
}

/** Mixed-content input whose chunks pick different pipelines under
 *  mode=auto: a smooth walk, then high-entropy bytes, then a constant
 *  run — one 16 KiB chunk each, repeated. */
Bytes
MixedInput(size_t n_bytes, uint64_t seed)
{
    Bytes data = SmoothInput(n_bytes, seed);
    uint64_t state = seed * 0x9e3779b97f4a7c15ull + 1;
    for (size_t i = 0; i < n_bytes; ++i) {
        switch ((i / kChunkSize) % 3) {
          case 1:
            state = state * 6364136223846793005ull + 1442695040888963407ull;
            data[i] = static_cast<std::byte>(state >> 56);
            break;
          case 2:
            data[i] = static_cast<std::byte>(i & 3 ? 0x00 : 0x42);
            break;
          default:
            break;  // keep the smooth walk
        }
    }
    return data;
}

class CorruptionAdaptive
    : public ::testing::TestWithParam<const char*> {};

TEST_P(CorruptionAdaptive, V3StructureAndIdTableAreCrossChecked)
{
    // A v3 (mode=auto) container packs each chunk's algorithm id into
    // bits 29..30 of its chunk-table entry. Damage anywhere in the
    // structural prefix — header or chunk table — must throw
    // CorruptStreamError; in particular flipped id bits must never
    // dispatch the wrong per-chunk decoder into silently wrong bytes
    // (out-of-range ids die in the parser, in-range-but-wrong ids die on
    // the decoded-size or content-checksum cross-checks).
    const char* backend = GetParam();
    const Bytes input = MixedInput(4 * kChunkSize + 1000, 0xada7);
    Bytes container = Compress(Algorithm::kSPspeed, ByteSpan(input),
                               Options{}.with_mode("auto"));
    const CompressedInfo info = Inspect(ByteSpan(container));
    ASSERT_TRUE(info.adaptive);
    ASSERT_GE(info.chunk_count, 5u);
    const size_t table_start = ContainerHeaderSize();
    const size_t payload_start =
        table_start + info.chunk_count * sizeof(uint32_t);

    Options options;
    options.executor = &GetExecutor(backend);
    options.threads = 2;

    SweepStats stats;
    ExpectSafeDecode(ByteSpan(container), input, options, SIZE_MAX, -1,
                     payload_start, stats);
    ASSERT_EQ(stats.silent_escapes, 0u);

    const bool all_mutants = std::string_view(backend) == "cpu";
    for (size_t pos = 0; pos < container.size(); ++pos) {
        const auto orig = static_cast<uint8_t>(container[pos]);
        // Structural bytes (header + chunk table) get all three mutants
        // on every backend; payload bytes rotate on the slower gpusim
        // backend as in the v1 sweep.
        const bool structural = pos < payload_start;
        uint8_t mutants[4] = {static_cast<uint8_t>(orig ^ 0x01), 0x00,
                              0xff, 0};
        int first = all_mutants || structural ? 0 : static_cast<int>(pos % 3);
        int last = all_mutants || structural ? 2 : first;
        if (structural && pos >= table_start &&
            (pos - table_start) % sizeof(uint32_t) == 3) {
            // The top byte of a chunk-table entry holds the id bits
            // (29..30): also flip one id bit alone, so the wrong-decoder
            // path is hit with a still-valid size field, not just a
            // bogus size.
            mutants[3] = static_cast<uint8_t>(orig ^ 0x20);
            last = 3;
        }
        for (int m = first; m <= last; ++m) {
            if (mutants[m] == orig) continue;
            container[pos] = static_cast<std::byte>(mutants[m]);
            ExpectSafeDecode(ByteSpan(container), input, options, pos, m,
                             payload_start, stats);
        }
        container[pos] = static_cast<std::byte>(orig);
    }
    EXPECT_EQ(stats.silent_escapes, 0u)
        << stats.silent_escapes << " of " << stats.attempts
        << " mutants decoded to wrong bytes";
}

TEST_P(CorruptionAdaptive, V3TruncationAlwaysThrows)
{
    const char* backend = GetParam();
    const Bytes input = MixedInput(3 * kChunkSize + 500, 0xada8);
    const Bytes container = Compress(Algorithm::kSPspeed, ByteSpan(input),
                                     Options{}.with_mode("auto"));
    Options options;
    options.executor = &GetExecutor(backend);
    options.threads = 2;
    for (size_t len = 0; len < container.size(); ++len) {
        g_max_alloc.store(0, std::memory_order_relaxed);
        EXPECT_THROW(Decompress(ByteSpan(container.data(), len), options),
                     CorruptStreamError)
            << "truncated to " << len << " of " << container.size();
        EXPECT_LE(g_max_alloc.load(std::memory_order_relaxed),
                  kMaxSingleAllocation)
            << "oversized allocation at truncation " << len;
    }
}

INSTANTIATE_TEST_SUITE_P(BothBackends, CorruptionAdaptive,
                         ::testing::Values("cpu", "gpusim:4090"),
                         [](const auto& info) {
                             std::string backend = info.param;
                             for (char& c : backend) {
                                 if (c == ':') c = '_';
                             }
                             return backend;
                         });

/** An indexed golden stream for the seek-index sweeps: three SPspeed
 *  frames plus the trailing index. Returns the original bytes too. */
Bytes
GoldenIndexedStream(Bytes& original)
{
    original = SmoothInput(3 * 9000 + 2000, 0x5eed);
    original.resize(original.size() - original.size() % sizeof(float));
    StreamCompressor compressor(Algorithm::kSPspeed);
    const size_t step = 9000 - 9000 % sizeof(float);
    for (size_t at = 0; at < original.size(); at += step) {
        compressor.PutFrame(ByteSpan(original).subspan(
            at, std::min(step, original.size() - at)));
    }
    return compressor.FinishWithIndex();
}

/**
 * The "never mis-seek" property under one mutant: the stream either
 * decodes (via the layout the resolver picked — index or fallback scan)
 * to exactly the original bytes, or throws CorruptStreamError. Silently
 * wrong bytes, other exception types, crashes, and allocation spikes all
 * fail.
 */
void
ExpectSafeSeek(ByteSpan stream, const Bytes& original, size_t pos,
               int mutant)
{
    g_max_alloc.store(0, std::memory_order_relaxed);
    MemoryByteSource source{stream};
    try {
        const Bytes out = DecompressRange(
            source, 0, original.size() / sizeof(float), Options{});
        EXPECT_EQ(out, original)
            << "mutant " << mutant << " at index byte " << pos
            << " mis-seeked to wrong bytes";
    } catch (const CorruptStreamError&) {
        // The expected rejection of a damaged index (or of index bytes
        // scanned as frames after the footer magic was destroyed).
    }
    EXPECT_LE(g_max_alloc.load(std::memory_order_relaxed),
              kMaxSingleAllocation)
        << "oversized allocation for mutant " << mutant << " at byte "
        << pos;
}

TEST(CorruptionSeekIndex, EveryIndexByteMutationRejectedOrHarmless)
{
    Bytes original;
    Bytes stream = GoldenIndexedStream(original);
    {
        // Locate the index region from the clean stream.
        MemoryByteSource source{ByteSpan(stream)};
        const std::optional<SeekIndex> index = TryParseSeekIndex(source);
        ASSERT_TRUE(index.has_value());
        ASSERT_EQ(index->frames.size(), 4u);
        // Clean stream decodes through the index.
        ExpectSafeSeek(ByteSpan(stream), original, SIZE_MAX, -1);

        // Sweep every byte of the entries block and the footer with all
        // three mutants.
        for (size_t pos = index->index_offset; pos < stream.size(); ++pos) {
            const auto orig = static_cast<uint8_t>(stream[pos]);
            const uint8_t mutants[3] = {
                static_cast<uint8_t>(orig ^ 0x01), 0x00, 0xff};
            for (int m = 0; m < 3; ++m) {
                if (mutants[m] == orig) continue;
                stream[pos] = static_cast<std::byte>(mutants[m]);
                ExpectSafeSeek(ByteSpan(stream), original, pos, m);
            }
            stream[pos] = static_cast<std::byte>(orig);
        }
    }
}

TEST(CorruptionSeekIndex, EveryIndexTruncationRejectedOrHarmless)
{
    Bytes original;
    const Bytes stream = GoldenIndexedStream(original);
    MemoryByteSource clean{ByteSpan(stream)};
    const std::optional<SeekIndex> index = TryParseSeekIndex(clean);
    ASSERT_TRUE(index.has_value());

    // Cutting anywhere inside the index region removes the footer magic
    // from EOF: the stream must parse index-less (exact cut at the frame
    // data boundary) or throw — never follow a half-index.
    for (size_t len = index->index_offset; len < stream.size(); ++len) {
        ExpectSafeSeek(ByteSpan(stream.data(), len), original, len, 3);
    }
}

TEST(CorruptionSeekIndex, DamagedFooterThrowsFromEveryEntryPoint)
{
    Bytes original;
    Bytes stream = GoldenIndexedStream(original);
    // Destroy the index checksum (first 8 bytes of the footer).
    const size_t footer = stream.size() - SeekIndex::kFooterSize;
    stream[footer] ^= std::byte{0xff};

    MemoryByteSource source{ByteSpan(stream)};
    EXPECT_THROW(TryParseSeekIndex(source), CorruptStreamError);
    EXPECT_THROW(ResolveStreamLayout(source), CorruptStreamError);
    EXPECT_THROW(StreamDecompressor{ByteSpan(stream)}, CorruptStreamError);
    EXPECT_THROW(
        ParallelStreamDecoder(source, StreamPoolOptions{2, 0}, Options{}),
        CorruptStreamError);
    EXPECT_THROW(DecompressRange(source, 0, 1, Options{}),
                 CorruptStreamError);
}

TEST(CorruptionSeekIndex, ForgedFrameOffsetsNeverReadOutOfBounds)
{
    // Hand-build footers whose entries point outside the stream or
    // overlap; the checksum is made valid so only the semantic validation
    // can reject them. Every case must throw, not read wild.
    Bytes original;
    const Bytes clean = GoldenIndexedStream(original);
    MemoryByteSource clean_source{ByteSpan(clean)};
    const std::optional<SeekIndex> index = TryParseSeekIndex(clean_source);
    ASSERT_TRUE(index.has_value());

    auto rebuild = [&](std::vector<SeekIndexEntry> frames) {
        Bytes forged(clean.begin(),
                     clean.begin() + static_cast<std::ptrdiff_t>(
                                         index->index_offset));
        // AppendSeekIndex itself asserts monotonic prefixes, so serialize
        // the forged entries by hand with a correct checksum.
        Bytes entries;
        ByteWriter wr(entries);
        for (const SeekIndexEntry& f : frames) {
            wr.Put<uint64_t>(f.frame_offset);
            wr.Put<uint64_t>(f.frame_size);
            wr.Put<uint64_t>(f.element_count);
            wr.Put<uint64_t>(f.element_prefix);
        }
        AppendBytes(forged, ByteSpan(entries));
        ByteWriter footer(forged);
        footer.Put<uint64_t>(Fnv1a64(ByteSpan(entries)));
        footer.Put<uint64_t>(frames.size());
        footer.Put<uint64_t>(entries.size());
        footer.Put<uint32_t>(SeekIndex::kIndexVersion);
        footer.Put<uint32_t>(SeekIndex::kFooterMagic);
        return forged;
    };

    std::vector<SeekIndexEntry> good = index->frames;

    {  // offset past the end of frame data
        std::vector<SeekIndexEntry> frames = good;
        frames[1].frame_offset = index->index_offset + 100;
        Bytes forged = rebuild(frames);
        MemoryByteSource source{ByteSpan(forged)};
        EXPECT_THROW(TryParseSeekIndex(source), CorruptStreamError);
    }
    {  // size overrunning the index region
        std::vector<SeekIndexEntry> frames = good;
        frames.back().frame_size = index->index_offset;
        Bytes forged = rebuild(frames);
        MemoryByteSource source{ByteSpan(forged)};
        EXPECT_THROW(TryParseSeekIndex(source), CorruptStreamError);
    }
    {  // overlapping frames
        std::vector<SeekIndexEntry> frames = good;
        frames[1].frame_offset = frames[0].frame_offset + 1;
        Bytes forged = rebuild(frames);
        MemoryByteSource source{ByteSpan(forged)};
        EXPECT_THROW(TryParseSeekIndex(source), CorruptStreamError);
    }
    {  // inconsistent element prefix sum
        std::vector<SeekIndexEntry> frames = good;
        frames[2].element_prefix += 7;
        Bytes forged = rebuild(frames);
        MemoryByteSource source{ByteSpan(forged)};
        EXPECT_THROW(TryParseSeekIndex(source), CorruptStreamError);
    }
    {  // element count lying about the frame header (mis-seek channel)
        std::vector<SeekIndexEntry> frames = good;
        frames[0].element_count -= 16;
        for (size_t f = 1; f < frames.size(); ++f) {
            frames[f].element_prefix -= 16;
        }
        Bytes forged = rebuild(frames);
        MemoryByteSource source{ByteSpan(forged)};
        // The per-frame header cross-check rejects it at decode time.
        EXPECT_THROW(
            DecompressRange(source, 0,
                            original.size() / sizeof(float) - 16, Options{}),
            CorruptStreamError);
    }
}

}  // namespace
}  // namespace fpc
