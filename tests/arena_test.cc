/**
 * @file
 * Asserts the tentpole property of the ScratchArena (core/arena.h): once
 * a thread's arena is warm, EncodeChunk and DecodeChunk perform zero heap
 * allocations per chunk. The test replaces global operator new/delete
 * with counting versions and measures the allocation delta across a
 * steady-state chunk loop for every algorithm, and across whole
 * call-local Compress calls of different chunk counts.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/arena.h"
#include "core/codec.h"
#include "core/pipeline.h"

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

/** Smooth random-walk words: compressible, exercises the full pipeline. */
Bytes
SmoothChunks(size_t n_chunks)
{
    Bytes data(n_chunks * kChunkSize);
    uint64_t state = 0x5eed;
    uint32_t x = 0x3f800000u;
    for (size_t i = 0; i + 4 <= data.size(); i += 4) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        x += static_cast<uint32_t>((state >> 33) & 0x3ff) - 512;
        std::memcpy(data.data() + i, &x, 4);
    }
    return data;
}

/** High-entropy words: forces the raw-chunk fallback path. */
Bytes
NoisyChunks(size_t n_chunks)
{
    Bytes data(n_chunks * kChunkSize);
    uint64_t s = 0xbadc0ffee0ddf00dull;
    for (size_t i = 0; i + 8 <= data.size(); i += 8) {
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        std::memcpy(data.data() + i, &s, 8);
    }
    return data;
}

constexpr Algorithm kAlgorithms[] = {
    Algorithm::kSPspeed,
    Algorithm::kSPratio,
    Algorithm::kDPspeed,
    Algorithm::kDPratio,
};

TEST(ArenaTest, SteadyStateEncodeLoopDoesNotAllocate)
{
    for (Algorithm algorithm : kAlgorithms) {
        const PipelineSpec& spec = GetPipeline(algorithm);
        const Bytes input = SmoothChunks(8);
        ScratchArena scratch;

        auto encode_all = [&] {
            size_t compressed = 0;
            for (size_t begin = 0; begin < input.size();
                 begin += kChunkSize) {
                bool raw = false;
                compressed += EncodeChunk(spec,
                                          ByteSpan(input).subspan(
                                              begin, kChunkSize),
                                          raw, scratch)
                                  .size();
            }
            return compressed;
        };

        // Two warm-up passes grow every arena buffer to its steady
        // capacity; afterwards the loop must not touch the allocator.
        encode_all();
        encode_all();
        const size_t before = g_alloc_count.load();
        const size_t compressed = encode_all();
        const size_t delta = g_alloc_count.load() - before;
        EXPECT_EQ(delta, 0u)
            << "algorithm " << static_cast<int>(algorithm) << " allocated "
            << delta << " times in the steady-state encode loop";
        EXPECT_GT(compressed, 0u);
    }
}

TEST(ArenaTest, SteadyStateDecodeLoopDoesNotAllocate)
{
    for (Algorithm algorithm : kAlgorithms) {
        const PipelineSpec& spec = GetPipeline(algorithm);
        const Bytes input = SmoothChunks(8);
        ScratchArena scratch;

        // Prepare payloads up front (this phase may allocate freely).
        std::vector<Bytes> payloads;
        std::vector<bool> raw_flags;
        for (size_t begin = 0; begin < input.size(); begin += kChunkSize) {
            bool raw = false;
            ByteSpan payload = EncodeChunk(
                spec, ByteSpan(input).subspan(begin, kChunkSize), raw,
                scratch);
            payloads.emplace_back(payload.begin(), payload.end());
            raw_flags.push_back(raw);
        }
        Bytes decoded(input.size());

        auto decode_all = [&] {
            for (size_t c = 0; c < payloads.size(); ++c) {
                DecodeChunk(spec, ByteSpan(payloads[c]), raw_flags[c],
                            std::span<std::byte>(
                                decoded.data() + c * kChunkSize,
                                kChunkSize),
                            scratch);
            }
        };

        decode_all();
        decode_all();
        const size_t before = g_alloc_count.load();
        decode_all();
        const size_t delta = g_alloc_count.load() - before;
        EXPECT_EQ(delta, 0u)
            << "algorithm " << static_cast<int>(algorithm) << " allocated "
            << delta << " times in the steady-state decode loop";
        EXPECT_EQ(decoded, input);
    }
}

TEST(ArenaTest, RawFallbackChunksDoNotAllocateEither)
{
    const PipelineSpec& spec = GetPipeline(Algorithm::kSPspeed);
    const Bytes input = NoisyChunks(4);
    ScratchArena scratch;

    auto encode_all = [&] {
        size_t raw_chunks = 0;
        for (size_t begin = 0; begin < input.size(); begin += kChunkSize) {
            bool raw = false;
            EncodeChunk(spec, ByteSpan(input).subspan(begin, kChunkSize),
                        raw, scratch);
            raw_chunks += raw ? 1 : 0;
        }
        return raw_chunks;
    };

    encode_all();
    encode_all();
    const size_t before = g_alloc_count.load();
    const size_t raw_chunks = encode_all();
    EXPECT_EQ(g_alloc_count.load() - before, 0u);
    EXPECT_GT(raw_chunks, 0u) << "noisy input should hit the raw fallback";
}

TEST(ArenaTest, CapacityIsBoundedAndReported)
{
    const Bytes input = SmoothChunks(8);
    ScratchArena scratch;
    for (Algorithm algorithm : kAlgorithms) {
        const PipelineSpec& spec = GetPipeline(algorithm);
        for (size_t begin = 0; begin < input.size(); begin += kChunkSize) {
            bool raw = false;
            EncodeChunk(spec, ByteSpan(input).subspan(begin, kChunkSize),
                        raw, scratch);
        }
    }
    // The arena holds a handful of chunk-sized buffers, not the input.
    EXPECT_GT(scratch.CapacityBytes(), 0u);
    EXPECT_LT(scratch.CapacityBytes(), 64 * kChunkSize);
}

/** Heap allocations made by one call-local Compress (fresh arenas, no
 *  pool) of @p input at @p threads; the result is still alive, so its
 *  own allocation is counted. */
size_t
CompressAllocations(Algorithm algorithm, const Bytes& input, int threads)
{
    const Options options = Options{}.with_threads(threads);
    const size_t before = g_alloc_count.load();
    const Bytes out = Compress(algorithm, ByteSpan(input), options);
    const size_t delta = g_alloc_count.load() - before;
    EXPECT_FALSE(out.empty());
    return delta;
}

/** @p n_chunks copies of one SmoothChunks(1) chunk. */
Bytes
RepeatedChunk(size_t n_chunks)
{
    const Bytes chunk = SmoothChunks(1);
    Bytes data;
    data.reserve(n_chunks * kChunkSize);
    for (size_t c = 0; c < n_chunks; ++c) AppendBytes(data, chunk);
    return data;
}

TEST(ArenaTest, CompressAllocationsDoNotGrowWithChunkCount)
{
    // Payloads are staged in one buffer the calling thread allocates, so
    // a call's allocations are its plan, its arenas' warm-up and its
    // result: none of them grows with the chunk count. A fresh arena's
    // buffers grow to the largest stage output they have seen, which
    // depends on the data, not on the count; one chunk repeated keeps
    // that warm-up the same at every count. DPratio is left out: its
    // chunks are FCM output, which differs along even a repeating input,
    // so its warm-up varies with the chunks each worker claims.
    //
    // One thread, so the count is exact: with more, a worker that a
    // loaded machine starves through the whole call claims no chunk and
    // skips its arena's warm-up, and that saving is as large as the
    // growth this test looks for. (Per-worker staging would grow at
    // every thread count; the multi-thread bytes are pinned by
    // determinism_test.)
    const Bytes c64 = RepeatedChunk(64);
    const Bytes c1024 = RepeatedChunk(1024);
    for (Algorithm algorithm :
         {Algorithm::kSPspeed, Algorithm::kSPratio, Algorithm::kDPspeed}) {
        SCOPED_TRACE(AlgorithmName(algorithm));
        // Warm the process-wide state (registries, statics) first.
        CompressAllocations(algorithm, c64, 1);
        const size_t at_64 = CompressAllocations(algorithm, c64, 1);
        const size_t at_1024 = CompressAllocations(algorithm, c1024, 1);
        EXPECT_EQ(at_1024, at_64) << "1024 chunks against 64";
    }
}

}  // namespace
}  // namespace fpc
