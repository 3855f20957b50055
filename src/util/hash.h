/**
 * @file
 * Deterministic mixing hashes. Used by the FCM transformation, the LZ
 * match finders and the container content checksum. All hashes are fixed
 * (no seeding from global state) so that compressed output is
 * reproducible across runs and devices.
 */
#ifndef FPC_UTIL_HASH_H
#define FPC_UTIL_HASH_H

#include "util/common.h"

namespace fpc {

/** Finalizer from splitmix64; a strong 64 -> 64 bit mix. */
inline uint64_t
Mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Combine two hashes (boost-style, 64-bit). */
inline uint64_t
HashCombine(uint64_t h, uint64_t v)
{
    return Mix64(h ^ (v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2)));
}

/**
 * The FCM context hash over the three previous values (paper Section 3.2).
 * Missing history at the start of the input is treated as zero.
 */
inline uint64_t
FcmContextHash(uint64_t v1, uint64_t v2, uint64_t v3)
{
    uint64_t h = Mix64(v1);
    h = HashCombine(h, v2);
    h = HashCombine(h, v3);
    return h;
}

/** Fast multiplicative hash of the next 4 bytes, for LZ match finding. */
inline uint32_t
LzHash32(uint32_t word, unsigned bits)
{
    return (word * 2654435761u) >> (32 - bits);
}

/** Fast multiplicative hash of the next 8 bytes, for long-match finding. */
inline uint32_t
LzHash64(uint64_t word, unsigned bits)
{
    return static_cast<uint32_t>((word * 0x9e3779b97f4a7c15ull) >>
                                 (64 - bits));
}

namespace checksum_detail {

// The xxh64 primes.
inline constexpr uint64_t kP1 = 0x9e3779b185ebca87ull;
inline constexpr uint64_t kP2 = 0xc2b2ae3d27d4eb4full;
inline constexpr uint64_t kP3 = 0x165667b19e3779f9ull;

/** One lane step. The rotate carries the product's high bits down, so a
 *  change confined to a word's top bits still reaches every output bit. */
inline uint64_t
Round(uint64_t acc, uint64_t word)
{
    return std::rotl(acc + word * kP2, 31) * kP1;
}

inline uint64_t
LoadWord(const std::byte* p)
{
    uint64_t w;
    std::memcpy(&w, p, 8);
    return w;
}

}  // namespace checksum_detail

/**
 * The per-block half of Checksum64: the hash of one block of at most
 * kChunkSize bytes. Four independent lanes take one 8-byte word each per
 * 32-byte stripe; the lanes, then any 1-3 leftover words, then the 0-7
 * tail bytes (little-endian) are chained through Mix64. Blocks hash
 * independently, so the worker that encodes or decodes a chunk hashes
 * that chunk while it is in cache.
 */
inline uint64_t
ChecksumBlock(ByteSpan block)
{
    using namespace checksum_detail;
    uint64_t v0 = kP1 + kP2;
    uint64_t v1 = kP2;
    uint64_t v2 = 0;
    uint64_t v3 = 0 - kP1;
    const std::byte* p = block.data();
    const size_t n = block.size();
    size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        v0 = Round(v0, LoadWord(p + i));
        v1 = Round(v1, LoadWord(p + i + 8));
        v2 = Round(v2, LoadWord(p + i + 16));
        v3 = Round(v3, LoadWord(p + i + 24));
    }
    uint64_t h = Mix64(v0);
    h = Mix64(h ^ v1);
    h = Mix64(h ^ v2);
    h = Mix64(h ^ v3);
    for (; i + 8 <= n; i += 8) h = Mix64(h ^ LoadWord(p + i));
    if (i < n) {
        uint64_t tail = 0;
        for (unsigned shift = 0; i < n; ++i, shift += 8) {
            tail |= static_cast<uint64_t>(p[i]) << shift;
        }
        h = Mix64(h ^ tail);
    }
    return h;
}

/**
 * The combining half of Checksum64, over a @p total_size-byte buffer:
 * start from ChecksumSeed, then fold the ChecksumBlock of each
 * consecutive kChunkSize block (the last may be short) in block order.
 */
inline uint64_t
ChecksumSeed(size_t total_size)
{
    return Mix64(total_size ^ checksum_detail::kP3);
}

inline uint64_t
ChecksumFold(uint64_t h, uint64_t block_hash)
{
    return Mix64(h ^ block_hash);
}

/** The combine over all of a buffer's @p block_hashes at once. */
inline uint64_t
ChecksumCombine(std::span<const uint64_t> block_hashes, size_t total_size)
{
    uint64_t h = ChecksumSeed(total_size);
    for (uint64_t b : block_hashes) h = ChecksumFold(h, b);
    return h;
}

/**
 * The 64-bit content checksum stored in v4/v5 container headers and
 * verified on decompression: the combine of the ChecksumBlock of every
 * 16 KiB block of @p data. Unlike FNV-1a, a constant additive offset on
 * a run of words (DIFFMS damage) changes it.
 */
inline uint64_t
Checksum64(ByteSpan data)
{
    uint64_t h = ChecksumSeed(data.size());
    for (size_t begin = 0; begin < data.size(); begin += kChunkSize) {
        h = ChecksumFold(h, ChecksumBlock(data.subspan(
                                begin, std::min(kChunkSize,
                                                data.size() - begin))));
    }
    return h;
}

/**
 * The earlier content checksum: FNV-1a over 8-byte words (length mixed in
 * first, the 0-7 tail bytes last) with a splitmix64 finalizer. v1/v3
 * containers store it, and it stays the hash of everything already
 * committed: the seek-index footer and the bench config fingerprints.
 */
inline uint64_t
Fnv1a64(ByteSpan data)
{
    uint64_t h = 0xcbf29ce484222325ull ^ (data.size() * 0x9e3779b97f4a7c15ull);
    size_t i = 0;
    for (; i + 8 <= data.size(); i += 8) {
        h = (h ^ checksum_detail::LoadWord(data.data() + i)) *
            0x100000001b3ull;
    }
    uint64_t tail = 0;
    for (unsigned shift = 0; i < data.size(); ++i, shift += 8) {
        tail |= static_cast<uint64_t>(data[i]) << shift;
    }
    return Mix64((h ^ tail) * 0x100000001b3ull);
}

/** Deterministic xorshift128+ generator for synthetic data and tests. */
class Rng {
 public:
    explicit Rng(uint64_t seed)
    {
        s0_ = Mix64(seed);
        s1_ = Mix64(seed + 1);
        if (s0_ == 0 && s1_ == 0) s1_ = 1;
    }

    uint64_t
    Next()
    {
        uint64_t x = s0_;
        const uint64_t y = s1_;
        s0_ = y;
        x ^= x << 23;
        s1_ = x ^ y ^ (x >> 17) ^ (y >> 26);
        return s1_ + y;
    }

    /** Uniform double in [0, 1). */
    double NextDouble() { return (Next() >> 11) * 0x1.0p-53; }

    /** Uniform in [0, n). */
    uint64_t NextBelow(uint64_t n) { return n ? Next() % n : 0; }

    /** Standard normal via Box-Muller (uses two uniforms per pair). */
    double
    NextGaussian()
    {
        if (have_spare_) {
            have_spare_ = false;
            return spare_;
        }
        double u1 = NextDouble();
        double u2 = NextDouble();
        while (u1 <= 1e-300) u1 = NextDouble();
        double r = std::sqrt(-2.0 * std::log(u1));
        double t = 6.283185307179586476925286766559 * u2;
        spare_ = r * std::sin(t);
        have_spare_ = true;
        return r * std::cos(t);
    }

 private:
    uint64_t s0_, s1_;
    double spare_ = 0.0;
    bool have_spare_ = false;
};

}  // namespace fpc

#endif  // FPC_UTIL_HASH_H
