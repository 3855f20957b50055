/**
 * @file
 * Deterministic mixing hashes. Used by the FCM transformation and by the
 * LZ match finders. All hashes are fixed (no seeding from global state) so
 * that compressed output is reproducible across runs and devices.
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

/**
 * Streaming form of Checksum64, the fast 64-bit content checksum (FNV-1a
 * over 8-byte words with a splitmix64 finalizer) stored in the container
 * header and verified on decompression. The total length is mixed in
 * first, so it is declared up front. Every Update span but the last must
 * be a multiple of 8 bytes long, so no word straddles two calls; folding
 * 16 KiB chunks in order therefore yields exactly the one-shot value,
 * which lets an executor fold decoded chunks while others still decode.
 */
class Checksum64Stream {
 public:
    explicit Checksum64Stream(size_t total_size)
        : h_(0xcbf29ce484222325ull ^ (total_size * 0x9e3779b97f4a7c15ull)),
          total_(total_size) {}

    /** Fold the next @p data bytes of the input. */
    void
    Update(ByteSpan data)
    {
        FPC_CHECK(folded_ % 8 == 0 || data.empty(),
                  "Checksum64Stream: update after a partial word");
        uint64_t h = h_;
        size_t i = 0;
        for (; i + 8 <= data.size(); i += 8) {
            uint64_t w;
            std::memcpy(&w, data.data() + i, 8);
            h = (h ^ w) * 0x100000001b3ull;
        }
        for (unsigned shift = 0; i < data.size(); ++i, shift += 8) {
            tail_ |= static_cast<uint64_t>(data[i]) << shift;
        }
        h_ = h;
        folded_ += data.size();
    }

    /** Bytes folded so far. */
    size_t Folded() const { return folded_; }

    /** The checksum; every declared byte must have been folded. */
    uint64_t
    Finish() const
    {
        FPC_CHECK(folded_ == total_,
                  "Checksum64Stream: folded size differs from declared size");
        return Mix64((h_ ^ tail_) * 0x100000001b3ull);
    }

 private:
    uint64_t h_;
    uint64_t tail_ = 0;  ///< the final 1-7 bytes, little-endian
    size_t total_;
    size_t folded_ = 0;
};

/** One-shot Checksum64Stream over @p data. */
inline uint64_t
Checksum64(ByteSpan data)
{
    Checksum64Stream sum(data.size());
    sum.Update(data);
    return sum.Finish();
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
