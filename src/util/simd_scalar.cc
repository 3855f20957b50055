/**
 * @file
 * Portable reference implementations of the SIMD kernel table
 * (util/simd.h). These define the wire-format semantics; the AVX2 and
 * AVX-512 translation units must match them byte for byte
 * (tests/simd_test.cc asserts equivalence on randomized inputs and the
 * golden containers).
 */
#include <bit>
#include <cstring>

#include "util/hash.h"
#include "util/simd.h"
#include "util/simd_detail.h"

namespace fpc::simd::detail {

void
TransposeScalar(uint32_t m[32])
{
    // Hacker's Delight recursive block swap, mirrored so that with
    // LSB-first bit indexing it computes the true transpose
    // out[j] bit i == in[i] bit j — the mapping of fpc::Transpose32x32
    // (util/bitpack.h) that BIT32 and the vector kernels rely on. The
    // textbook swap ordering under this indexing yields the point
    // reflection out[j] bit i == in[31-i] bit (31-j) instead; the two
    // are indistinguishable to round-trip tests (both are involutions)
    // but produce different plane bytes, which the cross-ISA identity
    // checks catch.
    uint32_t j = 16;
    uint32_t mask = 0x0000ffffu;
    for (; j != 0; j >>= 1, mask ^= mask << j) {
        for (uint32_t k = 0; k < 32; k = (k + j + 1) & ~j) {
            const uint32_t t = ((m[k] >> j) ^ m[k + j]) & mask;
            m[k + j] ^= t;
            m[k] ^= t << j;
        }
    }
}

size_t
NonzeroScanScalar(const std::byte* in, size_t n, std::byte* bitmap,
                  std::byte* gathered)
{
    size_t count = 0;
    for (size_t i = 0; i < n; ++i) {
        if (in[i] != std::byte{0}) {
            bitmap[i >> 3] |= std::byte(1u << (i & 7));
            gathered[count++] = in[i];
        }
    }
    return count;
}

size_t
NonzeroScatterScalar(const std::byte* bitmap, size_t n, const std::byte* src,
                     std::byte* dest)
{
    size_t next = 0;
    for (size_t i = 0; i < n; ++i) {
        if ((uint8_t(bitmap[i >> 3]) >> (i & 7)) & 1u) dest[i] = src[next++];
    }
    return next;
}

size_t
DiffScanScalar(const std::byte* in, size_t n, std::byte* next,
               std::byte* kept)
{
    size_t count = 0;
    std::byte prev{0};
    for (size_t j = 0; j < n; ++j) {
        if (j == 0 || in[j] != prev) {
            next[j >> 3] |= std::byte(1u << (j & 7));
            kept[count++] = in[j];
        }
        prev = in[j];
    }
    return count;
}

size_t
DiffExpandScalar(const std::byte* bits, size_t n, const std::byte* kept,
                 std::byte* dest)
{
    size_t next = 0;
    std::byte prev{0};
    size_t j = 0;
    // Bitmap levels above the base are mostly runs: take whole mask
    // bytes at a time and special-case the two common extremes.
    for (; j + 8 <= n; j += 8) {
        const uint8_t b = uint8_t(bits[j >> 3]);
        if (b == 0) {
            std::memset(dest + j, int(uint8_t(prev)), 8);
        } else if (b == 0xffu) {
            std::memcpy(dest + j, kept + next, 8);
            next += 8;
            prev = dest[j + 7];
        } else {
            for (size_t t = 0; t < 8; ++t) {
                if ((b >> t) & 1u) prev = kept[next++];
                dest[j + t] = prev;
            }
        }
    }
    for (; j < n; ++j) {
        if ((uint8_t(bits[j >> 3]) >> (j & 7)) & 1u) prev = kept[next++];
        dest[j] = prev;
    }
    return next;
}

size_t
TopBitmap64Scalar(const std::byte* in, size_t nw, unsigned k,
                  std::byte* bitmap)
{
    const unsigned shift = 64u - k;
    size_t count = 0;
    for (size_t i = 0; i < nw; ++i) {
        if ((Word64At(in, i) >> shift) != 0) {
            bitmap[i >> 3] |= std::byte(1u << (i & 7));
            ++count;
        }
    }
    return count;
}

size_t
MatchBitmap64Scalar(const std::byte* in, size_t nw, unsigned k,
                    std::byte* bitmap)
{
    const unsigned shift = 64u - k;
    size_t count = 0;
    uint64_t prev = 0;
    for (size_t i = 0; i < nw; ++i) {
        const uint64_t v = Word64At(in, i);
        if (((v ^ prev) >> shift) != 0) {
            bitmap[i >> 3] |= std::byte(1u << (i & 7));
            ++count;
        }
        prev = v;
    }
    return count;
}

void
FcmHashScalar(const std::byte* values, size_t n, uint64_t* hashes)
{
    uint64_t v1 = 0;
    uint64_t v2 = 0;
    uint64_t v3 = 0;
    for (size_t i = 0; i < n; ++i) {
        hashes[i] = FcmContextHash(v1, v2, v3);
        v3 = v2;
        v2 = v1;
        v1 = Word64At(values, i);
    }
}

void
ZigzagScan32Scalar(const std::byte* in, size_t n, std::byte* out)
{
    ZigzagScanTail<uint32_t>(in, 0, n, out);
}

void
ZigzagScan64Scalar(const std::byte* in, size_t n, std::byte* out)
{
    ZigzagScanTail<uint64_t>(in, 0, n, out);
}

}  // namespace fpc::simd::detail

namespace fpc::simd {

const KernelTable&
ScalarKernels()
{
    static const KernelTable table = {
        detail::TransposeScalar,     detail::NonzeroScanScalar,
        detail::NonzeroScatterScalar, detail::DiffScanScalar,
        detail::DiffExpandScalar,    detail::TopBitmap64Scalar,
        detail::MatchBitmap64Scalar, detail::FcmHashScalar,
        detail::ZigzagScan32Scalar,  detail::ZigzagScan64Scalar,
    };
    return table;
}

size_t
PopcountBits(const std::byte* bitmap, size_t nbits)
{
    size_t count = 0;
    size_t i = 0;
    const size_t nbytes = nbits / 8;
    for (; i + 8 <= nbytes; i += 8) {
        uint64_t w;
        std::memcpy(&w, bitmap + i, 8);
        count += size_t(std::popcount(w));
    }
    for (; i < nbytes; ++i) {
        count += size_t(std::popcount(uint8_t(bitmap[i])));
    }
    if (const unsigned rem = unsigned(nbits & 7); rem != 0) {
        const uint8_t tail = uint8_t(bitmap[nbytes]) & uint8_t((1u << rem) - 1);
        count += size_t(std::popcount(tail));
    }
    return count;
}

}  // namespace fpc::simd
