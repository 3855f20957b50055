/**
 * @file
 * AVX2 kernel table. Compiled with -mavx2 (src/CMakeLists.txt); only
 * entered through Kernels(kAvx2) after a runtime __builtin_cpu_supports
 * check, so the rest of the binary stays baseline x86-64.
 *
 * Every kernel reproduces its scalar twin in simd_scalar.cc byte for
 * byte — see the equivalence sweep in tests/simd_test.cc.
 */
#include <immintrin.h>

#include <bit>
#include <cstring>

#include "util/hash.h"
#include "util/simd.h"
#include "util/simd_detail.h"

namespace fpc::simd::detail {

namespace {

uint32_t
LoadMask32(const std::byte* p)
{
    uint32_t m;
    std::memcpy(&m, p, 4);
    return m;
}

/** Gather the bytes selected by @p mask from the 32 bytes at @p src
 *  into @p dest; returns the count. Mask bit j selects src[j]. */
size_t
GatherMasked32(const std::byte* src, uint32_t mask, std::byte* dest)
{
    if (mask == 0xffffffffu) {
        std::memcpy(dest, src, 32);
        return 32;
    }
    size_t count = 0;
    while (mask != 0) {
        dest[count++] = src[unsigned(std::countr_zero(mask))];
        mask &= mask - 1;
    }
    return count;
}

}  // namespace

void
TransposeAvx2(uint32_t m[32])
{
    // Stage 1: byte transpose. pshufb groups each 128-bit lane's bytes
    // by significance, unpack32/unpack64 merge rows 8 apart, and vpermd
    // repairs the lane-crossing order, yielding four vectors where byte
    // j of b<i> is byte i of m[j].
    const __m256i shuf = _mm256_setr_epi8(
        0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15,
        0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15);
    const __m256i perm = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
    __m256i r0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(m));
    __m256i r1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(m + 8));
    __m256i r2 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(m + 16));
    __m256i r3 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(m + 24));
    r0 = _mm256_shuffle_epi8(r0, shuf);
    r1 = _mm256_shuffle_epi8(r1, shuf);
    r2 = _mm256_shuffle_epi8(r2, shuf);
    r3 = _mm256_shuffle_epi8(r3, shuf);
    const __m256i t0 = _mm256_unpacklo_epi32(r0, r1);
    const __m256i t1 = _mm256_unpackhi_epi32(r0, r1);
    const __m256i t2 = _mm256_unpacklo_epi32(r2, r3);
    const __m256i t3 = _mm256_unpackhi_epi32(r2, r3);
    const __m256i vecs[4] = {
        _mm256_permutevar8x32_epi32(_mm256_unpacklo_epi64(t0, t2), perm),
        _mm256_permutevar8x32_epi32(_mm256_unpackhi_epi64(t0, t2), perm),
        _mm256_permutevar8x32_epi32(_mm256_unpacklo_epi64(t1, t3), perm),
        _mm256_permutevar8x32_epi32(_mm256_unpackhi_epi64(t1, t3), perm),
    };
    // Stage 2: peel bit planes. movemask reads bit 7 of every byte, so
    // vector b holds planes 8b+7 down to 8b (add_epi8 is a byte-wise
    // shift left). All sources are in registers before the first store.
    for (int b = 0; b < 4; ++b) {
        __m256i v = vecs[b];
        for (int t = 7; t >= 0; --t) {
            m[8 * b + t] = uint32_t(_mm256_movemask_epi8(v));
            v = _mm256_add_epi8(v, v);
        }
    }
}

namespace {

size_t
NonzeroScanAvx2(const std::byte* in, size_t n, std::byte* bitmap,
                std::byte* gathered)
{
    const __m256i zero = _mm256_setzero_si256();
    size_t count = 0;
    size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        const __m256i v =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + i));
        const uint32_t mask =
            ~uint32_t(_mm256_movemask_epi8(_mm256_cmpeq_epi8(v, zero)));
        std::memcpy(bitmap + i / 8, &mask, 4);
        if (mask != 0) count += GatherMasked32(in + i, mask, gathered + count);
    }
    if (i < n) count += NonzeroScanScalar(in + i, n - i, bitmap + i / 8,
                                          gathered + count);
    return count;
}

size_t
NonzeroScatterAvx2(const std::byte* bitmap, size_t n, const std::byte* src,
                   std::byte* dest)
{
    size_t next = 0;
    size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        uint32_t mask = LoadMask32(bitmap + i / 8);
        if (mask == 0) continue;
        if (mask == 0xffffffffu) {
            std::memcpy(dest + i, src + next, 32);
            next += 32;
            continue;
        }
        while (mask != 0) {
            dest[i + unsigned(std::countr_zero(mask))] = src[next++];
            mask &= mask - 1;
        }
    }
    if (i < n) next += NonzeroScatterScalar(bitmap + i / 8, n - i, src + next,
                                            dest + i);
    return next;
}

size_t
DiffScanAvx2(const std::byte* in, size_t n, std::byte* next, std::byte* kept)
{
    // Scalar head keeps the j == 0 special case out of the vector loop
    // and makes the in + j - 1 load below start in bounds; 8 bytes keeps
    // the bitmap byte-aligned for the vector stores.
    const size_t head = n < 8 ? n : 8;
    size_t count = DiffScanScalar(in, head, next, kept);
    size_t j = head;
    for (; j + 32 <= n; j += 32) {
        const __m256i cur =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + j));
        const __m256i prv =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + j - 1));
        const uint32_t mask =
            ~uint32_t(_mm256_movemask_epi8(_mm256_cmpeq_epi8(cur, prv)));
        std::memcpy(next + j / 8, &mask, 4);
        if (mask != 0) count += GatherMasked32(in + j, mask, kept + count);
    }
    for (; j < n; ++j) {
        if (in[j] != in[j - 1]) {
            next[j >> 3] |= std::byte(1u << (j & 7));
            kept[count++] = in[j];
        }
    }
    return count;
}

/** Bitmap byte for eight 64-bit predicate lanes: two 256-bit halves,
 *  each reduced to a 4-bit nonzero mask via cmpeq + movemask_pd. */
uint8_t
NonzeroQwordMask(__m256i lo, __m256i hi)
{
    const __m256i zero = _mm256_setzero_si256();
    const uint32_t zlo = uint32_t(
        _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(lo, zero))));
    const uint32_t zhi = uint32_t(
        _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(hi, zero))));
    return uint8_t((~zlo & 0xfu) | ((~zhi & 0xfu) << 4));
}

size_t
TopBitmap64Avx2(const std::byte* in, size_t nw, unsigned k, std::byte* bitmap)
{
    const int shift = int(64u - k);
    size_t count = 0;
    size_t i = 0;
    for (; i + 8 <= nw; i += 8) {
        const __m256i lo =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + i * 8));
        const __m256i hi = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(in + i * 8 + 32));
        const uint8_t bits = NonzeroQwordMask(_mm256_srli_epi64(lo, shift),
                                              _mm256_srli_epi64(hi, shift));
        bitmap[i >> 3] = std::byte(bits);
        count += size_t(std::popcount(bits));
    }
    if (i < nw) count += TopBitmap64Scalar(in + i * 8, nw - i, k,
                                           bitmap + i / 8);
    return count;
}

size_t
MatchBitmap64Avx2(const std::byte* in, size_t nw, unsigned k,
                  std::byte* bitmap)
{
    // First eight words scalar: gives the vector loop a valid word at
    // i - 1 and keeps its bitmap stores byte-aligned.
    const size_t head = nw < 8 ? nw : 8;
    size_t count = MatchBitmap64Scalar(in, head, k, bitmap);
    const int shift = int(64u - k);
    size_t i = head;
    for (; i + 8 <= nw; i += 8) {
        const __m256i lo =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + i * 8));
        const __m256i hi = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(in + i * 8 + 32));
        const __m256i plo = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(in + i * 8 - 8));
        const __m256i phi = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(in + i * 8 + 24));
        const uint8_t bits = NonzeroQwordMask(
            _mm256_srli_epi64(_mm256_xor_si256(lo, plo), shift),
            _mm256_srli_epi64(_mm256_xor_si256(hi, phi), shift));
        bitmap[i >> 3] = std::byte(bits);
        count += size_t(std::popcount(bits));
    }
    for (; i < nw; ++i) {
        uint64_t v;
        uint64_t p;
        std::memcpy(&v, in + i * 8, 8);
        std::memcpy(&p, in + i * 8 - 8, 8);
        if (((v ^ p) >> unsigned(shift)) != 0) {
            bitmap[i >> 3] |= std::byte(1u << (i & 7));
            ++count;
        }
    }
    return count;
}

/** 64x64 -> low 64 multiply per lane (AVX2 has no vpmullq): decompose
 *  into 32-bit partial products. */
__m256i
MulLo64(__m256i a, __m256i b)
{
    const __m256i cross = _mm256_add_epi64(
        _mm256_mul_epu32(a, _mm256_srli_epi64(b, 32)),
        _mm256_mul_epu32(_mm256_srli_epi64(a, 32), b));
    return _mm256_add_epi64(_mm256_mul_epu32(a, b),
                            _mm256_slli_epi64(cross, 32));
}

__m256i
Mix64Avx2(__m256i x)
{
    x = _mm256_add_epi64(x, _mm256_set1_epi64x(0x9e3779b97f4a7c15ll));
    x = MulLo64(_mm256_xor_si256(x, _mm256_srli_epi64(x, 30)),
                _mm256_set1_epi64x(int64_t(0xbf58476d1ce4e5b9ull)));
    x = MulLo64(_mm256_xor_si256(x, _mm256_srli_epi64(x, 27)),
                _mm256_set1_epi64x(int64_t(0x94d049bb133111ebull)));
    return _mm256_xor_si256(x, _mm256_srli_epi64(x, 31));
}

__m256i
HashCombineAvx2(__m256i h, __m256i v)
{
    __m256i t = _mm256_add_epi64(v, _mm256_set1_epi64x(0x9e3779b97f4a7c15ll));
    t = _mm256_add_epi64(t, _mm256_slli_epi64(h, 6));
    t = _mm256_add_epi64(t, _mm256_srli_epi64(h, 2));
    return Mix64Avx2(_mm256_xor_si256(h, t));
}

void
FcmHashAvx2(const std::byte* values, size_t n, uint64_t* hashes)
{
    size_t i = 0;
    // First three lanes read zero-padded history; keep them scalar so
    // the vector loop's values + i - 3 loads start in bounds.
    for (; i < n && i < 3; ++i) {
        hashes[i] = FcmContextHash(i >= 1 ? Word64At(values, i - 1) : 0,
                                   i >= 2 ? Word64At(values, i - 2) : 0, 0);
    }
    for (; i + 4 <= n; i += 4) {
        const __m256i v1 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(values + (i - 1) * 8));
        const __m256i v2 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(values + (i - 2) * 8));
        const __m256i v3 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(values + (i - 3) * 8));
        const __m256i h =
            HashCombineAvx2(HashCombineAvx2(Mix64Avx2(v1), v2), v3);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(hashes + i), h);
    }
    for (; i < n; ++i) {
        hashes[i] = FcmContextHash(Word64At(values, i - 1),
                                   Word64At(values, i - 2),
                                   Word64At(values, i - 3));
    }
}

void
ZigzagScan32Avx2(const std::byte* in, size_t n, std::byte* out)
{
    const __m256i zero = _mm256_setzero_si256();
    const __m256i one = _mm256_set1_epi32(1);
    const __m256i last = _mm256_set1_epi32(7);
    __m256i carry = zero;
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256i z =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + i * 4));
        __m256i x = _mm256_xor_si256(
            _mm256_srli_epi32(z, 1),
            _mm256_sub_epi32(zero, _mm256_and_si256(z, one)));
        // Scan each 128-bit half with byte shifts, then add the low
        // half's last lane (broadcast by pshufd, moved up by vperm2i128
        // with the low half zeroed) into the high half.
        x = _mm256_add_epi32(x, _mm256_slli_si256(x, 4));
        x = _mm256_add_epi32(x, _mm256_slli_si256(x, 8));
        const __m256i low3 = _mm256_shuffle_epi32(x, 0xff);
        x = _mm256_add_epi32(x, _mm256_permute2x128_si256(low3, low3, 0x08));
        // One add per vector on the carried lane's chain (see the
        // AVX-512 twin).
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i * 4),
                            _mm256_add_epi32(x, carry));
        carry = _mm256_add_epi32(carry, _mm256_permutevar8x32_epi32(x, last));
    }
    ZigzagScanTail<uint32_t>(in, i, n, out);
}

void
ZigzagScan64Avx2(const std::byte* in, size_t n, std::byte* out)
{
    const __m256i zero = _mm256_setzero_si256();
    const __m256i one = _mm256_set1_epi64x(1);
    __m256i carry = zero;
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i z =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + i * 8));
        __m256i x = _mm256_xor_si256(
            _mm256_srli_epi64(z, 1),
            _mm256_sub_epi64(zero, _mm256_and_si256(z, one)));
        x = _mm256_add_epi64(x, _mm256_slli_si256(x, 8));
        // Lane 1 (the low half's sum) into lanes 2 and 3.
        x = _mm256_add_epi64(
            x, _mm256_blend_epi32(zero, _mm256_permute4x64_epi64(x, 0x55),
                                  0xf0));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i * 8),
                            _mm256_add_epi64(x, carry));
        carry = _mm256_add_epi64(carry, _mm256_permute4x64_epi64(x, 0xff));
    }
    ZigzagScanTail<uint64_t>(in, i, n, out);
}

}  // namespace

}  // namespace fpc::simd::detail

namespace fpc::simd {

const KernelTable&
Avx2Kernels()
{
    static const KernelTable table = {
        detail::TransposeAvx2,        detail::NonzeroScanAvx2,
        detail::NonzeroScatterAvx2,   detail::DiffScanAvx2,
        detail::DiffExpandScalar,     detail::TopBitmap64Avx2,
        detail::MatchBitmap64Avx2,    detail::FcmHashAvx2,
        detail::ZigzagScan32Avx2,     detail::ZigzagScan64Avx2,
    };
    return table;
}

}  // namespace fpc::simd
