/**
 * @file
 * AVX-512 kernel table. Compiled with the F/BW/VL/DQ/VBMI2/VPOPCNTDQ
 * flag set (src/CMakeLists.txt) and only entered through
 * Kernels(kAvx512) after the matching runtime checks in
 * util/cpu_features.cc.
 *
 * The mask registers make these kernels branch-free where the AVX2
 * versions fall back to bit loops: compress-store gathers the selected
 * bytes in one instruction (VBMI2), expand-load inverts it on decode
 * with per-element fault suppression, and predicate bitmaps come
 * straight out of compare masks. The DIFFMS decode scans run a log-step
 * prefix sum inside one register (valign shifts in zero lanes) and carry
 * the last lane into the next vector.
 */
#include <immintrin.h>

#include <bit>
#include <cstring>

// GCC's AVX-512 headers seed temporaries with "__Y = __Y"
// (_mm512_undefined_epi32), tripping -Wmaybe-uninitialized at -O2 —
// a known false positive (GCC PR 105593).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#include "util/hash.h"
#include "util/simd.h"
#include "util/simd_detail.h"

namespace fpc::simd::detail {

namespace {

uint64_t
LoadMask64(const std::byte* p)
{
    uint64_t m;
    std::memcpy(&m, p, 8);
    return m;
}

size_t
NonzeroScanAvx512(const std::byte* in, size_t n, std::byte* bitmap,
                  std::byte* gathered)
{
    size_t count = 0;
    size_t i = 0;
    for (; i + 64 <= n; i += 64) {
        const __m512i v = _mm512_loadu_si512(in + i);
        const __mmask64 m = _mm512_test_epi8_mask(v, v);
        const uint64_t bits = _cvtmask64_u64(m);
        std::memcpy(bitmap + i / 8, &bits, 8);
        _mm512_mask_compressstoreu_epi8(gathered + count, m, v);
        count += size_t(std::popcount(bits));
    }
    if (i < n) count += NonzeroScanScalar(in + i, n - i, bitmap + i / 8,
                                          gathered + count);
    return count;
}

size_t
NonzeroScatterAvx512(const std::byte* bitmap, size_t n, const std::byte* src,
                     std::byte* dest)
{
    size_t next = 0;
    size_t i = 0;
    for (; i + 64 <= n; i += 64) {
        const uint64_t bits = LoadMask64(bitmap + i / 8);
        if (bits == 0) continue;
        const __mmask64 m = _cvtu64_mask64(bits);
        // Expand-load reads exactly popcount(bits) bytes (masked-off
        // elements are fault-suppressed), which the caller has verified
        // are present.
        const __m512i v = _mm512_maskz_expandloadu_epi8(m, src + next);
        _mm512_mask_storeu_epi8(dest + i, m, v);
        next += size_t(std::popcount(bits));
    }
    if (i < n) next += NonzeroScatterScalar(bitmap + i / 8, n - i, src + next,
                                            dest + i);
    return next;
}

size_t
DiffScanAvx512(const std::byte* in, size_t n, std::byte* next,
               std::byte* kept)
{
    // Scalar head as in the AVX2 twin: handles j == 0 and keeps the
    // unaligned in + j - 1 load in bounds.
    const size_t head = n < 8 ? n : 8;
    size_t count = DiffScanScalar(in, head, next, kept);
    size_t j = head;
    for (; j + 64 <= n; j += 64) {
        const __m512i cur = _mm512_loadu_si512(in + j);
        const __m512i prv = _mm512_loadu_si512(in + j - 1);
        const __mmask64 m = _mm512_cmpneq_epi8_mask(cur, prv);
        const uint64_t bits = _cvtmask64_u64(m);
        std::memcpy(next + j / 8, &bits, 8);
        _mm512_mask_compressstoreu_epi8(kept + count, m, cur);
        count += size_t(std::popcount(bits));
    }
    for (; j < n; ++j) {
        if (in[j] != in[j - 1]) {
            next[j >> 3] |= std::byte(1u << (j & 7));
            kept[count++] = in[j];
        }
    }
    return count;
}

size_t
TopBitmap64Avx512(const std::byte* in, size_t nw, unsigned k,
                  std::byte* bitmap)
{
    const unsigned shift = 64u - k;
    size_t count = 0;
    size_t i = 0;
    for (; i + 8 <= nw; i += 8) {
        const __m512i v = _mm512_loadu_si512(in + i * 8);
        const __m512i top = _mm512_srli_epi64(v, shift);
        const uint8_t bits = _cvtmask8_u32(_mm512_test_epi64_mask(top, top));
        bitmap[i >> 3] = std::byte(bits);
        count += size_t(std::popcount(bits));
    }
    if (i < nw) count += TopBitmap64Scalar(in + i * 8, nw - i, k,
                                           bitmap + i / 8);
    return count;
}

size_t
MatchBitmap64Avx512(const std::byte* in, size_t nw, unsigned k,
                    std::byte* bitmap)
{
    const size_t head = nw < 8 ? nw : 8;
    size_t count = MatchBitmap64Scalar(in, head, k, bitmap);
    const unsigned shift = 64u - k;
    size_t i = head;
    for (; i + 8 <= nw; i += 8) {
        const __m512i v = _mm512_loadu_si512(in + i * 8);
        const __m512i p = _mm512_loadu_si512(in + i * 8 - 8);
        const __m512i top = _mm512_srli_epi64(_mm512_xor_si512(v, p), shift);
        const uint8_t bits = _cvtmask8_u32(_mm512_test_epi64_mask(top, top));
        bitmap[i >> 3] = std::byte(bits);
        count += size_t(std::popcount(bits));
    }
    for (; i < nw; ++i) {
        uint64_t v;
        uint64_t p;
        std::memcpy(&v, in + i * 8, 8);
        std::memcpy(&p, in + i * 8 - 8, 8);
        if (((v ^ p) >> shift) != 0) {
            bitmap[i >> 3] |= std::byte(1u << (i & 7));
            ++count;
        }
    }
    return count;
}

__m512i
Mix64Avx512(__m512i x)
{
    x = _mm512_add_epi64(x, _mm512_set1_epi64(0x9e3779b97f4a7c15ll));
    x = _mm512_mullo_epi64(_mm512_xor_si512(x, _mm512_srli_epi64(x, 30)),
                           _mm512_set1_epi64(int64_t(0xbf58476d1ce4e5b9ull)));
    x = _mm512_mullo_epi64(_mm512_xor_si512(x, _mm512_srli_epi64(x, 27)),
                           _mm512_set1_epi64(int64_t(0x94d049bb133111ebull)));
    return _mm512_xor_si512(x, _mm512_srli_epi64(x, 31));
}

__m512i
HashCombineAvx512(__m512i h, __m512i v)
{
    __m512i t = _mm512_add_epi64(v, _mm512_set1_epi64(0x9e3779b97f4a7c15ll));
    t = _mm512_add_epi64(t, _mm512_slli_epi64(h, 6));
    t = _mm512_add_epi64(t, _mm512_srli_epi64(h, 2));
    return Mix64Avx512(_mm512_xor_si512(h, t));
}

void
FcmHashAvx512(const std::byte* values, size_t n, uint64_t* hashes)
{
    size_t i = 0;
    for (; i < n && i < 3; ++i) {
        hashes[i] = FcmContextHash(i >= 1 ? Word64At(values, i - 1) : 0,
                                   i >= 2 ? Word64At(values, i - 2) : 0, 0);
    }
    for (; i + 8 <= n; i += 8) {
        const __m512i v1 = _mm512_loadu_si512(values + (i - 1) * 8);
        const __m512i v2 = _mm512_loadu_si512(values + (i - 2) * 8);
        const __m512i v3 = _mm512_loadu_si512(values + (i - 3) * 8);
        const __m512i h =
            HashCombineAvx512(HashCombineAvx512(Mix64Avx512(v1), v2), v3);
        _mm512_storeu_si512(hashes + i, h);
    }
    for (; i < n; ++i) {
        hashes[i] = FcmContextHash(Word64At(values, i - 1),
                                   Word64At(values, i - 2),
                                   Word64At(values, i - 3));
    }
}

void
ZigzagScan32Avx512(const std::byte* in, size_t n, std::byte* out)
{
    const __m512i zero = _mm512_setzero_si512();
    const __m512i one = _mm512_set1_epi32(1);
    const __m512i ones = _mm512_set1_epi32(-1);
    const __m512i last = _mm512_set1_epi32(15);
    __m512i carry = zero;
    size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        // Zigzag decode: z >> 1, complemented where z is odd (the
        // complement is a masked xor, sparing the negate).
        const __m512i z = _mm512_loadu_si512(in + i * 4);
        const __m512i half = _mm512_srli_epi32(z, 1);
        __m512i x = _mm512_mask_xor_epi32(
            half, _mm512_test_epi32_mask(z, one), half, ones);
        // alignr(x, 0, 16 - k) moves every lane up by k, zero-filling.
        x = _mm512_add_epi32(x, _mm512_alignr_epi32(x, zero, 15));
        x = _mm512_add_epi32(x, _mm512_alignr_epi32(x, zero, 14));
        x = _mm512_add_epi32(x, _mm512_alignr_epi32(x, zero, 12));
        x = _mm512_add_epi32(x, _mm512_alignr_epi32(x, zero, 8));
        // The carried lane's chain is one add per vector: the block
        // total is broadcast from the local scan, not from the result.
        _mm512_storeu_si512(out + i * 4, _mm512_add_epi32(x, carry));
        carry = _mm512_add_epi32(carry, _mm512_permutexvar_epi32(last, x));
    }
    ZigzagScanTail<uint32_t>(in, i, n, out);
}

void
ZigzagScan64Avx512(const std::byte* in, size_t n, std::byte* out)
{
    const __m512i zero = _mm512_setzero_si512();
    const __m512i one = _mm512_set1_epi64(1);
    const __m512i ones = _mm512_set1_epi64(-1);
    const __m512i last = _mm512_set1_epi64(7);
    __m512i carry = zero;
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m512i z = _mm512_loadu_si512(in + i * 8);
        const __m512i half = _mm512_srli_epi64(z, 1);
        __m512i x = _mm512_mask_xor_epi64(
            half, _mm512_test_epi64_mask(z, one), half, ones);
        x = _mm512_add_epi64(x, _mm512_alignr_epi64(x, zero, 7));
        x = _mm512_add_epi64(x, _mm512_alignr_epi64(x, zero, 6));
        x = _mm512_add_epi64(x, _mm512_alignr_epi64(x, zero, 4));
        _mm512_storeu_si512(out + i * 8, _mm512_add_epi64(x, carry));
        carry = _mm512_add_epi64(carry, _mm512_permutexvar_epi64(last, x));
    }
    ZigzagScanTail<uint64_t>(in, i, n, out);
}

}  // namespace

}  // namespace fpc::simd::detail

namespace fpc::simd {

const KernelTable&
Avx512Kernels()
{
    static const KernelTable table = {
        detail::TransposeAvx2,         detail::NonzeroScanAvx512,
        detail::NonzeroScatterAvx512,  detail::DiffScanAvx512,
        detail::DiffExpandScalar,      detail::TopBitmap64Avx512,
        detail::MatchBitmap64Avx512,   detail::FcmHashAvx512,
        detail::ZigzagScan32Avx512,    detail::ZigzagScan64Avx512,
    };
    return table;
}

}  // namespace fpc::simd
