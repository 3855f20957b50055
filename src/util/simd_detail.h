/**
 * @file
 * Internal declarations shared between the SIMD kernel translation
 * units (simd_scalar.cc, simd_avx2.cc, simd_avx512.cc, simd.cc). Not
 * part of the library API — include util/simd.h instead.
 *
 * Each ISA table may mix natively vectorized entries with scalar ones:
 * a stage that is already memory-bound in scalar form (diff_expand)
 * shares one implementation across every level, and the AVX-512 table
 * reuses the AVX2 transpose (the 32x32 block fits 256-bit registers
 * exactly; a 512-bit variant would need VBMI for no measured gain).
 */
#ifndef FPC_UTIL_SIMD_DETAIL_H
#define FPC_UTIL_SIMD_DETAIL_H

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "util/bitpack.h"

namespace fpc::simd::detail {

/** Unaligned little-endian 64-bit word @p i of @p p. */
inline uint64_t
Word64At(const std::byte* p, size_t i)
{
    uint64_t v;
    std::memcpy(&v, p + i * 8, 8);
    return v;
}

/** Finish a DIFFMS decode scan from word @p i on: the whole scalar
 *  reference (i = 0), and every vector kernel's tail after its last
 *  full vector, which reads the running sum back from out[i - 1]. */
template <typename T>
inline void
ZigzagScanTail(const std::byte* in, size_t i, size_t n, std::byte* out)
{
    T sum = 0;
    if (i != 0) std::memcpy(&sum, out + (i - 1) * sizeof(T), sizeof(T));
    for (; i < n; ++i) {
        T z;
        std::memcpy(&z, in + i * sizeof(T), sizeof(T));
        sum = static_cast<T>(sum + ZigzagDecode(z));  // modulo 2^w
        std::memcpy(out + i * sizeof(T), &sum, sizeof(T));
    }
}

// Reference kernels (simd_scalar.cc) — the semantics every vector
// kernel must reproduce byte for byte.
void TransposeScalar(uint32_t m[32]);
size_t NonzeroScanScalar(const std::byte* in, size_t n, std::byte* bitmap,
                         std::byte* gathered);
size_t NonzeroScatterScalar(const std::byte* bitmap, size_t n,
                            const std::byte* src, std::byte* dest);
size_t DiffScanScalar(const std::byte* in, size_t n, std::byte* next,
                      std::byte* kept);
size_t DiffExpandScalar(const std::byte* bits, size_t n,
                        const std::byte* kept, std::byte* dest);
size_t TopBitmap64Scalar(const std::byte* in, size_t nw, unsigned k,
                         std::byte* bitmap);
size_t MatchBitmap64Scalar(const std::byte* in, size_t nw, unsigned k,
                           std::byte* bitmap);
void FcmHashScalar(const std::byte* values, size_t n, uint64_t* hashes);
void ZigzagScan32Scalar(const std::byte* in, size_t n, std::byte* out);
void ZigzagScan64Scalar(const std::byte* in, size_t n, std::byte* out);

// AVX2 entries reused by the AVX-512 table (simd_avx2.cc is always
// compiled when simd_avx512.cc is; see src/CMakeLists.txt).
#if FPC_SIMD_AVX2
void TransposeAvx2(uint32_t m[32]);
#endif

}  // namespace fpc::simd::detail

#endif  // FPC_UTIL_SIMD_DETAIL_H
