/**
 * @file
 * The SIMD kernel layer: one function-pointer table per ISA level for
 * the hot inner loops of the ratio-pipeline transforms (BIT transpose,
 * RZE byte scan/scatter, bitmap-codec diff scan/expand, RAZE/RARE
 * predicate bitmaps, FCM context hashing, DIFFMS decode scans).
 *
 * Contract (see DESIGN.md "SIMD kernel layer"):
 *  - Every kernel is a drop-in replacement for its scalar twin in
 *    ScalarKernels(): same outputs, byte for byte, for every input. The
 *    wire format is pinned by the scalar semantics; vector kernels are
 *    pure throughput.
 *  - Kernels never validate: callers pre-size and pre-validate every
 *    destination (decode-side counts are checked against the payload
 *    before a kernel touches it), so kernels are branch-light loops over
 *    trusted extents.
 *  - Kernels are stateless and thread-safe; tables are static const.
 *
 * Dispatch: transforms fetch the table once per stage call via
 * Kernels(scratch.KernelIsa()). The arena level defaults to
 * simd::DefaultIsa() (util/cpu_features.h) and is overridden per call by
 * Options::with_isa through the executors, so one binary serves plain
 * x86-64 and AVX-512 machines with the same pinned output bytes.
 *
 * Adding a kernel: add the pointer here, the reference implementation in
 * simd_scalar.cc, optional overrides in simd_avx2.cc / simd_avx512.cc
 * (unset entries inherit the scalar pointer in simd.cc), and an
 * equivalence case in tests/simd_test.cc.
 */
#ifndef FPC_UTIL_SIMD_H
#define FPC_UTIL_SIMD_H

#include <cstddef>
#include <cstdint>

#include "util/cpu_features.h"

namespace fpc::simd {

struct KernelTable {
    /** In-place 32x32 bit-matrix transpose; identical mapping to
     *  fpc::Transpose32x32 (util/bitpack.h). Both BIT32 encode and
     *  decode fast paths run on it (the transpose is an involution). */
    void (*transpose32x32)(uint32_t m[32]);

    /**
     * RZE encode scan: set bit i of @p bitmap for every non-zero
     * @p in[i] and gather those bytes into @p gathered (caller sized to
     * >= n); returns the gathered count. @p bitmap is pre-zeroed and
     * holds ceil(n / 8) bytes.
     */
    size_t (*nonzero_scan)(const std::byte* in, size_t n,
                           std::byte* bitmap, std::byte* gathered);

    /**
     * RZE decode scatter: distribute @p src over the set bits of
     * @p bitmap into pre-zeroed @p dest (n bytes); returns the bytes
     * consumed from @p src. The caller has already verified that @p src
     * holds at least popcount(bitmap[0..n)) bytes.
     */
    size_t (*nonzero_scatter)(const std::byte* bitmap, size_t n,
                              const std::byte* src, std::byte* dest);

    /**
     * Bitmap-codec compress pass: over @p in[0..n), set bit j of
     * @p next (pre-zeroed, ceil(n/8) bytes) iff j == 0 or
     * in[j] != in[j-1], gathering those survivor bytes into @p kept
     * (caller sized to >= n); returns the survivor count.
     */
    size_t (*diff_scan)(const std::byte* in, size_t n, std::byte* next,
                        std::byte* kept);

    /**
     * Bitmap-codec expand pass (inverse of diff_scan): dest[j] takes the
     * next @p kept byte where bit j of @p bits is set, else repeats
     * dest[j-1] (a clear bit 0 yields 0x00). The caller has already
     * verified that @p kept holds popcount(bits[0..n)) bytes; returns
     * the count consumed.
     */
    size_t (*diff_expand)(const std::byte* bits, size_t n,
                          const std::byte* kept, std::byte* dest);

    /**
     * RAZE predicate bitmap over @p nw unaligned little-endian 64-bit
     * words: set bit i iff word i's top @p k bits are not all zero
     * (k in [1, 64]); returns the set-bit count. @p bitmap pre-zeroed.
     */
    size_t (*top_bitmap64)(const std::byte* in, size_t nw, unsigned k,
                           std::byte* bitmap);

    /**
     * RARE predicate bitmap: set bit i iff word i's top @p k bits differ
     * from word i-1's (word -1 reads as zero; k in [1, 64]); returns the
     * set-bit count. @p bitmap pre-zeroed.
     */
    size_t (*match_bitmap64)(const std::byte* in, size_t nw, unsigned k,
                             std::byte* bitmap);

    /**
     * FCM context hashes over @p n unaligned little-endian 64-bit words
     * at @p values: hashes[i] = FcmContextHash(v[i-1], v[i-2], v[i-3])
     * with out-of-range predecessors read as zero (util/hash.h).
     */
    void (*fcm_hash)(const std::byte* values, size_t n, uint64_t* hashes);

    /**
     * DIFFMS decode over @p n unaligned little-endian 32-bit words:
     * out[i] = out[i-1] + ZigzagDecode(in[i]) mod 2^32, with out[-1]
     * read as zero — a zigzag decode followed by an inclusive prefix sum
     * (util/bitpack.h). @p in and @p out do not overlap.
     */
    void (*zigzag_scan32)(const std::byte* in, size_t n, std::byte* out);

    /** zigzag_scan32 over 64-bit words, mod 2^64. */
    void (*zigzag_scan64)(const std::byte* in, size_t n, std::byte* out);
};

/** The portable reference table (always available). */
const KernelTable& ScalarKernels();

/** Table for @p isa; levels not compiled in or not supported fall back
 *  to the scalar table, so calling with any enum value is safe. */
const KernelTable& Kernels(Isa isa);

/** Word-wise popcount of the first @p nbits bits of @p bitmap (the
 *  trailing padding bits of the last byte are masked off). Scalar on
 *  every ISA level — std::popcount over 64-bit loads is already
 *  memory-bound. */
size_t PopcountBits(const std::byte* bitmap, size_t nbits);

}  // namespace fpc::simd

#endif  // FPC_UTIL_SIMD_H
