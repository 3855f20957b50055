/**
 * @file
 * BIT (paper Section 3.2, Figure 4): bit-plane transposition. All the most
 * significant bits of the chunk's words are grouped together, then the
 * next bits, and so on (MSB plane first). After DIFFMS the high planes are
 * almost entirely zero, producing the long zero-byte runs that RZE removes.
 *
 * The planes are packed back-to-back into a single bit stream (no
 * per-plane padding), so the payload occupies exactly the same number of
 * whole-word bytes as the input.
 *
 * The 32-bit path transposes 32x32 blocks between the input span and the
 * output buffer — the same decomposition the GPU kernels use per warp.
 * Encode: when the word count is a multiple of 32 the plane rows are
 * word-aligned and the transposed words store directly; otherwise (the
 * pipeline norm: DIFFMS prepends an 8-byte header) a sequential bit sink
 * emits the rows at their unaligned bit offsets, and inputs under 32
 * words use a bit-granular fallback producing the identical layout.
 * Decode has one path for every word count: each plane row's bit phase
 * is fixed, so every plane word is one unaligned load and a shift
 * (BitDecodeGather32). The 64-bit path is bit-granular both ways; its
 * decode stages through the arena's word scratch because it ORs bits
 * into words incrementally.
 */
#include "transforms/transforms.h"

#include "util/bitio.h"
#include "util/bitpack.h"
#include "util/simd.h"

namespace fpc::tf {

namespace {

template <typename T>
void
BitEncodeSlow(ByteSpan in, size_t nw, std::byte* packed)
{
    constexpr unsigned kWordBits = sizeof(T) * 8;
    RawBitSink bw(packed);
    for (unsigned plane = 0; plane < kWordBits; ++plane) {
        const unsigned shift = kWordBits - 1 - plane;  // MSB plane first
        size_t i = 0;
        // Build whole bytes from 8 words at a time.
        for (; i + 8 <= nw; i += 8) {
            uint64_t byte = 0;
            for (unsigned j = 0; j < 8; ++j) {
                byte |= ((static_cast<uint64_t>(WordAt<T>(in, i + j)) >>
                          shift) &
                         1u)
                        << j;
            }
            bw.Put(byte, 8);
        }
        for (; i < nw; ++i) {
            bw.Put((WordAt<T>(in, i) >> shift) & 1u, 1);
        }
    }
    bw.Finish();
}

/** 32-bit fast path: block transposes + aligned 32-bit plane stores. */
void
BitEncodeFast32(ByteSpan in, size_t nw, std::byte* planes,
                const simd::KernelTable& kernels)
{
    const size_t groups = nw / 32;
    // Plane p occupies words [p * groups, (p+1) * groups) of the output:
    // bit index p*nw + g*32 is word p*groups + g for nw % 32 == 0.
    for (size_t g = 0; g < groups; ++g) {
        uint32_t block[32];
        std::memcpy(block, in.data() + g * 32 * sizeof(uint32_t),
                    sizeof(block));
        kernels.transpose32x32(block);
        for (unsigned j = 0; j < 32; ++j) {
            const unsigned p = 31 - j;  // MSB plane first
            std::memcpy(planes + (p * groups + g) * sizeof(uint32_t),
                        &block[j], sizeof(uint32_t));
        }
    }
}

/**
 * 32-bit blocked path for any word count (the pipeline's usual shape:
 * DIFFMS prepends an 8-byte header, so BIT sees nw % 32 == 2). Plane
 * rows are not word-aligned here, so the encode runs in two passes:
 * first every whole 32-word block is transposed into the arena's word
 * scratch, then a single sequential bit sink emits plane after plane —
 * 32 bits per block plus the <32 leftover words bit by bit — exactly
 * the stream BitEncodeSlow produces (stream bit p * nw + i is word i's
 * bit 31 - p in both). Splicing each plane word in place at its
 * unaligned offset would be read-modify-write on bytes the previous
 * block just stored; the sequential sink keeps the carry in a register
 * instead.
 */
void
BitEncodeBlocked32(ByteSpan in, size_t nw, std::byte* planes,
                   ScratchArena& scratch)
{
    const simd::KernelTable& kernels = simd::Kernels(scratch.KernelIsa());
    const size_t blocks = nw / 32;
    std::vector<uint32_t>& tr = scratch.Words<uint32_t>();
    tr.resize(blocks * 32);
    for (size_t g = 0; g < blocks; ++g) {
        uint32_t block[32];
        std::memcpy(block, in.data() + g * 32 * sizeof(uint32_t),
                    sizeof(block));
        kernels.transpose32x32(block);
        std::memcpy(tr.data() + g * 32, block, sizeof(block));
    }
    RawBitSink bw(planes);
    for (unsigned p = 0; p < 32; ++p) {
        const unsigned j = 31 - p;  // MSB plane first
        for (size_t g = 0; g < blocks; ++g) {
            bw.Put(tr[g * 32 + j], 32);
        }
        for (size_t i = blocks * 32; i < nw; ++i) {
            bw.Put((WordAt<uint32_t>(in, i) >> j) & 1u, 1);
        }
    }
    bw.Finish();
}

template <typename T>
void
BitEncodeImpl(ByteSpan in, Bytes& out, ScratchArena& scratch)
{
    constexpr unsigned kWordBits = sizeof(T) * 8;
    const size_t nw = in.size() / sizeof(T);
    const size_t packed_bytes = (nw * kWordBits + 7) / 8;
    const size_t tail = in.size() - nw * sizeof(T);

    const size_t base = out.size();
    out.resize(base + sizeof(uint64_t) + packed_bytes + tail);
    const uint64_t size64 = in.size();
    std::memcpy(out.data() + base, &size64, sizeof(size64));
    std::byte* packed = out.data() + base + sizeof(uint64_t);

    if constexpr (sizeof(T) == 4) {
        if (nw > 0 && nw % 32 == 0) {
            BitEncodeFast32(in, nw, packed,
                            simd::Kernels(scratch.KernelIsa()));
        } else if (nw >= 32) {
            BitEncodeBlocked32(in, nw, packed, scratch);
        } else {
            BitEncodeSlow<T>(in, nw, packed);
        }
    } else {
        (void)scratch;  // the 64-bit path has no vectorized kernel yet
        BitEncodeSlow<T>(in, nw, packed);
    }
    if (tail != 0) {
        std::memcpy(packed + packed_bytes, in.data() + nw * sizeof(T), tail);
    }
}

void
BitDecodeSlow64(ByteSpan packed, size_t nw, std::byte* dest,
                ScratchArena& scratch)
{
    constexpr unsigned kWordBits = 64;
    std::vector<uint64_t>& words = scratch.Words<uint64_t>();
    words.assign(nw, 0);
    BitReader bits(packed);
    for (unsigned plane = 0; plane < kWordBits; ++plane) {
        const unsigned shift = kWordBits - 1 - plane;
        size_t i = 0;
        for (; i + 8 <= nw; i += 8) {
            uint64_t byte = bits.Get(8);
            for (unsigned j = 0; j < 8; ++j) {
                words[i + j] |= ((byte >> j) & 1u) << shift;
            }
        }
        for (; i < nw; ++i) {
            if (bits.GetBit()) words[i] |= uint64_t{1} << shift;
        }
    }
    if (nw != 0) std::memcpy(dest, words.data(), nw * sizeof(uint64_t));
}

/** The 8 stream bytes at @p byte, zero-filled past @p size. */
uint64_t
LoadClamped(const std::byte* src, size_t size, size_t byte)
{
    uint64_t w = 0;
    if (byte < size) {
        std::memcpy(&w, src + byte, std::min<size_t>(8, size - byte));
    }
    return w;
}

/**
 * 32-bit decode for any word count, the inverse of both encode paths.
 * Plane p (MSB first) starts at stream bit p * nw, so block g's word of
 * plane p starts at bit p * nw + 32 g: byte (p * nw) / 8 + 4 g, at a bit
 * phase (p * nw) % 8 fixed for the whole plane. Each plane word is one
 * unaligned 64-bit load and a shift; a block's 32 words are then
 * transposed back out. The caller has validated packed.size() == 4 nw,
 * so only the loads of the last block or two can run past the stream;
 * those go through LoadClamped.
 */
void
BitDecodeGather32(ByteSpan packed, size_t nw, std::byte* dest,
                  const simd::KernelTable& kernels)
{
    const std::byte* src = packed.data();
    const size_t size = packed.size();
    const size_t blocks = nw / 32;
    size_t at[32];
    unsigned phase[32];
    for (unsigned j = 0; j < 32; ++j) {
        const size_t bit = size_t{31 - j} * nw;  // plane 31 - j
        at[j] = bit / 8;
        phase[j] = unsigned(bit % 8);
    }
    // at[0] (plane 31) is the furthest row: blocks below `safe` keep every
    // 8-byte load inside the stream.
    const size_t safe =
        size >= at[0] + 8 ? std::min(blocks, (size - at[0] - 8) / 4 + 1) : 0;
    uint32_t block[32];
    size_t g = 0;
    for (; g < safe; ++g) {
        for (unsigned j = 0; j < 32; ++j) {
            uint64_t w;
            std::memcpy(&w, src + at[j] + 4 * g, 8);
            block[j] = uint32_t(w >> phase[j]);
        }
        kernels.transpose32x32(block);
        std::memcpy(dest + g * 128, block, sizeof(block));
    }
    // The rest, and the partial block of nw % 32 words, whose plane rows
    // are masked to their width.
    for (; g * 32 < nw; ++g) {
        const size_t words = std::min<size_t>(32, nw - g * 32);
        const uint32_t mask = words == 32 ? ~0u : (1u << words) - 1;
        for (unsigned j = 0; j < 32; ++j) {
            block[j] = uint32_t(LoadClamped(src, size, at[j] + 4 * g) >>
                                phase[j]) &
                       mask;
        }
        kernels.transpose32x32(block);
        std::memcpy(dest + g * 128, block, words * sizeof(uint32_t));
    }
}

template <typename T>
void
BitDecodeImpl(ByteSpan in, Bytes& out, ScratchArena& scratch)
{
    constexpr unsigned kWordBits = sizeof(T) * 8;
    constexpr const char* kStage = "BIT";
    ByteReader br(in, kStage);
    const size_t orig_size = br.Get<uint64_t>();
    // BIT encode emits exactly 8 + orig_size bytes (packed planes plus the
    // verbatim tail); validating that and the decode budget up front keeps
    // a corrupt orig_size from wrapping the nw * kWordBits product below or
    // sizing the output resize.
    FPC_PARSE_CHECK_AT(br.Remaining() == orig_size, "BIT size mismatch",
                       kStage, 0);
    FPC_PARSE_CHECK_AT(orig_size <= scratch.DecodeBudget(),
                       "BIT declared size exceeds decode budget", kStage, 0);
    const size_t nw = orig_size / sizeof(T);
    ByteSpan packed = br.GetBytes((nw * kWordBits + 7) / 8);
    ByteSpan tail = br.Rest();
    FPC_PARSE_CHECK_AT(tail.size() == orig_size - nw * sizeof(T),
                       "BIT tail size mismatch", kStage, br.Pos());

    const size_t base = out.size();
    out.resize(base + orig_size);
    std::byte* dest = out.data() + base;

    if constexpr (sizeof(T) == 4) {
        BitDecodeGather32(packed, nw, dest,
                          simd::Kernels(scratch.KernelIsa()));
    } else {
        BitDecodeSlow64(packed, nw, dest, scratch);
    }
    if (!tail.empty()) {
        std::memcpy(dest + nw * sizeof(T), tail.data(), tail.size());
    }
}

}  // namespace

void BitEncode32(ByteSpan in, Bytes& out, ScratchArena& scratch) { BitEncodeImpl<uint32_t>(in, out, scratch); }
void BitDecode32(ByteSpan in, Bytes& out, ScratchArena& scratch) { BitDecodeImpl<uint32_t>(in, out, scratch); }
void BitEncode64(ByteSpan in, Bytes& out, ScratchArena& scratch) { BitEncodeImpl<uint64_t>(in, out, scratch); }
void BitDecode64(ByteSpan in, Bytes& out, ScratchArena& scratch) { BitDecodeImpl<uint64_t>(in, out, scratch); }

void
BitEncode32(ByteSpan in, Bytes& out)
{
    ScratchArena scratch;
    BitEncodeImpl<uint32_t>(in, out, scratch);
}

void
BitEncode64(ByteSpan in, Bytes& out)
{
    ScratchArena scratch;
    BitEncodeImpl<uint64_t>(in, out, scratch);
}

void
BitDecode32(ByteSpan in, Bytes& out)
{
    ScratchArena scratch;
    BitDecodeImpl<uint32_t>(in, out, scratch);
}

void
BitDecode64(ByteSpan in, Bytes& out)
{
    ScratchArena scratch;
    BitDecodeImpl<uint64_t>(in, out, scratch);
}

}  // namespace fpc::tf
