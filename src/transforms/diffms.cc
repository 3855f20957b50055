/**
 * @file
 * DIFFMS (paper Section 3.1, Figure 2): modulo-2^w difference coding
 * followed by a two's-complement to magnitude-sign representation change
 * (zigzag, sign in the LSB). Smooth inputs become small positive integers
 * with many leading zero bits.
 *
 * Both directions stream words straight between the input span and the
 * output buffer (unaligned loads/stores), so no arena scratch is needed;
 * the only output-buffer growth is the single up-front resize. Encode is
 * a loop with no carried dependency and auto-vectorizes; decode is a
 * zigzag decode plus prefix sum, the kernel-layer zigzag_scan32/64
 * (util/simd.h: an in-register log-step scan with a carried lane).
 */
#include "transforms/transforms.h"

#include "util/bitio.h"
#include "util/bitpack.h"
#include "util/simd.h"

namespace fpc::tf {

namespace {

constexpr const char* kDiffmsStage = "DIFFMS";

template <typename T>
void
DiffmsEncodeImpl(ByteSpan in, Bytes& out)
{
    const size_t base = out.size();
    out.resize(base + sizeof(uint64_t) + in.size());
    std::byte* p = out.data() + base;
    const uint64_t size64 = in.size();
    std::memcpy(p, &size64, sizeof(size64));
    p += sizeof(size64);

    const size_t nw = in.size() / sizeof(T);
    if (nw != 0) {
        const T z0 = ZigzagEncode(WordAt<T>(in, 0));
        std::memcpy(p, &z0, sizeof(T));
        // v[i-1] is reloaded instead of carried so the loop has no serial
        // dependency and auto-vectorizes.
        const std::byte* src = in.data();
        for (size_t i = 1; i < nw; ++i) {
            T a, b;
            std::memcpy(&a, src + i * sizeof(T), sizeof(T));
            std::memcpy(&b, src + (i - 1) * sizeof(T), sizeof(T));
            const T z = ZigzagEncode(static_cast<T>(a - b));  // modulo 2^w
            std::memcpy(p + i * sizeof(T), &z, sizeof(T));
        }
    }
    p += nw * sizeof(T);
    const size_t tail = in.size() - nw * sizeof(T);
    if (tail != 0) std::memcpy(p, in.data() + nw * sizeof(T), tail);
}

template <typename T>
void
DiffmsDecodeIntoImpl(ByteSpan in, std::span<std::byte> dest,
                     const simd::KernelTable& kernels)
{
    ByteReader br(in, kDiffmsStage);
    const size_t orig_size = br.Get<uint64_t>();
    FPC_PARSE_CHECK_AT(orig_size == dest.size(), "DIFFMS size mismatch",
                       kDiffmsStage, 0);
    FPC_PARSE_CHECK_AT(br.Remaining() == orig_size, "DIFFMS size mismatch",
                       kDiffmsStage, 0);
    const size_t nw = orig_size / sizeof(T);
    ByteSpan words = br.GetBytes(nw * sizeof(T));

    if constexpr (sizeof(T) == 4) {
        kernels.zigzag_scan32(words.data(), nw, dest.data());
    } else {
        kernels.zigzag_scan64(words.data(), nw, dest.data());
    }
    ByteSpan tail = br.Rest();
    if (!tail.empty()) {
        std::memcpy(dest.data() + nw * sizeof(T), tail.data(), tail.size());
    }
}

template <typename T>
void
DiffmsDecodeImpl(ByteSpan in, Bytes& out, size_t budget,
                 const simd::KernelTable& kernels)
{
    FPC_PARSE_CHECK_AT(in.size() >= sizeof(uint64_t), "read past end",
                       kDiffmsStage, 0);
    const size_t orig_size = ReadRaw<uint64_t>(in, 0);
    // DIFFMS encode emits exactly 8 + orig_size bytes; validate that and
    // the decode budget before sizing the output from the wire field.
    FPC_PARSE_CHECK_AT(orig_size == in.size() - sizeof(uint64_t),
                       "DIFFMS size mismatch", kDiffmsStage, 0);
    FPC_PARSE_CHECK_AT(orig_size <= budget,
                       "DIFFMS declared size exceeds decode budget",
                       kDiffmsStage, 0);
    const size_t base = out.size();
    out.resize(base + orig_size);
    DiffmsDecodeIntoImpl<T>(
        in, std::span<std::byte>(out.data() + base, orig_size), kernels);
}

}  // namespace

void DiffmsEncode32(ByteSpan in, Bytes& out, ScratchArena&) { DiffmsEncodeImpl<uint32_t>(in, out); }
void DiffmsEncode64(ByteSpan in, Bytes& out, ScratchArena&) { DiffmsEncodeImpl<uint64_t>(in, out); }
void DiffmsEncode32(ByteSpan in, Bytes& out) { DiffmsEncodeImpl<uint32_t>(in, out); }
void DiffmsEncode64(ByteSpan in, Bytes& out) { DiffmsEncodeImpl<uint64_t>(in, out); }

void
DiffmsDecode32(ByteSpan in, Bytes& out, ScratchArena& scratch)
{
    DiffmsDecodeImpl<uint32_t>(in, out, scratch.DecodeBudget(),
                               simd::Kernels(scratch.KernelIsa()));
}

void
DiffmsDecode64(ByteSpan in, Bytes& out, ScratchArena& scratch)
{
    DiffmsDecodeImpl<uint64_t>(in, out, scratch.DecodeBudget(),
                               simd::Kernels(scratch.KernelIsa()));
}

void
DiffmsDecodeInto32(ByteSpan in, std::span<std::byte> dest,
                   ScratchArena& scratch)
{
    DiffmsDecodeIntoImpl<uint32_t>(in, dest,
                                   simd::Kernels(scratch.KernelIsa()));
}

void
DiffmsDecodeInto64(ByteSpan in, std::span<std::byte> dest,
                   ScratchArena& scratch)
{
    DiffmsDecodeIntoImpl<uint64_t>(in, dest,
                                   simd::Kernels(scratch.KernelIsa()));
}

void
DiffmsDecode32(ByteSpan in, Bytes& out)
{
    DiffmsDecodeImpl<uint32_t>(in, out, SIZE_MAX,
                               simd::Kernels(simd::DefaultIsa()));
}

void
DiffmsDecode64(ByteSpan in, Bytes& out)
{
    DiffmsDecodeImpl<uint64_t>(in, out, SIZE_MAX,
                               simd::Kernels(simd::DefaultIsa()));
}

}  // namespace fpc::tf
