/**
 * @file
 * Enhanced MPLG (paper Section 3.1, Figure 3): per 512-byte subchunk, count
 * the leading zero bits of the subchunk maximum and eliminate that many
 * bits from every word. Enhancement from the paper: if the maximum has no
 * leading zeros, apply one extra two's-complement -> magnitude-sign
 * conversion to the subchunk's words and retry — a cheap reversible tweak
 * that often manufactures a few leading zeros.
 *
 * Wire format: varint(in size) | one header byte per subchunk
 * (bit 7: zigzag-enhancement flag, bits 0..6: kept width in bits) |
 * bit-packed kept words | trailing (<W) bytes verbatim.
 * Decoders can compute every subchunk's bit offset from the headers alone,
 * which is what makes block-parallel GPU decoding possible.
 *
 * Encode stages through the arena's word scratch (the enhancement rewrites
 * words in place) and packs bits into the exact-sized output region with a
 * RawBitSink; decode validates every width and the packed size once, then
 * unpacks each subchunk at its width with one unaligned 64-bit load per
 * word and no per-word bounds check, straight into the output buffer.
 * Neither direction allocates once the arena is warm.
 */
#include "transforms/transforms.h"

#include "core/telemetry.h"
#include "util/bitio.h"
#include "util/bitpack.h"

namespace fpc::tf {

namespace {

/**
 * Pack words[0..count) (each < 2^width) into @p bw. Words are combined
 * into 64-bit groups before sinking so the serial bit-stream dependency is
 * paid once per group, not once per word.
 */
template <typename T, typename LoadFn>
void
PackWords(RawBitSink& bw, LoadFn load, size_t count, unsigned width)
{
    size_t i = 0;
    if (width != 0 && width <= 16) {
        for (; i + 4 <= count; i += 4) {
            const uint64_t group =
                static_cast<uint64_t>(load(i)) |
                static_cast<uint64_t>(load(i + 1)) << width |
                static_cast<uint64_t>(load(i + 2)) << (2 * width) |
                static_cast<uint64_t>(load(i + 3)) << (3 * width);
            bw.Put(group, 4 * width);
        }
    } else if (width <= 32) {
        for (; i + 2 <= count; i += 2) {
            const uint64_t group =
                static_cast<uint64_t>(load(i)) |
                static_cast<uint64_t>(load(i + 1)) << width;
            bw.Put(group, 2 * width);
        }
    }
    for (; i < count; ++i) {
        bw.Put(static_cast<uint64_t>(load(i)), width);
    }
}

template <typename T>
void
MplgEncodeImpl(ByteSpan in, Bytes& out, ScratchArena& scratch)
{
    constexpr unsigned kWordBits = sizeof(T) * 8;
    const size_t base = out.size();

    const size_t nw = in.size() / sizeof(T);
    const size_t words_per_sub = kSubchunkSize / sizeof(T);
    const size_t n_sub = (nw + words_per_sub - 1) / words_per_sub;

    // Scratch words are only filled for enhanced subchunks (the common,
    // unenhanced case packs straight from the input span). The resize is
    // a steady-state no-op: chunk sizes are constant, so the vector keeps
    // its size and nothing is re-initialized.
    std::vector<T>& words = scratch.Words<T>();
    words.resize(nw);

    // Pass 1: per-subchunk width decisions (and the enhancement rewrite),
    // emitting the header bytes and totalling the packed-bit count.
    out.resize(base + sizeof(uint64_t) + n_sub);
    const uint64_t size64 = in.size();
    std::memcpy(out.data() + base, &size64, sizeof(size64));
    size_t total_bits = 0;
    size_t enhanced_subchunks = 0;
    for (size_t s = 0; s < n_sub; ++s) {
        const size_t begin = s * words_per_sub;
        const size_t end = std::min(nw, begin + words_per_sub);
        T max_value = 0;
        for (size_t i = begin; i < end; ++i) {
            max_value = std::max(max_value, WordAt<T>(in, i));
        }
        bool enhanced = false;
        if (max_value != 0 && LeadingZeros(max_value) == 0) {
            // Enhancement: another magnitude-sign conversion; meaningless as
            // arithmetic but reversible and often produces leading zeros.
            enhanced = true;
            max_value = 0;
            for (size_t i = begin; i < end; ++i) {
                words[i] = ZigzagEncode(WordAt<T>(in, i));
                max_value = std::max(max_value, words[i]);
            }
        }
        const unsigned width =
            (max_value == 0) ? 0 : kWordBits - LeadingZeros(max_value);
        out[base + sizeof(uint64_t) + s] =
            static_cast<std::byte>((enhanced ? 0x80u : 0u) | width);
        total_bits += width * (end - begin);
        enhanced_subchunks += enhanced ? 1 : 0;
    }
    if (TelemetryShard* shard = scratch.Telemetry()) {
        shard->mplg_subchunks += n_sub;
        shard->mplg_enhanced += enhanced_subchunks;
    }

    // Pass 2: pack the kept low bits of every word straight into the
    // output region.
    const size_t packed_bytes = (total_bits + 7) / 8;
    const size_t tail = in.size() - nw * sizeof(T);
    out.resize(base + sizeof(uint64_t) + n_sub + packed_bytes + tail);
    RawBitSink bw(out.data() + base + sizeof(uint64_t) + n_sub);
    for (size_t s = 0; s < n_sub; ++s) {
        const uint8_t h =
            static_cast<uint8_t>(out[base + sizeof(uint64_t) + s]);
        const unsigned width = h & 0x7f;
        const size_t begin = s * words_per_sub;
        const size_t count = std::min(nw, begin + words_per_sub) - begin;
        if ((h & 0x80u) != 0) {
            const T* w = words.data() + begin;
            PackWords<T>(bw, [w](size_t i) { return w[i]; }, count, width);
        } else {
            PackWords<T>(
                bw, [&in, begin](size_t i) {
                    return WordAt<T>(in, begin + i);
                },
                count, width);
        }
    }
    bw.Finish();
    if (tail != 0) {
        std::memcpy(out.data() + base + sizeof(uint64_t) + n_sub +
                        packed_bytes,
                    in.data() + nw * sizeof(T), tail);
    }
}

/**
 * Unpack @p count words of @p width bits starting at stream bit @p bit
 * of @p src into @p dest, zigzag-decoding each when kZigzag. Unchecked:
 * every word's load reads the 8 bytes at its first bit (9 for 64-bit
 * words, whose field plus phase can span 71 bits), which the caller
 * guarantees are readable.
 */
template <typename T, bool kZigzag>
void
UnpackWords(const std::byte* src, size_t bit, unsigned width, size_t count,
            std::byte* dest)
{
    const uint64_t mask = width >= 64 ? ~uint64_t{0}
                                      : (uint64_t{1} << width) - 1;
    for (size_t i = 0; i < count; ++i, bit += width) {
        const std::byte* p = src + bit / 8;
        const unsigned shift = unsigned(bit % 8);
        uint64_t w;
        std::memcpy(&w, p, 8);
        uint64_t v = w >> shift;
        if constexpr (sizeof(T) == 8) {
            if (shift + width > 64) {
                v |= uint64_t(uint8_t(p[8])) << (64 - shift);
            }
        }
        T t = static_cast<T>(v & mask);
        if constexpr (kZigzag) t = ZigzagDecode(t);
        std::memcpy(dest + i * sizeof(T), &t, sizeof(T));
    }
}

template <typename T>
void
UnpackSubchunk(const std::byte* src, size_t bit, unsigned width,
               bool enhanced, size_t count, std::byte* dest)
{
    if (enhanced) {
        UnpackWords<T, true>(src, bit, width, count, dest);
    } else {
        UnpackWords<T, false>(src, bit, width, count, dest);
    }
}

template <typename T>
void
MplgDecodeImpl(ByteSpan in, Bytes& out, size_t budget)
{
    constexpr unsigned kWordBits = sizeof(T) * 8;
    constexpr const char* kStage = "MPLG";
    ByteReader br(in, kStage);
    const size_t orig_size = br.Get<uint64_t>();
    // A corrupt orig_size with all-zero widths would otherwise force an
    // out.resize of up to 512x the input size (one header byte per
    // 512-byte subchunk); reject against the decode budget before any
    // quantity is derived from the wire field.
    FPC_PARSE_CHECK_AT(orig_size <= budget,
                       "MPLG declared size exceeds decode budget", kStage, 0);
    const size_t nw = orig_size / sizeof(T);
    const size_t words_per_sub = kSubchunkSize / sizeof(T);
    const size_t n_sub = (nw + words_per_sub - 1) / words_per_sub;

    ByteSpan headers = br.GetBytes(n_sub);
    size_t total_bits = 0;
    for (size_t s = 0; s < n_sub; ++s) {
        const unsigned width = static_cast<uint8_t>(headers[s]) & 0x7f;
        FPC_PARSE_CHECK_AT(width <= kWordBits, "MPLG width out of range",
                           kStage, sizeof(uint64_t) + s);
        const size_t begin = s * words_per_sub;
        total_bits += width * std::min(nw - begin, words_per_sub);
    }
    ByteSpan packed = br.GetBytes((total_bits + 7) / 8);
    ByteSpan tail = br.Rest();
    FPC_PARSE_CHECK_AT(tail.size() == orig_size - nw * sizeof(T),
                       "MPLG tail size mismatch", kStage, br.Pos());

    const size_t base = out.size();
    out.resize(base + orig_size);
    std::byte* dest = out.data() + base;
    // Words whose first bit lies before `safe_bits` can load their
    // kLoadBytes in place; the few after it (at most the last 8 bytes of
    // the stream) unpack from a zero-padded copy of those bytes.
    constexpr size_t kLoadBytes = sizeof(T) == 8 ? 9 : 8;
    const size_t safe_bits = packed.size() >= kLoadBytes
                                 ? (packed.size() - kLoadBytes + 1) * 8
                                 : 0;
    size_t bit = 0;
    for (size_t s = 0; s < n_sub; ++s) {
        const uint8_t h = static_cast<uint8_t>(headers[s]);
        const unsigned width = h & 0x7f;
        const bool enhanced = (h & 0x80) != 0;
        const size_t begin = s * words_per_sub;
        const size_t count = std::min(nw - begin, words_per_sub);
        std::byte* words = dest + begin * sizeof(T);
        if (width == 0) {
            // ZigzagDecode(0) == 0: both flag values decode to zeros.
            std::memset(words, 0, count * sizeof(T));
            continue;
        }
        const size_t fast =
            bit < safe_bits
                ? std::min(count, (safe_bits - bit + width - 1) / width)
                : 0;
        UnpackSubchunk<T>(packed.data(), bit, width, enhanced, fast, words);
        if (fast < count) {
            const size_t rest_bit = bit + fast * width;
            const size_t from = rest_bit / 8;
            std::byte pad[32] = {};
            std::memcpy(pad, packed.data() + from, packed.size() - from);
            UnpackSubchunk<T>(pad, rest_bit - from * 8, width, enhanced,
                              count - fast, words + fast * sizeof(T));
        }
        bit += count * width;
    }
    if (!tail.empty()) {
        std::memcpy(dest + nw * sizeof(T), tail.data(), tail.size());
    }
}

}  // namespace

void MplgEncode32(ByteSpan in, Bytes& out, ScratchArena& scratch) { MplgEncodeImpl<uint32_t>(in, out, scratch); }
void MplgDecode32(ByteSpan in, Bytes& out, ScratchArena& scratch) { MplgDecodeImpl<uint32_t>(in, out, scratch.DecodeBudget()); }
void MplgEncode64(ByteSpan in, Bytes& out, ScratchArena& scratch) { MplgEncodeImpl<uint64_t>(in, out, scratch); }
void MplgDecode64(ByteSpan in, Bytes& out, ScratchArena& scratch) { MplgDecodeImpl<uint64_t>(in, out, scratch.DecodeBudget()); }

void
MplgEncode32(ByteSpan in, Bytes& out)
{
    ScratchArena scratch;
    MplgEncodeImpl<uint32_t>(in, out, scratch);
}

void
MplgEncode64(ByteSpan in, Bytes& out)
{
    ScratchArena scratch;
    MplgEncodeImpl<uint64_t>(in, out, scratch);
}

void MplgDecode32(ByteSpan in, Bytes& out) { MplgDecodeImpl<uint32_t>(in, out, SIZE_MAX); }
void MplgDecode64(ByteSpan in, Bytes& out) { MplgDecodeImpl<uint64_t>(in, out, SIZE_MAX); }

}  // namespace fpc::tf
