/**
 * @file
 * GPU-path implementations of the paper's transformations on the
 * execution-model simulator. Each kernel follows the CUDA decomposition
 * described in Section 3:
 *
 *  - DIFFMS encode is embarrassingly parallel; decode uses a block-level
 *    prefix sum built from warp scans.
 *  - MPLG processes one 512-byte subchunk per warp (shuffle-xor max
 *    reduction, per-subchunk bit widths).
 *  - BIT transposes 32-value groups per warp with shuffle operations in
 *    log2(32) = 5 steps.
 *  - RZE assigns 8 consecutive bytes to each thread, builds bitmap bytes
 *    whole, and compacts survivors at offsets from a block-wide scan.
 *  - RAZE/RARE build the leading-bit histogram with (modelled) atomic
 *    increments and compact kept pieces via scans.
 *
 * FCM has no kernel here: both backends run the one tf::FcmEncode /
 * tf::FcmDecode (an in-order decode pass; the paper's parallel
 * union-find is open ROADMAP work).
 *
 * The kernels enter the pipeline through a stage table keyed by StageId
 * and word size, each entry a kernel wrapped in the uniform Stage
 * signature. EncodeChunkDevice/DecodeChunkDevice run the device twin of
 * a pipeline through the one chunk driver, EncodeChunk/DecodeChunk.
 *
 * Every kernel emits the exact byte stream of its CPU counterpart in
 * src/transforms; tests/gpusim_test.cc asserts the equality.
 */
#include "gpusim/kernels.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "core/telemetry.h"
#include "gpusim/bit_arena.h"
#include "gpusim/primitives.h"
#include "transforms/adaptive_k.h"
#include "transforms/transforms.h"
#include "util/bitio.h"
#include "util/bitpack.h"
#include "util/hash.h"
#include "util/scan.h"

namespace fpc::gpusim {

namespace {

// ---------------------------------------------------------------------
// DIFFMS
// ---------------------------------------------------------------------

template <typename T>
void
DiffmsEncodeDevice(ThreadBlock& block, ByteSpan in, Bytes& out)
{
    ByteWriter wr(out);
    wr.Put<uint64_t>(in.size());
    std::vector<T> words = LoadWords<T>(in);
    std::vector<T> coded(words.size());

    // Each thread handles a strided subset; no cross-thread dependences.
    block.ForEachThread([&](unsigned tid) {
        for (size_t i = tid; i < words.size(); i += block.NumThreads()) {
            T prev = i > 0 ? words[i - 1] : T{0};
            coded[i] = ZigzagEncode(static_cast<T>(words[i] - prev));
        }
    });
    wr.PutBytes(AsBytes(coded));
    wr.PutBytes(in.subspan(words.size() * sizeof(T)));
}

template <typename T>
void
DiffmsDecodeDevice(ThreadBlock& block, ByteSpan in, Bytes& out,
                   size_t budget)
{
    constexpr const char* kStage = "DIFFMS";
    ByteReader br(in, kStage);
    const size_t orig_size = br.Get<uint64_t>();
    FPC_PARSE_CHECK_AT(br.Remaining() == orig_size, "DIFFMS size mismatch",
                       kStage, 0);
    FPC_PARSE_CHECK_AT(orig_size <= budget,
                       "DIFFMS declared size exceeds decode budget",
                       kStage, 0);
    const size_t nw = orig_size / sizeof(T);

    std::vector<T> diffs = LoadWords<T>(br.GetBytes(nw * sizeof(T)));
    block.ForEachThread([&](unsigned tid) {
        for (size_t i = tid; i < nw; i += block.NumThreads()) {
            diffs[i] = ZigzagDecode(diffs[i]);
        }
    });
    // Difference decoding = inclusive prefix sum (block-level parallel
    // scan from warp primitives; modular addition is associative, so the
    // result is bit-identical to the serial sum).
    BlockExclusiveScan(block, std::span<T>(diffs));
    // BlockExclusiveScan left exclusive prefixes; add back the stored
    // diffs to obtain the inclusive sums. Reload them for that.
    std::vector<T> reloaded = LoadWords<T>(
        in.subspan(br.Pos() - nw * sizeof(T), nw * sizeof(T)));
    block.ForEachThread([&](unsigned tid) {
        for (size_t i = tid; i < nw; i += block.NumThreads()) {
            diffs[i] += ZigzagDecode(reloaded[i]);
        }
    });
    AppendBytes(out, AsBytes(diffs));
    AppendBytes(out, br.Rest());
}

// ---------------------------------------------------------------------
// MPLG
// ---------------------------------------------------------------------

template <typename T>
void
MplgEncodeDevice(ThreadBlock& block, ByteSpan in, Bytes& out)
{
    constexpr unsigned kWordBits = sizeof(T) * 8;
    ByteWriter wr(out);
    wr.Put<uint64_t>(in.size());

    std::vector<T> words = LoadWords<T>(in);
    const size_t words_per_sub = kSubchunkSize / sizeof(T);
    const size_t n_sub =
        (words.size() + words_per_sub - 1) / words_per_sub;

    Bytes headers(n_sub, std::byte{0});

    // One warp per subchunk: butterfly max reduction, leading-zero count,
    // and the zigzag enhancement when the maximum has no leading zeros.
    block.ForEachWarp([&](unsigned warp) {
        for (size_t s = warp; s < n_sub; s += block.NumWarps()) {
            size_t begin = s * words_per_sub;
            size_t count = std::min(words.size() - begin, words_per_sub);

            auto warp_max = [&]() {
                WarpReg<T> lane_max{};
                for (size_t e = 0; e < count; ++e) {
                    unsigned lane = e % kWarpSize;
                    lane_max[lane] =
                        std::max(lane_max[lane], words[begin + e]);
                }
                return WarpReduceMax(lane_max);
            };

            T max_value = warp_max();
            bool enhanced = false;
            if (max_value != 0 && LeadingZeros(max_value) == 0) {
                enhanced = true;
                for (size_t e = 0; e < count; ++e) {
                    words[begin + e] = ZigzagEncode(words[begin + e]);
                }
                max_value = warp_max();
            }
            unsigned width =
                (max_value == 0) ? 0 : kWordBits - LeadingZeros(max_value);
            headers[s] = static_cast<std::byte>(
                (enhanced ? 0x80u : 0u) | width);
        }
    });
    wr.PutBytes(ByteSpan(headers));

    // Subchunk bit offsets via exclusive scan over width * count.
    std::vector<uint64_t> bit_offsets(n_sub, 0);
    for (size_t s = 0; s < n_sub; ++s) {
        size_t begin = s * words_per_sub;
        size_t count = std::min(words.size() - begin, words_per_sub);
        bit_offsets[s] =
            uint64_t{static_cast<uint8_t>(headers[s]) & 0x7fu} * count;
    }
    uint64_t total_bits =
        ExclusiveScan(std::span<uint64_t>(bit_offsets));

    BitArena arena(total_bits);
    block.ForEachWarp([&](unsigned warp) {
        for (size_t s = warp; s < n_sub; s += block.NumWarps()) {
            unsigned width = static_cast<uint8_t>(headers[s]) & 0x7fu;
            if (width == 0) continue;
            size_t begin = s * words_per_sub;
            size_t count = std::min(words.size() - begin, words_per_sub);
            for (size_t e = 0; e < count; ++e) {
                arena.SetBits(bit_offsets[s] + e * width,
                              static_cast<uint64_t>(words[begin + e]),
                              width);
            }
        }
    });
    arena.AppendTo(out);  // exactly ceil(total_bits / 8) bytes

    wr.PutBytes(in.subspan(words.size() * sizeof(T)));
}

template <typename T>
void
MplgDecodeDevice(ThreadBlock& block, ByteSpan in, Bytes& out, size_t budget)
{
    constexpr unsigned kWordBits = sizeof(T) * 8;
    constexpr const char* kStage = "MPLG";
    ByteReader br(in, kStage);
    const size_t orig_size = br.Get<uint64_t>();
    // Same amplification hazard as the CPU decoder: all-zero widths let a
    // corrupt orig_size size the word vector at up to 512x the input.
    FPC_PARSE_CHECK_AT(orig_size <= budget,
                       "MPLG declared size exceeds decode budget", kStage, 0);
    const size_t nw = orig_size / sizeof(T);
    const size_t words_per_sub = kSubchunkSize / sizeof(T);
    const size_t n_sub = (nw + words_per_sub - 1) / words_per_sub;

    ByteSpan headers = br.GetBytes(n_sub);
    std::vector<uint64_t> bit_offsets(n_sub, 0);
    for (size_t s = 0; s < n_sub; ++s) {
        unsigned width = static_cast<uint8_t>(headers[s]) & 0x7fu;
        FPC_PARSE_CHECK_AT(width <= kWordBits, "MPLG width out of range",
                           kStage, sizeof(uint64_t) + s);
        size_t begin = s * words_per_sub;
        size_t count = std::min(nw - begin, words_per_sub);
        bit_offsets[s] = uint64_t{width} * count;
    }
    uint64_t total_bits = ExclusiveScan(std::span<uint64_t>(bit_offsets));
    ByteSpan packed = br.GetBytes((total_bits + 7) / 8);
    BitArena arena = BitArena::FromBytes(packed, total_bits);

    std::vector<T> words(nw);
    block.ForEachWarp([&](unsigned warp) {
        for (size_t s = warp; s < n_sub; s += block.NumWarps()) {
            uint8_t h = static_cast<uint8_t>(headers[s]);
            unsigned width = h & 0x7fu;
            bool enhanced = (h & 0x80u) != 0;
            size_t begin = s * words_per_sub;
            size_t count = std::min(nw - begin, words_per_sub);
            for (size_t e = 0; e < count; ++e) {
                T v = width == 0
                          ? T{0}
                          : static_cast<T>(
                                arena.GetBits(bit_offsets[s] + e * width,
                                              width));
                if (enhanced) v = ZigzagDecode(v);
                words[begin + e] = v;
            }
        }
    });
    AppendBytes(out, AsBytes(words));
    ByteSpan tail = br.Rest();
    FPC_PARSE_CHECK_AT(tail.size() == orig_size - nw * sizeof(T),
                       "MPLG tail size mismatch", kStage, br.Pos());
    AppendBytes(out, tail);
}

// ---------------------------------------------------------------------
// BIT (32-bit; the shipped pipelines only use BIT on single precision)
// ---------------------------------------------------------------------

void
BitEncodeDevice32(ThreadBlock& block, ByteSpan in, Bytes& out)
{
    ByteWriter wr(out);
    wr.Put<uint64_t>(in.size());
    std::vector<uint32_t> words = LoadWords<uint32_t>(in);
    const size_t nw = words.size();
    const size_t full_groups = nw / kWarpSize;

    BitArena arena(uint64_t{nw} * 32);
    block.ForEachWarp([&](unsigned warp) {
        for (size_t g = warp; g < full_groups; g += block.NumWarps()) {
            WarpReg<uint32_t> rows;
            for (unsigned lane = 0; lane < kWarpSize; ++lane) {
                rows[lane] = words[g * kWarpSize + lane];
            }
            WarpReg<uint32_t> planes = WarpBitTranspose(rows);
            // Lane j holds bit plane j; plane index p = 31 - j (MSB plane
            // is emitted first).
            for (unsigned j = 0; j < kWarpSize; ++j) {
                unsigned p = 31 - j;
                arena.SetBits(uint64_t{p} * nw + g * kWarpSize, planes[j],
                              32);
            }
        }
    });
    // Remainder words (partial group) handled by thread 0, bit by bit.
    block.ForEachThread([&](unsigned tid) {
        if (tid != 0) return;
        for (unsigned p = 0; p < 32; ++p) {
            unsigned shift = 31 - p;
            for (size_t i = full_groups * kWarpSize; i < nw; ++i) {
                arena.SetBits(uint64_t{p} * nw + i,
                              (words[i] >> shift) & 1u, 1);
            }
        }
    });
    arena.AppendTo(out);
    wr.PutBytes(in.subspan(nw * sizeof(uint32_t)));
}

void
BitDecodeDevice32(ThreadBlock& block, ByteSpan in, Bytes& out,
                  size_t budget)
{
    constexpr const char* kStage = "BIT";
    ByteReader br(in, kStage);
    const size_t orig_size = br.Get<uint64_t>();
    // BIT encode emits exactly 8 + orig_size bytes; validating that and
    // the budget first keeps a corrupt orig_size from wrapping the
    // bit-count products below or sizing the word vector.
    FPC_PARSE_CHECK_AT(br.Remaining() == orig_size, "BIT size mismatch",
                       kStage, 0);
    FPC_PARSE_CHECK_AT(orig_size <= budget,
                       "BIT declared size exceeds decode budget", kStage, 0);
    const size_t nw = orig_size / sizeof(uint32_t);
    ByteSpan packed = br.GetBytes((uint64_t{nw} * 32 + 7) / 8);
    BitArena arena = BitArena::FromBytes(packed, uint64_t{nw} * 32);

    std::vector<uint32_t> words(nw, 0);
    const size_t full_groups = nw / kWarpSize;
    block.ForEachWarp([&](unsigned warp) {
        for (size_t g = warp; g < full_groups; g += block.NumWarps()) {
            WarpReg<uint32_t> planes;
            for (unsigned j = 0; j < kWarpSize; ++j) {
                unsigned p = 31 - j;
                planes[j] = static_cast<uint32_t>(
                    arena.GetBits(uint64_t{p} * nw + g * kWarpSize, 32));
            }
            WarpReg<uint32_t> rows = WarpBitTranspose(planes);
            for (unsigned lane = 0; lane < kWarpSize; ++lane) {
                words[g * kWarpSize + lane] = rows[lane];
            }
        }
    });
    block.ForEachThread([&](unsigned tid) {
        if (tid != 0) return;
        for (unsigned p = 0; p < 32; ++p) {
            unsigned shift = 31 - p;
            for (size_t i = full_groups * kWarpSize; i < nw; ++i) {
                if (arena.GetBits(uint64_t{p} * nw + i, 1)) {
                    words[i] |= 1u << shift;
                }
            }
        }
    });
    AppendBytes(out, AsBytes(words));
    AppendBytes(out, br.Rest());
}

// ---------------------------------------------------------------------
// Bitmap compression (shared by RZE / RAZE / RARE device kernels)
// ---------------------------------------------------------------------

/** Device CompressBitmap: same output as tf::CompressBitmap. */
void
CompressBitmapDevice(ThreadBlock& block, const Bytes& bitmap, Bytes& out)
{
    std::vector<Bytes> levels;
    std::vector<Bytes> kept;
    levels.push_back(bitmap);

    while (levels.back().size() > 4) {
        const Bytes& cur = levels.back();
        const size_t n = cur.size();
        Bytes next((n + 7) / 8, std::byte{0});

        // Per-thread: 8 consecutive bytes -> one bitmap byte + a count.
        std::vector<uint32_t> counts((n + 7) / 8, 0);
        block.ForEachThread([&](unsigned tid) {
            for (size_t t = tid; t < counts.size();
                 t += block.NumThreads()) {
                uint8_t bits = 0;
                uint32_t cnt = 0;
                for (size_t j = t * 8; j < std::min(n, t * 8 + 8); ++j) {
                    bool differs = (j == 0) || (cur[j] != cur[j - 1]);
                    if (differs) {
                        bits |= static_cast<uint8_t>(1u << (j % 8));
                        ++cnt;
                    }
                }
                next[t] = static_cast<std::byte>(bits);
                counts[t] = cnt;
            }
        });
        uint32_t total =
            BlockExclusiveScan(block, std::span<uint32_t>(counts));
        Bytes surviving(total);
        block.ForEachThread([&](unsigned tid) {
            for (size_t t = tid; t < counts.size();
                 t += block.NumThreads()) {
                size_t pos = counts[t];
                for (size_t j = t * 8; j < std::min(n, t * 8 + 8); ++j) {
                    bool differs = (j == 0) || (cur[j] != cur[j - 1]);
                    if (differs) surviving[pos++] = cur[j];
                }
            }
        });
        kept.push_back(std::move(surviving));
        levels.push_back(std::move(next));
    }

    AppendBytes(out, ByteSpan(levels.back()));
    for (size_t k = kept.size(); k-- > 0;) {
        AppendBytes(out, ByteSpan(kept[k]));
    }
}

/** Level sizes helper (mirrors bitmap_codec.cc). */
std::vector<size_t>
BitmapLevelSizes(size_t bitmap_size)
{
    std::vector<size_t> sizes{bitmap_size};
    while (sizes.back() > 4) sizes.push_back((sizes.back() + 7) / 8);
    return sizes;
}

/**
 * Device DecompressBitmap: reconstructs each level in parallel — byte j's
 * value is kept[rank(j) - 1], where rank(j) counts the set bits in
 * [0, j]; copies propagate from the nearest preceding kept byte.
 */
Bytes
DecompressBitmapDevice(ThreadBlock& block, ByteReader& br,
                       size_t bitmap_size)
{
    std::vector<size_t> sizes = BitmapLevelSizes(bitmap_size);
    ByteSpan final_span = br.GetBytes(sizes.back());
    Bytes cur(final_span.begin(), final_span.end());

    for (size_t level = sizes.size() - 1; level-- > 0;) {
        const size_t target = sizes[level];
        // rank via per-thread popcounts + block scan.
        std::vector<uint32_t> counts((target + 7) / 8, 0);
        for (size_t t = 0; t < counts.size(); ++t) {
            counts[t] = static_cast<uint32_t>(
                std::popcount(static_cast<uint8_t>(cur[t])));
        }
        uint32_t total =
            BlockExclusiveScan(block, std::span<uint32_t>(counts));
        ByteSpan kept = br.GetBytes(total);

        Bytes expanded(target);
        block.ForEachThread([&](unsigned tid) {
            for (size_t t = tid; t < counts.size();
                 t += block.NumThreads()) {
                uint32_t rank = counts[t];  // set bits before byte t*8
                for (size_t j = t * 8; j < std::min(target, t * 8 + 8);
                     ++j) {
                    bool set =
                        (static_cast<uint8_t>(cur[j / 8]) >> (j % 8)) & 1u;
                    if (set) ++rank;
                    FPC_PARSE_CHECK(rank > 0, "bitmap starts with a copy");
                    expanded[j] = kept[rank - 1];
                }
            }
        });
        cur = std::move(expanded);
    }
    FPC_PARSE_CHECK(cur.size() == bitmap_size, "bitmap size mismatch");
    return cur;
}

// ---------------------------------------------------------------------
// RZE
// ---------------------------------------------------------------------

void
RzeEncodeDevice(ThreadBlock& block, ByteSpan in, Bytes& out)
{
    ByteWriter wr(out);
    wr.Put<uint64_t>(in.size());
    const size_t n = in.size();
    const size_t n_groups = (n + 7) / 8;

    Bytes bitmap(n_groups, std::byte{0});
    std::vector<uint32_t> counts(n_groups, 0);
    block.ForEachThread([&](unsigned tid) {
        for (size_t t = tid; t < n_groups; t += block.NumThreads()) {
            uint8_t bits = 0;
            uint32_t cnt = 0;
            for (size_t j = t * 8; j < std::min(n, t * 8 + 8); ++j) {
                if (in[j] != std::byte{0}) {
                    bits |= static_cast<uint8_t>(1u << (j % 8));
                    ++cnt;
                }
            }
            bitmap[t] = static_cast<std::byte>(bits);
            counts[t] = cnt;
        }
    });
    uint32_t total = BlockExclusiveScan(block, std::span<uint32_t>(counts));

    Bytes nonzero(total);
    block.ForEachThread([&](unsigned tid) {
        for (size_t t = tid; t < n_groups; t += block.NumThreads()) {
            size_t pos = counts[t];
            for (size_t j = t * 8; j < std::min(n, t * 8 + 8); ++j) {
                if (in[j] != std::byte{0}) nonzero[pos++] = in[j];
            }
        }
    });

    wr.PutVarint(total);
    CompressBitmapDevice(block, bitmap, out);
    AppendBytes(out, ByteSpan(nonzero));
}

void
RzeDecodeDevice(ThreadBlock& block, ByteSpan in, Bytes& out, size_t budget)
{
    constexpr const char* kStage = "RZE";
    ByteReader br(in, kStage);
    const size_t orig_size = br.Get<uint64_t>();
    // Budget before the bitmap size and the result allocation are derived
    // from the wire-declared size.
    FPC_PARSE_CHECK_AT(orig_size <= budget,
                       "RZE declared size exceeds decode budget", kStage, 0);
    const size_t nonzero_count = br.GetVarint();
    FPC_PARSE_CHECK_AT(nonzero_count <= orig_size, "RZE count out of range",
                       kStage, sizeof(uint64_t));

    Bytes bitmap = DecompressBitmapDevice(block, br, (orig_size + 7) / 8);
    ByteSpan nonzero = br.GetBytes(nonzero_count);

    const size_t n_groups = (orig_size + 7) / 8;
    std::vector<uint32_t> counts(n_groups, 0);
    for (size_t t = 0; t < n_groups; ++t) {
        counts[t] = static_cast<uint32_t>(
            std::popcount(static_cast<uint8_t>(bitmap[t])));
    }
    BlockExclusiveScan(block, std::span<uint32_t>(counts));

    Bytes result(orig_size);
    block.ForEachThread([&](unsigned tid) {
        for (size_t t = tid; t < n_groups; t += block.NumThreads()) {
            uint32_t rank = counts[t];
            for (size_t j = t * 8; j < std::min(orig_size, t * 8 + 8);
                 ++j) {
                bool set =
                    (static_cast<uint8_t>(bitmap[j / 8]) >> (j % 8)) & 1u;
                if (set) {
                    FPC_PARSE_CHECK_AT(rank < nonzero.size(),
                                       "RZE payload underrun", kStage,
                                       br.Pos());
                    result[j] = nonzero[rank++];
                } else {
                    result[j] = std::byte{0};
                }
            }
        }
    });
    AppendBytes(out, ByteSpan(result));
}

// ---------------------------------------------------------------------
// RAZE / RARE (64-bit; shipped pipelines use them on doubles)
// ---------------------------------------------------------------------

enum class AdaptiveKind { kZero, kRepeat };

template <typename T, AdaptiveKind kind>
void
AdaptiveEncodeDevice(ThreadBlock& block, ByteSpan in, Bytes& out)
{
    constexpr unsigned kWordBits = sizeof(T) * 8;
    ByteWriter wr(out);
    wr.Put<uint64_t>(in.size());

    std::vector<T> words = LoadWords<T>(in);
    const size_t nw = words.size();

    auto droppable = [&](size_t i) -> unsigned {
        if (kind == AdaptiveKind::kZero) return LeadingZeros(words[i]);
        T prev = i > 0 ? words[i - 1] : T{0};
        return LeadingZeros(static_cast<T>(words[i] ^ prev));
    };

    // Histogram built with (modelled) atomic increments into shared bins.
    std::vector<unsigned> hist(kWordBits + 1, 0);
    block.ForEachThread([&](unsigned tid) {
        for (size_t i = tid; i < nw; i += block.NumThreads()) {
            ++hist[droppable(i)];  // atomicAdd on the device
        }
    });
    const unsigned k = tf::ChooseAdaptiveK(hist, nw, kWordBits);
    wr.PutU8(static_cast<uint8_t>(k));

    const size_t n_groups = (nw + 7) / 8;
    Bytes bitmap((nw + 7) / 8, std::byte{0});
    std::vector<uint32_t> kept_counts(n_groups, 0);
    block.ForEachThread([&](unsigned tid) {
        for (size_t t = tid; t < n_groups; t += block.NumThreads()) {
            uint8_t bits = 0;
            uint32_t cnt = 0;
            for (size_t i = t * 8; i < std::min(nw, t * 8 + 8); ++i) {
                if (k > 0 && droppable(i) < k) {
                    bits |= static_cast<uint8_t>(1u << (i % 8));
                    ++cnt;
                }
            }
            bitmap[t] = static_cast<std::byte>(bits);
            kept_counts[t] = cnt;
        }
    });
    uint32_t kept_total =
        BlockExclusiveScan(block, std::span<uint32_t>(kept_counts));

    BitArena pieces(uint64_t{kept_total} * k);
    block.ForEachThread([&](unsigned tid) {
        for (size_t t = tid; t < n_groups; t += block.NumThreads()) {
            uint64_t rank = kept_counts[t];
            for (size_t i = t * 8; i < std::min(nw, t * 8 + 8); ++i) {
                if (k > 0 && droppable(i) < k) {
                    pieces.SetBits(rank * k, TopBits(words[i], k), k);
                    ++rank;
                }
            }
        }
    });

    BitArena lows(uint64_t{nw} * (kWordBits - k));
    block.ForEachThread([&](unsigned tid) {
        for (size_t i = tid; i < nw; i += block.NumThreads()) {
            lows.SetBits(uint64_t{i} * (kWordBits - k),
                         static_cast<uint64_t>(words[i]), kWordBits - k);
        }
    });

    wr.PutVarint(kept_total);
    if (k > 0) CompressBitmapDevice(block, bitmap, out);
    pieces.AppendTo(out);
    lows.AppendTo(out);
    wr.PutBytes(in.subspan(nw * sizeof(T)));
}

template <typename T, AdaptiveKind kind>
void
AdaptiveDecodeDevice(ThreadBlock& block, ByteSpan in, Bytes& out,
                     size_t budget)
{
    constexpr unsigned kWordBits = sizeof(T) * 8;
    const char* kStage = kind == AdaptiveKind::kZero ? "RAZE" : "RARE";
    ByteReader br(in, kStage);
    const size_t orig_size = br.Get<uint64_t>();
    // Budget before the bitmap size, the piece/low bit counts, and the
    // word vector are derived from the wire-declared size.
    FPC_PARSE_CHECK_AT(orig_size <= budget,
                       "declared size exceeds decode budget", kStage, 0);
    const size_t nw = orig_size / sizeof(T);
    const unsigned k = br.GetU8();
    FPC_PARSE_CHECK_AT(k <= kWordBits, "adaptive k out of range", kStage,
                       sizeof(uint64_t));
    const size_t kept_count = br.GetVarint();
    FPC_PARSE_CHECK_AT(kept_count <= nw, "kept count out of range", kStage,
                       sizeof(uint64_t) + 1);

    Bytes bitmap;
    if (k > 0) bitmap = DecompressBitmapDevice(block, br, (nw + 7) / 8);
    ByteSpan piece_bytes = br.GetBytes((uint64_t{kept_count} * k + 7) / 8);
    ByteSpan low_bytes =
        br.GetBytes((uint64_t{nw} * (kWordBits - k) + 7) / 8);
    BitArena pieces =
        BitArena::FromBytes(piece_bytes, uint64_t{kept_count} * k);
    BitArena lows =
        BitArena::FromBytes(low_bytes, uint64_t{nw} * (kWordBits - k));

    // Ranks of kept pieces via popcount scan over the bitmap.
    const size_t n_groups = (nw + 7) / 8;
    std::vector<uint32_t> ranks(n_groups, 0);
    if (k > 0) {
        for (size_t t = 0; t < n_groups; ++t) {
            ranks[t] = static_cast<uint32_t>(
                std::popcount(static_cast<uint8_t>(bitmap[t])));
        }
        const uint32_t total_set =
            BlockExclusiveScan(block, std::span<uint32_t>(ranks));
        // A corrupt bitmap with more set bits than declared pieces would
        // drive piece reads past the arena's end (an internal-invariant
        // abort, not a parse error) — reject the mismatch up front.
        FPC_PARSE_CHECK_AT(total_set == kept_count,
                           "bitmap population does not match kept count",
                           kStage, br.Pos());
    }

    std::vector<T> words(nw);
    block.ForEachThread([&](unsigned tid) {
        for (size_t t = tid; t < n_groups; t += block.NumThreads()) {
            uint32_t rank = k > 0 ? ranks[t] : 0;
            for (size_t i = t * 8; i < std::min(nw, t * 8 + 8); ++i) {
                T v = static_cast<T>(
                    lows.GetBits(uint64_t{i} * (kWordBits - k),
                                 kWordBits - k));
                bool set =
                    k > 0 &&
                    ((static_cast<uint8_t>(bitmap[i / 8]) >> (i % 8)) & 1u);
                if (set) ++rank;
                if (k > 0) {
                    uint64_t top;
                    if (kind == AdaptiveKind::kZero) {
                        top = set ? pieces.GetBits(uint64_t{rank - 1} * k, k)
                                  : 0;
                    } else {
                        // RARE: elided pieces copy the nearest preceding
                        // kept piece (propagated copies), or zero if none.
                        top = rank == 0
                                  ? 0
                                  : pieces.GetBits(uint64_t{rank - 1} * k,
                                                   k);
                    }
                    v = WithTopBits(v, top, k);
                }
                words[i] = v;
            }
        }
    });
    AppendBytes(out, AsBytes(words));
    AppendBytes(out, br.Rest());
}

// ---------------------------------------------------------------------
// Device stage table
// ---------------------------------------------------------------------

/** Threads per block of the chunk kernels (the launch profiles' block
 *  size too); no kernel's output depends on it. */
constexpr unsigned kBlockThreads = 256;

using DeviceEncodeKernel = void (*)(ThreadBlock&, ByteSpan, Bytes&);
using DeviceDecodeKernel = void (*)(ThreadBlock&, ByteSpan, Bytes&, size_t);

/** A device encode kernel in the uniform Stage signature: one thread
 *  block runs it over the stage input. */
template <DeviceEncodeKernel kKernel>
void
EncodeOnBlock(ByteSpan in, Bytes& out, ScratchArena&)
{
    ThreadBlock block(0, kBlockThreads);
    kKernel(block, in, out);
}

/** A device decode kernel in the uniform Stage signature. Every
 *  wire-declared size is capped by the arena's decode budget, which
 *  DecodeChunk sets per chunk for both backends. */
template <DeviceDecodeKernel kKernel>
void
DecodeOnBlock(ByteSpan in, Bytes& out, ScratchArena& scratch)
{
    ThreadBlock block(0, kBlockThreads);
    kKernel(block, in, out, scratch.DecodeBudget());
}

/**
 * Subchunk counters from an MPLG stage output. The device kernel does not
 * share MplgEncodeImpl's pass-1 loop (where the CPU path counts), but the
 * wire format is self-describing: uint64 input size, then one header byte
 * per subchunk whose bit 7 is the enhancement flag.
 */
void
CountMplgSubchunks(ByteSpan encoded, unsigned word_size,
                   TelemetryShard& shard)
{
    if (encoded.size() < sizeof(uint64_t)) return;
    uint64_t orig_size = 0;
    std::memcpy(&orig_size, encoded.data(), sizeof(orig_size));
    const size_t words_per_sub = kSubchunkSize / word_size;
    const size_t nw = static_cast<size_t>(orig_size) / word_size;
    const size_t n_sub = (nw + words_per_sub - 1) / words_per_sub;
    shard.mplg_subchunks += n_sub;
    for (size_t s = 0; s < n_sub; ++s) {
        const auto h =
            static_cast<uint8_t>(encoded[sizeof(uint64_t) + s]);
        shard.mplg_enhanced += (h & 0x80u) != 0 ? 1 : 0;
    }
}

/** The MPLG entry: the kernel, then the subchunk counters the CPU stage
 *  keeps, so both backends report the same telemetry. */
template <typename T>
void
MplgEncodeStage(ByteSpan in, Bytes& out, ScratchArena& scratch)
{
    const size_t begin = out.size();
    EncodeOnBlock<MplgEncodeDevice<T>>(in, out, scratch);
    if (TelemetryShard* shard = scratch.Telemetry()) {
        CountMplgSubchunks(ByteSpan(out).subspan(begin), sizeof(T), *shard);
    }
}

/** Device stages keyed by StageId and word size (index 0 for 4-byte
 *  words, 1 for 8-byte); pairs with no kernel stay null. */
using DeviceStageTable = std::array<std::array<Stage, 2>, kStageCount>;

DeviceStageTable
BuildDeviceStages()
{
    DeviceStageTable table{};
    const auto at = [&table](StageId id, unsigned word_size) -> Stage& {
        return table[static_cast<size_t>(id)][word_size == 8 ? 1 : 0];
    };
    at(StageId::kDiffms, 4) = {"DIFFMS", StageId::kDiffms,
                               EncodeOnBlock<DiffmsEncodeDevice<uint32_t>>,
                               DecodeOnBlock<DiffmsDecodeDevice<uint32_t>>};
    at(StageId::kDiffms, 8) = {"DIFFMS", StageId::kDiffms,
                               EncodeOnBlock<DiffmsEncodeDevice<uint64_t>>,
                               DecodeOnBlock<DiffmsDecodeDevice<uint64_t>>};
    at(StageId::kMplg, 4) = {"MPLG", StageId::kMplg,
                             MplgEncodeStage<uint32_t>,
                             DecodeOnBlock<MplgDecodeDevice<uint32_t>>};
    at(StageId::kMplg, 8) = {"MPLG", StageId::kMplg,
                             MplgEncodeStage<uint64_t>,
                             DecodeOnBlock<MplgDecodeDevice<uint64_t>>};
    at(StageId::kBit, 4) = {"BIT", StageId::kBit,
                            EncodeOnBlock<BitEncodeDevice32>,
                            DecodeOnBlock<BitDecodeDevice32>};
    // RZE works on bytes, so one kernel serves both word sizes.
    at(StageId::kRze, 4) = at(StageId::kRze, 8) = {
        "RZE", StageId::kRze, EncodeOnBlock<RzeEncodeDevice>,
        DecodeOnBlock<RzeDecodeDevice>};
    at(StageId::kRaze, 8) = {
        "RAZE", StageId::kRaze,
        EncodeOnBlock<AdaptiveEncodeDevice<uint64_t, AdaptiveKind::kZero>>,
        DecodeOnBlock<AdaptiveDecodeDevice<uint64_t, AdaptiveKind::kZero>>};
    at(StageId::kRare, 8) = {
        "RARE", StageId::kRare,
        EncodeOnBlock<AdaptiveEncodeDevice<uint64_t, AdaptiveKind::kRepeat>>,
        DecodeOnBlock<
            AdaptiveDecodeDevice<uint64_t, AdaptiveKind::kRepeat>>};
    // FCM has no device kernel: the chunked-FCM stage of the adaptive
    // DPratio pipeline is the CPU transform on both backends.
    at(StageId::kFcm, 8) = {"FCM", StageId::kFcm, tf::FcmEncode,
                            tf::FcmDecode, tf::FcmDecodeInto};
    return table;
}

/** The library's chunk pipelines — GetPipeline for each algorithm, then
 *  the chunked DPratio of GetChunkPipeline — and their device twins. */
struct DeviceSpecs {
    std::array<const PipelineSpec*, 5> cpu{};
    std::array<PipelineSpec, 5> device;
};

const DeviceSpecs&
Specs()
{
    static const DeviceSpecs specs = [] {
        const DeviceStageTable table = BuildDeviceStages();
        DeviceSpecs s;
        for (size_t a = 0; a < 4; ++a) {
            s.cpu[a] = &GetPipeline(static_cast<Algorithm>(a));
        }
        s.cpu[4] = &GetChunkPipeline(Algorithm::kDPratio);
        for (size_t i = 0; i < s.cpu.size(); ++i) {
            // Same ids, order and pre-stage; each chunk stage becomes its
            // table entry.
            s.device[i] = *s.cpu[i];
            for (Stage& stage : s.device[i].stages) {
                const Stage& kernel = table[static_cast<size_t>(stage.id)]
                                           [s.cpu[i]->word_size == 8 ? 1 : 0];
                FPC_CHECK(kernel.encode != nullptr,
                          "pipeline stage without a device kernel");
                stage = kernel;
            }
        }
        return s;
    }();
    return specs;
}

/** The device twin of @p spec, one of the library's chunk pipelines. */
const PipelineSpec&
DeviceSpecOf(const PipelineSpec& spec)
{
    const DeviceSpecs& specs = Specs();
    for (size_t i = 0; i < specs.cpu.size(); ++i) {
        if (specs.cpu[i] == &spec) return specs.device[i];
    }
    throw UsageError(std::string("no device pipeline for ") + spec.name);
}

}  // namespace

ByteSpan
EncodeChunkDevice(const PipelineSpec& spec, ByteSpan chunk, bool& raw,
                  ScratchArena& scratch)
{
    return EncodeChunk(DeviceSpecOf(spec), chunk, raw, scratch);
}

void
DecodeChunkDevice(const PipelineSpec& spec, ByteSpan payload, bool raw,
                  std::span<std::byte> dest, ScratchArena& scratch)
{
    DecodeChunk(DeviceSpecOf(spec), payload, raw, dest, scratch);
}

void FcmEncodeDevice(ByteSpan in, Bytes& out) { tf::FcmEncode(in, out); }

void FcmDecodeDevice(ByteSpan in, Bytes& out) { tf::FcmDecode(in, out); }

}  // namespace fpc::gpusim
