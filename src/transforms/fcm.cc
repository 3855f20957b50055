/**
 * @file
 * FCM — Finite Context Method (paper Section 3.2, Figure 6). The only
 * whole-input stage: for each 64-bit value, a hash of the three preceding
 * values selects a context; a value "matches" when one of the up to four
 * most recent earlier values with the same context hash is equal to it.
 * The output is two n-word arrays — values (0 where matched) and backward
 * distances (0 where unmatched) — which double the data volume but are far
 * more compressible than the original (half the entries are zero).
 *
 * The match search is a chained hash table walked newest-first: bucket
 * heads plus one per-index link, O(n) total, replacing an earlier
 * sort-by-(hash, index) formulation. The probe order is identical — the
 * four most recent same-hash predecessors, nearest first — so the output
 * bytes are unchanged. Hashing itself is the kernel-layer fcm_hash
 * (vectorized per util/simd.h).
 *
 * Both directions work in place: encode reads the input span's
 * (possibly unaligned) words and writes values and distances straight
 * into the output after one resize; decode reads both arrays from the
 * payload and resolves each match from the words it already wrote to the
 * destination, so the whole-input stage adds no copies of its own.
 *
 * Wire format: u64 in size | n value words | n distance words |
 * trailing (<8) bytes verbatim.
 */
#include "transforms/transforms.h"

#include "util/bitio.h"
#include "util/hash.h"
#include "util/simd.h"

namespace fpc::tf {

namespace {

/** How many preceding same-hash values are probed for a match (paper: 4). */
constexpr size_t kFcmProbes = 4;

constexpr uint32_t kNil = 0xffffffffu;

/** How far ahead of the match loop the head slot is prefetched. */
constexpr size_t kPrefetchAhead = 8;

void
FcmEncodeImpl(ByteSpan in, Bytes& out, simd::Isa isa)
{
    const size_t n = in.size() / sizeof(uint64_t);
    const size_t tail = in.size() - n * sizeof(uint64_t);
    const size_t base = out.size();
    out.resize(base + sizeof(uint64_t) + 2 * n * sizeof(uint64_t) + tail);
    const uint64_t size64 = in.size();
    std::memcpy(out.data() + base, &size64, sizeof(size64));
    std::byte* out_values = out.data() + base + sizeof(uint64_t);
    std::byte* out_dists = out_values + n * sizeof(uint64_t);

    std::vector<uint64_t> hashes(n);
    if (n > 0) simd::Kernels(isa).fcm_hash(in.data(), n, hashes.data());

    // Chained hash table over the context hashes: heads[slot] is the most
    // recent index whose hash landed in the slot, link[i] the next-older
    // one in the same slot. Walking a chain yields same-hash predecessors
    // newest first; slot collisions between different hashes are skipped
    // without counting against the probe budget (they would not have been
    // adjacent in the old sorted order either).
    size_t cap = 16;
    while (cap < 2 * n) cap *= 2;
    std::vector<uint32_t> heads(cap, kNil);
    std::vector<uint32_t> link(n);
    const size_t mask = cap - 1;

    for (size_t i = 0; i < n; ++i) {
        if (i + kPrefetchAhead < n) {
            __builtin_prefetch(
                &heads[static_cast<size_t>(hashes[i + kPrefetchAhead]) &
                       mask]);
        }
        const uint64_t h = hashes[i];
        const uint64_t v = WordAt<uint64_t>(in, i);
        const size_t slot = static_cast<size_t>(h) & mask;
        uint64_t dist = 0;
        size_t probes = 0;
        for (uint32_t j = heads[slot]; j != kNil; j = link[j]) {
            if (hashes[j] != h) continue;
            if (WordAt<uint64_t>(in, j) == v) {
                dist = i - j;
                break;
            }
            if (++probes == kFcmProbes) break;
        }
        // A match stores value 0 and its distance; a miss the value and 0.
        const uint64_t kept = dist != 0 ? 0 : v;
        std::memcpy(out_values + i * sizeof(uint64_t), &kept, sizeof(kept));
        std::memcpy(out_dists + i * sizeof(uint64_t), &dist, sizeof(dist));
        link[i] = heads[slot];
        heads[slot] = static_cast<uint32_t>(i);
    }
    if (tail != 0) {
        std::memcpy(out_dists + n * sizeof(uint64_t),
                    in.data() + n * sizeof(uint64_t), tail);
    }
}

/** The wire-declared original size, after checking that the payload
 *  holds exactly its n value words, n distance words and tail. */
size_t
FcmOriginalSize(ByteSpan in)
{
    constexpr const char* kStage = "FCM";
    ByteReader br(in, kStage);
    const size_t orig_size = br.Get<uint64_t>();
    const size_t n = orig_size / sizeof(uint64_t);
    // Bound n by the actual payload first: for a huge wire-declared
    // orig_size the product in the equality check below would wrap and
    // could spuriously pass.
    FPC_PARSE_CHECK_AT(n <= br.Remaining() / (2 * sizeof(uint64_t)),
                       "FCM payload size mismatch", kStage, 0);
    FPC_PARSE_CHECK_AT(br.Remaining() == 2 * n * sizeof(uint64_t) +
                                             orig_size % sizeof(uint64_t),
                       "FCM payload size mismatch", kStage, 0);
    return orig_size;
}

void
FcmDecodeIntoImpl(ByteSpan in, std::span<std::byte> dest)
{
    constexpr const char* kStage = "FCM";
    const size_t orig_size = FcmOriginalSize(in);
    FPC_PARSE_CHECK_AT(orig_size == dest.size(), "FCM size mismatch", kStage,
                       0);
    const size_t n = orig_size / sizeof(uint64_t);
    const ByteSpan values = in.subspan(sizeof(uint64_t), n * sizeof(uint64_t));
    const ByteSpan dists = in.subspan(sizeof(uint64_t) + n * sizeof(uint64_t));

    // The matched index is always smaller, so a single in-order pass
    // resolves every chain in O(n), whatever its depth, reading each
    // match from the words already restored in @p dest. Both backends
    // decode FCM here; the paper's GPU decoder uses a parallel
    // union-find "find" instead, with identical results.
    for (size_t i = 0; i < n; ++i) {
        const uint64_t d = WordAt<uint64_t>(dists, i);
        uint64_t v;
        if (d == 0) {
            v = WordAt<uint64_t>(values, i);
        } else {
            FPC_PARSE_CHECK_AT(d <= i, "FCM distance out of range", kStage,
                               sizeof(uint64_t) + (n + i) * sizeof(uint64_t));
            v = WordAt<uint64_t>(dest, i - d);
        }
        std::memcpy(dest.data() + i * sizeof(uint64_t), &v, sizeof(v));
    }
    const ByteSpan tail = dists.subspan(n * sizeof(uint64_t));
    if (!tail.empty()) {
        std::memcpy(dest.data() + n * sizeof(uint64_t), tail.data(),
                    tail.size());
    }
}

}  // namespace

void
FcmEncode(ByteSpan in, Bytes& out)
{
    FcmEncodeImpl(in, out, simd::DefaultIsa());
}

void
FcmDecode(ByteSpan in, Bytes& out)
{
    // FcmOriginalSize bounds the size by the payload before the resize.
    const size_t orig_size = FcmOriginalSize(in);
    const size_t base = out.size();
    out.resize(base + orig_size);
    FcmDecodeIntoImpl(in,
                      std::span<std::byte>(out.data() + base, orig_size));
}

// FCM is the one whole-input stage: it runs once per Compress/Decompress
// rather than per chunk, so it keeps its own temporaries and only takes
// the kernel ISA level from the arena the uniform stage signature hands it.
void
FcmEncode(ByteSpan in, Bytes& out, ScratchArena& scratch)
{
    FcmEncodeImpl(in, out, scratch.KernelIsa());
}
void FcmDecode(ByteSpan in, Bytes& out, ScratchArena&) { FcmDecode(in, out); }

void
FcmDecodeInto(ByteSpan in, std::span<std::byte> dest, ScratchArena&)
{
    FcmDecodeIntoImpl(in, dest);
}

}  // namespace fpc::tf
