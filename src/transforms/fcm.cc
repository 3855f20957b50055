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
 * Wire format: varint(in size) | n value words | n distance words |
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

void
FcmEncodeImpl(ByteSpan in, Bytes& out, simd::Isa isa)
{
    ByteWriter wr(out);
    wr.Put<uint64_t>(in.size());

    std::vector<uint64_t> values = LoadWords<uint64_t>(in);
    const size_t n = values.size();

    std::vector<uint64_t> hashes(n);
    if (n > 0) {
        simd::Kernels(isa).fcm_hash(values.data(), n, hashes.data());
    }

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

    std::vector<uint64_t> out_values(n), out_dists(n);
    for (size_t i = 0; i < n; ++i) {
        const uint64_t h = hashes[i];
        const size_t slot = static_cast<size_t>(h) & mask;
        bool found = false;
        uint32_t matched = 0;
        size_t probes = 0;
        for (uint32_t j = heads[slot]; j != kNil; j = link[j]) {
            if (hashes[j] != h) continue;
            if (values[j] == values[i]) {
                matched = j;
                found = true;
                break;
            }
            if (++probes == kFcmProbes) break;
        }
        if (found) {
            out_values[i] = 0;
            out_dists[i] = i - matched;
        } else {
            out_values[i] = values[i];
            out_dists[i] = 0;
        }
        link[i] = heads[slot];
        heads[slot] = static_cast<uint32_t>(i);
    }
    wr.PutBytes(AsBytes(out_values));
    wr.PutBytes(AsBytes(out_dists));
    wr.PutBytes(in.subspan(n * sizeof(uint64_t)));
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

    std::vector<uint64_t> values = LoadWords<uint64_t>(br.GetBytes(n * 8));
    std::vector<uint64_t> dists = LoadWords<uint64_t>(br.GetBytes(n * 8));

    // The matched index is always smaller, so a single in-order pass
    // resolves every chain in O(n), whatever its depth. Both backends
    // decode FCM here; the paper's GPU decoder uses a parallel union-find
    // "find" instead, with identical results.
    std::vector<uint64_t> result(n);
    for (size_t i = 0; i < n; ++i) {
        if (dists[i] == 0) {
            result[i] = values[i];
        } else {
            FPC_PARSE_CHECK_AT(dists[i] <= i, "FCM distance out of range",
                               kStage,
                               sizeof(uint64_t) + (n + i) * sizeof(uint64_t));
            result[i] = result[i - dists[i]];
        }
    }
    AppendBytes(out, AsBytes(result));
    AppendBytes(out, br.Rest());
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

}  // namespace fpc::tf
