#include "core/adaptive.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

namespace fpc {

namespace {

constexpr size_t kProbeSamples = 16;  // sample windows per chunk
constexpr size_t kProbeWindow = 16;   // bytes read per sample point

// Trial-encode every candidate whose predicted size is within this
// factor of the winner's: the model is heuristic, the trials are exact,
// so a generous margin turns near-ties into measured decisions. The id
// table costs one byte per chunk, which auto must earn back — picking
// the true minimum among plausible candidates is what pays for it.
constexpr double kTrialMargin = 2.0;

// Skip encoding entirely only when even the best pipeline is predicted
// to expand the chunk by a clear margin; anything closer is encoded and
// EncodeChunk's raw fallback makes the exact call.
constexpr double kRawMargin = 1.05;

inline uint64_t
ZigZag64(uint64_t d)
{
    return (d << 1) ^ static_cast<uint64_t>(static_cast<int64_t>(d) >> 63);
}

inline uint32_t
ZigZag32(uint32_t d)
{
    return (d << 1) ^ static_cast<uint32_t>(static_cast<int32_t>(d) >> 31);
}

}  // namespace

ChunkFeatures
ProbeChunk(ByteSpan chunk)
{
    ChunkFeatures f;
    const size_t n = chunk.size();
    if (n < kProbeWindow) return f;

    // Evenly strided windows, the stride rounded down to 8 bytes so the
    // u64 deltas always compare value-aligned positions. points <=
    // n/window keeps the stride >= the window: no overlap, last window
    // in bounds.
    const size_t points = std::min(kProbeSamples, n / kProbeWindow);
    const size_t stride =
        points > 1 ? ((n - kProbeWindow) / (points - 1)) & ~size_t{7} : 0;

    uint64_t sum_lz32 = 0, min_lz32 = 32;
    uint64_t sum_lz64 = 0, min_lz64 = 64;
    uint64_t repeats = 0;
    std::array<uint32_t, 256> hist{};

    for (size_t i = 0; i < points; ++i) {
        const std::byte* p = chunk.data() + i * stride;
        uint64_t a64, b64;
        std::memcpy(&a64, p, 8);
        std::memcpy(&b64, p + 8, 8);
        const uint64_t z64 = ZigZag64(b64 - a64);
        repeats += z64 == 0 ? 1 : 0;
        const unsigned lz64 =
            z64 == 0 ? 64u : static_cast<unsigned>(std::countl_zero(z64));
        sum_lz64 += lz64;
        min_lz64 = std::min<uint64_t>(min_lz64, lz64);
        for (int b = 0; b < 8; ++b) {
            ++hist[(z64 >> (8 * b)) & 0xff];
        }

        uint32_t w[4];
        std::memcpy(w, p, 16);
        for (int k = 0; k < 3; ++k) {
            const uint32_t z32 = ZigZag32(w[k + 1] - w[k]);
            const unsigned lz32 =
                z32 == 0 ? 32u
                         : static_cast<unsigned>(std::countl_zero(z32));
            sum_lz32 += lz32;
            min_lz32 = std::min<uint64_t>(min_lz32, lz32);
        }
    }

    f.samples = points;
    f.avg_lz32 = static_cast<double>(sum_lz32) / (3.0 * points);
    f.min_lz32 = static_cast<double>(min_lz32);
    f.avg_lz64 = static_cast<double>(sum_lz64) / static_cast<double>(points);
    f.min_lz64 = static_cast<double>(min_lz64);
    f.repeat64 = static_cast<double>(repeats) / static_cast<double>(points);
    const double sampled_bytes = 8.0 * points;
    double h = 0.0;
    for (uint32_t c : hist) {
        if (c == 0) continue;
        const double p = c / sampled_bytes;
        h -= p * std::log2(p);
    }
    f.entropy = h;
    return f;
}

std::array<double, 4>
PredictChunkSizes(const ChunkFeatures& f, size_t chunk_bytes)
{
    const double n = static_cast<double>(chunk_bytes);
    std::array<double, 4> pred{n, n, n, n};
    if (f.samples == 0) return pred;

    // The speed pipelines (MPLG) pack each 512-byte subchunk at the
    // width of its largest delta, so their effective width leans toward
    // the sample's minimum leading-zero count; the byte/bit-granular
    // ratio pipelines track the average instead. The additive terms are
    // subchunk-header and elimination-bitmap overheads.
    const double w32_speed = 32.0 - (3.0 * f.min_lz32 + f.avg_lz32) / 4.0;
    const double w32_ratio = 32.0 - f.avg_lz32;
    const double w64_speed = 64.0 - (3.0 * f.min_lz64 + f.avg_lz64) / 4.0;
    pred[0] = n * w32_speed / 32.0 + n / 256.0;
    pred[1] = n * w32_ratio / 32.0 + n / 64.0;
    pred[2] = n * w64_speed / 64.0 + n / 256.0;
    // DPratio: FCM zeroes repeated values (each then costs about a
    // match-distance code); unmatched values keep their
    // delta-significant bytes plus a distance word that RAZE/RARE
    // mostly eliminate.
    const double words64 = n / 8.0;
    pred[3] =
        words64 * (f.repeat64 * 3.0 +
                   (1.0 - f.repeat64) * ((64.0 - f.avg_lz64) / 8.0 + 1.0)) +
        n / 64.0;

    // None of the pipelines entropy-codes, so none beats the sampled
    // delta-byte entropy by much — a weak floor that pushes high-entropy
    // chunks toward the raw path.
    const double floor_bytes = n * f.entropy / 8.0 * 0.5;
    for (double& p : pred) p = std::max(p, floor_bytes);
    return pred;
}

ByteSpan
EncodeChunkAuto(ByteSpan chunk, bool& raw, uint8_t& algorithm_id,
                ScratchArena& scratch, ChunkEncodeFn encode)
{
    TelemetryShard* shard = scratch.Telemetry();
    const uint64_t probe_t0 = shard != nullptr ? TelemetryNowNs() : 0;
    const ChunkFeatures features = ProbeChunk(chunk);
    const std::array<double, 4> pred =
        PredictChunkSizes(features, chunk.size());
    if (shard != nullptr) {
        ++shard->adaptive_probe_calls;
        shard->adaptive_probe_ns += TelemetryNowNs() - probe_t0;
    }

    // Rank by predicted size; ties go to the lower id (the faster
    // pipeline of the pair). The ranking is a pure function of the chunk
    // bytes, so every backend picks the same candidates.
    std::array<uint8_t, 4> order{0, 1, 2, 3};
    std::sort(order.begin(), order.end(), [&](uint8_t a, uint8_t b) {
        return pred[a] != pred[b] ? pred[a] < pred[b] : a < b;
    });
    const uint8_t best = order[0];

    if (pred[best] >= static_cast<double>(chunk.size()) * kRawMargin) {
        raw = true;
        algorithm_id = best;
        if (shard != nullptr) {
            ++shard->chunks_encoded;
            ++shard->chunks_raw;
            ++shard->adaptive_raw_chunks;
            shard->adaptive_predicted_bytes += chunk.size();
            shard->adaptive_actual_bytes += chunk.size();
        }
        return chunk;
    }

    // When every sampled delta is zero (a constant or near-constant
    // chunk) the model has nothing to rank by: its per-pipeline overhead
    // terms differ by more than the trial margin, yet the real outputs
    // are all tiny and any pipeline may be smallest. Trial them all.
    const bool flat = features.samples > 0 && features.min_lz32 == 32.0 &&
                      features.min_lz64 == 64.0;
    bool raw_best = false;
    ByteSpan payload = encode(GetChunkPipeline(static_cast<Algorithm>(best)),
                              chunk, raw_best, scratch);
    uint8_t winner = best;
    raw = raw_best;
    if (flat || pred[order[1]] <= pred[best] * kTrialMargin) {
        // Too close to trust the model: park the current winner's bytes
        // and let every in-margin candidate compete on actual output
        // size (each trial encode reuses the arena, so the winner must
        // live in the stash between rounds).
        Bytes& stash = scratch.TrialStash();
        stash.assign(payload.begin(), payload.end());
        size_t winner_size = raw ? chunk.size() : stash.size();
        for (int r = 1; r < 4; ++r) {
            const uint8_t cand = order[static_cast<size_t>(r)];
            if (!flat && pred[cand] > pred[best] * kTrialMargin) break;
            bool raw_cand = false;
            const ByteSpan payload_cand =
                encode(GetChunkPipeline(static_cast<Algorithm>(cand)),
                       chunk, raw_cand, scratch);
            if (shard != nullptr) ++shard->adaptive_trials;
            const size_t size_cand =
                raw_cand ? chunk.size() : payload_cand.size();
            if (size_cand < winner_size) {
                winner = cand;
                raw = raw_cand;
                winner_size = size_cand;
                stash.assign(payload_cand.begin(), payload_cand.end());
            }
        }
        payload = raw ? chunk : ByteSpan(stash);
    }
    algorithm_id = winner;
    if (shard != nullptr) {
        ++shard->adaptive_chunks[winner];
        shard->adaptive_predicted_bytes +=
            static_cast<uint64_t>(pred[winner]);
        shard->adaptive_actual_bytes += raw ? chunk.size() : payload.size();
    }
    return payload;
}

}  // namespace fpc
