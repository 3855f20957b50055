#include "core/telemetry.h"

namespace fpc {

const char*
StageName(StageId id)
{
    switch (id) {
      case StageId::kDiffms: return "DIFFMS";
      case StageId::kMplg: return "MPLG";
      case StageId::kBit: return "BIT";
      case StageId::kRze: return "RZE";
      case StageId::kFcm: return "FCM";
      case StageId::kRaze: return "RAZE";
      case StageId::kRare: return "RARE";
    }
    return "unknown";
}

void
TelemetryShard::Merge(const TelemetryShard& other)
{
    for (size_t s = 0; s < kStageCount; ++s) {
        stages[s].encode.Add(other.stages[s].encode);
        stages[s].decode.Add(other.stages[s].decode);
        stage_latency[s].encode.Add(other.stage_latency[s].encode);
        stage_latency[s].decode.Add(other.stage_latency[s].decode);
    }
    chunk_latency.encode.Add(other.chunk_latency.encode);
    chunk_latency.decode.Add(other.chunk_latency.decode);
    chunks_encoded += other.chunks_encoded;
    chunks_raw += other.chunks_raw;
    chunks_decoded += other.chunks_decoded;
    mplg_subchunks += other.mplg_subchunks;
    mplg_enhanced += other.mplg_enhanced;
    arena_high_water_bytes =
        std::max(arena_high_water_bytes, other.arena_high_water_bytes);
    for (size_t a = 0; a < adaptive_chunks.size(); ++a) {
        adaptive_chunks[a] += other.adaptive_chunks[a];
    }
    adaptive_raw_chunks += other.adaptive_raw_chunks;
    adaptive_probe_calls += other.adaptive_probe_calls;
    adaptive_probe_ns += other.adaptive_probe_ns;
    adaptive_trials += other.adaptive_trials;
    adaptive_predicted_bytes += other.adaptive_predicted_bytes;
    adaptive_actual_bytes += other.adaptive_actual_bytes;
}

void
Telemetry::Merge(const TelemetryShard& shard)
{
    std::lock_guard<std::mutex> lock(mutex_);
    state_.counters.Merge(shard);
}

void
Telemetry::AddCompress(uint64_t input_bytes, uint64_t output_bytes,
                       uint64_t wall_ns)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++state_.compress.calls;
    state_.compress.input_bytes += input_bytes;
    state_.compress.output_bytes += output_bytes;
    state_.compress.wall_ns += wall_ns;
}

void
Telemetry::AddDecompress(uint64_t input_bytes, uint64_t output_bytes,
                         uint64_t wall_ns)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++state_.decompress.calls;
    state_.decompress.input_bytes += input_bytes;
    state_.decompress.output_bytes += output_bytes;
    state_.decompress.wall_ns += wall_ns;
}

void
Telemetry::AddRangedRead(const RangedTotals& delta)
{
    std::lock_guard<std::mutex> lock(mutex_);
    state_.ranged.Add(delta);
}

void
Telemetry::SetContext(const std::string& executor, Algorithm algorithm,
                      const char* isa)
{
    SetContext(executor, std::string(AlgorithmName(algorithm)), isa);
}

void
Telemetry::SetContext(const std::string& executor,
                      const std::string& algorithm, const char* isa)
{
    std::lock_guard<std::mutex> lock(mutex_);
    state_.executor = executor;
    state_.algorithm = algorithm;
    state_.isa = isa;
}

TelemetrySnapshot
Telemetry::Snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return state_;
}

void
Telemetry::Reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    state_ = TelemetrySnapshot{};
}

namespace {

void
AppendField(std::string& out, const char* key, uint64_t value, bool last)
{
    out += '"';
    out += key;
    out += "\": ";
    out += std::to_string(value);
    if (!last) out += ", ";
}

void
AppendRunTotals(std::string& out, const char* key, const RunTotals& totals)
{
    out += '"';
    out += key;
    out += "\": {";
    AppendField(out, "calls", totals.calls, false);
    AppendField(out, "input_bytes", totals.input_bytes, false);
    AppendField(out, "output_bytes", totals.output_bytes, false);
    AppendField(out, "wall_ns", totals.wall_ns, true);
    out += '}';
}

void
AppendStageStats(std::string& out, const char* key, const StageStats& stats)
{
    out += '"';
    out += key;
    out += "\": {";
    AppendField(out, "calls", stats.calls, false);
    AppendField(out, "wall_ns", stats.wall_ns, false);
    AppendField(out, "input_bytes", stats.input_bytes, false);
    AppendField(out, "output_bytes", stats.output_bytes, true);
    out += '}';
}

/** Histogram digest: sample count, log-bucket p50/p95/p99, exact max. */
void
AppendDigest(std::string& out, const char* key,
             const LatencyHistogram& hist, bool last)
{
    out += '"';
    out += key;
    out += "\": {";
    AppendField(out, "count", hist.count, false);
    AppendField(out, "p50_ns", hist.P50(), false);
    AppendField(out, "p95_ns", hist.P95(), false);
    AppendField(out, "p99_ns", hist.P99(), false);
    AppendField(out, "max_ns", hist.max_ns, true);
    out += '}';
    if (!last) out += ", ";
}

}  // namespace

// Schema "fpc.telemetry.v7" (v6 without the per-tenant service block
// and the live-metrics mirror, whose numbers the MetricsRegistry
// owns): the key set, nesting, and the fixed seven-entry stage order
// below are load-bearing — fpczip --stats, the figure benches' CSV
// columns, the bench-regression baselines, and
// tools/check_stats_schema.py all consume this shape. Extend by adding
// keys; never rename or reorder without bumping the schema tag. The
// adaptive block is always emitted (all-zero for fixed-mode runs) so
// consumers need no presence checks.
std::string
ToJson(const TelemetrySnapshot& snapshot)
{
    std::string out;
    out.reserve(3072);
    out += "{\"schema\": \"fpc.telemetry.v7\", ";
    out += "\"executor\": \"" + snapshot.executor + "\", ";
    out += "\"algorithm\": \"" + snapshot.algorithm + "\", ";
    out += "\"isa\": \"" + snapshot.isa + "\", ";
    AppendRunTotals(out, "compress", snapshot.compress);
    out += ", ";
    AppendRunTotals(out, "decompress", snapshot.decompress);
    out += ", \"ranged\": {";
    AppendField(out, "calls", snapshot.ranged.calls, false);
    AppendField(out, "elements", snapshot.ranged.elements, false);
    AppendField(out, "frames_decoded", snapshot.ranged.frames_decoded,
                false);
    AppendField(out, "chunks_decoded", snapshot.ranged.chunks_decoded,
                false);
    AppendField(out, "chunks_skipped", snapshot.ranged.chunks_skipped,
                false);
    AppendField(out, "io_reads", snapshot.ranged.io_reads, false);
    AppendField(out, "io_bytes", snapshot.ranged.io_bytes, false);
    AppendField(out, "index_hits", snapshot.ranged.index_hits, true);
    out += "}, \"chunks\": {";
    AppendField(out, "encoded", snapshot.counters.chunks_encoded, false);
    AppendField(out, "raw_fallback", snapshot.counters.chunks_raw, false);
    AppendField(out, "decoded", snapshot.counters.chunks_decoded, true);
    out += "}, \"adaptive\": {";
    out += "\"chunks\": {";
    for (size_t a = 0; a < snapshot.counters.adaptive_chunks.size(); ++a) {
        AppendField(out, AlgorithmName(static_cast<Algorithm>(a)),
                    snapshot.counters.adaptive_chunks[a],
                    a + 1 == snapshot.counters.adaptive_chunks.size());
    }
    out += "}, ";
    AppendField(out, "raw_chunks", snapshot.counters.adaptive_raw_chunks,
                false);
    AppendField(out, "probe_calls", snapshot.counters.adaptive_probe_calls,
                false);
    AppendField(out, "probe_ns", snapshot.counters.adaptive_probe_ns,
                false);
    AppendField(out, "trials", snapshot.counters.adaptive_trials, false);
    AppendField(out, "predicted_bytes",
                snapshot.counters.adaptive_predicted_bytes, false);
    AppendField(out, "actual_bytes",
                snapshot.counters.adaptive_actual_bytes, true);
    out += "}, \"mplg\": {";
    AppendField(out, "subchunks", snapshot.counters.mplg_subchunks, false);
    AppendField(out, "enhanced_subchunks", snapshot.counters.mplg_enhanced,
                true);
    out += "}, \"arena\": {";
    AppendField(out, "high_water_bytes",
                snapshot.counters.arena_high_water_bytes, true);
    out += "}, \"histograms\": {";
    AppendDigest(out, "chunk_encode", snapshot.counters.chunk_latency.encode,
                 false);
    AppendDigest(out, "chunk_decode", snapshot.counters.chunk_latency.decode,
                 true);
    out += "}, \"stages\": [";
    for (size_t s = 0; s < kStageCount; ++s) {
        if (s != 0) out += ", ";
        out += "{\"stage\": \"";
        out += StageName(static_cast<StageId>(s));
        out += "\", ";
        AppendStageStats(out, "encode", snapshot.counters.stages[s].encode);
        out += ", ";
        AppendStageStats(out, "decode", snapshot.counters.stages[s].decode);
        out += ", \"latency\": {";
        AppendDigest(out, "encode",
                     snapshot.counters.stage_latency[s].encode, false);
        AppendDigest(out, "decode",
                     snapshot.counters.stage_latency[s].decode, true);
        out += "}}";
    }
    out += "]}";
    return out;
}

}  // namespace fpc
