/**
 * @file
 * Low-overhead metrics/tracing for the compression pipeline.
 *
 * The paper's headline claims are per-stage throughput numbers, so the
 * library can account for where time and bytes go instead of forcing
 * callers to re-measure end-to-end from outside. A caller hands a
 * `Telemetry*` sink to any compress/decompress call via
 * `Options::with_telemetry`; the run then collects, per stage
 * (DIFFMS/MPLG/BIT/RZE/FCM/RAZE/RARE) and aggregated over the run:
 * wall time, input/output bytes, and call counts — plus raw-chunk
 * fallback counts, MPLG enhancement (subchunk retry) counts, and arena
 * high-water marks.
 *
 * Design rules (see DESIGN.md "Observability"):
 *  - **No atomics on the hot path.** Every worker (OpenMP thread or
 *    gpusim launch worker) owns a TelemetryShard and bumps plain
 *    counters; shards are merged into the sink once, at the barrier that
 *    ends the parallel region. The sink itself takes a mutex only at
 *    merge time.
 *  - **Null-sink fast path.** When no sink is attached the per-stage
 *    hooks reduce to one pointer test (no clock reads); golden streams
 *    and throughput are untouched.
 *  - **Compile-time off switch.** Building with -DFPC_TELEMETRY=0 turns
 *    every hook into a no-op and the sink never fills; the API keeps
 *    compiling so callers need no #ifdefs.
 *  - **Bytes are exact.** Stage input/output byte counters are summed
 *    from the same spans the stages see, so they reconcile with the
 *    container totals (asserted by tests/telemetry_test.cc).
 *
 * The JSON exported by ToJson() is a stable, versioned schema
 * ("fpc.telemetry.v7": per-run stage/chunk/ranged/adaptive accounting
 * only) consumed by `fpczip --stats`, the eval harness, and the figure
 * benches; tools/check_stats_schema.py pins it. Timeline tracing
 * (span-level, exported as Chrome trace-event JSON) lives in
 * core/trace.h and shares this file's shard/barrier machinery; the
 * live counters/gauges/exposition layer lives in core/metrics.h, owns
 * every process-lifetime service counter, and is fed from this file's
 * run barrier (RecordRunMetrics).
 */
#ifndef FPC_CORE_TELEMETRY_H
#define FPC_CORE_TELEMETRY_H

#include <chrono>
#include <mutex>
#include <span>
#include <string>

#include "core/arena.h"
#include "core/metrics.h"
#include "core/trace.h"
#include "core/types.h"
#include "util/common.h"

// Compile-time switch; CMake option FPC_TELEMETRY (default ON) defines it
// on every target. 0 compiles every hook out of the pipeline.
#ifndef FPC_TELEMETRY
#define FPC_TELEMETRY 1
#endif

namespace fpc {

/** True when the library was built with telemetry hooks compiled in. */
inline constexpr bool kTelemetryEnabled = FPC_TELEMETRY != 0;

/** The seven instrumented transform stages (paper Figure 1). */
enum class StageId : uint8_t {
    kDiffms = 0,
    kMplg = 1,
    kBit = 2,
    kRze = 3,
    kFcm = 4,
    kRaze = 5,
    kRare = 6,
};
inline constexpr size_t kStageCount = 7;

/** Wire/JSON name of a stage ("DIFFMS", "MPLG", ...). */
const char* StageName(StageId id);

/** Monotonic nanosecond clock used by all telemetry timing. */
inline uint64_t
TelemetryNowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** One direction (encode or decode) of one stage's counters. */
struct StageStats {
    uint64_t calls = 0;
    uint64_t wall_ns = 0;
    uint64_t input_bytes = 0;
    uint64_t output_bytes = 0;

    void
    Add(const StageStats& other)
    {
        calls += other.calls;
        wall_ns += other.wall_ns;
        input_bytes += other.input_bytes;
        output_bytes += other.output_bytes;
    }
};

/** Both directions of one stage. */
struct StageMetrics {
    StageStats encode;
    StageStats decode;
};

/** Encode + decode latency histograms of one stage / of the chunk loop. */
struct LatencyMetrics {
    LatencyHistogram encode;
    LatencyHistogram decode;
};

/**
 * Per-worker counter block. Each OpenMP thread / gpusim launch worker owns
 * one shard for the duration of a run (wired to its ScratchArena), bumps
 * it without synchronisation, and the orchestrating thread merges all
 * shards into the Telemetry sink after the join. Plain aggregate: merging
 * is memberwise addition (max for the high-water mark).
 */
struct TelemetryShard {
    std::array<StageMetrics, kStageCount> stages{};
    std::array<LatencyMetrics, kStageCount> stage_latency{};
    LatencyMetrics chunk_latency;  ///< whole-chunk encode/decode latency
    uint64_t chunks_encoded = 0;
    uint64_t chunks_raw = 0;      ///< raw-fallback chunks (pipeline lost)
    uint64_t chunks_decoded = 0;
    uint64_t mplg_subchunks = 0;  ///< MPLG subchunks seen on encode
    uint64_t mplg_enhanced = 0;   ///< subchunks that took the retry path
    /** Max ScratchArena::CapacityBytes observed: one worker's scratch.
     *  It excludes the compress call's staging buffer (EncodePlan, the
     *  orchestrating thread's allocation of n_chunks × kChunkSize that
     *  holds the staged payloads) and every input or output buffer. */
    uint64_t arena_high_water_bytes = 0;
    /** Adaptive (mode=auto) selection counters (core/adaptive.cc). In an
     *  auto run, chunks_encoded counts encode *attempts* — each margin
     *  trial adds one — so chunks_encoded = chunks + adaptive_trials. */
    std::array<uint64_t, 4> adaptive_chunks{};  ///< chunks won, by Algorithm
    uint64_t adaptive_raw_chunks = 0;  ///< chunks the probe sent to raw
    uint64_t adaptive_probe_calls = 0;
    uint64_t adaptive_probe_ns = 0;    ///< feature probe time (not trials)
    uint64_t adaptive_trials = 0;      ///< second-candidate trial encodes
    uint64_t adaptive_predicted_bytes = 0;  ///< probe's winning predictions
    uint64_t adaptive_actual_bytes = 0;     ///< stored payload bytes
    /** This worker's span ring, or nullptr when tracing is not attached
     *  for the run. Wired by TelemetryRunScope; never merged. */
    TraceRing* trace = nullptr;

    StageMetrics& operator[](StageId id) {
        return stages[static_cast<size_t>(id)];
    }
    const StageMetrics& operator[](StageId id) const {
        return stages[static_cast<size_t>(id)];
    }

    /** Hot-path hooks; callers hold a non-null shard only when a sink is
     *  attached, so the null-sink path never reaches these. */
    void
    OnStageEncode(StageId id, size_t in_bytes, size_t out_bytes,
                  uint64_t wall_ns)
    {
        StageStats& s = (*this)[id].encode;
        ++s.calls;
        s.wall_ns += wall_ns;
        s.input_bytes += in_bytes;
        s.output_bytes += out_bytes;
        stage_latency[static_cast<size_t>(id)].encode.Record(wall_ns);
    }

    void
    OnStageDecode(StageId id, size_t in_bytes, size_t out_bytes,
                  uint64_t wall_ns)
    {
        StageStats& s = (*this)[id].decode;
        ++s.calls;
        s.wall_ns += wall_ns;
        s.input_bytes += in_bytes;
        s.output_bytes += out_bytes;
        stage_latency[static_cast<size_t>(id)].decode.Record(wall_ns);
    }

    /** Whole-chunk latency hooks (executor chunk loops, both backends). */
    void OnChunkEncode(uint64_t wall_ns) { chunk_latency.encode.Record(wall_ns); }
    void OnChunkDecode(uint64_t wall_ns) { chunk_latency.decode.Record(wall_ns); }

    void Merge(const TelemetryShard& other);
};

/** Run-direction totals (meaning of input/output follows the direction:
 *  compress consumes uncompressed bytes and emits container bytes,
 *  decompress the reverse). */
struct RunTotals {
    uint64_t calls = 0;
    uint64_t input_bytes = 0;
    uint64_t output_bytes = 0;
    uint64_t wall_ns = 0;
};

/**
 * Random-access (ranged-read) totals: what a DecompressRange call touched
 * versus what it was able to skip. `chunks_skipped` counts chunks of the
 * covering frames that the range proved unnecessary to decode;
 * io_reads/io_bytes come from the ByteSource counters, so they reflect
 * actual ranged I/O, not file size.
 */
struct RangedTotals {
    uint64_t calls = 0;           ///< DecompressRange invocations
    uint64_t elements = 0;        ///< elements returned
    uint64_t frames_decoded = 0;  ///< frames a range touched
    uint64_t chunks_decoded = 0;  ///< chunks decoded for ranges
    uint64_t chunks_skipped = 0;  ///< covering-frame chunks not decoded
    uint64_t io_reads = 0;        ///< ByteSource reads issued
    uint64_t io_bytes = 0;        ///< ByteSource bytes fetched
    uint64_t index_hits = 0;      ///< calls resolved via a seek index

    void
    Add(const RangedTotals& other)
    {
        calls += other.calls;
        elements += other.elements;
        frames_decoded += other.frames_decoded;
        chunks_decoded += other.chunks_decoded;
        chunks_skipped += other.chunks_skipped;
        io_reads += other.io_reads;
        io_bytes += other.io_bytes;
        index_hits += other.index_hits;
    }
};

/** Aggregated view of a sink; a plain value, safe to copy and inspect
 *  after the sink keeps collecting. */
struct TelemetrySnapshot {
    RunTotals compress;
    RunTotals decompress;
    RangedTotals ranged;
    TelemetryShard counters;
    std::string executor;   ///< last executor name recorded
    std::string algorithm;  ///< last algorithm name recorded
    std::string isa;        ///< kernel ISA the last run dispatched
};

/** Render a snapshot as one line of schema-stable JSON
 *  ("fpc.telemetry.v7"; see DESIGN.md "Observability"). */
std::string ToJson(const TelemetrySnapshot& snapshot);

/**
 * A metrics sink. Attach one to any number of compress/decompress calls
 * (`Options::with_telemetry(&sink)`); counters accumulate across calls
 * until Reset(). Merges lock a mutex, so one sink may serve concurrent
 * calls; the hot path never touches the sink directly.
 */
class Telemetry {
 public:
    Telemetry() = default;
    Telemetry(const Telemetry&) = delete;
    Telemetry& operator=(const Telemetry&) = delete;

    /** Merge one worker shard (barrier-time, never per chunk). */
    void Merge(const TelemetryShard& shard);

    /** Record run totals for one compress / decompress call. */
    void AddCompress(uint64_t input_bytes, uint64_t output_bytes,
                     uint64_t wall_ns);
    void AddDecompress(uint64_t input_bytes, uint64_t output_bytes,
                       uint64_t wall_ns);

    /** Record one DecompressRange call's touched/skipped totals. */
    void AddRangedRead(const RangedTotals& delta);

    /** Record which backend/algorithm/kernel-ISA the (last) run used. */
    void SetContext(const std::string& executor, Algorithm algorithm,
                    const char* isa);

    /** SetContext with a free-form algorithm label — "auto" for adaptive
     *  (mode=auto) runs, whose containers have no single algorithm. */
    void SetContext(const std::string& executor,
                    const std::string& algorithm, const char* isa);

    TelemetrySnapshot Snapshot() const;
    std::string ToJson() const { return fpc::ToJson(Snapshot()); }
    void Reset();

 private:
    mutable std::mutex mutex_;
    TelemetrySnapshot state_;
};

/**
 * Stack-scoped per-run collection used by the executors: when a sink
 * and/or a trace is attached (and telemetry is compiled in), owns one
 * TelemetryShard — and, when tracing, one TraceRing — per worker, wires
 * each shard to its worker's ScratchArena, and merges all shards (plus
 * the arenas' high-water marks) into the sink and all rings into the
 * trace at Finish(), the run barrier. With neither attached every method
 * is a cheap no-op, which is the null-sink fast path of the whole
 * subsystem.
 */
class TelemetryRunScope {
 public:
    TelemetryRunScope(Telemetry* sink, TraceSink* trace, size_t n_workers)
    {
#if FPC_TELEMETRY
        if (sink != nullptr || trace != nullptr) {
            sink_ = sink;
            trace_ = trace;
            shards_.resize(n_workers + 1);  // +1: the orchestrating thread
            if (trace_ != nullptr) {
                rings_.resize(n_workers + 1);
                // The orchestrating thread only records pre-stage spans.
                rings_.back().Reserve(kMainRingSpans);
                for (size_t i = 0; i < shards_.size(); ++i) {
                    shards_[i].trace = &rings_[i];
                }
            }
        }
#else
        (void)sink;
        (void)trace;
        (void)n_workers;
#endif
    }

    TelemetryRunScope(Telemetry* sink, size_t n_workers)
        : TelemetryRunScope(sink, nullptr, n_workers) {}

    bool Enabled() const { return !shards_.empty(); }
    bool Tracing() const { return trace_ != nullptr; }

    /** Size the worker rings for a run of @p n_chunks chunks: worst case
     *  one worker takes every chunk, each contributing a chunk span, a
     *  block span, and one span per pipeline stage. Capped (spans past
     *  capacity are dropped and counted) so pathological inputs cannot
     *  demand unbounded ring memory. Call before Attach(). */
    void
    HintChunks(size_t n_chunks)
    {
        chunk_hint_ = n_chunks;
    }

    /** Worker @p i's shard, or nullptr when disabled. */
    TelemetryShard*
    WorkerShard(size_t i)
    {
        return Enabled() ? &shards_[i] : nullptr;
    }

    /** Shard of the orchestrating thread (whole-input pre-stages). */
    TelemetryShard*
    MainShard()
    {
        return Enabled() ? &shards_.back() : nullptr;
    }

    /** Point every arena at its worker's shard (index-aligned) and
     *  preallocate the worker trace rings (never on the chunk path). */
    void
    Attach(std::span<ScratchArena> arenas)
    {
        if (!Enabled()) return;
        if (Tracing()) {
            const size_t per_chunk = kStageCount + 2;
            const size_t spans = std::min(
                kMaxRingSpans,
                std::max<size_t>(chunk_hint_, 1) * per_chunk + 8);
            for (size_t i = 0; i + 1 < rings_.size(); ++i) {
                rings_[i].Reserve(spans);
            }
        }
        for (size_t i = 0; i < arenas.size(); ++i) {
            arenas[i].SetTelemetryShard(WorkerShard(i));
        }
    }

    /** Merge every shard (and ring) and @p arenas' high-water marks into
     *  the sinks. Call once, after the parallel region's barrier. */
    void
    Finish(std::span<ScratchArena> arenas)
    {
        if (!Enabled()) return;
        for (ScratchArena& arena : arenas) {
            arena.SetTelemetryShard(nullptr);
        }
        TelemetryShard merged;
        for (size_t i = 0; i < shards_.size(); ++i) {
            if (i < arenas.size()) {
                shards_[i].arena_high_water_bytes =
                    std::max(shards_[i].arena_high_water_bytes,
                             static_cast<uint64_t>(
                                 arenas[i].CapacityBytes()));
            }
            merged.Merge(shards_[i]);
        }
        if (sink_ != nullptr) {
            sink_->Merge(merged);
            // Fold the same merged shard into the live metrics layer —
            // once per run, at the barrier, so the registry costs the
            // chunk hot path nothing.
            RecordRunMetrics(merged);
        }
        if (trace_ != nullptr) {
            for (size_t i = 0; i < rings_.size(); ++i) {
                trace_->MergeRing(static_cast<uint32_t>(i), rings_[i]);
            }
        }
        sink_ = nullptr;
        trace_ = nullptr;
        shards_.clear();
    }

 private:
    static constexpr size_t kMainRingSpans = 16;
    static constexpr size_t kMaxRingSpans = size_t{1} << 18;  // 8 MiB/ring

    Telemetry* sink_ = nullptr;
    TraceSink* trace_ = nullptr;
    size_t chunk_hint_ = 0;
    std::vector<TelemetryShard> shards_;
    std::vector<TraceRing> rings_;
};

/** The sink a call should report to: Options::telemetry when the build
 *  has telemetry compiled in, nullptr otherwise (makes -DFPC_TELEMETRY=0
 *  a whole-subsystem no-op without #ifdefs at call sites). */
inline Telemetry*
SinkOf(const Options& options)
{
    return kTelemetryEnabled ? options.telemetry : nullptr;
}

/** Trace counterpart of SinkOf: Options::trace when the build has
 *  telemetry compiled in, nullptr otherwise — -DFPC_TELEMETRY=0 turns
 *  tracing into a whole-subsystem no-op the same way. */
inline TraceSink*
TraceOf(const Options& options)
{
    return kTelemetryEnabled ? options.trace : nullptr;
}

}  // namespace fpc

#endif  // FPC_CORE_TELEMETRY_H
