/**
 * @file
 * Hierarchical span tracing for the compression pipeline.
 *
 * Telemetry (core/telemetry.h) answers *how much* each stage costs in
 * aggregate; tracing answers *when*: chunk-scheduling gaps, worker
 * imbalance, and tail latency become visible as a timeline. A run with a
 * TraceSink attached (`Options::with_trace`, `Codec::enable_tracing`,
 * `fpczip --trace=FILE`) records a span hierarchy
 *
 *   run  >  worker  >  chunk  >  stage          (both executors)
 *   run  >  worker  >  block  >  chunk > stage  (gpusim block launches)
 *   run  >  worker  >  checksum                 (content checksum combine)
 *
 * and exports it as Chrome trace-event JSON ("fpc.trace.v1"), loadable
 * in Perfetto or chrome://tracing.
 *
 * Design rules (shared with telemetry; DESIGN.md "Observability"):
 *  - **No locks or allocations on the hot path.** Every worker records
 *    into its own TraceRing — a fixed-capacity buffer preallocated by
 *    TelemetryRunScope before the parallel region. When a ring fills,
 *    further spans are dropped and counted (never reallocated). Rings
 *    merge into the TraceSink once, at the same run barrier that merges
 *    the telemetry shards; only the merge takes the sink mutex.
 *  - **Null-sink fast path.** With no sink attached the hooks cost the
 *    same single pointer test as telemetry's.
 *  - **Compile-time off switch.** -DFPC_TELEMETRY=0 compiles every
 *    recording hook out; a TraceSink still exports valid (empty) JSON.
 *  - **Bit-neutral.** Tracing never touches the data path; compressed
 *    bytes are identical with tracing on or off (golden-checksum
 *    tested).
 */
#ifndef FPC_CORE_TRACE_H
#define FPC_CORE_TRACE_H

#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "util/common.h"

namespace fpc {

/** Span taxonomy; `kind` of every TraceSpan. */
enum class TraceSpanKind : uint8_t {
    kRun = 0,     ///< one Compress/Decompress call (orchestrating thread)
    kWorker = 1,  ///< one worker's active extent, derived at merge time
    kChunk = 2,   ///< one chunk through EncodeChunk/DecodeChunk
    kStage = 3,   ///< one transform-stage call within a chunk
    kBlock = 4,   ///< one gpusim thread-block launch (chunk + look-back)
    kPre = 5,     ///< whole-input pre-stage (FCM of DPratio)
    kChecksum = 6,  ///< content checksum after the join: the block-hash
                    ///< combine, or a whole-output hash (pre-stage, v1/v3)
};

/** Encode/decode direction of a span (matches StageMetrics naming). */
inline constexpr uint8_t kTraceEncode = 0;
inline constexpr uint8_t kTraceDecode = 1;

/** Worker index used for spans recorded outside any worker (run spans). */
inline constexpr uint32_t kTraceRunWorker = UINT32_MAX;

/**
 * One closed span. Plain value; 32 bytes, so rings stay cache-friendly.
 * `stage` holds the StageId value for kStage/kPre spans (0 otherwise);
 * `id` holds the chunk/block index for kChunk/kStage/kBlock spans, 0 for
 * kChecksum, the worker index for kWorker, and a run-label index for
 * kRun.
 */
struct TraceSpan {
    uint64_t start_ns = 0;  ///< TelemetryNowNs() at span entry
    uint64_t dur_ns = 0;
    uint64_t id = 0;
    uint32_t worker = kTraceRunWorker;  ///< stamped at merge time
    TraceSpanKind kind = TraceSpanKind::kRun;
    uint8_t dir = kTraceEncode;
    uint8_t stage = 0;
};

/**
 * Per-worker span buffer. Preallocated (Reserve) before the parallel
 * region by TelemetryRunScope; Record() is a bounds check plus a store —
 * no locks, no allocations. Spans past capacity are dropped and counted.
 *
 * The ring also carries the worker's *current chunk id*, set by the
 * executor's chunk loop before EncodeChunk/DecodeChunk, so the stage
 * hooks inside the pipeline driver can attribute their spans to a chunk
 * without widening every stage signature.
 */
class TraceRing {
 public:
    /** Preallocate room for @p capacity spans (drops the old content). */
    void
    Reserve(size_t capacity)
    {
        spans_.assign(capacity, TraceSpan{});
        count_ = 0;
        dropped_ = 0;
    }

    void SetChunk(uint64_t id) { chunk_ = id; }
    uint64_t Chunk() const { return chunk_; }

    /** Record a closed span [t0, t1] (hot path; no locks/allocations). */
    void
    Record(TraceSpanKind kind, uint8_t dir, uint8_t stage, uint64_t id,
           uint64_t t0, uint64_t t1)
    {
        if (count_ == spans_.size()) {
            ++dropped_;
            return;
        }
        TraceSpan& span = spans_[count_++];
        span.start_ns = t0;
        span.dur_ns = t1 - t0;
        span.id = id;
        span.kind = kind;
        span.dir = dir;
        span.stage = stage;
    }

    /** Stage span attributed to the current chunk (pipeline driver). */
    void
    RecordStage(uint8_t dir, uint8_t stage, uint64_t t0, uint64_t t1)
    {
        Record(TraceSpanKind::kStage, dir, stage, chunk_, t0, t1);
    }

    std::span<const TraceSpan> Spans() const { return {spans_.data(), count_}; }
    uint64_t Dropped() const { return dropped_; }

 private:
    std::vector<TraceSpan> spans_;
    size_t count_ = 0;
    uint64_t dropped_ = 0;
    uint64_t chunk_ = 0;
};

/**
 * A trace sink. Attach to any number of compress/decompress calls
 * (`Options::with_trace(&sink)`); spans accumulate across calls until
 * Reset(). All methods lock a mutex — they run only at run barriers and
 * run entry/exit, never per chunk or per stage.
 */
class TraceSink {
 public:
    TraceSink() = default;
    TraceSink(const TraceSink&) = delete;
    TraceSink& operator=(const TraceSink&) = delete;

    /** Merge one worker ring (barrier-time): stamps @p worker on every
     *  span, then appends a derived kWorker span covering the ring's
     *  [min start, max end] extent. */
    void MergeRing(uint32_t worker, const TraceRing& ring);

    /** Record one already-closed span (cold paths: pre-decode stage). */
    void Record(const TraceSpan& span);

    /** Record a run span for one Compress/Decompress call; @p label is
     *  the Chrome event name ("compress SPspeed@cpu"). */
    void RecordRun(uint8_t dir, const std::string& label, uint64_t t0,
                   uint64_t t1);

    /** All spans merged so far (copies under the lock; test/export use). */
    std::vector<TraceSpan> Spans() const;

    size_t SpanCount() const;
    uint64_t DroppedCount() const;

    /**
     * Export as one line of Chrome trace-event JSON: a "fpc.trace.v1"
     * document whose `traceEvents` array holds "X" (complete) events with
     * microsecond timestamps relative to the earliest span, plus "M"
     * metadata naming the process and per-worker threads. Loadable in
     * Perfetto / chrome://tracing; tools/check_stats_schema.py validates
     * the shape.
     */
    std::string ToChromeJson() const;

    /** Write ToChromeJson() + newline to @p path; false on I/O failure. */
    bool WriteJson(const std::string& path) const;

    void Reset();

 private:
    mutable std::mutex mutex_;
    std::vector<TraceSpan> spans_;
    std::vector<std::string> run_labels_;  ///< indexed by kRun span id
    uint64_t dropped_ = 0;
};

}  // namespace fpc

#endif  // FPC_CORE_TRACE_H
