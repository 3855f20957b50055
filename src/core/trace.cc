#include "core/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "core/telemetry.h"

namespace fpc {

void
TraceSink::MergeRing(uint32_t worker, const TraceRing& ring)
{
    std::span<const TraceSpan> spans = ring.Spans();
    std::lock_guard<std::mutex> lock(mutex_);
    dropped_ += ring.Dropped();
    if (spans.empty()) return;
    uint64_t min_start = UINT64_MAX;
    uint64_t max_end = 0;
    spans_.reserve(spans_.size() + spans.size() + 1);
    for (const TraceSpan& span : spans) {
        spans_.push_back(span);
        spans_.back().worker = worker;
        min_start = std::min(min_start, span.start_ns);
        max_end = std::max(max_end, span.start_ns + span.dur_ns);
    }
    TraceSpan extent;
    extent.start_ns = min_start;
    extent.dur_ns = max_end - min_start;
    extent.id = worker;
    extent.worker = worker;
    extent.kind = TraceSpanKind::kWorker;
    spans_.push_back(extent);
}

void
TraceSink::Record(const TraceSpan& span)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(span);
}

void
TraceSink::RecordRun(uint8_t dir, const std::string& label, uint64_t t0,
                     uint64_t t1)
{
    std::lock_guard<std::mutex> lock(mutex_);
    TraceSpan span;
    span.start_ns = t0;
    span.dur_ns = t1 - t0;
    span.id = run_labels_.size();
    span.worker = kTraceRunWorker;
    span.kind = TraceSpanKind::kRun;
    span.dir = dir;
    run_labels_.push_back(label);
    spans_.push_back(span);
}

std::vector<TraceSpan>
TraceSink::Spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

size_t
TraceSink::SpanCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

uint64_t
TraceSink::DroppedCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return dropped_;
}

void
TraceSink::Reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.clear();
    run_labels_.clear();
    dropped_ = 0;
}

namespace {

/** Chrome trace-event tid: run spans on tid 0, worker w on tid w + 1. */
uint64_t
TidOf(const TraceSpan& span)
{
    return span.worker == kTraceRunWorker
               ? 0
               : static_cast<uint64_t>(span.worker) + 1;
}

const char*
DirName(uint8_t dir)
{
    return dir == kTraceEncode ? "encode" : "decode";
}

const char*
KindCategory(TraceSpanKind kind)
{
    switch (kind) {
      case TraceSpanKind::kRun: return "run";
      case TraceSpanKind::kWorker: return "worker";
      case TraceSpanKind::kChunk: return "chunk";
      case TraceSpanKind::kStage: return "stage";
      case TraceSpanKind::kBlock: return "block";
      case TraceSpanKind::kPre: return "pre";
      case TraceSpanKind::kChecksum: return "checksum";
    }
    return "unknown";
}

std::string
EventName(const TraceSpan& span,
          const std::vector<std::string>& run_labels)
{
    switch (span.kind) {
      case TraceSpanKind::kRun:
          return span.id < run_labels.size() ? run_labels[span.id] : "run";
      case TraceSpanKind::kWorker:
          return "worker " + std::to_string(span.id);
      case TraceSpanKind::kChunk:
          return std::string("chunk ") + DirName(span.dir);
      case TraceSpanKind::kStage:
          return std::string(StageName(static_cast<StageId>(span.stage))) +
                 ' ' + DirName(span.dir);
      case TraceSpanKind::kBlock:
          return std::string("block ") + DirName(span.dir);
      case TraceSpanKind::kPre:
          return std::string(StageName(static_cast<StageId>(span.stage))) +
                 " pre-stage " + DirName(span.dir);
      case TraceSpanKind::kChecksum:
          return std::string("checksum ") + DirName(span.dir);
    }
    return "span";
}

/** Nanoseconds as a microsecond decimal ("12.345") — trace-event ts/dur
 *  are doubles in microseconds. */
void
AppendUs(std::string& out, uint64_t ns)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%03u", ns / 1000,
                  static_cast<unsigned>(ns % 1000));
    out += buf;
}

}  // namespace

// Schema "fpc.trace.v1": one JSON object with schema/dropped plus the
// standard Chrome trace-event keys; viewers ignore the extras. Pinned by
// tools/check_stats_schema.py and tests/trace_test.cc.
std::string
TraceSink::ToChromeJson() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    uint64_t base = UINT64_MAX;
    for (const TraceSpan& span : spans_) {
        base = std::min(base, span.start_ns);
    }
    if (spans_.empty()) base = 0;

    std::string out;
    out.reserve(128 + spans_.size() * 120);
    out += "{\"schema\": \"fpc.trace.v1\", \"displayTimeUnit\": \"ns\", ";
    out += "\"dropped\": " + std::to_string(dropped_) + ", ";
    out += "\"traceEvents\": [";

    // Metadata: name the process and each thread lane once.
    out += "{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": 1, "
           "\"tid\": 0, \"args\": {\"name\": \"fpcomp\"}}";
    std::vector<uint64_t> tids;
    for (const TraceSpan& span : spans_) tids.push_back(TidOf(span));
    std::sort(tids.begin(), tids.end());
    tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
    for (uint64_t tid : tids) {
        out += ", {\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, ";
        out += "\"tid\": " + std::to_string(tid) + ", \"args\": {\"name\": ";
        out += tid == 0 ? "\"run\"" : "\"worker " + std::to_string(tid - 1) +
                                          "\"";
        out += "}}";
    }

    for (const TraceSpan& span : spans_) {
        out += ", {\"name\": \"" + EventName(span, run_labels_) + "\", ";
        out += "\"cat\": \"";
        out += KindCategory(span.kind);
        out += "\", \"ph\": \"X\", \"ts\": ";
        AppendUs(out, span.start_ns - base);
        out += ", \"dur\": ";
        AppendUs(out, span.dur_ns);
        out += ", \"pid\": 1, \"tid\": " + std::to_string(TidOf(span));
        out += ", \"args\": {\"id\": " + std::to_string(span.id) + "}}";
    }
    out += "]}";
    return out;
}

bool
TraceSink::WriteJson(const std::string& path) const
{
    const std::string json = ToChromeJson();
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const bool ok =
        std::fwrite(json.data(), 1, json.size(), f) == json.size() &&
        std::fputc('\n', f) != EOF;
    return std::fclose(f) == 0 && ok;
}

}  // namespace fpc
