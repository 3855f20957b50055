/**
 * @file
 * MetricsRegistry implementation — see core/metrics.h for the model.
 */
#include "core/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "core/telemetry.h"
#include "core/types.h"

namespace fpc {

namespace metrics_internal {

void
ShardedCell::Bump(size_t slot, uint64_t delta)
{
    std::atomic<uint64_t>& cell = slots[slot];
    if (slot == kMetricSlots) {
        // Overflow slot: shared by every thread past the supply, so a
        // real RMW is required for correctness.
        cell.fetch_add(delta, std::memory_order_relaxed);
        return;
    }
    // Owned slot: single writer, so load + add + store is exact and
    // compiles to a plain (non lock-prefixed) add.
    cell.store(cell.load(std::memory_order_relaxed) + delta,
               std::memory_order_relaxed);
}

uint64_t
ShardedCell::Sum() const
{
    uint64_t sum = 0;
    for (const auto& slot : slots) {
        sum += slot.load(std::memory_order_relaxed);
    }
    return sum;
}

namespace {

/** Process-wide slot allocator: a bitmask of the kMetricSlots owned
 *  slots, claimed per thread and released at thread exit so transient
 *  threads (connection handlers) recycle the supply. Released slots
 *  keep their accumulated cell values — sums never go backwards. */
std::mutex g_slot_mutex;
uint32_t g_slots_taken = 0;

size_t
ClaimSlot()
{
    std::lock_guard<std::mutex> lock(g_slot_mutex);
    for (size_t i = 0; i < kMetricSlots; ++i) {
        if ((g_slots_taken & (uint32_t{1} << i)) == 0) {
            g_slots_taken |= uint32_t{1} << i;
            return i;
        }
    }
    return kMetricSlots;  // supply exhausted: the fetch_add overflow slot
}

struct SlotLease {
    size_t slot = ClaimSlot();

    ~SlotLease()
    {
        if (slot < kMetricSlots) {
            std::lock_guard<std::mutex> lock(g_slot_mutex);
            g_slots_taken &= ~(uint32_t{1} << slot);
        }
    }
};

}  // namespace

size_t
ThreadSlot()
{
    thread_local SlotLease lease;
    return lease.slot;
}

}  // namespace metrics_internal

LatencyHistogram
Histogram::Snapshot() const
{
    LatencyHistogram out;
    for (size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
        out.buckets[i] = buckets_[i].Sum();
        out.count += out.buckets[i];
    }
    for (const auto& cell : max_ns_) {
        out.max_ns = std::max(out.max_ns,
                              cell.load(std::memory_order_relaxed));
    }
    return out;
}

MetricsRegistry&
MetricsRegistry::Global()
{
    static MetricsRegistry registry;
    return registry;
}

namespace {

/** Escape a label value for the exposition (backslash, quote, newline —
 *  the three characters the text format reserves). */
std::string
EscapeLabelValue(const std::string& value)
{
    std::string out;
    out.reserve(value.size());
    for (const char c : value) {
        if (c == '\\' || c == '"') {
            out += '\\';
            out += c;
        } else if (c == '\n') {
            out += "\\n";
        } else {
            out += c;
        }
    }
    return out;
}

/** Render "{k=\"v\",...}" (empty string for no labels). @p extra
 *  appends one more pair (the histogram `le` bound). */
std::string
RenderLabels(const MetricLabels& labels, const std::string& extra_key = "",
             const std::string& extra_value = "")
{
    if (labels.empty() && extra_key.empty()) return "";
    std::string out = "{";
    bool first = true;
    for (const auto& [key, value] : labels) {
        if (!first) out += ',';
        first = false;
        out += key + "=\"" + EscapeLabelValue(value) + "\"";
    }
    if (!extra_key.empty()) {
        if (!first) out += ',';
        out += extra_key + "=\"" + EscapeLabelValue(extra_value) + "\"";
    }
    out += '}';
    return out;
}

bool
ValidMetricName(const std::string& name)
{
    if (name.empty()) return false;
    for (const char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_' || c == ':';
        if (!ok) return false;
    }
    return name[0] < '0' || name[0] > '9';
}

void
AppendSample(std::string& out, const std::string& name,
             const std::string& labels, uint64_t value)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, " %" PRIu64 "\n", value);
    out += name + labels + buf;
}

}  // namespace

MetricsRegistry::Entry&
MetricsRegistry::GetEntry(Kind kind, const std::string& name,
                          const std::string& help, MetricLabels&& labels)
{
    FPC_CHECK(ValidMetricName(name),
              ("invalid metric name: " + name).c_str());
    for (const auto& [key, value] : labels) {
        FPC_CHECK(ValidMetricName(key),
                  ("invalid metric label name: " + key).c_str());
        (void)value;
    }
    // Identity key: name + *sorted* labels, so call sites may pass the
    // pairs in any order; the entry keeps the caller's order for
    // display. The map key also drives the exposition order.
    MetricLabels sorted = labels;
    std::sort(sorted.begin(), sorted.end());
    const std::string key = name + RenderLabels(sorted);

    std::lock_guard<std::mutex> lock(mutex_);
    auto [it, inserted] = entries_.try_emplace(key);
    Entry& entry = it->second;
    if (inserted) {
        entry.kind = kind;
        entry.name = name;
        entry.help = help;
        entry.labels = std::move(labels);
        switch (kind) {
            case Kind::kCounter:
                entry.counter.reset(new Counter());
                break;
            case Kind::kGauge:
                entry.gauge.reset(new Gauge());
                break;
            case Kind::kHistogram:
                entry.histogram.reset(new Histogram());
                break;
        }
    } else {
        FPC_CHECK(
            entry.kind == kind,
            ("metric " + name + " re-registered as a different type")
                .c_str());
    }
    return entry;
}

Counter*
MetricsRegistry::GetCounter(const std::string& name, const std::string& help,
                            MetricLabels labels)
{
    return GetEntry(Kind::kCounter, name, help, std::move(labels))
        .counter.get();
}

Gauge*
MetricsRegistry::GetGauge(const std::string& name, const std::string& help,
                          MetricLabels labels)
{
    return GetEntry(Kind::kGauge, name, help, std::move(labels))
        .gauge.get();
}

Histogram*
MetricsRegistry::GetHistogram(const std::string& name,
                              const std::string& help, MetricLabels labels)
{
    return GetEntry(Kind::kHistogram, name, help, std::move(labels))
        .histogram.get();
}

std::string
MetricsRegistry::Exposition() const
{
    // Cumulative `le` bounds: every other power of two from 1 us to
    // ~17 s. Bucket i of the internal histogram covers [2^(i-1), 2^i),
    // so the cumulative count at le = 2^i - 1 is the sum of buckets
    // 0..i (inclusive bound: bit_width(2^i - 1) == i).
    static constexpr size_t kLeFirst = 10, kLeLast = 34, kLeStep = 2;

    std::lock_guard<std::mutex> lock(mutex_);
    std::string out = "# fpc.metrics.v1\n";
    out.reserve(1024 + entries_.size() * 128);
    std::string last_family;
    for (const auto& [key, entry] : entries_) {
        if (entry.name != last_family) {
            last_family = entry.name;
            out += "# HELP " + entry.name + " " + entry.help + "\n";
            out += "# TYPE " + entry.name + " ";
            switch (entry.kind) {
                case Kind::kCounter: out += "counter\n"; break;
                case Kind::kGauge: out += "gauge\n"; break;
                case Kind::kHistogram: out += "histogram\n"; break;
            }
        }
        const std::string labels = RenderLabels(entry.labels);
        switch (entry.kind) {
            case Kind::kCounter:
                AppendSample(out, entry.name, labels,
                             entry.counter->Value());
                break;
            case Kind::kGauge: {
                const int64_t value = entry.gauge->Value();
                char buf[32];
                std::snprintf(buf, sizeof buf, " %" PRId64 "\n", value);
                out += entry.name + labels + buf;
                break;
            }
            case Kind::kHistogram: {
                const LatencyHistogram snap = entry.histogram->Snapshot();
                uint64_t cumulative = 0;
                size_t next_bit = 0;
                for (size_t le = kLeFirst; le <= kLeLast; le += kLeStep) {
                    while (next_bit <= le) {
                        cumulative += snap.buckets[next_bit++];
                    }
                    char bound[32];
                    std::snprintf(bound, sizeof bound, "%" PRIu64,
                                  (uint64_t{1} << le) - 1);
                    AppendSample(out, entry.name + "_bucket",
                                 RenderLabels(entry.labels, "le", bound),
                                 cumulative);
                }
                AppendSample(out, entry.name + "_bucket",
                             RenderLabels(entry.labels, "le", "+Inf"),
                             snap.count);
                AppendSample(out, entry.name + "_sum", labels,
                             entry.histogram->SumNs());
                AppendSample(out, entry.name + "_count", labels,
                             snap.count);
                break;
            }
        }
    }
    return out;
}

namespace {

/** The run-barrier counter handles, resolved once. */
struct RunMetricHandles {
    Counter* chunks_encoded;
    Counter* chunks_raw;
    Counter* chunks_decoded;
    Counter* mplg_enhanced;
    Counter* adaptive_raw;
    Counter* adaptive_trials;
    std::array<Counter*, 4> adaptive_chunks;

    RunMetricHandles()
    {
        MetricsRegistry& registry = MetricsRegistry::Global();
        chunks_encoded = registry.GetCounter(
            "fpc_chunks_encoded_total",
            "Chunk encode attempts across all instrumented runs.");
        chunks_raw = registry.GetCounter(
            "fpc_chunks_raw_fallback_total",
            "Chunks stored raw because the pipeline lost to the input.");
        chunks_decoded = registry.GetCounter(
            "fpc_chunks_decoded_total",
            "Chunks decoded across all instrumented runs.");
        mplg_enhanced = registry.GetCounter(
            "fpc_mplg_enhanced_subchunks_total",
            "MPLG subchunks that took the enhancement retry path.");
        adaptive_raw = registry.GetCounter(
            "fpc_adaptive_selected_total",
            "mode=auto per-chunk selections by winning algorithm.",
            {{"algorithm", "raw"}});
        adaptive_trials = registry.GetCounter(
            "fpc_adaptive_trials_total",
            "mode=auto in-margin second-candidate trial encodes.");
        for (size_t a = 0; a < adaptive_chunks.size(); ++a) {
            adaptive_chunks[a] = registry.GetCounter(
                "fpc_adaptive_selected_total",
                "mode=auto per-chunk selections by winning algorithm.",
                {{"algorithm", AlgorithmName(static_cast<Algorithm>(a))}});
        }
    }
};

}  // namespace

void
RecordRunMetrics(const TelemetryShard& merged)
{
    if (!kTelemetryEnabled) return;
    static RunMetricHandles handles;
    if (merged.chunks_encoded != 0) {
        handles.chunks_encoded->Inc(merged.chunks_encoded);
    }
    if (merged.chunks_raw != 0) handles.chunks_raw->Inc(merged.chunks_raw);
    if (merged.chunks_decoded != 0) {
        handles.chunks_decoded->Inc(merged.chunks_decoded);
    }
    if (merged.mplg_enhanced != 0) {
        handles.mplg_enhanced->Inc(merged.mplg_enhanced);
    }
    if (merged.adaptive_raw_chunks != 0) {
        handles.adaptive_raw->Inc(merged.adaptive_raw_chunks);
    }
    if (merged.adaptive_trials != 0) {
        handles.adaptive_trials->Inc(merged.adaptive_trials);
    }
    for (size_t a = 0; a < merged.adaptive_chunks.size(); ++a) {
        if (merged.adaptive_chunks[a] != 0) {
            handles.adaptive_chunks[a]->Inc(merged.adaptive_chunks[a]);
        }
    }
}

void
RecordArenaAcquire(uint64_t hits, uint64_t misses, uint64_t outstanding)
{
    if (!kTelemetryEnabled) return;
    struct Handles {
        Counter* hits;
        Counter* misses;
        Gauge* high_water;

        Handles()
        {
            MetricsRegistry& registry = MetricsRegistry::Global();
            hits = registry.GetCounter(
                "fpc_arena_pool_hits_total",
                "Arenas served warm from the shared pool.");
            misses = registry.GetCounter(
                "fpc_arena_pool_misses_total",
                "Arenas created cold because the pool ran short.");
            high_water = registry.GetGauge(
                "fpc_arena_pool_high_water",
                "Maximum arenas simultaneously leased from the pool.");
        }
    };
    static Handles handles;
    if (hits != 0) handles.hits->Inc(hits);
    if (misses != 0) handles.misses->Inc(misses);
    // Monotone high-water mark kept in a gauge: racy ratchet is fine —
    // a lost update only delays the mark by one acquire.
    const int64_t seen = handles.high_water->Value();
    if (static_cast<int64_t>(outstanding) > seen) {
        handles.high_water->Add(static_cast<int64_t>(outstanding) - seen);
    }
}

}  // namespace fpc
