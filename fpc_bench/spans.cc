#include "spans.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <set>
#include <unordered_map>

namespace fpcbench {

namespace {

// Innermost open span of this thread (restored by ~Span, so nested
// spans form a stack without storing one).
thread_local uint64_t tl_parent = 0;
thread_local uint64_t tl_op = 0;

}  // namespace

int64_t
NowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

const char*
Intern(const std::string& name)
{
    static std::mutex mutex;
    static std::set<std::string> names;
    std::lock_guard<std::mutex> lock(mutex);
    return names.insert(name).first->c_str();
}

Tracer&
Tracer::Get()
{
    static Tracer tracer;
    return tracer;
}

uint64_t
Tracer::NextId()
{
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
}

uint64_t
Tracer::NextOp()
{
    static std::atomic<uint64_t> next{1};
    const uint64_t op = next.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mutex_);
    return tour_phase_ ? (op | kTourOp) : op;
}

Tracer::ThreadBuf&
Tracer::Local()
{
    thread_local ThreadBuf* buf = nullptr;
    if (buf == nullptr) {
        std::lock_guard<std::mutex> lock(mutex_);
        bufs_.push_back(std::make_unique<ThreadBuf>());
        buf = bufs_.back().get();
        buf->tid = static_cast<uint32_t>(bufs_.size());
    }
    return *buf;
}

void
Tracer::Record(const SpanRecord& span)
{
    ThreadBuf& buf = Local();
    SpanRecord rec = span;
    rec.tid = buf.tid;
    buf.spans.push_back(rec);
}

size_t
Tracer::Count() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    size_t n = 0;
    for (const auto& buf : bufs_) n += buf->spans.size();
    return n;
}

void
Tracer::AddCounter(const std::string& name, double value)
{
    std::lock_guard<std::mutex> lock(mutex_);
    (tour_phase_ ? tour_counters_ : counters_)[name] += value;
}

double
Tracer::CounterRatio(const std::string& num, const std::string& den) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto* counters : {&counters_, &tour_counters_}) {
        const auto d = counters->find(den);
        if (d == counters->end() || d->second == 0) continue;
        const auto n = counters->find(num);
        return (n == counters->end() ? 0.0 : n->second) / d->second;
    }
    return 0.0;
}

std::vector<SpanRecord>
Tracer::All() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<SpanRecord> all;
    for (const auto& buf : bufs_) {
        all.insert(all.end(), buf->spans.begin(), buf->spans.end());
    }
    return all;
}

const SpanAgg&
SpanSummary::Get(const std::string& name) const
{
    static const SpanAgg kEmpty;
    const auto r = replay.find(name);
    if (r != replay.end() && r->second.count > 0) return r->second;
    const auto t = tour.find(name);
    return t != tour.end() ? t->second : kEmpty;
}

const SpanAgg&
SpanSummary::GetByParent(const std::string& parent,
                         const std::string& child) const
{
    static const SpanAgg kEmpty;
    const std::string key = parent + ">" + child;
    const auto r = replay_by_parent.find(key);
    if (r != replay_by_parent.end() && r->second.count > 0) return r->second;
    const auto t = tour_by_parent.find(key);
    return t != tour_by_parent.end() ? t->second : kEmpty;
}

SpanSummary
Tracer::Summarise() const
{
    const std::vector<SpanRecord> all = All();
    std::unordered_map<uint64_t, size_t> index;
    index.reserve(all.size() * 2);
    for (size_t i = 0; i < all.size(); ++i) index[all[i].id] = i;

    // Children grouped by parent, to take the union of their intervals.
    std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>>
        children;
    for (const SpanRecord& s : all) {
        if (s.parent != 0) children[s.parent].push_back({s.start, s.end});
    }

    SpanSummary out;
    out.spans = all.size();
    for (const SpanRecord& s : all) {
        const double dur = static_cast<double>(s.end - s.start);
        double covered = 0;
        if (auto it = children.find(s.id); it != children.end()) {
            auto& iv = it->second;
            std::sort(iv.begin(), iv.end());
            int64_t lo = 0, hi = 0;
            bool open = false;
            for (auto [a, b] : iv) {
                a = std::max(a, s.start);
                b = std::min(b, s.end);
                if (b <= a) continue;
                if (open && a <= hi) {
                    hi = std::max(hi, b);
                } else {
                    if (open) covered += static_cast<double>(hi - lo);
                    lo = a;
                    hi = b;
                    open = true;
                }
            }
            if (open) covered += static_cast<double>(hi - lo);
        }
        const bool tour = (s.op & kTourOp) != 0;
        SpanAgg& agg = (tour ? out.tour : out.replay)[s.name];
        ++agg.count;
        agg.dur_ns += dur;
        agg.self_ns += dur - covered;
        agg.arg += static_cast<double>(s.arg);
        agg.dur_x_arg += dur * static_cast<double>(s.arg);
        agg.durs.push_back(dur);
        if (s.parent == 0) {
            if (!tour) {
                out.root_self_ns += dur - covered;
                out.root_dur_ns += dur;
                ++out.root_count;
            }
            continue;
        }
        const auto p = index.find(s.parent);
        if (p == index.end()) continue;
        const SpanRecord& parent = all[p->second];
        (tour ? out.tour : out.replay)[parent.name].child_ns += dur;
        SpanAgg& by = (tour ? out.tour_by_parent
                            : out.replay_by_parent)[std::string(parent.name) +
                                                    ">" + s.name];
        ++by.count;
        by.dur_ns += dur;
        by.arg += static_cast<double>(s.arg);
    }
    return out;
}

bool
Tracer::WriteChromeJson(const std::string& path) const
{
    const std::vector<SpanRecord> all = All();
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    int64_t t0 = INT64_MAX;
    for (const SpanRecord& s : all) t0 = std::min(t0, s.start);
    std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
    bool first = true;
    for (const SpanRecord& s : all) {
        std::fprintf(f,
                     "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                     "\"pid\": 1, \"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"id\": %" PRIu64 ", \"parent\": %" PRIu64
                     ", \"op\": %" PRIu64 ", \"arg\": %" PRIu64 "}}",
                     first ? "" : ",\n", s.name, s.layer, s.tid,
                     static_cast<double>(s.start - t0) / 1e3,
                     static_cast<double>(s.end - s.start) / 1e3, s.id,
                     s.parent, s.op, s.arg);
        first = false;
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

Span::Span(const char* name, const char* layer, uint64_t op, uint64_t parent)
{
    Tracer& tracer = Tracer::Get();
    if (!tracer.Enabled()) return;
    on_ = true;
    rec_.id = tracer.NextId();
    rec_.parent = parent == kInherit ? tl_parent : parent;
    rec_.op = op == kInherit ? tl_op : op;
    rec_.name = name;
    rec_.layer = layer;
    saved_parent_ = tl_parent;
    saved_op_ = tl_op;
    tl_parent = rec_.id;
    tl_op = rec_.op;
    rec_.start = NowNs();
}

Span::~Span()
{
    if (!on_) return;
    rec_.end = NowNs();
    tl_parent = saved_parent_;
    tl_op = saved_op_;
    Tracer::Get().Record(rec_);
}

}  // namespace fpcbench
