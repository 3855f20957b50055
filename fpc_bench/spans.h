/**
 * @file
 * In-memory span recorder for the traced run. The benchmark wraps each
 * call it makes into a library module's public functions in a Span; the
 * library itself is not instrumented. Spans stay in per-thread buffers
 * until the run ends, then are summarised into per-name aggregates (with
 * self time: a span's duration minus the union of its children) and
 * written as Chrome trace-event JSON that Perfetto loads.
 *
 * A span records its name, layer, start, end, parent span and the id of
 * the operation it belongs to; every span of one operation (a file round
 * trip, a ranged read, a service request) carries that operation's id.
 * With the recorder disabled a Span costs one branch.
 */
#ifndef FPC_BENCH_SPANS_H
#define FPC_BENCH_SPANS_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace fpcbench {

/** Monotonic nanoseconds (steady_clock). */
int64_t NowNs();

/** A stable copy of @p name for use as a span name (spans keep only the
 *  pointer). */
const char* Intern(const std::string& name);

struct SpanRecord {
    uint64_t id = 0;
    uint64_t parent = 0;  ///< 0 = root
    uint64_t op = 0;      ///< operation id shared by its spans
    const char* name = "";
    const char* layer = "";
    uint32_t tid = 0;
    int64_t start = 0;
    int64_t end = 0;
    uint64_t arg = 0;  ///< bytes, threads or a flag; meaning per name
};

/** Operation ids of the tour (coverage of layers a workload's own
 *  operations do not reach) carry this bit; replayed operations do not. */
inline constexpr uint64_t kTourOp = uint64_t{1} << 62;

/** Per-name totals over a set of spans. */
struct SpanAgg {
    uint64_t count = 0;
    double dur_ns = 0;
    double self_ns = 0;
    double arg = 0;
    double dur_x_arg = 0;  ///< sum of duration * arg (thread-seconds)
    double child_ns = 0;   ///< sum of direct children's durations
    std::vector<double> durs;  ///< every duration, for percentiles
};

/** Aggregates of a finished recording, split into replayed operations
 *  and tour operations. */
struct SpanSummary {
    std::map<std::string, SpanAgg> replay;
    std::map<std::string, SpanAgg> tour;
    /** Keyed "parent>child": spans by the name of their parent. */
    std::map<std::string, SpanAgg> replay_by_parent;
    std::map<std::string, SpanAgg> tour_by_parent;
    double root_self_ns = 0;  ///< replayed roots only
    double root_dur_ns = 0;
    uint64_t root_count = 0;
    uint64_t spans = 0;

    /** The replay aggregate of @p name when the workload's own
     *  operations produced any, else the tour's. */
    const SpanAgg& Get(const std::string& name) const;
    const SpanAgg& GetByParent(const std::string& parent,
                               const std::string& child) const;
};

class Tracer {
 public:
    static Tracer& Get();

    void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
    bool Enabled() const { return enabled_.load(std::memory_order_relaxed); }

    /** Counters added while the tour runs are kept apart from those of
     *  the replayed operations, like tour spans (kTourOp). */
    void
    SetTourPhase(bool tour)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        tour_phase_ = tour;
    }

    uint64_t NextId();
    /** A fresh operation id, marked kTourOp during the tour phase. */
    uint64_t NextOp();
    void Record(const SpanRecord& span);

    /** Spans recorded so far (all threads). */
    size_t Count() const;

    /** Add @p value to the named counter (counts read from the library's
     *  public accessors, or computed by the benchmark next to a span). */
    void AddCounter(const std::string& name, double value);

    /** @p num / @p den from the replay's counters when the replay added
     *  to @p den, else from the tour's; 0 when neither did. */
    double CounterRatio(const std::string& num, const std::string& den) const;

    SpanSummary Summarise() const;

    /** Write every span as Chrome trace-event JSON; false on I/O error. */
    bool WriteChromeJson(const std::string& path) const;

 private:
    struct ThreadBuf {
        uint32_t tid = 0;
        std::vector<SpanRecord> spans;
    };
    ThreadBuf& Local();
    std::vector<SpanRecord> All() const;

    std::atomic<bool> enabled_{false};
    bool tour_phase_ = false;  ///< guarded by mutex_
    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<ThreadBuf>> bufs_;
    std::map<std::string, double> counters_;       ///< replay phase
    std::map<std::string, double> tour_counters_;
};

/**
 * RAII span. Parent and operation default to the innermost open span of
 * the calling thread; pass them explicitly for work handed to another
 * thread (OpenMP chunk loops).
 */
class Span {
 public:
    static constexpr uint64_t kInherit = ~uint64_t{0};

    Span(const char* name, const char* layer, uint64_t op = kInherit,
         uint64_t parent = kInherit);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    uint64_t Id() const { return rec_.id; }
    uint64_t Op() const { return rec_.op; }
    void SetArg(uint64_t arg) { rec_.arg = arg; }

 private:
    bool on_ = false;
    SpanRecord rec_;
    uint64_t saved_parent_ = 0;
    uint64_t saved_op_ = 0;
};

}  // namespace fpcbench

#endif  // FPC_BENCH_SPANS_H
