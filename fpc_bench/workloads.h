/**
 * @file
 * The six workloads. Each builds its inputs from the seed, sets up
 * (warm-up pass, stream file, or server), measures its operations for a
 * fixed time with tracing off, and can replay the same operations
 * decomposed into traced public calls. Why each exists is in README.md.
 */
#ifndef FPC_BENCH_WORKLOADS_H
#define FPC_BENCH_WORKLOADS_H

#include <memory>
#include <string>
#include <vector>

#include "report.h"
#include "tour.h"

namespace fpcbench {

inline constexpr const char* kWorkloadNames[] = {
    "archive-ratio", "field-speed-mt", "mixed-auto",
    "cross-device",  "random-access",  "service-mix"};

/** Time and count of the operations of one phase. */
struct PhaseTotals {
    uint64_t ops = 0;
    double op_ns = 0;  ///< summed wall time of those operations
};

struct RunSettings {
    uint64_t seed = 1;
    double seconds = 10;
    bool smoke = false;      ///< one pass, or about 200 requests
    std::string tmpdir = ".";  ///< stream files and sockets go here
};

class Workload {
 public:
    virtual ~Workload() = default;

    /** Build the inputs from settings.seed. */
    virtual void Generate() = 0;
    /** Checksum64 of every generated input, combined. */
    virtual uint64_t Fingerprint() const = 0;
    /** Everything before the first timed operation: warm-up passes, the
     *  stream file, the server. Run in a fresh process, so it is cold. */
    virtual void Setup() = 0;
    /** Reference results the checks compare against (library answers,
     *  cpu containers); not part of set-up time. */
    virtual void Prepare() {}
    /** Untraced measurement for @p seconds; adds the end-to-end metrics
     *  other than setup_s and peak_rss_mib. */
    virtual PhaseTotals Measure(double seconds, Report& report) = 0;
    /** Traced replay of the measured operations, at most @p seconds and
     *  about @p max_spans spans: one root span per operation, with the
     *  benchmark's own checks in "verify" spans. */
    virtual void Replay(double seconds, size_t max_spans,
                        Report& report) = 0;
    /** This workload's inputs for the layer tour. */
    virtual TourInputs Tour() = 0;
    /** Stop servers and remove files Setup created. */
    virtual void Teardown() {}
    /** OpenMP threads of calls that take their width from the runtime
     *  (the gpusim grid, Options::threads = 0). */
    virtual int HostThreads() const { return 3; }
};

/** The workload called @p name, or nullptr. */
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const RunSettings& settings);

}  // namespace fpcbench

#endif  // FPC_BENCH_WORKLOADS_H
