/**
 * @file
 * What one fpc_bench run prints: a header of run facts, one line per
 * metric (workload, name, value, unit, sample count), one line per
 * correctness check, and the attempted/failed operation counts. The
 * line format is what run.py, compare_runs.py and smoke_test.py parse:
 *
 *   header key=value ...
 *   metric <workload> <name> <value> <unit> <samples>
 *   check <workload> <name> ok|FAIL <times run>
 *   ops <workload> <attempted> <failed>
 *
 * Check and Op may be called from several threads.
 */
#ifndef FPC_BENCH_REPORT_H
#define FPC_BENCH_REPORT_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace fpcbench {

/** Exact percentile of @p samples (sorted in place), linear
 *  interpolation between order statistics; 0 for no samples. */
double Percentile(std::vector<double>& samples, double q);

/** Median of a copy of @p samples. */
double Median(std::vector<double> samples);

class Report {
 public:
    explicit Report(std::string workload) : workload_(std::move(workload)) {}

    void Metric(const std::string& name, double value, const char* unit,
                uint64_t samples);

    /** Count one execution of check @p name; @p ok false marks it failed
     *  (and the run incorrect). */
    void Check(const std::string& name, bool ok);

    /** Count one attempted operation; @p failed when it errored, was
     *  refused, or returned wrong bytes. */
    void Op(bool failed);

    bool Correct() const;

    /** Print metric, check and op lines to stdout. */
    void Print() const;

 private:
    struct CheckCount {
        uint64_t runs = 0;
        uint64_t failures = 0;
    };
    struct Line {
        std::string name;
        double value;
        const char* unit;
        uint64_t samples;
    };
    std::string workload_;
    std::vector<Line> metrics_;
    mutable std::mutex mutex_;  ///< guards checks_ and the op counts
    std::map<std::string, CheckCount> checks_;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
};

}  // namespace fpcbench

#endif  // FPC_BENCH_REPORT_H
