#include "report.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace fpcbench {

double
Percentile(std::vector<double>& samples, double q)
{
    if (samples.empty()) return 0.0;
    std::sort(samples.begin(), samples.end());
    const double pos = q * static_cast<double>(samples.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double
Median(std::vector<double> samples)
{
    return Percentile(samples, 0.5);
}

void
Report::Metric(const std::string& name, double value, const char* unit,
               uint64_t samples)
{
    metrics_.push_back({name, value, unit, samples});
}

void
Report::Check(const std::string& name, bool ok)
{
    std::lock_guard<std::mutex> lock(mutex_);
    CheckCount& c = checks_[name];
    ++c.runs;
    if (!ok) ++c.failures;
}

void
Report::Op(bool failed)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++attempted_;
    if (failed) ++failed_;
}

bool
Report::Correct() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [name, c] : checks_) {
        if (c.failures != 0) return false;
    }
    return true;
}

void
Report::Print() const
{
    for (const Line& m : metrics_) {
        std::printf("metric %s %s %.17g %s %" PRIu64 "\n", workload_.c_str(),
                    m.name.c_str(), m.value, m.unit, m.samples);
    }
    for (const auto& [name, c] : checks_) {
        std::printf("check %s %s %s %" PRIu64 "\n", workload_.c_str(),
                    name.c_str(), c.failures == 0 ? "ok" : "FAIL", c.runs);
    }
    std::printf("ops %s %" PRIu64 " %" PRIu64 "\n", workload_.c_str(),
                attempted_, failed_);
    std::fflush(stdout);
}

}  // namespace fpcbench
