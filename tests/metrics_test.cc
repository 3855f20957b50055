/**
 * @file
 * Live-metrics registry coverage (core/metrics.h): handle identity,
 * counter/gauge/histogram semantics, the Prometheus text exposition
 * (schema marker, one HELP/TYPE per family, no duplicate samples,
 * cumulative `le` buckets, +Inf == _count), snapshot monotonicity, the
 * thread-slot supply (slot reuse past kMetricSlots stays exact), and a
 * writers-vs-scraper hammer for the tsan leg (ctest -L thread).
 *
 * Everything here runs on private MetricsRegistry instances — the
 * global registry is shared process state and other tests in the
 * binary feed it through the instrumented subsystems.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/metrics.h"

namespace {

using namespace fpc;

/** Split an exposition document into its non-comment sample lines. */
std::vector<std::string>
SampleLines(const std::string& exposition)
{
    std::vector<std::string> lines;
    std::istringstream in(exposition);
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty() && line[0] != '#') lines.push_back(line);
    }
    return lines;
}

/** Sample identity (name + label block) -> value. Fails the test on a
 *  duplicate identity or an unparseable line. */
std::map<std::string, int64_t>
ParseSamples(const std::string& exposition)
{
    std::map<std::string, int64_t> samples;
    for (const std::string& line : SampleLines(exposition)) {
        const size_t space = line.rfind(' ');
        EXPECT_NE(space, std::string::npos) << line;
        const std::string identity = line.substr(0, space);
        EXPECT_EQ(samples.count(identity), 0u)
            << "duplicate sample: " << identity;
        samples[identity] = std::stoll(line.substr(space + 1));
    }
    return samples;
}

TEST(MetricsRegistry, HandleIdentityIgnoresLabelOrder)
{
    MetricsRegistry registry;
    Counter* a = registry.GetCounter(
        "fpc_test_total", "help", {{"tenant", "t0"}, {"verb", "c"}});
    Counter* b = registry.GetCounter(
        "fpc_test_total", "help", {{"verb", "c"}, {"tenant", "t0"}});
    Counter* other = registry.GetCounter(
        "fpc_test_total", "help", {{"tenant", "t1"}, {"verb", "c"}});
    EXPECT_EQ(a, b);
    EXPECT_NE(a, other);
    // Unlabeled same-name metric is yet another series.
    EXPECT_NE(a, registry.GetCounter("fpc_test_total", "help"));
}

TEST(MetricsRegistry, CounterAccumulates)
{
    MetricsRegistry registry;
    Counter* counter = registry.GetCounter("fpc_c_total", "help");
    EXPECT_EQ(counter->Value(), 0u);
    counter->Inc();
    counter->Inc(41);
    EXPECT_EQ(counter->Value(), 42u);
}

TEST(MetricsRegistry, GaugeGoesNegative)
{
    MetricsRegistry registry;
    Gauge* gauge = registry.GetGauge("fpc_g", "help");
    gauge->Add(5);
    gauge->Sub(8);
    EXPECT_EQ(gauge->Value(), -3);
    gauge->Add(3);
    EXPECT_EQ(gauge->Value(), 0);
}

TEST(MetricsRegistry, HistogramBucketSumsEqualCount)
{
    MetricsRegistry registry;
    Histogram* hist = registry.GetHistogram("fpc_h_ns", "help");
    const uint64_t samples[] = {0, 1, 2, 1000, 1024, 123456, 999999999};
    uint64_t sum = 0;
    for (const uint64_t ns : samples) {
        hist->Record(ns);
        sum += ns;
    }
    const LatencyHistogram snap = hist->Snapshot();
    EXPECT_EQ(snap.count, std::size(samples));
    EXPECT_EQ(hist->SumNs(), sum);
    EXPECT_EQ(snap.max_ns, uint64_t{999999999});
    uint64_t bucket_total = 0;
    for (const uint64_t count : snap.buckets) bucket_total += count;
    EXPECT_EQ(bucket_total, snap.count);
    // The snapshot is the telemetry value type: same buckets, same
    // quantiles as recording the samples into a LatencyHistogram.
    LatencyHistogram direct;
    for (const uint64_t ns : samples) direct.Record(ns);
    EXPECT_EQ(snap.buckets, direct.buckets);
    EXPECT_EQ(snap.P50(), direct.P50());
    EXPECT_EQ(snap.P99(), direct.P99());
}

TEST(MetricsRegistry, ExpositionShapeAndHistogramInvariants)
{
    MetricsRegistry registry;
    registry.GetCounter("fpc_req_total", "Requests.", {{"tenant", "a"}})
        ->Inc(3);
    registry.GetCounter("fpc_req_total", "Requests.", {{"tenant", "b"}})
        ->Inc(5);
    registry.GetGauge("fpc_depth", "Queue depth.")->Add(2);
    Histogram* hist = registry.GetHistogram("fpc_lat_ns", "Latency.");
    hist->Record(500);
    hist->Record(5000);
    hist->Record(50000000);

    const std::string exposition = registry.Exposition();
    ASSERT_EQ(exposition.rfind("# fpc.metrics.v1\n", 0), 0u);

    // One HELP and one TYPE line per family, not per labeled series.
    size_t help_lines = 0;
    std::istringstream in(exposition);
    std::string line;
    std::vector<std::string> type_lines;
    while (std::getline(in, line)) {
        if (line.rfind("# HELP fpc_req_total", 0) == 0) ++help_lines;
        if (line.rfind("# TYPE ", 0) == 0) type_lines.push_back(line);
    }
    EXPECT_EQ(help_lines, 1u);
    ASSERT_EQ(type_lines.size(), 3u);

    const std::map<std::string, int64_t> samples =
        ParseSamples(exposition);
    EXPECT_EQ(samples.at("fpc_req_total{tenant=\"a\"}"), 3);
    EXPECT_EQ(samples.at("fpc_req_total{tenant=\"b\"}"), 5);
    EXPECT_EQ(samples.at("fpc_depth"), 2);
    EXPECT_EQ(samples.at("fpc_lat_ns_count"), 3);
    EXPECT_EQ(samples.at("fpc_lat_ns_sum"), 500 + 5000 + 50000000);
    EXPECT_EQ(samples.at("fpc_lat_ns_bucket{le=\"+Inf\"}"),
              samples.at("fpc_lat_ns_count"));

    // Cumulative le buckets are monotone and end at the total count.
    int64_t previous = 0;
    for (const std::string& sample : SampleLines(exposition)) {
        if (sample.rfind("fpc_lat_ns_bucket{le=\"", 0) != 0) continue;
        const int64_t value = samples.at(
            sample.substr(0, sample.rfind(' ')));
        EXPECT_GE(value, previous) << sample;
        previous = value;
    }
    EXPECT_EQ(previous, 3);
}

TEST(MetricsRegistry, CountersMonotoneAcrossSnapshots)
{
    MetricsRegistry registry;
    Counter* counter = registry.GetCounter("fpc_mono_total", "help");
    Histogram* hist = registry.GetHistogram("fpc_mono_ns", "help");

    counter->Inc(7);
    hist->Record(100);
    const LatencyHistogram before = hist->Snapshot();
    counter->Inc(2);
    hist->Record(200);
    const LatencyHistogram after = hist->Snapshot();

    for (size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
        EXPECT_GE(after.buckets[i], before.buckets[i]) << i;
    }
    EXPECT_EQ(counter->Value(), 9u);
    EXPECT_EQ(after.count, 2u);
    EXPECT_EQ(hist->SumNs(), 300u);
    // The exposition renders the same numbers the handles read.
    const std::map<std::string, int64_t> samples =
        ParseSamples(registry.Exposition());
    EXPECT_EQ(samples.at("fpc_mono_total"), 9);
    EXPECT_EQ(samples.at("fpc_mono_ns_count"), 2);
    EXPECT_EQ(samples.at("fpc_mono_ns_sum"), 300);
}

TEST(MetricsRegistry, SlotReusePastSupplyStaysExact)
{
    MetricsRegistry registry;
    Counter* counter = registry.GetCounter("fpc_slots_total", "help");
    // 3x the slot supply, run *sequentially*: each thread claims a slot,
    // bumps, and releases it at exit. Released slots keep their value,
    // and reusing threads must accumulate, not clobber.
    const size_t threads = 3 * kMetricSlots;
    for (size_t i = 0; i < threads; ++i) {
        std::thread([&] { counter->Inc(10); }).join();
    }
    EXPECT_EQ(counter->Value(), 10 * threads);
}

TEST(MetricsRegistry, OverflowSlotKeepsConcurrentWritersExact)
{
    MetricsRegistry registry;
    Counter* counter = registry.GetCounter("fpc_overflow_total", "help");
    // 2x the slot supply, all alive at once: the late half shares the
    // overflow cell (fetch_add), so the total still comes out exact.
    const size_t threads = 2 * kMetricSlots;
    constexpr uint64_t kPerThread = 5000;
    std::vector<std::thread> pool;
    for (size_t i = 0; i < threads; ++i) {
        pool.emplace_back([&] {
            for (uint64_t n = 0; n < kPerThread; ++n) counter->Inc();
        });
    }
    for (std::thread& thread : pool) thread.join();
    EXPECT_EQ(counter->Value(), kPerThread * threads);
}

/** Writers hammering all three metric kinds while a scraper loops over
 *  Exposition() and Histogram::Snapshot() — the race the tsan leg
 *  watches. */
TEST(MetricsRegistry, ConcurrentWritersAndScraper)
{
    MetricsRegistry registry;
    Counter* counter = registry.GetCounter("fpc_hammer_total", "help");
    Gauge* gauge = registry.GetGauge("fpc_hammer_depth", "help");
    Histogram* hist = registry.GetHistogram("fpc_hammer_ns", "help");

    constexpr size_t kWriters = 8;
    constexpr uint64_t kRounds = 2000;
    std::atomic<bool> stop{false};
    std::thread scraper([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            const std::string exposition = registry.Exposition();
            EXPECT_EQ(exposition.rfind("# fpc.metrics.v1\n", 0), 0u);
            const LatencyHistogram snap = hist->Snapshot();
            EXPECT_LE(snap.count, kWriters * kRounds);
        }
    });
    std::vector<std::thread> writers;
    for (size_t w = 0; w < kWriters; ++w) {
        writers.emplace_back([&, w] {
            for (uint64_t n = 0; n < kRounds; ++n) {
                counter->Inc();
                gauge->Add(1);
                hist->Record(n * 37 + w);
                gauge->Sub(1);
            }
        });
    }
    for (std::thread& thread : writers) thread.join();
    stop.store(true);
    scraper.join();

    EXPECT_EQ(counter->Value(), kWriters * kRounds);
    EXPECT_EQ(gauge->Value(), 0);
    EXPECT_EQ(hist->Snapshot().count, kWriters * kRounds);
}

TEST(MetricsRegistry, LabelValuesAreEscaped)
{
    MetricsRegistry registry;
    registry
        .GetCounter("fpc_escape_total", "help",
                    {{"path", "a\"b\\c\nd"}})
        ->Inc();
    const std::string exposition = registry.Exposition();
    EXPECT_NE(
        exposition.find("fpc_escape_total{path=\"a\\\"b\\\\c\\nd\"} 1"),
        std::string::npos)
        << exposition;
}

}  // namespace
