/**
 * @file
 * Tests for the synthetic dataset suites and the evaluation harness:
 * determinism, suite layout (7 SP + 5 DP domains mirroring the paper's
 * 90/20 file split), property sanity of the generated data, the
 * harness's aggregation and verification behaviour, and the ratio floor
 * of every pipeline and of mode=auto on a fixed seeded corpus.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <set>
#include <sstream>

#include "core/executor.h"
#include "data/datasets.h"
#include "data/fields.h"
#include "eval/harness.h"
#include "eval/report.h"

namespace fpc {
namespace {

TEST(Datasets, SingleSuiteLayoutMatchesPaper)
{
    data::SuiteConfig config;
    config.values_per_file = 1024;
    config.file_scale = 1.0;
    auto files = data::SingleSuite(config);
    EXPECT_EQ(files.size(), 90u);  // paper Section 4: 90 SP files

    std::set<std::string> domains;
    for (const auto& f : files) {
        domains.insert(f.domain);
        EXPECT_EQ(f.values.size(), 1024u);
    }
    EXPECT_EQ(domains.size(), 7u);  // 7 scientific domains
}

TEST(Datasets, DoubleSuiteLayoutMatchesPaper)
{
    data::SuiteConfig config;
    config.values_per_file = 1024;
    auto files = data::DoubleSuite(config);
    EXPECT_EQ(files.size(), 20u);  // paper Section 4: 20 DP files

    std::set<std::string> domains;
    for (const auto& f : files) domains.insert(f.domain);
    EXPECT_EQ(domains.size(), 5u);  // 5 domains
}

TEST(Datasets, Deterministic)
{
    data::SuiteConfig config;
    config.values_per_file = 256;
    config.file_scale = 0.1;
    auto a = data::SingleSuite(config);
    auto b = data::SingleSuite(config);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].name, b[i].name);
        EXPECT_EQ(a[i].values, b[i].values);
    }
}

TEST(Fields, SmoothFieldsHaveSmallDifferences)
{
    auto field = data::SmoothField(10000, 1, 5, 0.0001);
    double max_abs = 0, max_diff = 0;
    for (size_t i = 0; i < field.size(); ++i) {
        max_abs = std::max(max_abs, std::fabs(field[i]));
        if (i > 0) {
            max_diff = std::max(max_diff, std::fabs(field[i] - field[i - 1]));
        }
    }
    EXPECT_GT(max_abs, 0.1);
    EXPECT_LT(max_diff, max_abs * 0.05);  // consecutive values are close
}

TEST(Fields, QuantizedObservationsRepeatValues)
{
    auto obs = data::QuantizedObservations(10000, 2, 1.0 / 64.0);
    std::set<double> distinct(obs.begin(), obs.end());
    EXPECT_LT(distinct.size(), obs.size() / 10);  // heavy value reuse
}

TEST(Fields, ParticleCoordinatesMonotoneTrend)
{
    auto coords = data::ParticleCoordinates(1000, 3, 100.0, 0.1);
    // Jitter is small relative to spacing: long-range trend is increasing.
    EXPECT_LT(coords.front(), coords.back());
}

TEST(Harness, EvaluatesAndAggregates)
{
    data::SuiteConfig config;
    config.values_per_file = 4096;
    config.file_scale = 0.08;  // small but >= 1 file per domain
    auto files = data::SingleSuite(config);
    auto inputs = eval::ToInputs(files);

    eval::EvalConfig eval_config;
    eval_config.runs = 1;
    auto codec = eval::OurCodec(Algorithm::kSPratio, "cpu");
    eval::CodecResult result = eval::Evaluate(codec, inputs, eval_config);

    EXPECT_EQ(result.name, "SPratio");
    EXPECT_EQ(result.files.size(), files.size());
    EXPECT_GT(result.ratio, 1.0);
    EXPECT_GT(result.compress_gbps, 0.0);
    EXPECT_GT(result.decompress_gbps, 0.0);
}

TEST(Harness, GeoMeanOfGeoMeansNotSkewedByFileCounts)
{
    // Construct two domains: one with 4 identical easy files, one with a
    // single hard file. The aggregate ratio must be the geometric mean of
    // the two domain means, not of the 5 files.
    auto easy = data::ToFloats(data::SmoothField(4096, 7, 4, 1e-5));
    std::vector<data::SpFile> files;
    for (int i = 0; i < 4; ++i) {
        files.push_back({"easy", "e" + std::to_string(i), easy});
    }
    Rng rng(8);
    std::vector<float> hard(4096);
    for (auto& v : hard) {
        v = BitCastTo<float>(static_cast<uint32_t>(rng.Next()));
    }
    files.push_back({"hard", "h0", hard});

    auto inputs = eval::ToInputs(files);
    eval::EvalConfig config;
    config.runs = 1;
    auto result = eval::Evaluate(
        eval::OurCodec(Algorithm::kSPspeed, "cpu"), inputs, config);

    double easy_ratio = result.files[0].ratio;
    double hard_ratio = result.files[4].ratio;
    EXPECT_NEAR(result.ratio, std::sqrt(easy_ratio * hard_ratio), 1e-9);
}

TEST(Report, ScatterAndCsv)
{
    std::vector<eval::CodecResult> results(2);
    results[0].name = "A";
    results[0].ratio = 2.0;
    results[0].compress_gbps = 10.0;
    results[0].decompress_gbps = 20.0;
    results[1].name = "B";
    results[1].ratio = 1.5;
    results[1].compress_gbps = 30.0;
    results[1].decompress_gbps = 5.0;

    auto comp = eval::ToScatter(results, eval::Axis::kCompression);
    EXPECT_DOUBLE_EQ(comp[0].throughput, 10.0);
    auto decomp = eval::ToScatter(results, eval::Axis::kDecompression);
    EXPECT_DOUBLE_EQ(decomp[1].throughput, 5.0);

    std::ostringstream os;
    eval::PrintFigure(os, "test figure", results,
                      eval::Axis::kCompression);
    std::string text = os.str();
    EXPECT_NE(text.find("test figure"), std::string::npos);
    EXPECT_NE(text.find("Pareto front: B A"), std::string::npos);
}

TEST(Report, StageCsvHeaderPinned)
{
    // The column order is a published contract (downstream plot scripts
    // index by it); spell it out so a reorder fails here, not in a
    // notebook. Extend by appending only.
    EXPECT_STREQ(eval::kStageCsvHeader,
                 "compressor,stage,direction,calls,wall_ns,input_bytes,"
                 "output_bytes,p50_ns,p95_ns,p99_ns,max_ns");

    data::SuiteConfig config;
    config.values_per_file = 4096;
    config.file_scale = 0.08;
    auto inputs = eval::ToInputs(data::SingleSuite(config));
    eval::EvalConfig eval_config;
    eval_config.runs = 1;
    auto result = eval::Evaluate(
        eval::OurCodec(Algorithm::kSPratio, "cpu"), inputs,
        eval_config);

    const std::string path =
        testing::TempDir() + "/stage_csv_header_test.csv";
    eval::WriteStageCsv(path, {result});
    std::ifstream in(path);
    ASSERT_TRUE(in.is_open());
    std::string header;
    ASSERT_TRUE(std::getline(in, header));
    EXPECT_EQ(header, eval::kStageCsvHeader);

    // Every data row has exactly the header's column count, and in
    // instrumented builds the instrumented codec produces rows.
    const size_t columns =
        1 + static_cast<size_t>(
            std::count(header.begin(), header.end(), ','));
    size_t rows = 0;
    std::string row;
    while (std::getline(in, row)) {
        if (row.empty()) continue;
        ++rows;
        EXPECT_EQ(1 + static_cast<size_t>(
                      std::count(row.begin(), row.end(), ',')),
                  columns)
            << row;
    }
    if (kTelemetryEnabled) {
        EXPECT_GT(rows, 0u);
    } else {
        EXPECT_EQ(rows, 0u);
    }
}

/** The ratio each codec reached on the seeded corpus below when the
 *  floor was set, truncated to 6 decimals. */
struct RatioFloor {
    const char* name;
    Algorithm algorithm;  ///< the fixed pipeline, or auto's width
    bool adaptive;
    double floor;
};

constexpr RatioFloor kRatioFloors[] = {
    {"SPspeed", Algorithm::kSPspeed, false, 1.542469},
    {"SPratio", Algorithm::kSPratio, false, 1.688992},
    {"DPspeed", Algorithm::kDPspeed, false, 1.354372},
    {"DPratio", Algorithm::kDPratio, false, 1.484752},
    {"auto-SP", Algorithm::kSPspeed, true, 1.688992},
    {"auto-DP", Algorithm::kDPspeed, true, 1.492474},
};

// The ratio gate: no pipeline and no mode=auto width may lose ratio on
// a fixed corpus (16384 values per file, SP suite at scale 0.1, DP
// suite at 0.25), on either backend. Ratios are deterministic, so one
// run each suffices, and Evaluate verifies every round trip. The golden
// checksums pin the fixed pipelines' bytes exactly; the auto floors are
// the only pin on mode=auto's choices.
TEST(RatioFloor, SeededCorpusHoldsEveryRatioOnBothBackends)
{
    data::SuiteConfig sp_config;
    sp_config.values_per_file = 16384;
    sp_config.file_scale = 0.1;
    data::SuiteConfig dp_config = sp_config;
    dp_config.file_scale = 0.25;
    const std::vector<eval::EvalInput> sp_inputs =
        eval::ToInputs(data::SingleSuite(sp_config));
    const std::vector<eval::EvalInput> dp_inputs =
        eval::ToInputs(data::DoubleSuite(dp_config));
    eval::EvalConfig eval_config;
    eval_config.runs = 1;

    for (const char* backend : {"cpu", "gpusim:4090"}) {
        const Executor& executor = GetExecutor(backend);
        for (const RatioFloor& want : kRatioFloors) {
            const bool dp = AlgorithmWordSize(want.algorithm) == 8;
            const eval::CodecResult result = eval::Evaluate(
                want.adaptive
                    ? eval::OurAdaptiveCodec(want.algorithm, executor)
                    : eval::OurCodec(want.algorithm, executor),
                dp ? dp_inputs : sp_inputs, eval_config);
            EXPECT_EQ(result.name, want.name);
            EXPECT_GE(result.ratio, want.floor)
                << want.name << "@" << backend;
        }
    }
}

}  // namespace
}  // namespace fpc
