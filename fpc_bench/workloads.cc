#include "workloads.h"

#include <unistd.h>

#include "core/codec.h"
#include "core/stream.h"
#include "library_ops.h"
#include "service/client.h"
#include "service/server.h"
#include "util/hash.h"

namespace fpcbench {

using fpc::Algorithm;
using fpc::Bytes;
using fpc::ByteSpan;

namespace {

constexpr size_t kMiB = size_t{1} << 20;

/** The first input of @p width bytes per element, else the first. */
ByteSpan
FirstOfWidth(const std::vector<Item>& items, unsigned width)
{
    for (const Item& item : items) {
        if (fpc::AlgorithmWordSize(item.algorithm) == width) {
            return ByteSpan(item.raw);
        }
    }
    return ByteSpan(items.front().raw);
}

/**
 * Latency percentiles robust to the host: p50 and p90 are taken within
 * each group of samples (a batch of reads, a second of requests) and the
 * median over the groups is reported, so a slow stretch that covers less
 * than half the run does not move them.
 */
class GroupedLatency {
 public:
    void Add(double ns) { current_.push_back(ns); }

    /** Close the current group. */
    void
    EndGroup()
    {
        if (current_.empty()) return;
        p50_.push_back(Percentile(current_, 0.5));
        p90_.push_back(Percentile(current_, 0.9));
        samples_ += current_.size();
        current_.clear();
    }

    void
    Report(fpcbench::Report& report)
    {
        EndGroup();
        report.Metric("latency_p50_us", Median(p50_) / 1e3, "us", samples_);
        report.Metric("latency_p90_us", Median(p90_) / 1e3, "us", samples_);
    }

 private:
    std::vector<double> current_, p50_, p90_;
    uint64_t samples_ = 0;
};

// ---------------------------------------------------------------------
// Library workloads: archive-ratio, field-speed-mt, mixed-auto,
// cross-device. An operation is a group of items round-tripped together
// (one file, or one checkpoint step of two fields); a pass is every
// operation once, and only whole passes are measured, so every input
// weighs the same in every run.

struct LibrarySpec {
    std::vector<Item> (*make)(uint64_t seed);
    std::vector<std::vector<size_t>> (*group)(size_t n_items);
    const char* executor;
    int threads;  ///< Options::threads (cpu), host threads (gpusim)
    bool cross_device;  ///< containers must equal the cpu executor's
};

std::vector<std::vector<size_t>>
OnePerOp(size_t n)
{
    std::vector<std::vector<size_t>> ops;
    for (size_t i = 0; i < n; ++i) ops.push_back({i});
    return ops;
}

/** Items i and i + n/2 together (a float field with its double partner,
 *  or one file through both algorithms of its width). */
std::vector<std::vector<size_t>>
Pairs(size_t n)
{
    std::vector<std::vector<size_t>> ops;
    for (size_t i = 0; i < n / 2; ++i) ops.push_back({i, i + n / 2});
    return ops;
}

class LibraryWorkload final : public Workload {
 public:
    LibraryWorkload(LibrarySpec spec, const RunSettings& settings)
        : spec_(std::move(spec)), settings_(settings)
    {
        const fpc::Executor& executor = fpc::GetExecutor(spec_.executor);
        backend_ = {&executor, executor.Capabilities().device_kernels,
                    spec_.threads};
    }

    void
    Generate() override
    {
        items_ = spec_.make(settings_.seed);
        ops_ = spec_.group(items_.size());
        size_t largest = 0;
        for (const Item& item : items_) {
            largest = std::max(largest, item.raw.size());
        }
        out_.assign(largest, std::byte{0});
    }

    uint64_t
    Fingerprint() const override
    {
        std::vector<const Bytes*> inputs;
        for (const Item& item : items_) inputs.push_back(&item.raw);
        return fpcbench::Fingerprint(inputs);
    }

    void
    Setup() override
    {
        // One warm-up pass; it also records each container for the checks.
        stored_.clear();
        sums_.clear();
        Bytes container;
        for (const Item& item : items_) {
            const std::span<std::byte> out(out_.data(), item.raw.size());
            RoundTrip(item, backend_, container, out);
            if (!std::equal(out.begin(), out.end(), item.raw.begin())) {
                throw std::runtime_error("warm-up round trip of " +
                                         item.name + " returned wrong bytes");
            }
            stored_.push_back(container.size());
            sums_.push_back(fpc::Checksum64(ByteSpan(container)));
        }
    }

    void
    Prepare() override
    {
        if (!spec_.cross_device) return;
        const Backend cpu{&fpc::GetExecutor("cpu"), false, 1};
        cpu_containers_.clear();
        for (const Item& item : items_) {
            cpu_containers_.push_back(fpc::Compress(
                item.algorithm, ByteSpan(item.raw), cpu.OptionsFor(item)));
        }
    }

    PhaseTotals
    Measure(double seconds, Report& report) override
    {
        // Every item's and operation's time in every pass; each is
        // summarised by its median over the passes, so a slow stretch
        // that covers less than half of them does not move the result.
        std::vector<std::vector<double>> compress_ns(items_.size());
        std::vector<std::vector<double>> decompress_ns(items_.size());
        std::vector<std::vector<double>> op_ns(ops_.size());
        PhaseTotals totals;
        Bytes container;
        uint64_t passes = 0;
        const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
        do {
            for (size_t o = 0; o < ops_.size(); ++o) {
                double ns = 0;
                for (size_t i : ops_[o]) {
                    const Item& item = items_[i];
                    const std::span<std::byte> out(out_.data(),
                                                   item.raw.size());
                    const RoundTripNs t =
                        RoundTrip(item, backend_, container, out);
                    bool ok = std::equal(out.begin(), out.end(),
                                         item.raw.begin());
                    report.Check("roundtrip", ok);
                    if (spec_.cross_device) {
                        const bool same = container == cpu_containers_[i];
                        report.Check("cross_device_identical", same);
                        ok &= same;
                    }
                    report.Op(!ok);
                    compress_ns[i].push_back(static_cast<double>(t.compress));
                    decompress_ns[i].push_back(
                        static_cast<double>(t.decompress));
                    ns += static_cast<double>(t.compress + t.decompress);
                }
                op_ns[o].push_back(ns);
                totals.op_ns += ns;
                ++totals.ops;
            }
            ++passes;
        } while (!settings_.smoke && NowNs() < deadline);

        double raw = 0, stored = 0, compress = 0, decompress = 0;
        for (size_t i = 0; i < items_.size(); ++i) {
            raw += static_cast<double>(items_[i].raw.size());
            stored += static_cast<double>(stored_[i]);
            compress += Median(compress_ns[i]);
            decompress += Median(decompress_ns[i]);
        }
        std::vector<double> typical_op;
        for (const std::vector<double>& ns : op_ns) {
            typical_op.push_back(Median(ns));
        }
        report.Metric("compress_gbps", raw / compress, "GB/s", passes);
        report.Metric("decompress_gbps", raw / decompress, "GB/s", passes);
        report.Metric("ratio", raw / stored, "x", items_.size());
        report.Metric("latency_p50_us", Percentile(typical_op, 0.5) / 1e3,
                      "us", totals.ops);
        report.Metric("latency_p90_us", Percentile(typical_op, 0.9) / 1e3,
                      "us", totals.ops);
        return totals;
    }

    void
    Replay(double seconds, size_t max_spans, Report& report) override
    {
        Tracer& tracer = Tracer::Get();
        const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
        do {
            for (const std::vector<size_t>& op : ops_) {
                Span root("op", "bench", tracer.NextOp(), 0);
                for (size_t i : op) ReplayItem(i, report);
            }
        } while (!settings_.smoke && NowNs() < deadline &&
                 tracer.Count() < max_spans);
    }

    int
    HostThreads() const override
    {
        return backend_.device ? backend_.threads : 3;
    }

    TourInputs
    Tour() override
    {
        TourInputs inputs;
        inputs.sp = FirstOfWidth(items_, 4);
        inputs.dp = FirstOfWidth(items_, 8);
        inputs.threads = backend_.device ? 1 : backend_.threads;
        return inputs;
    }

 private:
    void
    ReplayItem(size_t i, Report& report)
    {
        const Item& item = items_[i];
        const Bytes container = TracedCompress(item, backend_);
        {
            Span verify("verify", "bench");
            const bool same =
                spec_.cross_device
                    ? container == cpu_containers_[i]
                    : container.size() == stored_[i] &&
                          fpc::Checksum64(ByteSpan(container)) == sums_[i];
            report.Check("decomposed_container_matches_library", same);
        }
        {
            Span inspect("Inspect", "orchestrate");
            report.Check("inspect_original_size",
                         fpc::Inspect(ByteSpan(container)).original_size ==
                             item.raw.size());
        }
        const std::span<std::byte> out(out_.data(), item.raw.size());
        const bool checksum_ok =
            TracedDecompress(ByteSpan(container), out, backend_);
        Span verify("verify", "bench");
        report.Check("roundtrip", checksum_ok &&
                                      std::equal(out.begin(), out.end(),
                                                 item.raw.begin()));
    }

    LibrarySpec spec_;
    RunSettings settings_;
    Backend backend_;
    std::vector<Item> items_;
    std::vector<std::vector<size_t>> ops_;
    std::vector<size_t> stored_;    ///< container size per item
    std::vector<uint64_t> sums_;    ///< Checksum64 of each container
    std::vector<Bytes> cpu_containers_;
    Bytes out_;
};

std::vector<Item>
ArchiveItems(uint64_t seed)
{
    // The paper's setting: the SP suite through SPratio, the DP suite
    // through DPratio, 1 MiB files (22 + 5 of them).
    std::vector<Item> items =
        SpSuite(seed, "archive-ratio", 0.2, kMiB, Algorithm::kSPratio, false);
    for (Item& item : DpSuite(seed, "archive-ratio", 0.2, kMiB,
                              Algorithm::kDPratio, false)) {
        items.push_back(std::move(item));
    }
    return items;
}

std::vector<Item>
FieldItems(uint64_t seed)
{
    // Two float and two double 64 MiB fields, each far larger than the
    // L2 caches together; pairs of equal generator and size, so the two
    // checkpoint steps cost the same.
    constexpr size_t kField = 64 * kMiB;
    std::vector<Item> items(4);
    std::vector<std::function<void()>> jobs;
    for (size_t f = 0; f < 2; ++f) {
        items[f] = {"hacc_" + std::to_string(f) + ".f32", Algorithm::kSPspeed,
                    false, {}};
        items[2 + f] = {"brain_" + std::to_string(f) + ".f64",
                        Algorithm::kDPspeed, false, {}};
        jobs.push_back([&items, f, seed] {
            items[f].raw = SpValues(6, kField / sizeof(float),
                                    FileSeed(seed, "field-speed-mt/sp", f));
        });
        jobs.push_back([&items, f, seed] {
            items[2 + f].raw = DpValues(4, kField / sizeof(double),
                                        FileSeed(seed, "field-speed-mt/dp", f));
        });
    }
    RunParallel(jobs, 2);
    return items;
}

std::vector<Item>
MixedItems(uint64_t seed)
{
    // Both suites (13 float and 10 double files) plus four message-like
    // files of alternating compressible and random stretches, all
    // mode=auto; two files or more per domain keep the adaptive choices,
    // and so the throughput, from hinging on one file's seed.
    std::vector<Item> items =
        SpSuite(seed, "mixed-auto", 0.1, kMiB, Algorithm::kSPspeed, true);
    for (Item& item :
         DpSuite(seed, "mixed-auto", 0.34, kMiB, Algorithm::kDPspeed, true)) {
        items.push_back(std::move(item));
    }
    for (size_t f = 0; f < 4; ++f) {
        items.push_back({"messages_" + std::to_string(f) + ".f64",
                         Algorithm::kDPspeed, true,
                         MixedValues(kMiB / sizeof(double),
                                     FileSeed(seed, "mixed-auto/msg", f))});
    }
    return items;
}

std::vector<Item>
CrossDeviceItems(uint64_t seed)
{
    // Both suites (13 float and 5 double files), each file through both
    // algorithms of its width, so all four pipelines run; item i and
    // i + n/2 are one file (Pairs).
    std::vector<Item> items = SpSuite(seed, "cross-device", 0.1, kMiB,
                                      Algorithm::kSPspeed, false);
    for (Item& item : DpSuite(seed, "cross-device", 0.2, kMiB,
                              Algorithm::kDPspeed, false)) {
        items.push_back(std::move(item));
    }
    const size_t files = items.size();
    items.reserve(2 * files);
    for (size_t i = 0; i < files; ++i) {
        Item ratio = items[i];
        ratio.algorithm = ratio.algorithm == Algorithm::kSPspeed
                              ? Algorithm::kSPratio
                              : Algorithm::kDPratio;
        items.push_back(std::move(ratio));
    }
    return items;
}

// ---------------------------------------------------------------------

/** random-access: ranged reads of 4096 floats at seeded offsets into a
 *  128 MiB SPratio indexed stream read back through pread. */
class RandomAccessWorkload final : public Workload {
 public:
    static constexpr size_t kFrames = 32;
    static constexpr size_t kFrameBytes = 4 * kMiB;
    static constexpr uint64_t kRange = 4096;

    explicit RandomAccessWorkload(const RunSettings& settings)
        : settings_(settings) {}

    void
    Generate() override
    {
        frames_.assign(kFrames, {});
        std::vector<std::function<void()>> jobs;
        for (size_t f = 0; f < kFrames; ++f) {
            jobs.push_back([this, f] {
                frames_[f] = SpValues(f % kSpDomains, kFrameBytes / 4,
                                      FileSeed(settings_.seed,
                                               "random-access", f));
            });
        }
        RunParallel(jobs, 3);
    }

    uint64_t
    Fingerprint() const override
    {
        std::vector<const Bytes*> inputs;
        for (const Bytes& frame : frames_) inputs.push_back(&frame);
        return fpcbench::Fingerprint(inputs);
    }

    void
    Setup() override
    {
        stream_ = std::make_unique<IndexedStream>(
            frames_, Algorithm::kSPratio, 1,
            settings_.tmpdir + "/random-access-" +
                std::to_string(::getpid()) + ".fpcs");
        if (fpc::ResolveStreamLayout(stream_->Source()).TotalElements() !=
            stream_->TotalElements()) {
            throw std::runtime_error("stream layout lost elements");
        }
        fpc::Rng rng(settings_.seed);
        for (int r = 0; r < 64; ++r) {
            const uint64_t first = rng.NextBelow(Span0());
            if (!stream_->Matches(frames_, first,
                                  ByteSpan(Read(stream_->Source(), first)))) {
                throw std::runtime_error("warm-up ranged read was wrong");
            }
        }
    }

    PhaseTotals
    Measure(double seconds, Report& report) override
    {
        const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
        // The stream's write rate: the frames compressed again into
        // in-memory streams, one whole stream first, then one frame after
        // each batch of ranged reads, so the writes spread over the run;
        // the sum of each frame's median time. Host load drifts over
        // seconds, and writes bunched into one second varied the rate by
        // 20 % from run to run.
        std::vector<std::vector<double>> frame_ns(frames_.size());
        std::unique_ptr<fpc::StreamCompressor> writer;
        size_t next_frame = 0;
        const auto write_next = [&] {
            if (next_frame == 0) {
                writer = std::make_unique<fpc::StreamCompressor>(
                    Algorithm::kSPratio, fpc::Options{}.with_threads(1));
            }
            const int64_t t0 = NowNs();
            writer->PutFrame(ByteSpan(frames_[next_frame]));
            frame_ns[next_frame].push_back(static_cast<double>(NowNs() - t0));
            next_frame = (next_frame + 1) % frames_.size();
        };
        for (size_t f = 0; f < frames_.size(); ++f) write_next();
        const Bytes& rewritten = writer->FinishWithIndex();
        report.Check("rewritten_stream_matches_file",
                     rewritten.size() == stream_->StoredBytes() &&
                         fpc::Checksum64(ByteSpan(rewritten)) ==
                             stream_->Checksum());

        std::vector<double> batch_rate;
        GroupedLatency latency;
        PhaseTotals totals;
        fpc::Rng rng(OffsetSeed());
        double batch_ns = 0;
        size_t in_batch = 0;
        for (;;) {
            if (settings_.smoke ? totals.ops >= 200 : NowNs() >= deadline) {
                break;
            }
            const uint64_t first = rng.NextBelow(Span0());
            const int64_t t0 = NowNs();
            const Bytes got = Read(stream_->Source(), first);
            const double ns = static_cast<double>(NowNs() - t0);
            const bool ok = stream_->Matches(frames_, first, ByteSpan(got));
            report.Check("range_read_matches_original", ok);
            report.Op(!ok);
            latency.Add(ns);
            totals.op_ns += ns;
            ++totals.ops;
            batch_ns += ns;
            if (++in_batch == 1024) {
                batch_rate.push_back(1024.0 * kRange * 4 / batch_ns);
                latency.EndGroup();
                batch_ns = 0;
                in_batch = 0;
                write_next();
            }
        }
        if (batch_rate.empty()) {
            batch_rate.push_back(static_cast<double>(totals.ops) * kRange * 4 /
                                 totals.op_ns);
        }
        double write_ns = 0;
        uint64_t writes = 0;
        for (const std::vector<double>& ns : frame_ns) {
            write_ns += Median(ns);
            writes += ns.size();
        }
        report.Metric("compress_gbps",
                      static_cast<double>(stream_->RawBytes()) / write_ns,
                      "GB/s", writes);
        report.Metric("decompress_gbps", Median(batch_rate), "GB/s",
                      batch_rate.size());
        report.Metric("ratio",
                      static_cast<double>(stream_->RawBytes()) /
                          static_cast<double>(stream_->StoredBytes()),
                      "x", 1);
        latency.Report(report);
        return totals;
    }

    void
    Replay(double seconds, size_t max_spans, Report& report) override
    {
        Tracer& tracer = Tracer::Get();
        const TracedSource traced(stream_->Source());
        fpc::Rng rng(OffsetSeed());  // the measured reads, in order
        const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
        for (size_t n = 0; settings_.smoke ? n < 200
                                           : NowNs() < deadline &&
                                                 tracer.Count() < max_spans;
             ++n) {
            const uint64_t first = rng.NextBelow(Span0());
            Span root("range-read", "bench", tracer.NextOp(), 0);
            Bytes got;
            {
                Span range("DecompressRange", "stream");
                range.SetArg(kRange * 4);
                got = Read(traced, first);
            }
            Span verify("verify", "bench");
            report.Check("range_read_matches_original",
                         stream_->Matches(frames_, first, ByteSpan(got)));
        }
    }

    TourInputs
    Tour() override
    {
        TourInputs inputs;
        inputs.sp = ByteSpan(frames_.front());
        inputs.dp = inputs.sp;
        inputs.stream = stream_.get();
        inputs.frames = &frames_;
        return inputs;
    }

    void Teardown() override { stream_.reset(); }

 private:
    /** Number of valid first elements of a range. */
    uint64_t Span0() const { return stream_->TotalElements() - kRange + 1; }
    uint64_t OffsetSeed() const
    {
        return FileSeed(settings_.seed, "random-access/offsets", 0);
    }
    static Bytes
    Read(const fpc::ByteSource& source, uint64_t first)
    {
        return fpc::DecompressRange(source, first, kRange,
                                    fpc::Options{}.with_threads(1));
    }

    RunSettings settings_;
    std::vector<Bytes> frames_;
    std::unique_ptr<IndexedStream> stream_;
};

// ---------------------------------------------------------------------

/** service-mix: the request mix against an in-process SocketServer with
 *  two workers, open loop at 1000 requests/s from three connections,
 *  then a closed loop over three connections. */
class ServiceMixWorkload final : public Workload {
 public:
    static constexpr size_t kPayload = 256 << 10;

    explicit ServiceMixWorkload(const RunSettings& settings)
        : settings_(settings) {}

    void
    Generate() override
    {
        pool_.sp.assign(24, {});
        pool_.dp.assign(12, {});
        std::vector<std::function<void()>> jobs;
        for (size_t i = 0; i < pool_.sp.size(); ++i) {
            jobs.push_back([this, i] {
                pool_.sp[i] = SpValues(i % kSpDomains, kPayload / 4,
                                       FileSeed(settings_.seed,
                                                "service-mix/sp", i));
            });
        }
        for (size_t i = 0; i < pool_.dp.size(); ++i) {
            jobs.push_back([this, i] {
                pool_.dp[i] = DpValues(i % kDpDomains, kPayload / 8,
                                       FileSeed(settings_.seed,
                                                "service-mix/dp", i));
            });
        }
        RunParallel(jobs, 3);
    }

    uint64_t
    Fingerprint() const override
    {
        std::vector<const Bytes*> inputs;
        for (const Bytes& p : pool_.sp) inputs.push_back(&p);
        for (const Bytes& p : pool_.dp) inputs.push_back(&p);
        return fpcbench::Fingerprint(inputs);
    }

    void
    Setup() override
    {
        socket_ = settings_.tmpdir + "/service-mix-" +
                  std::to_string(::getpid()) + ".sock";
        fpc::ServerConfig config;
        config.socket_path = socket_;
        config.service.workers = 2;
        server_ = std::make_unique<fpc::SocketServer>(config);
        // Every connection warms each compress kind once.
        for (int c = 0; c < 3; ++c) {
            fpc::SocketClient client(socket_);
            for (Kind kind : {Kind::kSpSpeedCompress, Kind::kDpRatioCompress,
                              Kind::kAutoCompress}) {
                const fpc::ServiceResponse response = client.Call(
                    MakeRequest({kind, 0, "ingest"}, pool_));
                if (response.status != fpc::Errc::kOk) {
                    throw std::runtime_error("warm-up request refused: " +
                                             response.error);
                }
            }
        }
    }

    void Prepare() override { pool_.Prepare(); }

    PhaseTotals
    Measure(double seconds, Report& report) override
    {
        const double open_s = settings_.smoke ? 0.1 : seconds * 2 / 3;
        const double closed_s = settings_.smoke ? 0.05 : seconds / 3;
        const LoadResult open = OpenLoop(socket_, settings_.seed, pool_, 0,
                                         1000.0, open_s, 3, report);
        const uint64_t next = static_cast<uint64_t>(1000.0 * open_s);
        const LoadResult closed = ClosedLoop(socket_, settings_.seed, pool_,
                                             next, closed_s, 3, report);

        // Latency, and bytes per second of request time (compress and
        // decompress apart), for each second of open-loop due times;
        // medians over the seconds. The closed loop gives the
        // saturation rate (loadgen.max_rps) and sizes the replay.
        GroupedLatency latency;
        std::vector<double> compress_rate, decompress_rate;
        double bytes[2] = {0, 0}, busy_ns[2] = {0, 0};
        const auto end_window = [&] {
            latency.EndGroup();
            if (busy_ns[0] > 0) compress_rate.push_back(bytes[0] / busy_ns[0]);
            if (busy_ns[1] > 0) {
                decompress_rate.push_back(bytes[1] / busy_ns[1]);
            }
            bytes[0] = bytes[1] = busy_ns[0] = busy_ns[1] = 0;
        };
        int64_t window = 0;
        for (const LoadSample& s : open.samples) {
            const int64_t w = (s.at_ns - open.start_ns) / 1'000'000'000;
            if (w != window) end_window();
            window = w;
            latency.Add(s.latency_ns);
            bytes[s.decompress] += static_cast<double>(s.bytes);
            busy_ns[s.decompress] += s.latency_ns;
        }
        end_window();
        PhaseTotals totals;  // per closed-loop request, as replayed
        for (const LoadSample& s : closed.samples) {
            totals.op_ns += s.latency_ns;
            ++totals.ops;
        }
        closed_rps_ =
            static_cast<double>(closed.samples.size()) /
            (static_cast<double>(closed.end_ns - closed.start_ns) / 1e9);

        report.Metric("compress_gbps", Median(compress_rate), "GB/s",
                      compress_rate.size());
        report.Metric("decompress_gbps", Median(decompress_rate), "GB/s",
                      decompress_rate.size());
        report.Metric("ratio", pool_.Ratio(), "x",
                      pool_.sp.size() + pool_.dp.size());
        latency.Report(report);
        return totals;
    }

    void
    Replay(double seconds, size_t max_spans, Report& report) override
    {
        // The closed loop's request sequence, as many as it served in
        // @p seconds; a request records six spans.
        const uint64_t count =
            settings_.smoke
                ? 200
                : std::min<uint64_t>(
                      static_cast<uint64_t>(closed_rps_ * seconds),
                      max_spans / 6);
        TracedRequests(socket_, settings_.seed, pool_, 0, count, 3, report);
        CountScheduler(server_->service());
    }

    TourInputs
    Tour() override
    {
        TourInputs inputs;
        inputs.sp = ByteSpan(pool_.sp.front());
        inputs.dp = ByteSpan(pool_.dp.front());
        inputs.pool = &pool_;
        return inputs;
    }

    void
    Teardown() override
    {
        if (server_ != nullptr) server_->Stop();
        server_.reset();
    }

 private:
    RunSettings settings_;
    RequestPool pool_;
    std::string socket_;
    std::unique_ptr<fpc::SocketServer> server_;
    double closed_rps_ = 0;
};

}  // namespace

std::unique_ptr<Workload>
MakeWorkload(const std::string& name, const RunSettings& settings)
{
    if (name == "archive-ratio") {
        return std::make_unique<LibraryWorkload>(
            LibrarySpec{ArchiveItems, OnePerOp, "cpu", 1, false}, settings);
    }
    if (name == "field-speed-mt") {
        return std::make_unique<LibraryWorkload>(
            LibrarySpec{FieldItems, Pairs, "cpu", 3, false}, settings);
    }
    if (name == "mixed-auto") {
        return std::make_unique<LibraryWorkload>(
            LibrarySpec{MixedItems, OnePerOp, "cpu", 1, false}, settings);
    }
    if (name == "cross-device") {
        // One host thread: with three, the simulated grid's look-back
        // spin-waits varied throughput by +-12 % from run to run on a
        // shared host, against +-1.5 % with one.
        return std::make_unique<LibraryWorkload>(
            LibrarySpec{CrossDeviceItems, Pairs, "gpusim:4090", 1, true},
            settings);
    }
    if (name == "random-access") {
        return std::make_unique<RandomAccessWorkload>(settings);
    }
    if (name == "service-mix") {
        return std::make_unique<ServiceMixWorkload>(settings);
    }
    return nullptr;
}

}  // namespace fpcbench
