#include "tour.h"

#include <unistd.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "core/codec.h"
#include "library_ops.h"

namespace fpcbench {

using fpc::Algorithm;
using fpc::Bytes;
using fpc::ByteSpan;

namespace {

constexpr Algorithm kAlgorithms[] = {Algorithm::kSPspeed, Algorithm::kSPratio,
                                     Algorithm::kDPspeed, Algorithm::kDPratio};

ByteSpan
Prefix(ByteSpan data, size_t max_bytes, size_t word)
{
    const size_t n = std::min(data.size(), max_bytes);
    return data.first(n / word * word);
}

Item
SampleItem(Algorithm algorithm, bool adaptive, ByteSpan data)
{
    return {fpc::AlgorithmName(algorithm), algorithm, adaptive,
            Bytes(data.begin(), data.end())};
}

/** One decomposed round trip, checked against the library's own call. */
void
TourRoundTrip(const Item& item, const Backend& backend, Report& report)
{
    Span root("tour-roundtrip", "bench", Tracer::Get().NextOp(), 0);
    const Bytes reference = fpc::Compress(item.algorithm, ByteSpan(item.raw),
                                          backend.OptionsFor(item));
    const Bytes container = TracedCompress(item, backend);
    report.Check("decomposed_container_matches_library",
                 container == reference);
    {
        Span inspect("Inspect", "orchestrate");
        report.Check("inspect_original_size",
                     fpc::Inspect(ByteSpan(container)).original_size ==
                         item.raw.size());
    }
    Bytes out(item.raw.size());
    const bool ok = TracedDecompress(ByteSpan(container), out, backend);
    report.Check("roundtrip", ok && out == item.raw);
}

double
Mean(const SpanAgg& agg)
{
    return agg.count == 0 ? 0.0 : agg.dur_ns / static_cast<double>(agg.count);
}

double
NsPerKib(const SpanAgg& agg)
{
    return agg.arg == 0 ? 0.0 : agg.dur_ns / (agg.arg / 1024.0);
}

double
Share(double part, double whole)
{
    return whole == 0 ? 0.0 : part / whole;
}

}  // namespace

void
RunTour(const TourInputs& inputs, uint64_t seed, const std::string& tmpdir,
        Report& report)
{
    Tracer& tracer = Tracer::Get();
    tracer.SetTourPhase(true);
    const ByteSpan sp = Prefix(inputs.sp, size_t{1} << 20, 4);
    const ByteSpan dp = Prefix(inputs.dp, size_t{1} << 20, 8);

    for (Algorithm algorithm : kAlgorithms) {
        Span root("stage-chain", "bench", tracer.NextOp(), 0);
        report.Check("stage_chain_roundtrip",
                     TracedStageChain(algorithm,
                                      fpc::AlgorithmWordSize(algorithm) == 4
                                          ? sp
                                          : dp,
                                      64));
    }

    const Backend cpu{&fpc::GetExecutor("cpu"), false, inputs.threads};
    for (Algorithm algorithm : kAlgorithms) {
        const ByteSpan data = fpc::AlgorithmWordSize(algorithm) == 4 ? sp : dp;
        TourRoundTrip(SampleItem(algorithm, false, data), cpu, report);
    }
    TourRoundTrip(SampleItem(Algorithm::kSPspeed, true, sp), cpu, report);
    TourRoundTrip(SampleItem(Algorithm::kDPspeed, true, dp), cpu, report);

#ifdef _OPENMP
    const int device_threads = omp_get_max_threads();
#else
    const int device_threads = 1;
#endif
    const Backend device{&fpc::GetExecutor("gpusim:4090"), true,
                         device_threads};
    for (Algorithm algorithm : kAlgorithms) {
        const unsigned word = fpc::AlgorithmWordSize(algorithm);
        const Item item = SampleItem(
            algorithm, false, Prefix(word == 4 ? sp : dp, 256 << 10, word));
        Span root("gpusim-launch", "bench", tracer.NextOp(), 0);
        // The executor's own grid launch against the same chunks encoded
        // one kernel call at a time: the difference is launch overhead.
        const int64_t t0 = NowNs();
        Bytes launched;
        {
            Span call("Executor::Compress", "gpusim");
            launched = fpc::Compress(algorithm, ByteSpan(item.raw),
                                     device.OptionsFor(item));
        }
        const int64_t t1 = NowNs();
        const Bytes decomposed = TracedCompress(item, device);
        const int64_t t2 = NowNs();
        tracer.AddCounter("gpusim.launch_ns", static_cast<double>(t1 - t0));
        tracer.AddCounter("gpusim.decomposed_ns",
                          static_cast<double>(t2 - t1));
        report.Check("gpusim_decomposed_matches_executor",
                     launched == decomposed);
        Bytes out(item.raw.size());
        const bool ok = TracedDecompress(ByteSpan(decomposed), out, device);
        report.Check("roundtrip", ok && out == item.raw);
    }

    const std::string tag = tmpdir + "/tour-" + std::to_string(::getpid());
    if (inputs.stream != nullptr) {
        report.Check("range_read_matches_original",
                     StreamTour(*inputs.stream, *inputs.frames, 256, 4096,
                                seed));
    } else {
        std::vector<Bytes> frames;
        const size_t frame = sp.size() / 4 / 4 * 4;
        for (size_t f = 0; f < 4; ++f) {
            const ByteSpan part = sp.subspan(f * frame, frame);
            frames.emplace_back(part.begin(), part.end());
        }
        const IndexedStream stream(frames, Algorithm::kSPratio, 1,
                                   tag + ".fpcs");
        report.Check("range_read_matches_original",
                     StreamTour(stream, frames, 256,
                                std::min<uint64_t>(4096,
                                                   stream.TotalElements() / 2),
                                seed));
    }

    RequestPool own;
    const RequestPool* pool = inputs.pool;
    if (pool == nullptr) {
        const ByteSpan a = Prefix(sp, 256 << 10, 4);
        const ByteSpan b = Prefix(dp, 256 << 10, 8);
        own.sp.emplace_back(a.begin(), a.end());
        own.dp.emplace_back(b.begin(), b.end());
        own.Prepare();
        pool = &own;
    }
    ServiceTour(tag + ".sock", seed, *pool, 24, report);
    tracer.SetTourPhase(false);
}

void
AddLayerMetrics(const SpanSummary& s, double untraced_op_ns, Report& report)
{
    const Tracer& tracer = Tracer::Get();
    const auto metric = [&](const char* name, double value, const char* unit,
                            const SpanAgg* from) {
        report.Metric(name, value, unit, from != nullptr ? from->count : 1);
    };

    // transforms: time per KiB of uncompressed side, per stage and way.
    for (const char* stage : {"DIFFMS32", "DIFFMS64", "MPLG32", "MPLG64",
                              "BIT32", "RZE", "FCM", "RAZE64", "RARE64"}) {
        for (const char* dir : {"enc", "dec"}) {
            const SpanAgg& agg = s.Get(std::string(stage) + "." +
                                       (dir[0] == 'e' ? "encode" : "decode"));
            report.Metric(std::string("transforms.") + stage + "." + dir +
                              "_ns_per_kib",
                          NsPerKib(agg), "ns/KiB", agg.count);
        }
    }

    const SpanAgg& enc = s.Get("EncodeChunk");
    const SpanAgg& dec = s.Get("DecodeChunk");
    metric("pipeline.enc_ns_per_chunk", Mean(enc), "ns", &enc);
    metric("pipeline.dec_ns_per_chunk", Mean(dec), "ns", &dec);
    metric("pipeline.glue_share",
           1.0 - tracer.CounterRatio("pipeline.glue_stage_ns",
                                     "pipeline.glue_pipeline_ns"),
           "fraction", nullptr);
    metric("pipeline.raw_share",
           tracer.CounterRatio("pipeline.raw_chunks", "pipeline.chunks"),
           "fraction", nullptr);

    const SpanAgg& probe = s.Get("ProbeChunk");
    const SpanAgg& auto_enc = s.Get("EncodeChunkAuto");
    metric("adaptive.probe_ns_per_chunk", Mean(probe), "ns", &probe);
    metric("adaptive.probe_share", Share(probe.dur_ns, auto_enc.dur_ns),
           "fraction", &probe);
    metric("adaptive.auto_enc_ns_per_chunk", Mean(auto_enc), "ns", &auto_enc);
    metric("adaptive.trials_per_chunk",
           tracer.CounterRatio("adaptive.trials", "adaptive.chunks"), "count",
           nullptr);
    metric("adaptive.pred_error",
           tracer.CounterRatio("adaptive.pred_error", "adaptive.predicted"),
           "fraction", nullptr);

    const SpanAgg& compress = s.Get("compress");
    const SpanAgg& decompress = s.Get("decompress");
    metric("orchestrate.checksum_share_c",
           Share(s.GetByParent("compress", "Checksum64").dur_ns,
                 compress.dur_ns),
           "fraction", &compress);
    metric("orchestrate.checksum_share_d",
           Share(s.GetByParent("decompress", "Checksum64").dur_ns,
                 decompress.dur_ns),
           "fraction", &decompress);
    metric("orchestrate.residual_share",
           Share(compress.self_ns + decompress.self_ns,
                 compress.dur_ns + decompress.dur_ns),
           "fraction", &compress);
    const SpanAgg& inspect = s.Get("Inspect");
    metric("orchestrate.inspect_us", Mean(inspect) / 1e3, "us", &inspect);

    const SpanAgg& enc_region = s.Get("encode_chunks");
    const SpanAgg& dec_region = s.Get("decode_chunks");
    metric("executor.compress_eff",
           Share(enc_region.child_ns, enc_region.dur_x_arg), "fraction",
           &enc_region);
    metric("executor.decompress_eff",
           Share(dec_region.child_ns, dec_region.dur_x_arg), "fraction",
           &dec_region);

    const SpanAgg& dev_enc = s.Get("EncodeChunkDevice");
    const SpanAgg& dev_dec = s.Get("DecodeChunkDevice");
    const SpanAgg& fcm_enc = s.Get("FcmEncodeDevice");
    const SpanAgg& fcm_dec = s.Get("FcmDecodeDevice");
    metric("gpusim.enc_ns_per_chunk", Mean(dev_enc), "ns", &dev_enc);
    metric("gpusim.dec_ns_per_chunk", Mean(dev_dec), "ns", &dev_dec);
    metric("gpusim.fcm_ms_per_mib",
           Share((fcm_enc.dur_ns + fcm_dec.dur_ns) / 1e6,
                 fcm_enc.arg / (1024.0 * 1024.0)),
           "ms/MiB", &fcm_enc);
    metric("gpusim.launch_share",
           1.0 - tracer.CounterRatio("gpusim.decomposed_ns",
                                     "gpusim.launch_ns"),
           "fraction", nullptr);

    const SpanAgg& resolve = s.Get("ResolveStreamLayout");
    const SpanAgg& range = s.Get("DecompressRange");
    const SpanAgg& reads = s.GetByParent("DecompressRange",
                                         "ByteSource::ReadAt");
    const SpanAgg& scan = s.Get("ParallelStreamDecoder");
    std::vector<double> range_durs = range.durs;
    metric("stream.resolve_us", Mean(resolve) / 1e3, "us", &resolve);
    metric("stream.reads_per_range",
           Share(static_cast<double>(reads.count),
                 static_cast<double>(range.count)),
           "count", &range);
    metric("stream.read_kib_per_range",
           Share(reads.arg / 1024.0, static_cast<double>(range.count)), "KiB",
           &range);
    metric("stream.decode_amplification",
           tracer.CounterRatio("stream.decoded_bytes",
                               "stream.requested_bytes"),
           "x", nullptr);
    metric("stream.range_p99_us", Percentile(range_durs, 0.99) / 1e3, "us",
           &range);
    metric("stream.pool_scan_gbps", Share(scan.arg, scan.dur_ns), "GB/s",
           &scan);

    const SpanAgg& exec = s.Get("exec");
    const SpanAgg& call = s.Get("Service::Call");
    const SpanAgg& request = s.Get("request");
    std::vector<double> request_durs = request.durs;
    metric("service.exec_ms", Mean(exec) / 1e6, "ms", &exec);
    metric("service.call_ms", Mean(call) / 1e6, "ms", &call);
    metric("service.sched_ms", (Mean(call) - Mean(exec)) / 1e6, "ms", &call);
    metric("service.req_p99_ms", Percentile(request_durs, 0.99) / 1e6, "ms",
           &request);
    metric("service.arena_hit_share",
           tracer.CounterRatio("service.arena_hits", "service.arena_leases"),
           "fraction", nullptr);
    metric("service.reject_share",
           tracer.CounterRatio("service.rejected", "service.offered"),
           "fraction", nullptr);

    const SpanAgg& encode_req = s.Get("EncodeRequest");
    const SpanAgg& decode_resp = s.Get("DecodeResponse");
    const SpanAgg& wire = s.Get("socket round trip");
    metric("protocol.codec_us",
           Share(encode_req.dur_ns + decode_resp.dur_ns,
                 static_cast<double>(encode_req.count)) / 1e3,
           "us", &encode_req);
    metric("protocol.wire_ms", (Mean(wire) - Mean(call)) / 1e6, "ms", &wire);
    metric("protocol.bytes_per_req",
           Share(wire.arg, static_cast<double>(wire.count)), "B", &wire);

    LoadgenStats& load = LoadgenStats::Get();
    {
        std::lock_guard<std::mutex> lock(load.mutex);
        std::vector<double> late = load.late_ns;
        report.Metric("loadgen.late_p99_ms", Percentile(late, 0.99) / 1e6,
                      "ms", late.size());
        report.Metric("loadgen.sent_share",
                      Share(static_cast<double>(load.sent),
                            static_cast<double>(load.scheduled)),
                      "fraction", load.scheduled);
        report.Metric("loadgen.max_rps",
                      Share(static_cast<double>(load.closed_requests),
                            load.closed_seconds),
                      "1/s", load.closed_requests);
    }

    report.Metric("trace.unattributed_share",
                  Share(s.root_self_ns, s.root_dur_ns), "fraction", s.spans);
    const auto verify = s.replay.find("verify");
    const double checks_ns = verify == s.replay.end() ? 0.0
                                                      : verify->second.dur_ns;
    report.Metric("trace.overhead",
                  Share((s.root_dur_ns - checks_ns) /
                            static_cast<double>(s.root_count),
                        untraced_op_ns),
                  "x", s.root_count);
}

}  // namespace fpcbench
