#include "stream_ops.h"

#include <cstdio>

#include "core/stream.h"
#include "core/telemetry.h"
#include "spans.h"
#include "util/hash.h"

namespace fpcbench {

using fpc::Bytes;
using fpc::ByteSpan;

void
TracedSource::ReadAt(uint64_t offset, std::span<std::byte> dest) const
{
    Span span("ByteSource::ReadAt", "stream");
    span.SetArg(dest.size());
    inner_.ReadAt(offset, dest);
}

IndexedStream::IndexedStream(const std::vector<Bytes>& frames,
                             fpc::Algorithm algorithm, int threads,
                             std::string path)
    : path_(std::move(path)), word_(fpc::AlgorithmWordSize(algorithm))
{
    fpc::StreamCompressor compressor(algorithm,
                                     fpc::Options{}.with_threads(threads));
    for (const Bytes& frame : frames) {
        compressor.PutFrame(ByteSpan(frame));
        raw_ += frame.size();
    }
    const Bytes& stream = compressor.FinishWithIndex();
    stored_ = stream.size();
    checksum_ = fpc::Checksum64(ByteSpan(stream));
    frame_bytes_ = frames.empty() ? 0 : frames.front().size();

    std::FILE* f = std::fopen(path_.c_str(), "wb");
    const bool written =
        f != nullptr &&
        std::fwrite(stream.data(), 1, stream.size(), f) == stream.size();
    if (f != nullptr && std::fclose(f) != 0) f = nullptr;
    if (!written || f == nullptr) {
        std::remove(path_.c_str());
        throw std::runtime_error("cannot write " + path_);
    }
    source_ = std::make_unique<fpc::FdByteSource>(path_);
}

IndexedStream::~IndexedStream()
{
    source_.reset();
    std::remove(path_.c_str());
}

bool
IndexedStream::Matches(const std::vector<Bytes>& frames, uint64_t first,
                       ByteSpan got) const
{
    uint64_t at = first * word_;
    for (size_t done = 0; done < got.size();) {
        const size_t f = static_cast<size_t>(at / frame_bytes_);
        if (f >= frames.size()) return false;
        const size_t in = static_cast<size_t>(at % frame_bytes_);
        const size_t n = std::min(got.size() - done, frame_bytes_ - in);
        if (std::memcmp(got.data() + done, frames[f].data() + in, n) != 0) {
            return false;
        }
        done += n;
        at += n;
    }
    return true;
}

bool
StreamTour(const IndexedStream& stream, const std::vector<Bytes>& frames,
           size_t reads, uint64_t count, uint64_t seed)
{
    Tracer& tracer = Tracer::Get();
    const TracedSource traced(stream.Source());
    const fpc::Options options = fpc::Options{}.with_threads(1);
    bool ok = true;
    {
        Span root("stream-resolve", "bench", tracer.NextOp(), 0);
        Span resolve("ResolveStreamLayout", "stream");
        ok &= fpc::ResolveStreamLayout(traced).TotalElements() ==
              stream.TotalElements();
    }

    const uint64_t span_end = stream.TotalElements() - count + 1;
    fpc::Rng rng(seed);
    for (size_t r = 0; r < reads; ++r) {
        const uint64_t first = rng.NextBelow(span_end);
        Span root("range-read", "bench", tracer.NextOp(), 0);
        Bytes got;
        {
            Span range("DecompressRange", "stream");
            range.SetArg(count * stream.Word());
            got = fpc::DecompressRange(traced, first, count, options);
        }
        Span verify("verify", "bench");
        ok &= stream.Matches(frames, first, ByteSpan(got));
    }

    {
        Span root("pool-scan", "bench", tracer.NextOp(), 0);
        Span scan("ParallelStreamDecoder", "stream");
        fpc::StreamPoolOptions pool;
        pool.workers = 2;
        fpc::ParallelStreamDecoder decoder(stream.Source(), pool);
        uint64_t delivered = 0;
        for (size_t f = 0; decoder.HasNext(); ++f) {
            const Bytes frame = decoder.NextFrame();
            ok &= f < frames.size() && frame == frames[f];
            delivered += frame.size();
        }
        scan.SetArg(delivered);
        ok &= delivered == stream.RawBytes();
    }

    // Decoded chunks per range come from the ranged telemetry block,
    // read in an untraced pass over the same kind of reads.
    fpc::Telemetry sink;
    const fpc::Options counted = fpc::Options{options}.with_telemetry(&sink);
    const size_t counted_reads = std::min<size_t>(reads, 256);
    for (size_t r = 0; r < counted_reads; ++r) {
        fpc::DecompressRange(stream.Source(), rng.NextBelow(span_end), count,
                             counted);
    }
    const fpc::TelemetrySnapshot snap = sink.Snapshot();
    tracer.AddCounter("stream.decoded_bytes",
                      static_cast<double>(snap.ranged.chunks_decoded) *
                          static_cast<double>(fpc::kChunkSize));
    tracer.AddCounter("stream.requested_bytes",
                      static_cast<double>(snap.ranged.elements) *
                          stream.Word());
    return ok;
}

}  // namespace fpcbench
