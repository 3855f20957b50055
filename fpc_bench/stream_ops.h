/**
 * @file
 * The seekable-stream path: an indexed stream written to a file inside
 * the working directory and read back through FdByteSource with
 * DecompressRange, plus the traced pieces (ResolveStreamLayout,
 * ByteSource::ReadAt, DecompressRange, ParallelStreamDecoder) the traced
 * run times.
 */
#ifndef FPC_BENCH_STREAM_OPS_H
#define FPC_BENCH_STREAM_OPS_H

#include <memory>
#include <string>
#include <vector>

#include "core/types.h"
#include "util/byte_source.h"
#include "util/common.h"

namespace fpcbench {

/** A ByteSource that forwards to another and records a span around every
 *  ReadAt (View reports "not addressable", so every read is a ReadAt). */
class TracedSource final : public fpc::ByteSource {
 public:
    explicit TracedSource(const fpc::ByteSource& inner) : inner_(inner) {}
    uint64_t Size() const override { return inner_.Size(); }
    void ReadAt(uint64_t offset, std::span<std::byte> dest) const override;

 private:
    const fpc::ByteSource& inner_;
};

/** An indexed stream of equal-size frames on disk; deletes its file. */
class IndexedStream {
 public:
    /** Compress @p frames (each a whole number of elements of
     *  @p algorithm's width) with @p threads into @p path. */
    IndexedStream(const std::vector<fpc::Bytes>& frames,
                  fpc::Algorithm algorithm, int threads, std::string path);
    ~IndexedStream();
    IndexedStream(const IndexedStream&) = delete;
    IndexedStream& operator=(const IndexedStream&) = delete;

    const fpc::ByteSource& Source() const { return *source_; }
    uint64_t StoredBytes() const { return stored_; }
    /** Checksum64 of the stream's bytes. */
    uint64_t Checksum() const { return checksum_; }
    uint64_t RawBytes() const { return raw_; }
    uint64_t TotalElements() const { return raw_ / word_; }
    unsigned Word() const { return word_; }

    /** True when @p got equals elements [first, first + count) of
     *  @p frames (the frames this stream was written from). */
    bool Matches(const std::vector<fpc::Bytes>& frames, uint64_t first,
                 fpc::ByteSpan got) const;

 private:
    std::string path_;
    unsigned word_ = 4;
    uint64_t raw_ = 0;
    uint64_t stored_ = 0;
    uint64_t checksum_ = 0;
    size_t frame_bytes_ = 0;
    std::unique_ptr<fpc::FdByteSource> source_;
};

/**
 * Traced tour of the stream layer over @p stream: resolve the layout,
 * @p reads ranged reads of @p count elements at offsets drawn from
 * @p seed through a TracedSource, a pool scan, and an untraced pass
 * that reads the decoded-chunk count from the ranged telemetry. Returns
 * false when any read or the scan returns wrong bytes.
 */
bool StreamTour(const IndexedStream& stream,
                const std::vector<fpc::Bytes>& frames, size_t reads,
                uint64_t count, uint64_t seed);

}  // namespace fpcbench

#endif  // FPC_BENCH_STREAM_OPS_H
