/**
 * @file
 * The library round trip, two ways. RoundTrip is what a user runs:
 * fpc::Compress then fpc::DecompressInto through one executor. The
 * Traced* functions do the same work decomposed into the public calls
 * the executors are built from (core/orchestrate.h, core/pipeline.h,
 * core/adaptive.h, gpusim/kernels.h), with a span around each, so the
 * traced run can attribute a round trip's time to its layers. They must
 * produce the same bytes; callers check that they do.
 */
#ifndef FPC_BENCH_LIBRARY_OPS_H
#define FPC_BENCH_LIBRARY_OPS_H

#include <span>

#include "corpus.h"
#include "core/executor.h"

namespace fpcbench {

/** Where and how wide a library call runs. */
struct Backend {
    const fpc::Executor* executor = nullptr;
    bool device = false;  ///< gpusim chunk kernels instead of the cpu ones
    int threads = 1;      ///< chunk-parallel host threads

    fpc::Options OptionsFor(const Item& item) const;
};

struct RoundTripNs {
    int64_t compress = 0;
    int64_t decompress = 0;
};

/** Compress @p item and decompress it into @p out (sized raw.size()). */
RoundTripNs RoundTrip(const Item& item, const Backend& backend,
                      fpc::Bytes& container, std::span<std::byte> out);

/** Decomposed Compress. Spans join the caller's open span (the
 *  operation's root). */
fpc::Bytes TracedCompress(const Item& item, const Backend& backend);

/** Decomposed DecompressInto. Returns false when the restored bytes
 *  fail the container's content checksum. */
bool TracedDecompress(fpc::ByteSpan container, std::span<std::byte> out,
                      const Backend& backend);

/**
 * Tour of the transform layer: @p algorithm's stages applied one public
 * Stage::encode/decode call at a time to up to @p max_chunks chunks of
 * @p sample (after the whole-input FCM stage for DPratio), next to
 * EncodeChunk/DecodeChunk on the same chunks, so stage time and pipeline
 * glue separate. Returns false when any chain fails to restore its input.
 */
bool TracedStageChain(fpc::Algorithm algorithm, fpc::ByteSpan sample,
                      size_t max_chunks);

}  // namespace fpcbench

#endif  // FPC_BENCH_LIBRARY_OPS_H
