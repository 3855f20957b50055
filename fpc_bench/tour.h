/**
 * @file
 * The layer tour of the traced run. A workload's own operations reach
 * only some layers (archive-ratio never opens a socket), yet every
 * traced run reports every per-layer metric, so after the replay the
 * tour sends a small slice of the workload's own inputs through each
 * layer it did not reach: the stage chains of all four pipelines, cpu
 * and gpusim round trips (fixed and auto), an indexed stream and a
 * service. Tour spans carry kTourOp; a per-layer metric uses them only
 * when the replay recorded none of its own (SpanSummary::Get).
 */
#ifndef FPC_BENCH_TOUR_H
#define FPC_BENCH_TOUR_H

#include <string>
#include <vector>

#include "report.h"
#include "service_ops.h"
#include "spans.h"
#include "stream_ops.h"

namespace fpcbench {

struct TourInputs {
    fpc::ByteSpan sp;  ///< float data of the workload (up to 1 MiB used)
    fpc::ByteSpan dp;  ///< double data (the float bytes when it has none)
    int threads = 1;   ///< the workload's cpu thread count
    /** The workload's own indexed stream and its frames, if it has one. */
    const IndexedStream* stream = nullptr;
    const std::vector<fpc::Bytes>* frames = nullptr;
    /** The workload's own request pool, if it has one. */
    const RequestPool* pool = nullptr;
};

void RunTour(const TourInputs& inputs, uint64_t seed,
             const std::string& tmpdir, Report& report);

/** Add every per-layer metric computed from the finished recording, and
 *  trace.unattributed_share and trace.overhead: the replayed operations'
 *  time, their own checks excluded, per @p untraced_op_ns. */
void AddLayerMetrics(const SpanSummary& summary, double untraced_op_ns,
                     Report& report);

}  // namespace fpcbench

#endif  // FPC_BENCH_TOUR_H
