/**
 * @file
 * Public enums and option types of the fpcomp library.
 */
#ifndef FPC_CORE_TYPES_H
#define FPC_CORE_TYPES_H

#include <cstdint>
#include <string>

namespace fpc {

/** The four compression algorithms introduced by the paper. */
enum class Algorithm : uint8_t {
    kSPspeed = 0,  ///< single precision, throughput-oriented
    kSPratio = 1,  ///< single precision, ratio-oriented
    kDPspeed = 2,  ///< double precision, throughput-oriented
    kDPratio = 3,  ///< double precision, ratio-oriented
};

class ArenaPool;  // core/arena.h
class Executor;   // core/executor.h
class Telemetry;  // core/telemetry.h
class TraceSink;  // core/trace.h

/**
 * Knobs for compress()/decompress(). A plain value type with builder-style
 * chaining, so call sites read as one expression:
 *
 * @code
 *   fpc::Options options = fpc::Options{}
 *       .with_executor("gpusim:a100")
 *       .with_threads(8)
 *       .with_telemetry(&sink);
 * @endcode
 */
struct Options {
    int threads = 0;  ///< 0 = library default (all available)
    /** Execution backend (core/executor.h); null selects "cpu". Pick one
     *  with with_executor — the registry name is the only spelling. All
     *  backends emit identical compressed bytes. */
    const Executor* executor = nullptr;
    /** Metrics sink (core/telemetry.h); null = collect nothing (the
     *  fast path — no clocks, no counters). */
    Telemetry* telemetry = nullptr;
    /** Span tracer (core/trace.h); null = record no timeline. Attaching
     *  one never changes the compressed bytes. */
    TraceSink* trace = nullptr;
    /** Cross-call scratch pool (core/arena.h): long-lived callers (the
     *  service scheduler) attach one so requests reuse warm arenas
     *  instead of re-allocating. Null = call-local arenas (the
     *  default). Honoured by every backend. */
    ArenaPool* arenas = nullptr;
    /** Kernel ISA request, stored as a simd::Isa value or kIsaAuto
     *  (= follow the process default, see util/cpu_features.h). Every
     *  level emits identical bytes; this is a throughput/debug knob. */
    static constexpr uint8_t kIsaAuto = 0xff;
    uint8_t isa = kIsaAuto;
    /** Per-chunk adaptive algorithm selection (`mode=auto`): probe every
     *  16 KiB chunk and record the winning pipeline in a version-3
     *  container. The requested Algorithm then only fixes the element
     *  width. False = the classic fixed-algorithm v1 container. */
    bool adaptive = false;

    Options&
    with_threads(int n)
    {
        threads = n;
        return *this;
    }

    Options&
    with_executor(const Executor& e)
    {
        executor = &e;
        return *this;
    }

    /** Select a backend by registry name ("cpu", "gpusim:a100", ...).
     *  Throws UsageError for unknown names. Defined in core/executor.cc. */
    Options& with_executor(const std::string& name);

    /** Pin the kernel ISA level ("scalar", "avx2", "avx512") for this
     *  call. Throws UsageError for unknown names or levels unavailable
     *  on this CPU/build. Honoured by every backend. Defined in
     *  core/executor.cc. */
    Options& with_isa(const std::string& name);

    Options&
    with_adaptive(bool on = true)
    {
        adaptive = on;
        return *this;
    }

    /** Select the chunk-algorithm mode by name: "auto" enables per-chunk
     *  adaptive selection, "fixed" disables it. Throws UsageError for
     *  other names. Defined in core/codec.cc. */
    Options& with_mode(const std::string& name);

    Options&
    with_arenas(ArenaPool* pool)
    {
        arenas = pool;
        return *this;
    }

    Options&
    with_telemetry(Telemetry* sink)
    {
        telemetry = sink;
        return *this;
    }

    Options&
    with_trace(TraceSink* sink)
    {
        trace = sink;
        return *this;
    }
};

/** Human-readable algorithm name as used in the paper. */
const char* AlgorithmName(Algorithm algorithm);

/** Bytes per value of an algorithm's input type (4 for SP*, 8 for DP*). */
unsigned AlgorithmWordSize(Algorithm algorithm);

/** Parse "SPspeed"/"SPratio"/"DPspeed"/"DPratio" (case-insensitive). */
Algorithm ParseAlgorithm(const std::string& name);

}  // namespace fpc

#endif  // FPC_CORE_TYPES_H
