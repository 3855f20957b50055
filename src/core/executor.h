/**
 * @file
 * Pluggable execution backends for the four algorithms. An Executor owns
 * only the *scheduling* of the chunk-parallel work: which worker encodes
 * or decodes which chunk, and how the compressed write positions are
 * found. Everything else — ISA resolution, arena leases, run telemetry,
 * the whole-input pre-stage, header construction, container assembly,
 * parsing and the content check — is the compress and decompress drivers
 * in core/orchestrate.h, which call the executor's two hooks. So every
 * backend produces byte-identical containers (the paper's cross-device
 * compatibility property, asserted by tests/executor_test.cc across the
 * registry and against a test-local serial executor).
 *
 * Built-in backends:
 *   "cpu"          shared-cursor OpenMP chunk loop, prefix-sum write
 *                  positions (the default)
 *   "gpusim:4090"  simulated grid launch with decoupled look-back,
 *                  RTX 4090-like profile
 *   "gpusim:a100"  the same launch, A100-like profile
 *
 * Select one per call via Options::executor, or by name:
 *
 * @code
 *   fpc::Options options;
 *   options.executor = &fpc::GetExecutor("gpusim:4090");
 *   fpc::Bytes packed = fpc::Compress(algorithm, input, options);
 * @endcode
 *
 * Another backend (a real CUDA device, a remote pool) implements the two
 * hooks and is passed through Options::executor; nothing above this layer
 * (stream API, eval harness, benches, fpczip) needs to change.
 */
#ifndef FPC_CORE_EXECUTOR_H
#define FPC_CORE_EXECUTOR_H

#include <span>
#include <string>
#include <vector>

#include "core/arena.h"
#include "core/types.h"
#include "util/common.h"
#include "util/cpu_features.h"

namespace fpc {

struct ContainerView;
struct EncodePlan;
struct PipelineSpec;
struct WritePositions;

/** Static capabilities of a backend. */
struct ExecutorCaps {
    /** Honours Options::threads (host-thread chunk parallelism). */
    bool chunk_parallel = true;
    /** Runs the gpusim warp/block kernels rather than the scalar CPU
     *  transforms. */
    bool device_kernels = false;
    /** Device profile name ("RTX4090-sim", ...), nullptr for host. */
    const char* profile = nullptr;
};

/** One execution backend: a chunk scheduler. Implementations must be
 *  stateless across calls (one executor is shared by all threads). */
class Executor {
 public:
    virtual ~Executor() = default;

    /** Registry name, e.g. "cpu" or "gpusim:4090". */
    virtual const std::string& Name() const = 0;

    virtual ExecutorCaps Capabilities() const = 0;

    /** Workers a call with @p options schedules chunks on; the drivers
     *  lease one arena per worker and assemble with as many threads.
     *  Serial by default. */
    virtual size_t
    Workers(const Options& /*options*/) const
    {
        return 1;
    }

    /** Encode hook: run EncodeChunkAt (core/orchestrate.h) over every
     *  chunk of @p plan — chunk c of @p chunk_src, hashing block c of
     *  @p input — on @p arenas, one per worker, and return the payload
     *  write positions. Rethrows the first failure once every worker
     *  has stopped. */
    virtual WritePositions EncodeChunks(const PipelineSpec& spec,
                                        ByteSpan input, ByteSpan chunk_src,
                                        EncodePlan& plan,
                                        std::span<ScratchArena> arenas)
        const = 0;

    /** Decode hook: run DecodeChunkAt over every chunk of @p view into
     *  @p dest (sized view.header.transformed_size) on @p arenas, with
     *  @p block_hashes (null, or one slot per chunk). Rethrows the first
     *  failure once every worker has stopped. */
    virtual void DecodeChunks(const ContainerView& view,
                              const PipelineSpec& spec, std::byte* dest,
                              uint64_t* block_hashes,
                              std::span<ScratchArena> arenas) const = 0;
};

/** Look up a backend by name (case-insensitive). Throws UsageError naming
 *  the registered backends when @p name is unknown. */
const Executor& GetExecutor(const std::string& name);

/** Look up a backend by name; nullptr when unknown. */
const Executor* FindExecutor(const std::string& name);

/** The default backend ("cpu"). */
const Executor& DefaultExecutor();

/** The backend a call with @p options runs on: Options::executor when
 *  set, otherwise the default backend ("cpu"). */
const Executor& ResolveExecutor(const Options& options);

/** The kernel ISA a call with @p options dispatches on:
 *  Options::with_isa when set, otherwise the process default
 *  (util/cpu_features.h). Throws UsageError for an unavailable level. */
simd::Isa ResolveIsa(const Options& options);

/** Names of the built-in backends, in registry order. */
std::vector<std::string> ExecutorNames();

}  // namespace fpc

#endif  // FPC_CORE_EXECUTOR_H
