#include "core/executor.h"

#include <atomic>
#include <cctype>
#include <cstdint>
#include <exception>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "core/orchestrate.h"
#include "core/telemetry.h"
#include "gpusim/launch.h"

namespace fpc {

Options&
Options::with_executor(const std::string& name)
{
    executor = &GetExecutor(name);
    return *this;
}

Options&
Options::with_isa(const std::string& name)
{
    const simd::Isa requested = simd::ParseIsa(name);
    if (!simd::IsaAvailable(requested)) {
        throw UsageError("ISA \"" + name +
                         "\" is not available on this CPU/build");
    }
    isa = static_cast<uint8_t>(requested);
    return *this;
}

simd::Isa
ResolveIsa(const Options& options)
{
    if (options.isa == Options::kIsaAuto) return simd::DefaultIsa();
    const auto requested = static_cast<simd::Isa>(options.isa);
    if (!simd::IsaAvailable(requested)) {
        // A raw Options::isa value (bypassing with_isa) above the
        // machine's capability would silently change behaviour; reject.
        throw UsageError(std::string("ISA \"") + simd::IsaName(requested) +
                         "\" is not available on this CPU/build");
    }
    return requested;
}

namespace {

int
EffectiveThreads(const Options& options)
{
#ifdef _OPENMP
    return options.threads > 0 ? options.threads : omp_get_max_threads();
#else
    (void)options;
    return 1;
#endif
}

/** Index of the calling worker within the current parallel region. */
int
WorkerId()
{
#ifdef _OPENMP
    return omp_get_thread_num();
#else
    return 0;
#endif
}

/**
 * The CPU chunk loop: @p threads workers claim chunk indices from one
 * shared atomic cursor and run @p chunk(worker, c) on each. The first
 * exception stops all claiming and is returned once every worker has
 * joined.
 */
template <typename ChunkFn>
std::exception_ptr
ClaimChunks(int threads, size_t n_chunks, const ChunkFn& chunk)
{
    std::atomic<size_t> cursor{0};
    std::atomic<bool> failed{false};
    std::exception_ptr first_error;
#ifdef _OPENMP
#pragma omp parallel num_threads(threads)
#endif
    {
        const auto worker = static_cast<uint32_t>(WorkerId());
        try {
            while (!failed.load(std::memory_order_relaxed)) {
                const size_t c =
                    cursor.fetch_add(1, std::memory_order_relaxed);
                if (c >= n_chunks) break;
                chunk(worker, c);
            }
        } catch (...) {
#ifdef _OPENMP
#pragma omp critical
#endif
            {
                if (!failed.exchange(true)) {
                    first_error = std::current_exception();
                }
            }
        }
    }
    (void)threads;
    return first_error;
}

/**
 * The paper's CPU implementation: chunks claimed dynamically by OpenMP
 * threads (Options::threads), per-thread scratch arenas, each chunk's
 * block of the content checksum hashed by the worker that owns the chunk,
 * and the two-pass prefix-sum container assembly from core/orchestrate.h.
 */
class CpuExecutor final : public Executor {
 public:
    const std::string&
    Name() const override
    {
        static const std::string name = "cpu";
        return name;
    }

    ExecutorCaps
    Capabilities() const override
    {
        return {.chunk_parallel = true, .device_kernels = false,
                .profile = nullptr};
    }

    Bytes
    Compress(Algorithm algorithm, ByteSpan input,
             const Options& options) const override
    {
        const PipelineSpec& spec = GetPipeline(algorithm);
        const int threads = EffectiveThreads(options);
        TelemetryRunScope scope(SinkOf(options), TraceOf(options),
                                static_cast<size_t>(threads));

        // Whole-input pre-stage (FCM); algorithms without one chunk the
        // input in place — no staging copy.
        const bool adaptive = options.adaptive;
        const simd::Isa isa = ResolveIsa(options);
        Bytes work;
        const ByteSpan chunk_src = PreEncode(spec, input, adaptive, isa,
                                             scope.MainShard(), work);

        // Pass 1 (paper Section 3): chunks are dynamically claimed by
        // threads; each encodes on its worker's arena — no allocations
        // per chunk once the arenas are warm — stages its payload in the
        // plan's slot for it, and hashes its block of the input.
        const size_t n_chunks = ChunkCountOf(chunk_src.size());
        EncodePlan plan(n_chunks, input.size());
        if (adaptive) plan.EnableAdaptive();
        ArenaLease lease =
            AcquireScratch(options.arenas, static_cast<size_t>(threads));
        std::span<ScratchArena> arenas = lease.Span();
        for (ScratchArena& arena : arenas) arena.SetKernelIsa(isa);
        scope.HintChunks(n_chunks);
        scope.Attach(arenas);
        const auto encode = [&](uint32_t worker, size_t c) {
            EncodeChunkAt(spec, input, chunk_src, c, arenas[worker],
                          &EncodeChunk, plan);
        };
        if (std::exception_ptr error =
                ClaimChunks(threads, n_chunks, encode)) {
            scope.Finish(arenas);
            std::rethrow_exception(error);
        }

        const ContainerHeader header = MakeContainerHeader(
            algorithm, chunk_src.size(), plan, scope.MainShard());
        const WritePositions wp = ComputeWritePositions(plan.sizes);
        Bytes out =
            AssembleContainer(header, plan, wp.offsets, wp.total, threads);
        // Counters merge once, at the barrier — never on the chunk path.
        scope.Finish(arenas);
        return out;
    }

    Bytes
    Decompress(ByteSpan compressed, const Options& options) const override
    {
        return RunDecompress(compressed, DecodeChunks(options),
                             PreDecode(options), TraceOf(options));
    }

    void
    DecompressInto(ByteSpan compressed, std::span<std::byte> out,
                   const Options& options) const override
    {
        RunDecompressInto(compressed, out, DecodeChunks(options),
                          PreDecode(options), TraceOf(options));
    }

    void
    DecodeChunks(const ContainerView& view, const PipelineSpec& spec,
                 std::byte* dest, const Options& options) const override
    {
        DecodeChunks(options)(view, spec, dest, nullptr);
    }

 private:
    /** Chunk decode hook: shared-cursor loop, one arena per worker, the
     *  last pipeline stage writing straight into the chunk's slot, which
     *  the same worker then hashes into @p block_hashes when given. */
    static DecodeChunksFn
    DecodeChunks(const Options& options)
    {
        return [options](const ContainerView& view, const PipelineSpec& spec,
                         std::byte* dest, uint64_t* block_hashes) {
            const size_t n_chunks = view.header.chunk_count;
            const int threads = EffectiveThreads(options);
            ArenaLease lease = AcquireScratch(options.arenas,
                                              static_cast<size_t>(threads));
            std::span<ScratchArena> arenas = lease.Span();
            const simd::Isa isa = ResolveIsa(options);
            for (ScratchArena& arena : arenas) arena.SetKernelIsa(isa);
            TelemetryRunScope scope(SinkOf(options), TraceOf(options),
                                    static_cast<size_t>(threads));
            scope.HintChunks(n_chunks);
            scope.Attach(arenas);
            const auto decode = [&](uint32_t worker, size_t c) {
                DecodeChunkAt(view, spec, c, dest, arenas[worker],
                              &DecodeChunk, block_hashes);
            };
            const std::exception_ptr error =
                ClaimChunks(threads, n_chunks, decode);
            scope.Finish(arenas);
            if (error) RethrowAsCorrupt(error);
        };
    }

    static PreDecodeFn
    PreDecode(const Options& options)
    {
        return PreDecodeHook(SinkOf(options), TraceOf(options),
                             ResolveIsa(options));
    }
};

/**
 * One simulated-GPU backend per device profile: whole-buffer compression
 * through the grid launch in gpusim/launch.cc (persistent thread blocks,
 * decoupled look-back write positions). A fresh Device is constructed per
 * call so concurrent calls do not share scheduling state.
 */
class DeviceExecutor final : public Executor {
 public:
    DeviceExecutor(std::string name, const gpusim::DeviceProfile& profile)
        : name_(std::move(name)), profile_(profile) {}

    const std::string& Name() const override { return name_; }

    ExecutorCaps
    Capabilities() const override
    {
        return {.chunk_parallel = false, .device_kernels = true,
                .profile = profile_.name};
    }

    Bytes
    Compress(Algorithm algorithm, ByteSpan input,
             const Options& options) const override
    {
        // Grid scheduling comes from the device profile; only the
        // telemetry/trace sinks are taken from the options.
        gpusim::Device device(profile_);
        return gpusim::CompressOnDevice(device, algorithm, input,
                                        SinkOf(options), TraceOf(options),
                                        options.adaptive);
    }

    Bytes
    Decompress(ByteSpan compressed, const Options& options) const override
    {
        gpusim::Device device(profile_);
        return gpusim::DecompressOnDevice(device, compressed,
                                          SinkOf(options), TraceOf(options));
    }

    void
    DecompressInto(ByteSpan compressed, std::span<std::byte> out,
                   const Options& options) const override
    {
        gpusim::Device device(profile_);
        gpusim::DecompressIntoOnDevice(device, compressed, out,
                                       SinkOf(options), TraceOf(options));
    }

    void
    DecodeChunks(const ContainerView& view, const PipelineSpec& spec,
                 std::byte* dest, const Options& options) const override
    {
        gpusim::Device device(profile_);
        gpusim::DecodeChunksOnDevice(device, view, spec, dest,
                                     SinkOf(options), TraceOf(options));
    }

 private:
    std::string name_;
    const gpusim::DeviceProfile& profile_;
};

std::string
Lowered(const std::string& name)
{
    std::string lower;
    lower.reserve(name.size());
    for (char c : name) {
        lower.push_back(static_cast<char>(
            std::tolower(static_cast<unsigned char>(c))));
    }
    return lower;
}

std::vector<std::unique_ptr<Executor>>&
Registry()
{
    static std::vector<std::unique_ptr<Executor>> executors = [] {
        std::vector<std::unique_ptr<Executor>> v;
        v.push_back(std::make_unique<CpuExecutor>());
        v.push_back(std::make_unique<DeviceExecutor>(
            "gpusim:4090", gpusim::Rtx4090Profile()));
        v.push_back(std::make_unique<DeviceExecutor>(
            "gpusim:a100", gpusim::A100Profile()));
        return v;
    }();
    return executors;
}

}  // namespace

const Executor*
FindExecutor(const std::string& name)
{
    const std::string lower = Lowered(name);
    for (const auto& executor : Registry()) {
        if (Lowered(executor->Name()) == lower) return executor.get();
    }
    return nullptr;
}

const Executor&
GetExecutor(const std::string& name)
{
    if (const Executor* executor = FindExecutor(name)) return *executor;
    std::string known;
    for (const std::string& n : ExecutorNames()) {
        if (!known.empty()) known += ", ";
        known += n;
    }
    throw UsageError("unknown executor \"" + name +
                     "\" (registered: " + known + ")");
}

const Executor&
DefaultExecutor()
{
    return *Registry().front();
}

const Executor&
ResolveExecutor(const Options& options)
{
    if (options.executor != nullptr) return *options.executor;
    return DefaultExecutor();
}

std::vector<std::string>
ExecutorNames()
{
    std::vector<std::string> names;
    for (const auto& executor : Registry()) {
        names.push_back(executor->Name());
    }
    return names;
}

void
RegisterExecutor(std::unique_ptr<Executor> executor)
{
    FPC_CHECK(executor != nullptr, "null executor registration");
    if (FindExecutor(executor->Name()) != nullptr) {
        throw UsageError("executor \"" + executor->Name() +
                         "\" is already registered");
    }
    Registry().push_back(std::move(executor));
}

}  // namespace fpc
