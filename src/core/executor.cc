#include "core/executor.h"

#include <atomic>
#include <cctype>
#include <cstdint>

#include "core/orchestrate.h"
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

/**
 * The cpu chunk loop: one OpenMP worker per arena claims chunk indices
 * from one shared atomic cursor and runs @p chunk(arena, c) on each,
 * with its own arena.
 * The first exception stops all claiming and is rethrown once every
 * worker has joined.
 */
template <typename ChunkFn>
void
ClaimChunks(std::span<ScratchArena> arenas, size_t n_chunks,
            const ChunkFn& chunk)
{
    std::atomic<size_t> cursor{0};
    FirstFailure failure;
#ifdef _OPENMP
#pragma omp parallel num_threads(static_cast<int>(arenas.size()))
#endif
    {
        ScratchArena& arena = arenas[TeamWorkerId()];
        failure.Run([&] {
            while (!failure.Failed()) {
                const size_t c =
                    cursor.fetch_add(1, std::memory_order_relaxed);
                if (c >= n_chunks) break;
                chunk(arena, c);
            }
        });
    }
    failure.Rethrow();
}

/**
 * The paper's CPU implementation: chunks claimed dynamically by
 * Options::threads OpenMP threads (all by default), each on its own
 * arena, and exclusive-prefix-sum write positions.
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

    size_t
    Workers(const Options& options) const override
    {
        return options.threads > 0 ? static_cast<size_t>(options.threads)
                                   : TeamSize();
    }

    WritePositions
    EncodeChunks(const PipelineSpec& spec, ByteSpan input, ByteSpan chunk_src,
                 EncodePlan& plan,
                 std::span<ScratchArena> arenas) const override
    {
        ClaimChunks(arenas, plan.ChunkCount(),
                    [&](ScratchArena& arena, size_t c) {
                        EncodeChunkAt(spec, input, chunk_src, c, arena,
                                      &EncodeChunk, plan);
                    });
        return ComputeWritePositions(plan.sizes);
    }

    void
    DecodeChunks(const ContainerView& view, const PipelineSpec& spec,
                 std::byte* dest, uint64_t* block_hashes,
                 std::span<ScratchArena> arenas) const override
    {
        ClaimChunks(arenas, view.header.chunk_count,
                    [&](ScratchArena& arena, size_t c) {
                        DecodeChunkAt(view, spec, c, dest, arena,
                                      &DecodeChunk, block_hashes);
                    });
    }
};

/**
 * One simulated-GPU backend per device profile: the grid launch in
 * gpusim/launch.cc (one thread block per chunk, decoupled look-back
 * write positions). A fresh Device is constructed per call so concurrent
 * calls do not share scheduling state.
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

    /** One arena per host thread modelling an SM. */
    size_t Workers(const Options&) const override { return TeamSize(); }

    WritePositions
    EncodeChunks(const PipelineSpec& spec, ByteSpan input, ByteSpan chunk_src,
                 EncodePlan& plan,
                 std::span<ScratchArena> arenas) const override
    {
        return gpusim::EncodeChunksOnDevice(gpusim::Device(profile_), spec,
                                            input, chunk_src, plan, arenas);
    }

    void
    DecodeChunks(const ContainerView& view, const PipelineSpec& spec,
                 std::byte* dest, uint64_t* block_hashes,
                 std::span<ScratchArena> arenas) const override
    {
        gpusim::DecodeChunksOnDevice(gpusim::Device(profile_), view, spec,
                                     dest, block_hashes, arenas);
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

/** The built-in backends; the first is the default. */
std::span<const Executor* const>
Registry()
{
    static const CpuExecutor cpu;
    static const DeviceExecutor rtx4090("gpusim:4090",
                                        gpusim::Rtx4090Profile());
    static const DeviceExecutor a100("gpusim:a100", gpusim::A100Profile());
    static const Executor* const executors[] = {&cpu, &rtx4090, &a100};
    return executors;
}

}  // namespace

const Executor*
FindExecutor(const std::string& name)
{
    const std::string lower = Lowered(name);
    for (const Executor* executor : Registry()) {
        if (Lowered(executor->Name()) == lower) return executor;
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
    for (const Executor* executor : Registry()) {
        names.push_back(executor->Name());
    }
    return names;
}

}  // namespace fpc
