/**
 * @file
 * Per-thread scratch arena for the chunk codec hot path.
 *
 * The paper's throughput claims assume the transforms are memory-bound; an
 * allocator call per chunk per stage would dominate them. A ScratchArena
 * owns every buffer the chunk pipeline needs — the stage ping-pong pair,
 * stage-local byte and word scratch, and the recursive bitmap-codec level
 * pools — all capacity-retaining, so after the first few chunks warm the
 * capacities, EncodeChunk/DecodeChunk perform zero heap allocations
 * (steady state; asserted by tests/arena_test.cc).
 *
 * Ownership rules (see DESIGN.md "Execution & memory model"):
 *  - One arena per worker thread, created once per Compress/Decompress
 *    call and handed to every EncodeChunk/DecodeChunk that thread runs.
 *    Arenas are never shared between threads.
 *  - PipelineA/PipelineB are reserved for the pipeline driver's stage
 *    ping-pong; a stage may read its input from one of them (via the
 *    ByteSpan it is given) and writes its output to the other, so stages
 *    must never touch them directly.
 *  - Slot(i), Words<T>(), and Histogram() are stage-local: valid only
 *    between entry and exit of a single stage call. A stage may use any of
 *    them; the next stage will clobber them.
 *  - BitmapLevel/BitmapKept belong to the bitmap codec
 *    (transforms/bitmap_codec.h). DecompressBitmap's result lives in a
 *    level slot and dies at the next bitmap-codec call on the same arena.
 *  - No arena holds encoded payloads between chunks: each chunk's
 *    payload is copied out of the ping-pong buffers into its slot of
 *    the call's one staging buffer (EncodePlan in core/orchestrate.h),
 *    which the orchestrating thread allocates at the worst-case size,
 *    n_chunks × kChunkSize. An arena's capacity is therefore a handful
 *    of chunk-sized buffers whatever the input size.
 */
#ifndef FPC_CORE_ARENA_H
#define FPC_CORE_ARENA_H

#include <mutex>
#include <span>

#include "util/common.h"
#include "util/cpu_features.h"

// Mirrors the default in core/telemetry.h (kept independent so this header
// stays free of the telemetry include).
#ifndef FPC_TELEMETRY
#define FPC_TELEMETRY 1
#endif

namespace fpc {

struct TelemetryShard;  // core/telemetry.h

/** Live-metrics hook (core/metrics.cc): pool hit/miss counters and the
 *  lease high-water gauge. No-op under -DFPC_TELEMETRY=0. */
void RecordArenaAcquire(uint64_t hits, uint64_t misses,
                        uint64_t outstanding);

class ScratchArena {
 public:
    ScratchArena() = default;
    ScratchArena(const ScratchArena&) = delete;
    ScratchArena& operator=(const ScratchArena&) = delete;
    ScratchArena(ScratchArena&&) = default;
    ScratchArena& operator=(ScratchArena&&) = default;

    /** Stage ping-pong buffers; reserved for the pipeline driver. */
    Bytes& PipelineA() { return pipeline_a_; }
    Bytes& PipelineB() { return pipeline_b_; }

    /** Stage-local byte scratch slots (bitmap / packed-bits / low-bits). */
    static constexpr size_t kSlots = 3;
    Bytes&
    Slot(size_t i)
    {
        FPC_CHECK(i < kSlots, "arena slot index out of range");
        return slots_[i];
    }

    /** Stage-local word scratch (32- and 64-bit views are distinct). */
    template <typename T>
    std::vector<T>& Words();

    /** Leading-bit histogram scratch for the adaptive-k transforms. */
    std::vector<unsigned>& Histogram() { return histogram_; }

    /** Bitmap-codec level buffer @p i (grown on first use, then reused). */
    Bytes& BitmapLevel(size_t i);
    /** Kept-bytes buffer of bitmap-codec level @p i. */
    Bytes& BitmapKept(size_t i);

    /** Reset the per-run state (the decode budget) while keeping every
     *  buffer's capacity — called when an arena is reused for a new
     *  compress/decompress call (ArenaPool::Acquire). */
    void ResetForRun() { decode_budget_ = SIZE_MAX; }

    /** Adaptive-selection trial stash (core/adaptive.cc): parks one
     *  candidate's payload while a second candidate runs through the
     *  ping-pong buffers. Clobbered by the next EncodeChunkAuto call. */
    Bytes& TrialStash() { return trial_stash_; }

    /**
     * Decode-side allocation budget: the maximum byte count a stage decoder
     * may accept from a wire-declared size field before allocating. The
     * pipeline driver (DecodeChunk) sets it to the destination chunk size
     * plus a fixed slack covering per-stage framing overhead; every stage
     * decoder checks its declared output size against it *before* any
     * resize/reserve, so a corrupt size field cannot force a
     * decompression-bomb allocation. Defaults to SIZE_MAX (unbounded) for
     * standalone transform calls on trusted input.
     */
    size_t DecodeBudget() const { return decode_budget_; }
    void SetDecodeBudget(size_t budget) { decode_budget_ = budget; }

    /** Total heap bytes currently held across all buffers (diagnostics). */
    size_t CapacityBytes() const;

    /**
     * Telemetry shard of the worker this arena belongs to, or nullptr when
     * no sink is attached (the common case — hooks then cost one pointer
     * test). Wired per run by TelemetryRunScope (core/telemetry.h); with
     * FPC_TELEMETRY=0 the getter is a constant nullptr, so every hook
     * guarded by it folds away.
     */
#if FPC_TELEMETRY
    TelemetryShard* Telemetry() const { return telemetry_; }
    void SetTelemetryShard(TelemetryShard* shard) { telemetry_ = shard; }
#else
    static constexpr TelemetryShard* Telemetry() { return nullptr; }
    void SetTelemetryShard(TelemetryShard*) {}
#endif

    /**
     * Kernel ISA level the transforms dispatch on (util/simd.h). Arenas
     * are born at the process default, so standalone transform calls
     * follow FPC_FORCE_SCALAR / SetDefaultIsa with no plumbing; the
     * drivers (core/orchestrate.h) set it per call on every backend from
     * Options::with_isa (core/executor.cc ResolveIsa).
     */
    simd::Isa KernelIsa() const { return kernel_isa_; }
    void SetKernelIsa(simd::Isa isa) { kernel_isa_ = isa; }

 private:
    Bytes pipeline_a_;
    Bytes pipeline_b_;
    std::array<Bytes, kSlots> slots_;
    std::vector<uint32_t> words32_;
    std::vector<uint64_t> words64_;
    std::vector<unsigned> histogram_;
    std::vector<Bytes> bitmap_levels_;
    std::vector<Bytes> bitmap_kept_;
    Bytes trial_stash_;
    size_t decode_budget_ = SIZE_MAX;
    simd::Isa kernel_isa_ = simd::DefaultIsa();
#if FPC_TELEMETRY
    TelemetryShard* telemetry_ = nullptr;
#endif
};

template <>
inline std::vector<uint32_t>&
ScratchArena::Words<uint32_t>()
{
    return words32_;
}

template <>
inline std::vector<uint64_t>&
ScratchArena::Words<uint64_t>()
{
    return words64_;
}

class ArenaPool;

/**
 * A borrowed, contiguous set of arenas. Executors hold one for the
 * duration of a call and index it per worker; on destruction the arenas
 * go back to the pool (buffers warm) — or die with the lease when it was
 * created without a pool (the classic call-local behaviour).
 */
class ArenaLease {
 public:
    ArenaLease() = default;
    ArenaLease(std::vector<ScratchArena> arenas, ArenaPool* pool)
        : arenas_(std::move(arenas)), pool_(pool) {}
    ArenaLease(const ArenaLease&) = delete;
    ArenaLease& operator=(const ArenaLease&) = delete;
    ArenaLease(ArenaLease&& other) noexcept
        : arenas_(std::move(other.arenas_)), pool_(other.pool_)
    {
        other.pool_ = nullptr;
        other.arenas_.clear();
    }
    ArenaLease& operator=(ArenaLease&&) = delete;
    ~ArenaLease();

    std::span<ScratchArena> Span() { return arenas_; }

 private:
    std::vector<ScratchArena> arenas_;
    ArenaPool* pool_ = nullptr;
};

/**
 * A mutex-guarded pool of warm ScratchArenas shared across calls — the
 * service scheduler's answer to "one arena per worker, created once per
 * call": long-lived workers attach a pool via Options::with_arenas and
 * every request reuses the retained buffer capacities of earlier
 * requests instead of re-warming fresh arenas. Acquire/Release move
 * whole arenas (pointer swaps; the buffers never copy), and each
 * acquired arena is ResetForRun() so no request inherits another's
 * decode budget. The drivers lease every backend's arenas from it.
 */
class ArenaPool {
 public:
    ArenaPool() = default;
    ArenaPool(const ArenaPool&) = delete;
    ArenaPool& operator=(const ArenaPool&) = delete;

    /** Borrow @p n arenas, creating cold ones only when the pool runs
     *  short (concurrent calls hold disjoint sets). */
    ArenaLease
    Acquire(size_t n)
    {
        std::vector<ScratchArena> out;
        out.reserve(n);
        uint64_t hits = 0;
        uint64_t outstanding = 0;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++leases_;
            while (!free_.empty() && out.size() < n) {
                out.push_back(std::move(free_.back()));
                free_.pop_back();
            }
            hits = out.size();
            created_ += n - out.size();
            outstanding_ += n;
            if (outstanding_ > high_water_) high_water_ = outstanding_;
            outstanding = outstanding_;
        }
        RecordArenaAcquire(hits, n - hits, outstanding);
        for (ScratchArena& arena : out) arena.ResetForRun();
        while (out.size() < n) out.emplace_back();
        return ArenaLease(std::move(out), this);
    }

    /** Leases handed out (diagnostics). */
    uint64_t
    Leases() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return leases_;
    }

    /** Arenas constructed cold because the pool ran short; a warmed-up
     *  service plateaus here while Leases() keeps growing. */
    uint64_t
    Created() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return created_;
    }

 private:
    friend class ArenaLease;

    void
    Release(std::vector<ScratchArena>&& arenas)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const uint64_t returned = arenas.size();
        outstanding_ = outstanding_ > returned ? outstanding_ - returned
                                               : 0;
        for (ScratchArena& arena : arenas) {
            free_.push_back(std::move(arena));
        }
    }

    mutable std::mutex mutex_;
    std::vector<ScratchArena> free_;
    uint64_t leases_ = 0;
    uint64_t created_ = 0;
    uint64_t outstanding_ = 0;  ///< arenas currently leased out
    uint64_t high_water_ = 0;   ///< max simultaneous leased arenas
};

inline ArenaLease::~ArenaLease()
{
    if (pool_ != nullptr) pool_->Release(std::move(arenas_));
}

/** The executors' arena source: borrow from @p pool when one is
 *  attached, otherwise own fresh call-local arenas. */
inline ArenaLease
AcquireScratch(ArenaPool* pool, size_t n)
{
    if (pool != nullptr) return pool->Acquire(n);
    return ArenaLease(std::vector<ScratchArena>(n), nullptr);
}

}  // namespace fpc

#endif  // FPC_CORE_ARENA_H
