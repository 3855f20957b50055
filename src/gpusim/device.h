/**
 * @file
 * A deterministic CUDA-like execution model, used in place of real GPUs
 * (see DESIGN.md, substitution #1). It models the pieces of the CUDA
 * machine the paper's GPU implementations rely on:
 *
 *  - a grid of thread blocks dynamically scheduled onto SMs,
 *  - 32-lane warps executing in lockstep (register state modelled as
 *    32-wide arrays, exchanged with shuffle operations),
 *  - bulk-synchronous phases (the code between two __syncthreads()).
 *
 * Kernels written against this model (gpusim/kernels.cc) follow the
 * parallel decomposition of paper Section 3 — chunk = thread block,
 * MPLG subchunk / BIT group = warp — and must produce byte-identical
 * compressed streams to the CPU path.
 */
#ifndef FPC_GPUSIM_DEVICE_H
#define FPC_GPUSIM_DEVICE_H

#include <functional>

#include "util/common.h"

namespace fpc::gpusim {

inline constexpr unsigned kWarpSize = 32;

/** Lockstep warp register state: one value per lane. */
template <typename T>
using WarpReg = std::array<T, kWarpSize>;

/** One thread block: phase-structured bulk-synchronous execution. */
class ThreadBlock {
 public:
    ThreadBlock(unsigned block_id, unsigned num_threads)
        : block_id_(block_id), num_threads_(num_threads)
    {
        FPC_CHECK(num_threads % kWarpSize == 0,
                  "block size must be a warp multiple");
    }

    unsigned BlockId() const { return block_id_; }
    unsigned NumThreads() const { return num_threads_; }
    unsigned NumWarps() const { return num_threads_ / kWarpSize; }

    /**
     * Execute one bulk-synchronous phase: @p body runs once per thread id.
     * Successive ForEachThread calls are separated by an implicit
     * __syncthreads() barrier (all side effects of phase N are visible in
     * phase N+1).
     */
    template <typename Body>
    void
    ForEachThread(Body&& body)
    {
        for (unsigned tid = 0; tid < num_threads_; ++tid) body(tid);
    }

    /** Execute one phase per warp (body receives the warp id). */
    template <typename Body>
    void
    ForEachWarp(Body&& body)
    {
        for (unsigned w = 0; w < NumWarps(); ++w) body(w);
    }

 private:
    unsigned block_id_;
    unsigned num_threads_;
};

/** Static description of a simulated GPU (used by the two GPU figures).
 *  Launch uses threads_per_block; the SM and residency counts describe
 *  the modelled part and do not change the schedule. */
struct DeviceProfile {
    const char* name;
    unsigned num_sms;            ///< streaming multiprocessors
    unsigned blocks_per_sm;      ///< resident blocks per SM
    unsigned threads_per_block;  ///< launch configuration
};

/** RTX 4090-like profile (Lovelace: 128 SMs). */
const DeviceProfile& Rtx4090Profile();
/** A100-like profile (Ampere: 108 SMs, more resident blocks). */
const DeviceProfile& A100Profile();

/** The simulated device: schedules blocks dynamically, like persistent
 *  thread blocks pulling chunks off a worklist (paper Section 3). */
class Device {
 public:
    explicit Device(const DeviceProfile& profile) : profile_(profile) {}

    const DeviceProfile& Profile() const { return profile_; }

    /**
     * Launch @p num_blocks blocks of the kernel @p body. Blocks execute
     * independently, claimed in id order by the caller's OpenMP team
     * (one host thread per modelled SM; serial without OpenMP).
     */
    void Launch(size_t num_blocks,
                const std::function<void(ThreadBlock&)>& body) const;

    /** Blocks executed by the last Launch (scheduling statistic). */
    size_t BlocksExecuted() const { return blocks_executed_; }

 private:
    const DeviceProfile& profile_;
    mutable size_t blocks_executed_ = 0;
};

}  // namespace fpc::gpusim

#endif  // FPC_GPUSIM_DEVICE_H
