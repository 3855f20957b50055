#include "gpusim/device.h"

namespace fpc::gpusim {

const DeviceProfile&
Rtx4090Profile()
{
    static const DeviceProfile profile{"RTX4090-sim", 128, 2, 256};
    return profile;
}

const DeviceProfile&
A100Profile()
{
    static const DeviceProfile profile{"A100-sim", 108, 4, 256};
    return profile;
}

void
Device::Launch(size_t num_blocks,
               const std::function<void(ThreadBlock&)>& body) const
{
    blocks_executed_ = num_blocks;
    // The host threads of one OpenMP team pull block ids off a dynamic
    // worklist in id order, like persistent thread blocks pulling chunks
    // (paper Section 3: chunks are dynamically assigned to thread
    // blocks). The profile's SM and residency counts are labels only.
    if (num_blocks == 0) return;

#ifdef _OPENMP
    // Signed loop index: unsigned induction variables are not portable
    // across OpenMP implementations (pre-3.0 front ends reject them).
#pragma omp parallel for schedule(dynamic)
    for (std::int64_t b = 0; b < static_cast<std::int64_t>(num_blocks);
         ++b) {
        ThreadBlock block(static_cast<unsigned>(b),
                          profile_.threads_per_block);
        body(block);
    }
#else
    for (size_t b = 0; b < num_blocks; ++b) {
        ThreadBlock block(static_cast<unsigned>(b),
                          profile_.threads_per_block);
        body(block);
    }
#endif
}

}  // namespace fpc::gpusim
