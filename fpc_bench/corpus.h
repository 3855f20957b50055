/**
 * @file
 * Seeded inputs. Every byte a workload feeds the library comes from the
 * data/fields.h generators, with per-file seeds mixed from the --seed
 * argument, so one seed always yields the same corpus and two seeds give
 * different ones (corpus_fingerprint tells them apart). The domain mix
 * mirrors data/datasets.cc: seven single-precision domains in the
 * SDRBench proportions and five double-precision ones.
 */
#ifndef FPC_BENCH_CORPUS_H
#define FPC_BENCH_CORPUS_H

#include <functional>
#include <string>
#include <vector>

#include "core/types.h"
#include "util/common.h"

namespace fpcbench {

/** One input of a library workload. */
struct Item {
    std::string name;
    fpc::Algorithm algorithm{};  ///< pipeline, or width representative
    bool adaptive = false;       ///< compress with mode=auto
    fpc::Bytes raw;
};

inline constexpr size_t kSpDomains = 7;
inline constexpr size_t kDpDomains = 5;

/** Per-file seed: @p seed mixed with a workload tag and file index. */
uint64_t FileSeed(uint64_t seed, const std::string& tag, size_t index);

/** @p n values of single-precision domain @p d (0..6), as float bytes. */
fpc::Bytes SpValues(size_t d, size_t n, uint64_t seed);
/** @p n values of double-precision domain @p d (0..4), as double bytes. */
fpc::Bytes DpValues(size_t d, size_t n, uint64_t seed);
/** MixedEntropyMessages as double bytes. */
fpc::Bytes MixedValues(size_t n, uint64_t seed);

/** The single-precision suite at @p scale of the paper's per-domain file
 *  counts (at least one file per domain), @p bytes per file. */
std::vector<Item> SpSuite(uint64_t seed, const std::string& tag,
                          double scale, size_t bytes,
                          fpc::Algorithm algorithm, bool adaptive);
/** The double-precision suite, likewise. */
std::vector<Item> DpSuite(uint64_t seed, const std::string& tag,
                          double scale, size_t bytes,
                          fpc::Algorithm algorithm, bool adaptive);

/** Run @p jobs on up to @p threads threads (generation is the slow part
 *  of building a large corpus). */
void RunParallel(const std::vector<std::function<void()>>& jobs,
                 int threads);

/** Checksum64 of every input, combined in order. */
uint64_t Fingerprint(const std::vector<const fpc::Bytes*>& inputs);

}  // namespace fpcbench

#endif  // FPC_BENCH_CORPUS_H
