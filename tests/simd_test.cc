/**
 * @file
 * SIMD kernel layer tests (util/simd.h, util/cpu_features.h):
 *
 *  - per-kernel equivalence: every compiled-and-supported ISA table must
 *    reproduce the scalar reference byte for byte on randomized buffers,
 *    including empty, sub-vector, and odd-tail sizes;
 *  - the ISA golden matrix: the PR 2 golden container checksums must
 *    hold under every kernel level on the cpu backend (Options::with_isa)
 *    and on the gpusim backends (forced process-wide), and
 *    containers must decode across levels — the wire format is pinned by
 *    the scalar semantics, so any divergence here is a kernel bug, not a
 *    format change;
 *  - selection plumbing: IsaName/ParseIsa round trips, UsageError on
 *    unknown or unavailable levels, CompiledIsaLevels contents.
 */
#include <gtest/gtest.h>

#include <cstring>

#include "core/codec.h"
#include "core/executor.h"
#include "golden_form.h"
#include "util/bitpack.h"
#include "util/hash.h"
#include "util/simd.h"

namespace fpc {
namespace {

using simd::Isa;

/** All enum levels; individual tests skip the unavailable ones. */
constexpr Isa kAllLevels[] = {Isa::kScalar, Isa::kAvx2, Isa::kAvx512};

/** Restores the process-wide dispatch level on scope exit, so a failing
 *  assertion cannot leak a forced level into later tests. */
class ScopedDefaultIsa {
 public:
    explicit ScopedDefaultIsa(Isa isa) : saved_(simd::DefaultIsa())
    {
        simd::SetDefaultIsa(isa);
    }
    ~ScopedDefaultIsa() { simd::SetDefaultIsa(saved_); }

 private:
    Isa saved_;
};

Bytes
RandomBytes(Rng& rng, size_t n)
{
    Bytes data(n);
    for (auto& b : data) b = static_cast<std::byte>(rng.Next());
    return data;
}

/** Mostly-zero / mostly-repeating buffer: exercises the sparse branches
 *  of the scan kernels that uniform random bytes never hit. */
Bytes
SparseBytes(Rng& rng, size_t n)
{
    Bytes data(n);
    for (auto& b : data) {
        b = (rng.NextBelow(8) == 0) ? static_cast<std::byte>(rng.Next())
                                    : std::byte{0};
    }
    return data;
}

/** The buffer sizes every kernel is probed at: empty, single element,
 *  below / at / above each vector width, and a pipeline-typical extent
 *  with an odd tail. */
constexpr size_t kSizes[] = {0,  1,  7,   8,   15,  31,   32,  33,
                             63, 64, 100, 255, 256, 1000, 4098};

TEST(SimdKernels, TransposeMatchesScalarAndDefinition)
{
    Rng rng(0x7a5);
    for (int iter = 0; iter < 100; ++iter) {
        uint32_t original[32];
        for (auto& w : original) w = static_cast<uint32_t>(rng.Next());

        uint32_t reference[32];
        std::memcpy(reference, original, sizeof(original));
        simd::ScalarKernels().transpose32x32(reference);
        for (unsigned j = 0; j < 32; ++j) {
            for (unsigned i = 0; i < 32; ++i) {
                ASSERT_EQ((reference[j] >> i) & 1u,
                          (original[i] >> j) & 1u)
                    << "scalar transpose is not the true transpose at "
                    << "row " << i << " column " << j;
            }
        }

        for (Isa isa : kAllLevels) {
            if (!simd::IsaAvailable(isa)) continue;
            uint32_t m[32];
            std::memcpy(m, original, sizeof(original));
            simd::Kernels(isa).transpose32x32(m);
            ASSERT_EQ(std::memcmp(m, reference, sizeof(m)), 0)
                << simd::IsaName(isa) << " transpose diverged";
            simd::Kernels(isa).transpose32x32(m);
            ASSERT_EQ(std::memcmp(m, original, sizeof(m)), 0)
                << simd::IsaName(isa) << " transpose is not an involution";
        }
    }
}

TEST(SimdKernels, NonzeroScanScatterMatchScalar)
{
    Rng rng(0x11);
    for (size_t n : kSizes) {
        for (bool sparse : {false, true}) {
            const Bytes in = sparse ? SparseBytes(rng, n)
                                    : RandomBytes(rng, n);
            Bytes ref_bitmap((n + 7) / 8);
            Bytes ref_gathered(n);
            const size_t ref_count = simd::ScalarKernels().nonzero_scan(
                in.data(), n, ref_bitmap.data(), ref_gathered.data());
            ref_gathered.resize(ref_count);

            for (Isa isa : kAllLevels) {
                if (!simd::IsaAvailable(isa)) continue;
                Bytes bitmap((n + 7) / 8);
                Bytes gathered(n);
                const size_t count = simd::Kernels(isa).nonzero_scan(
                    in.data(), n, bitmap.data(), gathered.data());
                gathered.resize(count);
                EXPECT_EQ(count, ref_count) << simd::IsaName(isa);
                EXPECT_EQ(bitmap, ref_bitmap)
                    << simd::IsaName(isa) << " n=" << n;
                EXPECT_EQ(gathered, ref_gathered)
                    << simd::IsaName(isa) << " n=" << n;

                Bytes rebuilt(n);
                const size_t consumed = simd::Kernels(isa).nonzero_scatter(
                    ref_bitmap.data(), n, ref_gathered.data(),
                    rebuilt.data());
                EXPECT_EQ(consumed, ref_count) << simd::IsaName(isa);
                EXPECT_EQ(rebuilt, in)
                    << simd::IsaName(isa) << " scatter n=" << n;
            }
        }
    }
}

TEST(SimdKernels, DiffScanExpandMatchScalar)
{
    Rng rng(0x22);
    for (size_t n : kSizes) {
        for (bool sparse : {false, true}) {
            Bytes in = sparse ? SparseBytes(rng, n) : RandomBytes(rng, n);
            if (sparse && n > 8) {
                // Long runs of one value: the fast whole-mask-byte paths.
                std::memset(in.data(), 0x5a, n / 2);
            }
            Bytes ref_bits((n + 7) / 8);
            Bytes ref_kept(n);
            const size_t ref_count = simd::ScalarKernels().diff_scan(
                in.data(), n, ref_bits.data(), ref_kept.data());
            ref_kept.resize(ref_count);

            for (Isa isa : kAllLevels) {
                if (!simd::IsaAvailable(isa)) continue;
                Bytes bits((n + 7) / 8);
                Bytes kept(n);
                const size_t count = simd::Kernels(isa).diff_scan(
                    in.data(), n, bits.data(), kept.data());
                kept.resize(count);
                EXPECT_EQ(count, ref_count) << simd::IsaName(isa);
                EXPECT_EQ(bits, ref_bits)
                    << simd::IsaName(isa) << " n=" << n;
                EXPECT_EQ(kept, ref_kept)
                    << simd::IsaName(isa) << " n=" << n;

                Bytes rebuilt(n);
                const size_t consumed = simd::Kernels(isa).diff_expand(
                    ref_bits.data(), n, ref_kept.data(), rebuilt.data());
                EXPECT_EQ(consumed, ref_count) << simd::IsaName(isa);
                EXPECT_EQ(rebuilt, in)
                    << simd::IsaName(isa) << " expand n=" << n;
            }
        }
    }
}

TEST(SimdKernels, PredicateBitmapsMatchScalar)
{
    Rng rng(0x33);
    for (size_t nw : {size_t{0}, size_t{1}, size_t{7}, size_t{8},
                      size_t{63}, size_t{64}, size_t{100}, size_t{2049}}) {
        const Bytes sparse = SparseBytes(rng, nw * 8);
        const Bytes dense = RandomBytes(rng, nw * 8);
        for (const Bytes& in : {sparse, dense}) {
            for (unsigned k : {1u, 7u, 13u, 16u, 32u, 48u, 63u, 64u}) {
                Bytes ref_top((nw + 7) / 8);
                const size_t ref_top_count =
                    simd::ScalarKernels().top_bitmap64(in.data(), nw, k,
                                                       ref_top.data());
                Bytes ref_match((nw + 7) / 8);
                const size_t ref_match_count =
                    simd::ScalarKernels().match_bitmap64(in.data(), nw, k,
                                                         ref_match.data());
                for (Isa isa : kAllLevels) {
                    if (!simd::IsaAvailable(isa)) continue;
                    Bytes top((nw + 7) / 8);
                    EXPECT_EQ(simd::Kernels(isa).top_bitmap64(
                                  in.data(), nw, k, top.data()),
                              ref_top_count)
                        << simd::IsaName(isa) << " nw=" << nw << " k=" << k;
                    EXPECT_EQ(top, ref_top)
                        << simd::IsaName(isa) << " nw=" << nw << " k=" << k;
                    Bytes match((nw + 7) / 8);
                    EXPECT_EQ(simd::Kernels(isa).match_bitmap64(
                                  in.data(), nw, k, match.data()),
                              ref_match_count)
                        << simd::IsaName(isa) << " nw=" << nw << " k=" << k;
                    EXPECT_EQ(match, ref_match)
                        << simd::IsaName(isa) << " nw=" << nw << " k=" << k;
                }
            }
        }
    }
}

TEST(SimdKernels, FcmHashMatchesScalar)
{
    Rng rng(0x44);
    for (size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{4},
                     size_t{100}, size_t{2048}, size_t{2051}}) {
        std::vector<uint64_t> values(n);
        for (auto& v : values) v = rng.Next();
        // Read from an odd offset: the kernels take unaligned words.
        Bytes packed(n * 8 + 1);
        if (n != 0) std::memcpy(packed.data() + 1, values.data(), n * 8);
        const std::byte* words = packed.data() + 1;
        std::vector<uint64_t> reference(n);
        simd::ScalarKernels().fcm_hash(words, n, reference.data());
        for (size_t i = 0; i < n; ++i) {
            ASSERT_EQ(reference[i],
                      FcmContextHash(i >= 1 ? values[i - 1] : 0,
                                     i >= 2 ? values[i - 2] : 0,
                                     i >= 3 ? values[i - 3] : 0));
        }
        for (Isa isa : kAllLevels) {
            if (!simd::IsaAvailable(isa)) continue;
            std::vector<uint64_t> hashes(n);
            simd::Kernels(isa).fcm_hash(words, n, hashes.data());
            EXPECT_EQ(hashes, reference)
                << simd::IsaName(isa) << " n=" << n;
        }
    }
}

/** zigzag_scan32/64 at every compiled level against the scalar table
 *  and against the definition, on deltas that wrap mod 2^w, read from
 *  and written to odd (unaligned) offsets. */
template <typename T>
void
CheckZigzagScan(void (*simd::KernelTable::*kernel)(const std::byte*, size_t,
                                                   std::byte*))
{
    Rng rng(sizeof(T) == 4 ? 0x66 : 0x77);
    for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{15},
                     size_t{16}, size_t{17}, size_t{4098}}) {
        Bytes in(n * sizeof(T) + 1);
        for (size_t i = 0; i < n; ++i) {
            // Mostly full-range codes (sums wrap mod 2^w), with runs of
            // small deltas and the two extreme codes.
            T z = static_cast<T>(rng.Next());
            switch (rng.NextBelow(4)) {
              case 0: z = static_cast<T>(rng.NextBelow(16)); break;
              case 1: z = static_cast<T>(~T{0} - rng.NextBelow(2)); break;
              default: break;
            }
            std::memcpy(in.data() + 1 + i * sizeof(T), &z, sizeof(T));
        }
        Bytes reference(n * sizeof(T) + 1);
        (simd::ScalarKernels().*kernel)(in.data() + 1, n,
                                        reference.data() + 1);
        T sum = 0;
        for (size_t i = 0; i < n; ++i) {
            T z;
            T got;
            std::memcpy(&z, in.data() + 1 + i * sizeof(T), sizeof(T));
            std::memcpy(&got, reference.data() + 1 + i * sizeof(T),
                        sizeof(T));
            sum = static_cast<T>(sum + ZigzagDecode(z));
            ASSERT_EQ(got, sum) << "scalar scan diverged at " << i;
        }
        for (Isa isa : kAllLevels) {
            if (!simd::IsaAvailable(isa)) continue;
            Bytes out(n * sizeof(T) + 1);
            (simd::Kernels(isa).*kernel)(in.data() + 1, n, out.data() + 1);
            EXPECT_EQ(out, reference)
                << simd::IsaName(isa) << " w=" << sizeof(T) * 8
                << " n=" << n;
        }
    }
}

TEST(SimdKernels, ZigzagScansMatchScalar)
{
    CheckZigzagScan<uint32_t>(&simd::KernelTable::zigzag_scan32);
    CheckZigzagScan<uint64_t>(&simd::KernelTable::zigzag_scan64);
}

TEST(SimdKernels, PopcountBitsMatchesNaive)
{
    Rng rng(0x55);
    for (size_t nbits : {size_t{0}, size_t{1}, size_t{7}, size_t{8},
                         size_t{9}, size_t{63}, size_t{64}, size_t{65},
                         size_t{1000}, size_t{4098}}) {
        Bytes bitmap = RandomBytes(rng, (nbits + 7) / 8);
        size_t naive = 0;
        for (size_t i = 0; i < nbits; ++i) {
            naive += (uint8_t(bitmap[i >> 3]) >> (i & 7)) & 1u;
        }
        EXPECT_EQ(simd::PopcountBits(bitmap.data(), nbits), naive)
            << "nbits=" << nbits;
    }
}

TEST(SimdSelection, NamesRoundTripAndErrorsListLevels)
{
    for (Isa isa : kAllLevels) {
        EXPECT_EQ(simd::ParseIsa(simd::IsaName(isa)), isa);
    }
    EXPECT_EQ(simd::ParseIsa("AVX2"), Isa::kAvx2);  // case-insensitive
    try {
        simd::ParseIsa("sse9");
        FAIL() << "ParseIsa did not throw";
    } catch (const UsageError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("sse9"), std::string::npos) << what;
        EXPECT_NE(what.find("scalar"), std::string::npos) << what;
        EXPECT_NE(what.find("avx2"), std::string::npos) << what;
        EXPECT_NE(what.find("avx512"), std::string::npos) << what;
    }
    EXPECT_THROW(Options{}.with_isa("neon"), UsageError);

    EXPECT_TRUE(simd::IsaAvailable(Isa::kScalar));
    EXPECT_TRUE(simd::IsaAvailable(simd::BestSupportedIsa()));
    EXPECT_TRUE(simd::IsaAvailable(simd::DefaultIsa()));
    EXPECT_NE(simd::CompiledIsaLevels().find("scalar"), std::string::npos);
}

/** Identical to executor_test's MakeInput — the golden table below pins
 *  the same containers (do not change one without the other). */
Bytes
MakeInput(size_t n_bytes, uint64_t seed)
{
    Bytes data(n_bytes);
    uint64_t state = seed;
    uint32_t x = 0x3f800000u;
    for (size_t i = 0; i + 4 <= n_bytes; i += 4) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        x += static_cast<uint32_t>((state >> 33) & 0x3ff) - 512;
        std::memcpy(data.data() + i, &x, 4);
    }
    for (size_t i = n_bytes & ~size_t{3}; i < n_bytes; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        data[i] = static_cast<std::byte>(state >> 56);
    }
    return data;
}

struct Golden {
    size_t size;
    Algorithm algorithm;
    uint64_t fingerprint;      ///< Fnv1a64 of the v1 form (golden_form.h)
    uint64_t header_checksum;  ///< the v4 header's Checksum64 of the input
};

/** The PR 2 wire-format goldens (the checksum half of executor_test's
 *  table): every kernel level must reproduce these bytes exactly, and
 *  the same v4 header checksum. */
constexpr Golden kGolden[] = {
    {size_t{1} << 20, Algorithm::kSPspeed, 0x8164796542bb988bull,
     0x8a0f621c658823edull},
    {size_t{1} << 20, Algorithm::kSPratio, 0x526deebca63acd9bull,
     0x8a0f621c658823edull},
    {size_t{1} << 20, Algorithm::kDPspeed, 0x82032e9934e4fad5ull,
     0x8a0f621c658823edull},
    {size_t{1} << 20, Algorithm::kDPratio, 0x69a8a775ae901fbcull,
     0x8a0f621c658823edull},
    {(size_t{1} << 18) + 13, Algorithm::kSPspeed, 0x6f130cb3aec62125ull,
     0x93618be47cf9f9f0ull},
    {(size_t{1} << 18) + 13, Algorithm::kSPratio, 0x5b4e8bd20eba4a96ull,
     0x93618be47cf9f9f0ull},
    {(size_t{1} << 18) + 13, Algorithm::kDPspeed, 0xe451776ff8bb5f24ull,
     0x93618be47cf9f9f0ull},
    {(size_t{1} << 18) + 13, Algorithm::kDPratio, 0x28355c9472bc8f68ull,
     0x93618be47cf9f9f0ull},
};

/** cpu backend x every ISA level via the per-call request: golden bytes,
 *  plus decode under a *different* level than the one that encoded. */
TEST(SimdGoldenMatrix, CpuBackendEveryIsaLevel)
{
    for (Isa isa : kAllLevels) {
        if (!simd::IsaAvailable(isa)) continue;
        Options options;
        options.threads = 1;
        options.with_isa(simd::IsaName(isa));
        for (const Golden& g : kGolden) {
            const Bytes input = MakeInput(g.size, 0x5eed + g.size);
            const Bytes compressed =
                Compress(g.algorithm, ByteSpan(input), options);
            EXPECT_EQ(
                GoldenFingerprint(ByteSpan(compressed), ByteSpan(input)),
                g.fingerprint)
                << simd::IsaName(isa) << ", alg "
                << AlgorithmName(g.algorithm) << ", size " << g.size;
            EXPECT_EQ(HeaderChecksum(ByteSpan(compressed)), g.header_checksum)
                << simd::IsaName(isa) << ", alg "
                << AlgorithmName(g.algorithm) << ", size " << g.size;

            // Cross-level decode: scalar-encoded bytes must decode at the
            // best level and vice versa.
            Options other;
            other.threads = 1;
            other.with_isa(simd::IsaName(
                isa == Isa::kScalar ? simd::BestSupportedIsa()
                                    : Isa::kScalar));
            EXPECT_EQ(Decompress(ByteSpan(compressed), other), input)
                << simd::IsaName(isa) << " container failed cross-level "
                << "decode, alg " << AlgorithmName(g.algorithm);
        }
    }
}

/** gpusim backends under each level: with Options::isa left at auto the
 *  drivers take the process default, so force each level process-wide
 *  and re-assert the same goldens. */
TEST(SimdGoldenMatrix, GpusimBackendsEveryIsaLevel)
{
    for (Isa isa : kAllLevels) {
        if (!simd::IsaAvailable(isa)) continue;
        ScopedDefaultIsa forced(isa);
        for (const char* backend : {"gpusim:4090", "gpusim:a100"}) {
            Options options;
            options.threads = 1;
            options.with_executor(backend);
            for (const Golden& g : kGolden) {
                const Bytes input = MakeInput(g.size, 0x5eed + g.size);
                const Bytes compressed =
                    Compress(g.algorithm, ByteSpan(input), options);
                EXPECT_EQ(GoldenFingerprint(ByteSpan(compressed),
                                            ByteSpan(input)),
                          g.fingerprint)
                    << backend << " under " << simd::IsaName(isa)
                    << ", alg " << AlgorithmName(g.algorithm) << ", size "
                    << g.size;
                EXPECT_EQ(HeaderChecksum(ByteSpan(compressed)),
                          g.header_checksum)
                    << backend << " under " << simd::IsaName(isa);
                EXPECT_EQ(Decompress(ByteSpan(compressed), options), input)
                    << backend << " under " << simd::IsaName(isa);
            }
        }
    }
}

}  // namespace
}  // namespace fpc
