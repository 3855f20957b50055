#include "corpus.h"

#include <atomic>
#include <cmath>
#include <cstring>
#include <exception>
#include <mutex>
#include <thread>

#include "data/fields.h"
#include "util/hash.h"

namespace fpcbench {

using fpc::Bytes;
namespace data = fpc::data;

namespace {

// Paper Section 4 file counts per domain (data/datasets.cc).
constexpr size_t kSpPaperFiles[kSpDomains] = {26, 6, 13, 6, 2, 13, 24};
constexpr size_t kDpPaperFiles[kDpDomains] = {5, 5, 4, 3, 3};

std::vector<double>
SpDomain(size_t d, size_t n, uint64_t seed)
{
    switch (d) {
      case 0: {
        const size_t nx = 512;
        std::vector<double> v =
            data::SmoothField2d(nx, (n + nx - 1) / nx, seed, 0.002);
        v.resize(n);
        return v;
      }
      case 1: return data::ParticleCoordinates(n, seed, 100.0, 0.15);
      case 2: return data::SmoothField(n, seed, 7, 0.005);
      case 3: return data::LognormalClumps(n, seed, 0.001);
      case 4: return data::Oscillatory(n, seed);
      case 5: return data::Ar1Walk(n, seed, 0.995, 0.01);
      default: return data::ParticleCoordinates(n, seed, 256.0, 0.6);
    }
}

std::vector<double>
DpDomain(size_t d, size_t n, uint64_t seed)
{
    switch (d) {
      case 0: return data::MixedEntropyMessages(n, seed);
      case 1: return data::SmoothField(n, seed, 6, 1e-9);
      case 2: return data::QuantizedObservations(n, seed, 1e-5);
      case 3: return data::TurbulenceField(n, seed, -1.6667);
      default: return data::Ar1Walk(n, seed, 0.999, 0.002);
    }
}

template <typename T>
Bytes
ToBytes(const std::vector<T>& values)
{
    Bytes out(values.size() * sizeof(T));
    std::memcpy(out.data(), values.data(), out.size());
    return out;
}

size_t
Scaled(size_t paper_files, double scale)
{
    const double c = std::ceil(static_cast<double>(paper_files) * scale);
    return std::max<size_t>(1, static_cast<size_t>(c));
}

}  // namespace

uint64_t
FileSeed(uint64_t seed, const std::string& tag, size_t index)
{
    uint64_t h = fpc::Mix64(seed ^ 0x6670635f62656e63ull);
    for (char c : tag) h = fpc::Mix64(h ^ static_cast<uint8_t>(c));
    return fpc::Mix64(h ^ index);
}

Bytes
SpValues(size_t d, size_t n, uint64_t seed)
{
    return ToBytes(data::ToFloats(SpDomain(d, n, seed)));
}

Bytes
DpValues(size_t d, size_t n, uint64_t seed)
{
    return ToBytes(DpDomain(d, n, seed));
}

Bytes
MixedValues(size_t n, uint64_t seed)
{
    return ToBytes(data::MixedEntropyMessages(n, seed));
}

namespace {

const char*
SpDomainName(size_t d)
{
    static const char* const kNames[kSpDomains] = {
        "CESM-ATM", "EXAALT", "Hurricane", "NYX", "QMCPack", "SCALE-LetKF",
        "HACC"};
    return kNames[d % kSpDomains];
}

const char*
DpDomainName(size_t d)
{
    static const char* const kNames[kDpDomains] = {"msg", "num", "obs",
                                                   "Miranda", "brain"};
    return kNames[d % kDpDomains];
}

std::vector<Item>
Suite(size_t domains, const size_t* paper_files, const char* (*name)(size_t),
      Bytes (*values)(size_t, size_t, uint64_t), size_t word,
      const char* ext, uint64_t seed, const std::string& tag, double scale,
      size_t bytes, fpc::Algorithm algorithm, bool adaptive)
{
    std::vector<Item> items;
    std::vector<size_t> domain_of;
    for (size_t d = 0; d < domains; ++d) {
        for (size_t f = 0; f < Scaled(paper_files[d], scale); ++f) {
            items.push_back({std::string(name(d)) + "_" + std::to_string(f) +
                                 ext,
                             algorithm, adaptive, {}});
            domain_of.push_back(d);
        }
    }
    std::vector<std::function<void()>> jobs;
    for (size_t i = 0; i < items.size(); ++i) {
        jobs.push_back([&, i] {
            items[i].raw = values(domain_of[i], bytes / word,
                                  FileSeed(seed, tag, i));
        });
    }
    RunParallel(jobs, 3);
    return items;
}

}  // namespace

std::vector<Item>
SpSuite(uint64_t seed, const std::string& tag, double scale, size_t bytes,
        fpc::Algorithm algorithm, bool adaptive)
{
    return Suite(kSpDomains, kSpPaperFiles, SpDomainName, SpValues,
                 sizeof(float), ".f32", seed, tag + "/sp", scale, bytes,
                 algorithm, adaptive);
}

std::vector<Item>
DpSuite(uint64_t seed, const std::string& tag, double scale, size_t bytes,
        fpc::Algorithm algorithm, bool adaptive)
{
    return Suite(kDpDomains, kDpPaperFiles, DpDomainName, DpValues,
                 sizeof(double), ".f64", seed, tag + "/dp", scale, bytes,
                 algorithm, adaptive);
}

void
RunParallel(const std::vector<std::function<void()>>& jobs, int threads)
{
    std::atomic<size_t> next{0};
    std::mutex mutex;
    std::exception_ptr error;
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&] {
            try {
                for (size_t j = next++; j < jobs.size(); j = next++) {
                    jobs[j]();
                }
            } catch (...) {
                std::lock_guard<std::mutex> lock(mutex);
                if (!error) error = std::current_exception();
            }
        });
    }
    for (std::thread& thread : pool) thread.join();
    if (error) std::rethrow_exception(error);
}

uint64_t
Fingerprint(const std::vector<const Bytes*>& inputs)
{
    uint64_t h = 0;
    for (const Bytes* bytes : inputs) {
        h = fpc::HashCombine(h, fpc::Checksum64(fpc::ByteSpan(*bytes)));
    }
    return h;
}

}  // namespace fpcbench
