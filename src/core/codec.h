/**
 * @file
 * fpcomp public one-shot API.
 *
 * The four algorithms (paper Section 3) compress arbitrary byte buffers,
 * interpreting them as IEEE-754 words bit-for-bit (no value conversion).
 * Compression on either device path produces byte-identical output, so
 * data compressed on the CPU can be decompressed on the GPU(-simulator)
 * path and vice versa — the paper's cross-device compatibility property.
 *
 * The preferred entry point is the typed `fpc::Codec` facade:
 * @code
 *   std::vector<float> field = ...;
 *   fpc::Codec codec = fpc::Codec::For<float>(fpc::Mode::kRatio);
 *   fpc::Bytes packed = codec.compress(std::span<const float>(field));
 *   std::vector<float> restored = codec.decompress_as<float>(packed);
 * @endcode
 *
 * The untyped free functions below (Compress/Decompress/Inspect/...)
 * are the one-shot primitives the facade builds on; a Codec carries the
 * algorithm, backend, thread count, and optional telemetry sink together.
 */
#ifndef FPC_CORE_CODEC_H
#define FPC_CORE_CODEC_H

#include <array>
#include <memory>
#include <span>
#include <type_traits>

#include "core/types.h"
#include "util/common.h"

namespace fpc {

class Telemetry;   // core/telemetry.h
class TraceSink;   // core/trace.h
class ByteSource;  // util/byte_source.h

/** Compress @p input with @p algorithm into a self-describing container.
 *  Runs on the backend selected by @p options (core/executor.h); every
 *  backend emits identical bytes. */
Bytes Compress(Algorithm algorithm, ByteSpan input,
               const Options& options = {});

/** Decompress a container produced by Compress (algorithm is read from the
 *  header). Throws CorruptStreamError on malformed input. */
Bytes Decompress(ByteSpan compressed, const Options& options = {});

/**
 * Decompress into caller-owned memory. @p out must be exactly
 * original_size bytes (see Inspect); throws UsageError otherwise.
 * For the FCM-free algorithms the chunks are decoded directly into
 * @p out with no intermediate buffer. Its prior contents are never read,
 * so it may be uninitialised. A decode that throws (CorruptStreamError
 * included: the content checksum is verified after the chunks land)
 * leaves @p out's contents unspecified: some chunks may be written,
 * others not.
 */
void DecompressInto(ByteSpan compressed, std::span<std::byte> out,
                    const Options& options = {});

/** User intent for the typed helpers: throughput, compression ratio, or
 *  per-chunk adaptive selection (kAuto probes every 16 KiB chunk and
 *  records the winning pipeline in an adaptive container; the element
 *  type then only fixes the word width). */
enum class Mode : uint8_t { kSpeed, kRatio, kAuto };

namespace detail {
/** Typed decode implementations behind Codec::decompress_as (validate
 *  the container's element width, then decode). */
std::vector<float> DecompressFloats(ByteSpan compressed,
                                    const Options& options);
std::vector<double> DecompressDoubles(ByteSpan compressed,
                                      const Options& options);

/** Shared ranged-decode implementation (see DecompressRange below).
 *  @p expected_word, when non-zero, is the caller's element width; a
 *  covering frame holding the other width throws UsageError before any
 *  bytes decode. */
Bytes DecompressRange(const ByteSource& source, uint64_t first_value,
                      uint64_t count, const Options& options,
                      size_t expected_word, const char* caller);
Bytes DecompressRange(ByteSpan stream, uint64_t first_value, uint64_t count,
                      const Options& options, size_t expected_word,
                      const char* caller);

/** Reinterpret a ranged-decode result (count * sizeof(T) bytes). */
template <typename T>
std::vector<T>
RangeToVector(Bytes&& raw)
{
    std::vector<T> values(raw.size() / sizeof(T));
    // An empty result has no buffer: memcpy's pointers must be valid.
    if (!raw.empty()) std::memcpy(values.data(), raw.data(), raw.size());
    return values;
}
}  // namespace detail

/** Introspection result for a compressed container. */
struct CompressedInfo {
    Algorithm algorithm{};
    std::string algorithm_name;     ///< AlgorithmName(algorithm)
    uint64_t original_size = 0;
    uint64_t compressed_size = 0;   ///< whole container, header included
    uint64_t transformed_size = 0;  ///< post-FCM size for DPratio
    uint32_t chunk_count = 0;
    uint32_t raw_chunks = 0;        ///< chunks stored verbatim
    double ratio = 0.0;             ///< original / compressed
    std::vector<uint32_t> chunk_sizes;  ///< stored payload bytes per chunk
    std::vector<uint8_t> chunk_raw;     ///< 1 = chunk stored verbatim
    /** True for an adaptive (mode=auto, v5 or v3) container;
     *  `algorithm` then names the width representative, not every
     *  chunk's pipeline. */
    bool adaptive = false;
    /** Per-chunk algorithm ids of an adaptive container (empty for a
     *  fixed one). */
    std::vector<uint8_t> chunk_algorithms;
    /** Chunks per algorithm id, counted over chunk_algorithms. */
    std::array<uint32_t, 4> algorithm_chunks{};
};

/** Parse a container header + chunk table without decompressing. */
CompressedInfo Inspect(ByteSpan compressed);

/**
 * Random access: decompress values [@p first_value, @p first_value +
 * @p count) of the compressed input in @p source — a bare container, a
 * frame stream, or an indexed stream (core/stream.h
 * ResolveStreamLayout) — returning exactly `count * word_size` bytes.
 *
 * Only the frames covering the range are touched, and within each
 * FCM-free frame only the covering 16 KiB chunks are read and decoded
 * (DPratio's whole-input pre-stage forces a full-frame decode, then
 * slices). The result is bit-identical to the same slice of a full
 * decode; the container's content checksum spans the whole frame and is
 * therefore NOT verified on this path.
 *
 * Throws UsageError when the range reaches past the stream's total
 * element count or a covering frame is not element-aligned, and
 * CorruptStreamError for damaged input.
 */
Bytes DecompressRange(const ByteSource& source, uint64_t first_value,
                      uint64_t count, const Options& options = {});

/** DecompressRange over an in-memory stream. */
Bytes DecompressRange(ByteSpan stream, uint64_t first_value, uint64_t count,
                      const Options& options = {});

/**
 * Typed facade over the one-shot entry points: one value object carrying
 * the algorithm plus the run options (backend, threads, telemetry sink).
 *
 * @code
 *   fpc::Codec codec(fpc::Algorithm::kDPratio,
 *                    fpc::Options{}.with_executor("gpusim:a100"));
 *   fpc::Telemetry& stats = codec.enable_telemetry();
 *   fpc::Bytes packed = codec.compress(std::span<const double>(values));
 *   std::cout << stats.ToJson() << "\n";
 * @endcode
 *
 * Codec is copyable; copies share the owned telemetry sink (if any), so a
 * codec handed to worker threads aggregates into one set of counters.
 */
class Codec {
 public:
    explicit Codec(Algorithm algorithm, Options options = {})
        : algorithm_(algorithm), options_(options) {}

    /** Backend-by-name convenience; throws UsageError for unknown names:
     *  Codec(Algorithm::kSPspeed, "gpusim:4090"). */
    Codec(Algorithm algorithm, const std::string& executor_name);

    /** Typed factory: For<float>(Mode::kRatio) selects SPratio,
     *  For<double>(Mode::kSpeed) selects DPspeed, and so on. Mode::kAuto
     *  enables per-chunk adaptive selection on the width's speed
     *  algorithm (the recorded representative of a v3 container). */
    template <typename T>
    static Codec
    For(Mode mode, Options options = {})
    {
        static_assert(std::is_same_v<T, float> || std::is_same_v<T, double>,
                      "fpc::Codec::For supports float and double");
        if (mode == Mode::kAuto) options.adaptive = true;
        const bool ratio = mode == Mode::kRatio;
        if constexpr (std::is_same_v<T, float>) {
            return Codec(ratio ? Algorithm::kSPratio : Algorithm::kSPspeed,
                         options);
        } else {
            return Codec(ratio ? Algorithm::kDPratio : Algorithm::kDPspeed,
                         options);
        }
    }

    Algorithm algorithm() const { return algorithm_; }
    const Options& options() const { return options_; }

    /** Compress raw bytes (interpreted as the algorithm's word type). */
    Bytes compress(ByteSpan input) const;

    /** Compress a typed array; sizeof(T) must match the algorithm's word
     *  size (throws UsageError otherwise — e.g. floats into a DP* codec). */
    template <typename T>
    Bytes
    compress(std::span<const T> values) const
    {
        RequireWordSize(sizeof(T), "Codec::compress");
        return compress(AsBytes(values));
    }

    /** Decompress a container produced by any backend/codec. */
    Bytes decompress(ByteSpan compressed) const;

    /** Decompress into caller-owned memory of exactly original_size
     *  bytes (throws UsageError otherwise). As fpc::DecompressInto: a
     *  decode that throws leaves @p out's contents unspecified. */
    void decompress_into(ByteSpan compressed,
                         std::span<std::byte> out) const;

    /** Typed decompress_into; validates the container's element width. */
    template <typename T>
    void
    decompress_into(ByteSpan compressed, std::span<T> out) const
    {
        RequireContainerWordSize(compressed, sizeof(T),
                                 "Codec::decompress_into");
        decompress_into(compressed, std::as_writable_bytes(out));
    }

    /** Decompress into a typed vector; validates the element width. */
    template <typename T>
    std::vector<T>
    decompress_as(ByteSpan compressed) const
    {
        static_assert(std::is_same_v<T, float> || std::is_same_v<T, double>,
                      "fpc::Codec::decompress_as supports float and double");
        if constexpr (std::is_same_v<T, float>) {
            return detail::DecompressFloats(compressed, options_);
        } else {
            return detail::DecompressDoubles(compressed, options_);
        }
    }

    /** Ranged decode through this codec's backend and options (see the
     *  free DecompressRange above for semantics). */
    Bytes decompress_range(const ByteSource& source, uint64_t first_value,
                           uint64_t count) const;
    Bytes decompress_range(ByteSpan stream, uint64_t first_value,
                           uint64_t count) const;

    /** Typed ranged decode; validates every covering frame's element
     *  width before decoding. */
    template <typename T>
    std::vector<T>
    decompress_range_as(const ByteSource& source, uint64_t first_value,
                        uint64_t count) const
    {
        static_assert(std::is_same_v<T, float> || std::is_same_v<T, double>,
                      "fpc::Codec::decompress_range_as supports float and "
                      "double");
        return detail::RangeToVector<T>(detail::DecompressRange(
            source, first_value, count, options_, sizeof(T),
            "Codec::decompress_range_as"));
    }

    template <typename T>
    std::vector<T>
    decompress_range_as(ByteSpan stream, uint64_t first_value,
                        uint64_t count) const
    {
        static_assert(std::is_same_v<T, float> || std::is_same_v<T, double>,
                      "fpc::Codec::decompress_range_as supports float and "
                      "double");
        return detail::RangeToVector<T>(detail::DecompressRange(
            stream, first_value, count, options_, sizeof(T),
            "Codec::decompress_range_as"));
    }

    /** Container introspection (no decompression). */
    static CompressedInfo
    inspect(ByteSpan compressed)
    {
        return Inspect(compressed);
    }

    /**
     * Attach a codec-owned metrics sink (created on first call) and return
     * it; subsequent compress/decompress calls through this codec report
     * into it. A sink already supplied via Options::with_telemetry is
     * returned instead of being replaced.
     */
    Telemetry& enable_telemetry();

    /** The sink runs report to — owned or user-supplied — or nullptr. */
    Telemetry* telemetry() const { return options_.telemetry; }

    /**
     * Attach a codec-owned span tracer (created on first call) and return
     * it; subsequent compress/decompress calls record their timeline into
     * it (core/trace.h). When @p path is non-empty, the accumulated trace
     * is written there as Chrome trace-event JSON when the last codec
     * copy sharing the tracer is destroyed (call
     * `trace()->WriteJson(path)` to flush earlier). A tracer already
     * supplied via Options::with_trace is returned instead of being
     * replaced (no file is written for it).
     */
    TraceSink& enable_tracing(const std::string& path = "");

    /** The tracer runs record into — owned or user-supplied — or nullptr. */
    TraceSink* trace() const { return options_.trace; }

 private:
    void RequireWordSize(size_t element_size, const char* caller) const;
    static void RequireContainerWordSize(ByteSpan compressed,
                                         size_t element_size,
                                         const char* caller);

    Algorithm algorithm_;
    Options options_;
    std::shared_ptr<Telemetry> owned_sink_;   ///< copies share one sink
    std::shared_ptr<TraceSink> owned_trace_;  ///< copies share one tracer
};

}  // namespace fpc

#endif  // FPC_CORE_CODEC_H
