/**
 * @file
 * The self-describing fpcomp container format. A compressed buffer is:
 *
 *   offset 0: Header (fixed size, little-endian)
 *   chunk table: chunk_count x uint32 (bit 31 = chunk stored raw,
 *                bits 0..30 = stored payload size in bytes)
 *   payloads:   chunk payloads, concatenated in chunk order
 *
 * `transformed_size` is the byte length of the stream that was chunked:
 * equal to `original_size` for SPspeed/SPratio/DPspeed, and the FCM
 * output size for DPratio (whose pre-stage runs before chunking).
 *
 * ## Container v3/v5: per-chunk algorithm ids (adaptive selection)
 *
 * An adaptive container has the same byte layout as a fixed one; the
 * per-chunk algorithm id rides in bits 29..30 of each chunk-table entry
 * (chunk payloads never exceed 16 KiB + slop, so the size needs only bits
 * 0..28). The id names the Algorithm that encoded each chunk — DPratio
 * chunks use the *chunked* DPratio pipeline, whose FCM stage runs per
 * chunk, never whole-input. Packing the ids into spare bits makes the
 * table free: on inputs where one pipeline wins every chunk, an
 * adaptive container is exactly the size of the fixed one, so
 * `mode=auto` never pays a per-chunk tax for the option it didn't use.
 *
 * `header.algorithm` then holds only a *representative* id fixing the
 * element width (kSPspeed for 4-byte elements, kDPspeed for 8-byte) —
 * both are pre-stage-free, so `transformed_size == original_size`
 * always holds for adaptive containers and every existing pre-stage-free
 * decode driver applies, including chunk-ranged reads. Version byte 2
 * is deliberately skipped: "v2" names the seekable *file* format below,
 * not a container layout.
 *
 * ## Container v4/v5: the chunk-laned content checksum
 *
 * The library writes version 4 (fixed algorithm) and version 5
 * (adaptive). Their payloads and chunk tables are byte for byte those
 * of versions 1 and 3; only the version byte and the header checksum
 * differ. The checksum is Checksum64 (util/hash.h): one ChecksumBlock
 * per 16 KiB block of the original data, combined in block order, so
 * the worker that encodes or decodes a chunk also hashes it. Versions 1
 * and 3 store Fnv1a64, the earlier serial hash, and stay readable.
 *
 * Compressed data is contiguous (paper Section 5: unlike nvCOMP, our
 * compressors concatenate the chunks into one memory block).
 *
 * ## File format v2: the seekable container (DESIGN.md "Container v2 &
 * random access")
 *
 * A *stream* is a sequence of varint-length-prefixed frames, each frame
 * one container exactly as above (the frame bytes are untouched — that is
 * the v1 compatibility rule). Format v2 optionally appends a trailing
 * **seek index** after the last frame:
 *
 *   entries: frame_count x 32-byte little-endian SeekIndexEntry
 *            {frame_offset, frame_size, element_count, element_prefix}
 *   footer:  32 bytes at EOF — {index_checksum (Fnv1a64 over the
 *            entries block), frame_count, index_size, index_version u32,
 *            footer_magic u32 "FPCX"}
 *
 * The footer is located from EOF, so the index turns a sequential stream
 * into an O(1)-seekable one: a reader binary-searches the running element
 * prefix to find covering frames, then resolves chunks inside a frame
 * through the frame's own chunk table (one small ranged read of the frame
 * prefix) — per-chunk offsets are deliberately not duplicated into the
 * index, so there is exactly one authority for where a chunk lives.
 * Streams without the footer magic parse exactly as before (index-less
 * fallback); a present-but-damaged index throws CorruptStreamError and is
 * never followed (no mis-seek).
 */
#ifndef FPC_CORE_CONTAINER_H
#define FPC_CORE_CONTAINER_H

#include <optional>

#include "core/types.h"
#include "util/byte_source.h"
#include "util/common.h"

namespace fpc {

/** On-the-wire container header. */
struct ContainerHeader {
    static constexpr uint32_t kMagic = 0x5a435046;  // "FPCZ"
    /** Fixed-algorithm container with the chunk-laned Checksum64. */
    static constexpr uint8_t kVersion = 4;
    /** Mixed-algorithm container with a per-chunk id table (see the
     *  file comment) and the chunk-laned Checksum64. */
    static constexpr uint8_t kVersionAdaptive = 5;
    /** Read-only predecessors of kVersion and kVersionAdaptive: the same
     *  layouts, with an Fnv1a64 content checksum. 2 is skipped — it
     *  names the seekable file format. */
    static constexpr uint8_t kVersionFnv = 1;
    static constexpr uint8_t kVersionAdaptiveFnv = 3;

    /** True for a mode=auto container (per-chunk algorithm ids). */
    bool Adaptive() const
    {
        return version == kVersionAdaptive || version == kVersionAdaptiveFnv;
    }
    /** True when `checksum` is Fnv1a64 rather than Checksum64. */
    bool FnvChecksum() const
    {
        return version == kVersionFnv || version == kVersionAdaptiveFnv;
    }

    uint32_t magic = kMagic;
    uint8_t version = kVersion;
    uint8_t algorithm = 0;
    uint16_t reserved = 0;
    uint64_t original_size = 0;
    uint64_t transformed_size = 0;
    uint64_t checksum = 0;  ///< content checksum of the original data
    uint32_t chunk_count = 0;
};

/** Parsed view of a compressed buffer (no payload copies). */
struct ContainerView {
    ContainerHeader header;
    std::vector<uint32_t> chunk_sizes;   ///< payload bytes per chunk
    std::vector<uint8_t> chunk_raw;      ///< 1 = stored verbatim
    std::vector<size_t> chunk_offsets;   ///< into the payload area
    /** Adaptive containers only: the Algorithm id per chunk. Empty for
     *  fixed containers — every chunk then uses header.algorithm. */
    std::vector<uint8_t> chunk_algorithms;
    ByteSpan payload;                    ///< all chunk payloads
};

/** Serialize the header + chunk table. For an adaptive header,
 *  @p algorithm_ids must hold chunk_count entries — each is packed into
 *  bits 29..30 of its chunk-table entry; it must be empty otherwise. */
void WriteContainerPrefix(const ContainerHeader& header,
                          const std::vector<uint32_t>& sizes,
                          const std::vector<uint8_t>& raw_flags,
                          const std::vector<uint8_t>& algorithm_ids,
                          Bytes& out);

/** Fixed-algorithm overload: no per-chunk algorithm id table. */
void WriteContainerPrefix(const ContainerHeader& header,
                          const std::vector<uint32_t>& sizes,
                          const std::vector<uint8_t>& raw_flags, Bytes& out);

/** Parse and validate a compressed buffer. Throws CorruptStreamError. */
ContainerView ParseContainer(ByteSpan compressed);

/** Size in bytes of the serialized header. */
size_t ContainerHeaderSize();

/**
 * Header + chunk table of one container, parsed through ranged reads;
 * no payload bytes are touched. `payload_offset` is relative to the
 * container start (= the frame body start), `chunk_offsets` relative to
 * the payload area — so the absolute position of chunk c is
 * `container_start + payload_offset + chunk_offsets[c]`.
 */
struct ContainerPrefix {
    ContainerHeader header;
    std::vector<uint32_t> chunk_sizes;
    std::vector<uint8_t> chunk_raw;
    std::vector<size_t> chunk_offsets;
    /** Adaptive containers only: per-chunk algorithm ids. */
    std::vector<uint8_t> chunk_algorithms;
    uint64_t payload_offset = 0;
    uint64_t payload_size = 0;
};

/** Parse and validate the header + chunk table of the container at
 *  [@p container_start, @p container_start + @p container_size) in
 *  @p source, reading only the prefix bytes. Throws CorruptStreamError. */
ContainerPrefix ParseContainerPrefix(const ByteSource& source,
                                     uint64_t container_start,
                                     uint64_t container_size);

/** Parse and validate just the fixed-size header of the same container —
 *  one small ranged read, for layout scans that only need sizes and the
 *  algorithm. Throws CorruptStreamError. */
ContainerHeader ParseContainerHeader(const ByteSource& source,
                                     uint64_t container_start,
                                     uint64_t container_size);

/** One frame of a seekable stream, as recorded in the trailing index.
 *  `frame_offset` addresses the frame's container *body* — the varint
 *  length prefix precedes it — so a seek never re-reads the prefix. */
struct SeekIndexEntry {
    uint64_t frame_offset = 0;    ///< of the container (after the varint)
    uint64_t frame_size = 0;      ///< container bytes (prefix excluded)
    uint64_t element_count = 0;   ///< decoded values in this frame
    uint64_t element_prefix = 0;  ///< sum of element_count before this frame
};

/** Parsed (and checksum-verified) trailing seek index of a stream. */
struct SeekIndex {
    static constexpr uint32_t kFooterMagic = 0x58435046;  // "FPCX"
    static constexpr uint32_t kIndexVersion = 1;
    static constexpr size_t kEntrySize = 4 * sizeof(uint64_t);
    /** checksum + frame_count + index_size + version + magic. */
    static constexpr size_t kFooterSize = 3 * sizeof(uint64_t) +
                                          2 * sizeof(uint32_t);

    std::vector<SeekIndexEntry> frames;
    /** Stream offset where the index entries begin (= end of frame data). */
    uint64_t index_offset = 0;

    /** Total decoded elements across all frames. */
    uint64_t TotalElements() const
    {
        return frames.empty() ? 0
                              : frames.back().element_prefix +
                                    frames.back().element_count;
    }

    /** Index of the frame whose element range covers @p element (which
     *  must be < TotalElements()). */
    size_t FrameCovering(uint64_t element) const;
};

/** Serialize @p frames + footer (entries block, checksum, magic). */
void AppendSeekIndex(const std::vector<SeekIndexEntry>& frames, Bytes& out);

/** Index of the entry in @p frames (element-prefix-ordered, as in a seek
 *  index or stream layout) covering @p element, which must be less than
 *  the total element count. */
size_t FrameCoveringElement(std::span<const SeekIndexEntry> frames,
                            uint64_t element);

/**
 * Look for a seek index at the tail of @p source. Returns nullopt when
 * the stream has none (no footer magic, or too small to hold one) — the
 * caller falls back to a sequential scan. Throws CorruptStreamError when
 * the magic is present but the footer or entries are damaged (bad
 * checksum, inconsistent sizes, non-monotonic offsets/prefixes): a
 * damaged index is never followed.
 */
std::optional<SeekIndex> TryParseSeekIndex(const ByteSource& source);

}  // namespace fpc

#endif  // FPC_CORE_CONTAINER_H
