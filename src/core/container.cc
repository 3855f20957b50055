#include "core/container.h"

#include <array>

#include "util/bitio.h"
#include "util/hash.h"
#include "util/scan.h"

namespace fpc {

namespace {

constexpr uint32_t kRawFlag = 0x80000000u;
// Adaptive chunk-table entries carry the per-chunk algorithm id in bits
// 29..30; the payload size then occupies bits 0..28 (a chunk payload is
// at most kChunkSize bytes, far below 2^29). Fixed entries keep the full
// 31-bit size field.
constexpr unsigned kAlgoShift = 29;
constexpr uint32_t kAlgoMask = 0x3u << kAlgoShift;
constexpr uint32_t kSizeMaskAdaptive = (1u << kAlgoShift) - 1;

/** Parse + validate the fixed-size header fields. @p bytes must hold
 *  exactly ContainerHeaderSize() bytes; @p base is the absolute position
 *  of the header in the stream, used only for error offsets. */
ContainerHeader
ParseHeaderBytes(ByteSpan bytes, const char* stage, size_t base)
{
    ByteReader br(bytes, stage);
    ContainerHeader h;
    h.magic = br.Get<uint32_t>();
    FPC_PARSE_CHECK_AT(h.magic == ContainerHeader::kMagic, "bad magic",
                       stage, base);
    h.version = br.GetU8();
    FPC_PARSE_CHECK_AT(h.version == ContainerHeader::kVersion ||
                           h.version == ContainerHeader::kVersionAdaptive ||
                           h.FnvChecksum(),
                       "unsupported version", stage, base + 4);
    h.algorithm = br.GetU8();
    FPC_PARSE_CHECK_AT(h.algorithm <= 3, "unknown algorithm id", stage,
                       base + 5);
    // Adaptive headers carry only a width-fixing representative; both
    // legal values are pre-stage-free, so the per-chunk decode drivers
    // apply.
    FPC_PARSE_CHECK_AT(!h.Adaptive() ||
                           h.algorithm == 0 || h.algorithm == 2,
                       "invalid adaptive representative algorithm", stage,
                       base + 5);
    h.reserved = br.Get<uint16_t>();
    h.original_size = br.Get<uint64_t>();
    h.transformed_size = br.Get<uint64_t>();
    h.checksum = br.Get<uint64_t>();
    h.chunk_count = br.Get<uint32_t>();
    FPC_PARSE_CHECK_AT(!h.Adaptive() || h.transformed_size == h.original_size,
                       "adaptive container with a pre-stage", stage,
                       base + 16);

    const uint64_t expected_chunks =
        (h.transformed_size + kChunkSize - 1) / kChunkSize;
    FPC_PARSE_CHECK_AT(h.chunk_count == expected_chunks,
                       "chunk count inconsistent with transformed size",
                       stage, base + 32);
    return h;
}

}  // namespace

size_t
ContainerHeaderSize()
{
    // magic + version + algorithm + reserved + original + transformed +
    // checksum + chunk_count, packed without padding.
    return 4 + 1 + 1 + 2 + 8 + 8 + 8 + 4;
}

void
WriteContainerPrefix(const ContainerHeader& header,
                     const std::vector<uint32_t>& sizes,
                     const std::vector<uint8_t>& raw_flags,
                     const std::vector<uint8_t>& algorithm_ids, Bytes& out)
{
    FPC_CHECK(sizes.size() == raw_flags.size(), "chunk table mismatch");
    FPC_CHECK(sizes.size() == header.chunk_count, "chunk count mismatch");
    const bool adaptive = header.Adaptive();
    FPC_CHECK(adaptive ? algorithm_ids.size() == sizes.size()
                       : algorithm_ids.empty(),
              "algorithm id table mismatch");
    ByteWriter wr(out);
    wr.Put<uint32_t>(header.magic);
    wr.PutU8(header.version);
    wr.PutU8(header.algorithm);
    wr.Put<uint16_t>(header.reserved);
    wr.Put<uint64_t>(header.original_size);
    wr.Put<uint64_t>(header.transformed_size);
    wr.Put<uint64_t>(header.checksum);
    wr.Put<uint32_t>(header.chunk_count);
    for (size_t i = 0; i < sizes.size(); ++i) {
        uint32_t entry = sizes[i] | (raw_flags[i] ? kRawFlag : 0);
        if (adaptive) {
            FPC_CHECK(sizes[i] <= kSizeMaskAdaptive,
                      "chunk payload too large");
            FPC_CHECK(algorithm_ids[i] <= 3,
                      "per-chunk algorithm id out of range");
            entry |= static_cast<uint32_t>(algorithm_ids[i]) << kAlgoShift;
        } else {
            FPC_CHECK(sizes[i] < kRawFlag, "chunk payload too large");
        }
        wr.Put<uint32_t>(entry);
    }
}

void
WriteContainerPrefix(const ContainerHeader& header,
                     const std::vector<uint32_t>& sizes,
                     const std::vector<uint8_t>& raw_flags, Bytes& out)
{
    WriteContainerPrefix(header, sizes, raw_flags, {}, out);
}

ContainerView
ParseContainer(ByteSpan compressed)
{
    constexpr const char* kStage = "container";
    const size_t header_size = ContainerHeaderSize();
    FPC_PARSE_CHECK_AT(compressed.size() >= header_size,
                       "buffer smaller than header", kStage, 0);
    ContainerView view;
    ContainerHeader& h = view.header;
    h = ParseHeaderBytes(compressed.first(header_size), kStage, 0);

    ByteReader br(compressed.subspan(header_size), kStage);
    // The chunk table must fit in the bytes that are actually present
    // before the per-chunk vectors are sized from it; a forged count
    // would otherwise drive multi-gigabyte allocations from a tiny
    // input.
    FPC_PARSE_CHECK_AT(h.chunk_count <= br.Remaining() / sizeof(uint32_t),
                       "chunk table exceeds buffer", kStage, 32);

    const bool adaptive = h.Adaptive();
    view.chunk_sizes.resize(h.chunk_count);
    view.chunk_raw.resize(h.chunk_count);
    view.chunk_offsets.resize(h.chunk_count);
    if (adaptive) view.chunk_algorithms.resize(h.chunk_count);
    size_t offset = 0;
    for (uint32_t c = 0; c < h.chunk_count; ++c) {
        uint32_t entry = br.Get<uint32_t>();
        if (adaptive) {
            view.chunk_sizes[c] = entry & kSizeMaskAdaptive;
            view.chunk_algorithms[c] =
                static_cast<uint8_t>((entry & kAlgoMask) >> kAlgoShift);
        } else {
            view.chunk_sizes[c] = entry & ~kRawFlag;
        }
        view.chunk_raw[c] = (entry & kRawFlag) ? 1 : 0;
        view.chunk_offsets[c] = offset;
        offset += view.chunk_sizes[c];
    }
    view.payload = br.Rest();
    FPC_PARSE_CHECK_AT(view.payload.size() == offset,
                       "payload size inconsistent with chunk table", kStage,
                       header_size + br.Pos());
    return view;
}

ContainerHeader
ParseContainerHeader(const ByteSource& source, uint64_t container_start,
                     uint64_t container_size)
{
    constexpr const char* kStage = "container";
    const size_t header_size = ContainerHeaderSize();
    FPC_PARSE_CHECK_AT(container_size >= header_size,
                       "buffer smaller than header", kStage,
                       static_cast<size_t>(container_start));
    // Validates container_start/container_size against the stream before
    // any field is trusted; a forged frame entry dies here, not later.
    source.CheckRangeIsReadable(container_start, container_size);

    Bytes header_bytes(header_size);
    source.ReadAt(container_start, header_bytes);
    ContainerHeader h = ParseHeaderBytes(
        header_bytes, kStage, static_cast<size_t>(container_start));
    FPC_PARSE_CHECK_AT(
        h.chunk_count <= (container_size - header_size) / sizeof(uint32_t),
        "chunk table exceeds buffer", kStage,
        static_cast<size_t>(container_start) + 32);
    return h;
}

ContainerPrefix
ParseContainerPrefix(const ByteSource& source, uint64_t container_start,
                     uint64_t container_size)
{
    constexpr const char* kStage = "container";
    const size_t header_size = ContainerHeaderSize();
    ContainerPrefix prefix;
    prefix.header =
        ParseContainerHeader(source, container_start, container_size);
    const ContainerHeader& h = prefix.header;

    Bytes table(size_t{h.chunk_count} * sizeof(uint32_t));
    source.ReadAt(container_start + header_size, table);
    ByteReader br(table, kStage);
    const bool adaptive = h.Adaptive();
    prefix.chunk_sizes.resize(h.chunk_count);
    prefix.chunk_raw.resize(h.chunk_count);
    prefix.chunk_offsets.resize(h.chunk_count);
    if (adaptive) prefix.chunk_algorithms.resize(h.chunk_count);
    size_t offset = 0;
    for (uint32_t c = 0; c < h.chunk_count; ++c) {
        uint32_t entry = br.Get<uint32_t>();
        if (adaptive) {
            prefix.chunk_sizes[c] = entry & kSizeMaskAdaptive;
            prefix.chunk_algorithms[c] =
                static_cast<uint8_t>((entry & kAlgoMask) >> kAlgoShift);
        } else {
            prefix.chunk_sizes[c] = entry & ~kRawFlag;
        }
        prefix.chunk_raw[c] = (entry & kRawFlag) ? 1 : 0;
        prefix.chunk_offsets[c] = offset;
        offset += prefix.chunk_sizes[c];
    }
    prefix.payload_offset = header_size + table.size();
    prefix.payload_size = container_size - prefix.payload_offset;
    FPC_PARSE_CHECK_AT(
        prefix.payload_size == offset,
        "payload size inconsistent with chunk table", kStage,
        static_cast<size_t>(container_start + prefix.payload_offset));
    return prefix;
}

size_t
FrameCoveringElement(std::span<const SeekIndexEntry> frames,
                     uint64_t element)
{
    FPC_CHECK(!frames.empty() &&
                  element < frames.back().element_prefix +
                                frames.back().element_count,
              "element outside the frame table");
    // Last frame whose element_prefix <= element; empty frames share the
    // prefix of their successor and sort earlier, so this always lands on
    // the frame that actually holds the element.
    size_t lo = 0;
    size_t hi = frames.size();
    while (hi - lo > 1) {
        const size_t mid = lo + (hi - lo) / 2;
        if (frames[mid].element_prefix <= element) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    return lo;
}

size_t
SeekIndex::FrameCovering(uint64_t element) const
{
    return FrameCoveringElement(frames, element);
}

void
AppendSeekIndex(const std::vector<SeekIndexEntry>& frames, Bytes& out)
{
    Bytes entries;
    entries.reserve(frames.size() * SeekIndex::kEntrySize);
    ByteWriter ew(entries);
    uint64_t expect_prefix = 0;
    for (const SeekIndexEntry& e : frames) {
        FPC_CHECK(e.element_prefix == expect_prefix,
                  "seek index element prefixes out of order");
        expect_prefix += e.element_count;
        ew.Put<uint64_t>(e.frame_offset);
        ew.Put<uint64_t>(e.frame_size);
        ew.Put<uint64_t>(e.element_count);
        ew.Put<uint64_t>(e.element_prefix);
    }
    AppendBytes(out, entries);
    ByteWriter fw(out);
    fw.Put<uint64_t>(Fnv1a64(entries));
    fw.Put<uint64_t>(frames.size());
    fw.Put<uint64_t>(entries.size());
    fw.Put<uint32_t>(SeekIndex::kIndexVersion);
    fw.Put<uint32_t>(SeekIndex::kFooterMagic);
}

std::optional<SeekIndex>
TryParseSeekIndex(const ByteSource& source)
{
    constexpr const char* kStage = "seek-index";
    const uint64_t stream_size = source.Size();
    if (stream_size < SeekIndex::kFooterSize) return std::nullopt;

    const uint64_t footer_offset = stream_size - SeekIndex::kFooterSize;
    std::array<std::byte, SeekIndex::kFooterSize> footer_bytes;
    source.ReadAt(footer_offset, footer_bytes);
    ByteReader fr(ByteSpan(footer_bytes.data(), footer_bytes.size()), kStage);
    const uint64_t checksum = fr.Get<uint64_t>();
    const uint64_t frame_count = fr.Get<uint64_t>();
    const uint64_t index_size = fr.Get<uint64_t>();
    const uint32_t version = fr.Get<uint32_t>();
    const uint32_t magic = fr.Get<uint32_t>();
    if (magic != SeekIndex::kFooterMagic) return std::nullopt;

    const size_t footer_pos = static_cast<size_t>(footer_offset);
    FPC_PARSE_CHECK_AT(version == SeekIndex::kIndexVersion,
                       "unsupported seek-index version", kStage, footer_pos);
    // Bound the entry count by what the stream can physically hold before
    // sizing any allocation from it.
    FPC_PARSE_CHECK_AT(frame_count <= footer_offset / SeekIndex::kEntrySize,
                       "seek-index larger than stream", kStage, footer_pos);
    FPC_PARSE_CHECK_AT(index_size == frame_count * SeekIndex::kEntrySize,
                       "seek-index size inconsistent with frame count",
                       kStage, footer_pos);

    SeekIndex index;
    index.index_offset = footer_offset - index_size;
    Bytes entries(static_cast<size_t>(index_size));
    source.ReadAt(index.index_offset, entries);
    FPC_PARSE_CHECK_AT(Fnv1a64(entries) == checksum,
                       "seek-index checksum mismatch", kStage,
                       static_cast<size_t>(index.index_offset));

    ByteReader er(entries, kStage);
    index.frames.resize(static_cast<size_t>(frame_count));
    uint64_t expect_prefix = 0;
    // A frame body is preceded by its (at least 1 byte) varint prefix, so
    // the first body starts at offset >= 1 and each body starts at least
    // one byte past the previous body's end.
    uint64_t min_offset = 1;
    for (size_t i = 0; i < index.frames.size(); ++i) {
        SeekIndexEntry& e = index.frames[i];
        e.frame_offset = er.Get<uint64_t>();
        e.frame_size = er.Get<uint64_t>();
        e.element_count = er.Get<uint64_t>();
        e.element_prefix = er.Get<uint64_t>();
        const size_t entry_pos = static_cast<size_t>(
            index.index_offset + i * SeekIndex::kEntrySize);
        FPC_PARSE_CHECK_AT(e.frame_offset >= min_offset,
                           "seek-index frame offsets overlap", kStage,
                           entry_pos);
        // Subtract form: the body must end at or before the index start.
        FPC_PARSE_CHECK_AT(e.frame_size <= index.index_offset &&
                               e.frame_offset <=
                                   index.index_offset - e.frame_size,
                           "seek-index frame outside stream", kStage,
                           entry_pos);
        FPC_PARSE_CHECK_AT(e.element_prefix == expect_prefix,
                           "seek-index element prefixes inconsistent",
                           kStage, entry_pos);
        FPC_PARSE_CHECK_AT(
            e.element_count <= UINT64_MAX - expect_prefix,
            "seek-index element counts overflow", kStage, entry_pos);
        expect_prefix += e.element_count;
        min_offset = e.frame_offset + e.frame_size + 1;
    }
    return index;
}

}  // namespace fpc
