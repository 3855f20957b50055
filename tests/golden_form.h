/**
 * @file
 * The wire-format goldens were pinned on version-1 containers, whose
 * header stores the Fnv1a64 content checksum. The library now writes
 * version 4 (and 5 for mode=auto): the same chunk table and payload
 * bytes behind a new version byte and the chunk-laned Checksum64.
 * GoldenFingerprint rewrites a container to its v1/v3 form and hashes
 * that, so an unchanged golden value still proves that not one payload
 * byte moved.
 */
#ifndef FPC_TESTS_GOLDEN_FORM_H
#define FPC_TESTS_GOLDEN_FORM_H

#include "core/container.h"
#include "util/hash.h"

namespace fpc {

/** @p container (v4 or v5) rewritten as the v1 or v3 container of the
 *  same payload: old version byte, Fnv1a64 of @p original as checksum. */
inline Bytes
LegacyForm(ByteSpan container, ByteSpan original)
{
    const ContainerView view = ParseContainer(container);
    ContainerHeader header = view.header;
    header.version = header.Adaptive() ? ContainerHeader::kVersionAdaptiveFnv
                                       : ContainerHeader::kVersionFnv;
    header.checksum = Fnv1a64(original);
    Bytes out;
    WriteContainerPrefix(header, view.chunk_sizes, view.chunk_raw,
                         view.chunk_algorithms, out);
    AppendBytes(out, view.payload);
    return out;
}

/** The value the golden tables pin: Fnv1a64 of the legacy form. */
inline uint64_t
GoldenFingerprint(ByteSpan container, ByteSpan original)
{
    return Fnv1a64(ByteSpan(LegacyForm(container, original)));
}

/** The content checksum stored in @p container's header. */
inline uint64_t
HeaderChecksum(ByteSpan container)
{
    return ParseContainer(container).header.checksum;
}

}  // namespace fpc

#endif  // FPC_TESTS_GOLDEN_FORM_H
