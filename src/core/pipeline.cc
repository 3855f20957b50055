#include "core/pipeline.h"

#include <cctype>

#include "transforms/transforms.h"

namespace fpc {

namespace {

const PipelineSpec kSpSpeed{
    "SPspeed",
    Algorithm::kSPspeed,
    4,
    {},
    {
        {"DIFFMS", StageId::kDiffms, tf::DiffmsEncode32, tf::DiffmsDecode32,
         tf::DiffmsDecodeInto32},
        {"MPLG", StageId::kMplg, tf::MplgEncode32, tf::MplgDecode32},
    },
};

const PipelineSpec kSpRatio{
    "SPratio",
    Algorithm::kSPratio,
    4,
    {},
    {
        {"DIFFMS", StageId::kDiffms, tf::DiffmsEncode32, tf::DiffmsDecode32,
         tf::DiffmsDecodeInto32},
        {"BIT", StageId::kBit, tf::BitEncode32, tf::BitDecode32},
        {"RZE", StageId::kRze, tf::RzeEncode, tf::RzeDecode},
    },
};

const PipelineSpec kDpSpeed{
    "DPspeed",
    Algorithm::kDPspeed,
    8,
    {},
    {
        {"DIFFMS", StageId::kDiffms, tf::DiffmsEncode64, tf::DiffmsDecode64,
         tf::DiffmsDecodeInto64},
        {"MPLG", StageId::kMplg, tf::MplgEncode64, tf::MplgDecode64},
    },
};

const PipelineSpec kDpRatio{
    "DPratio",
    Algorithm::kDPratio,
    8,
    {"FCM", StageId::kFcm, tf::FcmEncode, tf::FcmDecode,
     tf::FcmDecodeInto},
    {
        {"DIFFMS", StageId::kDiffms, tf::DiffmsEncode64, tf::DiffmsDecode64,
         tf::DiffmsDecodeInto64},
        {"RAZE", StageId::kRaze, tf::RazeEncode64, tf::RazeDecode64},
        {"RARE", StageId::kRare, tf::RareEncode64, tf::RareDecode64},
    },
};

// DPratio for one chunk of a mixed-algorithm (v3) container: FCM runs as
// the first per-chunk stage instead of over the whole input. FCM roughly
// doubles its input (value + match-distance arrays), so the intermediate
// decode buffers need a 2x budget on top of the fixed slack.
const PipelineSpec kDpRatioChunked{
    "DPratio",
    Algorithm::kDPratio,
    8,
    {},
    {
        {"FCM", StageId::kFcm, tf::FcmEncode, tf::FcmDecode,
         tf::FcmDecodeInto},
        {"DIFFMS", StageId::kDiffms, tf::DiffmsEncode64, tf::DiffmsDecode64,
         tf::DiffmsDecodeInto64},
        {"RAZE", StageId::kRaze, tf::RazeEncode64, tf::RazeDecode64},
        {"RARE", StageId::kRare, tf::RareEncode64, tf::RareDecode64},
    },
    2,
};

}  // namespace

const char*
AlgorithmName(Algorithm algorithm)
{
    switch (algorithm) {
      case Algorithm::kSPspeed: return "SPspeed";
      case Algorithm::kSPratio: return "SPratio";
      case Algorithm::kDPspeed: return "DPspeed";
      case Algorithm::kDPratio: return "DPratio";
    }
    return "unknown";
}

unsigned
AlgorithmWordSize(Algorithm algorithm)
{
    return GetPipeline(algorithm).word_size;
}

Algorithm
ParseAlgorithm(const std::string& name)
{
    std::string lower;
    for (char c : name) lower.push_back(static_cast<char>(std::tolower(c)));
    if (lower == "spspeed") return Algorithm::kSPspeed;
    if (lower == "spratio") return Algorithm::kSPratio;
    if (lower == "dpspeed") return Algorithm::kDPspeed;
    if (lower == "dpratio") return Algorithm::kDPratio;
    throw UsageError("unknown algorithm name: " + name);
}

const PipelineSpec&
GetPipeline(Algorithm algorithm)
{
    switch (algorithm) {
      case Algorithm::kSPspeed: return kSpSpeed;
      case Algorithm::kSPratio: return kSpRatio;
      case Algorithm::kDPspeed: return kDpSpeed;
      case Algorithm::kDPratio: return kDpRatio;
    }
    throw UsageError("unknown algorithm id");
}

const PipelineSpec&
GetChunkPipeline(Algorithm algorithm)
{
    return algorithm == Algorithm::kDPratio ? kDpRatioChunked
                                            : GetPipeline(algorithm);
}

ByteSpan
EncodeChunk(const PipelineSpec& spec, ByteSpan chunk, bool& raw,
            ScratchArena& scratch)
{
    TelemetryShard* shard = scratch.Telemetry();
    Bytes* src = &scratch.PipelineA();
    Bytes* dst = &scratch.PipelineB();
    bool first = true;
    for (const Stage& stage : spec.stages) {
        dst->clear();
        const ByteSpan stage_in = first ? chunk : ByteSpan(*src);
        if (shard != nullptr) {
            const uint64_t t0 = TelemetryNowNs();
            stage.encode(stage_in, *dst, scratch);
            const uint64_t t1 = TelemetryNowNs();
            shard->OnStageEncode(stage.id, stage_in.size(), dst->size(),
                                 t1 - t0);
            if (shard->trace != nullptr) {
                shard->trace->RecordStage(
                    kTraceEncode, static_cast<uint8_t>(stage.id), t0, t1);
            }
        } else {
            stage.encode(stage_in, *dst, scratch);
        }
        std::swap(src, dst);
        first = false;
    }
    if (first || src->size() >= chunk.size()) {
        // Pipeline output is not smaller: store the chunk verbatim
        // (worst-case expansion cap, paper Section 3).
        raw = true;
        if (shard != nullptr) {
            ++shard->chunks_encoded;
            ++shard->chunks_raw;
        }
        return chunk;
    }
    raw = false;
    if (shard != nullptr) ++shard->chunks_encoded;
    return ByteSpan(*src);
}

void
DecodeChunk(const PipelineSpec& spec, ByteSpan payload, bool raw,
            std::span<std::byte> dest, ScratchArena& scratch)
{
    TelemetryShard* shard = scratch.Telemetry();
    if (raw) {
        FPC_PARSE_CHECK(payload.size() == dest.size(),
                        "raw chunk size mismatch");
        std::memcpy(dest.data(), payload.data(), payload.size());
        if (shard != nullptr) ++shard->chunks_decoded;
        return;
    }
    FPC_PARSE_CHECK(!spec.stages.empty(),
                    "non-raw chunk in a stage-free pipeline");
    // Budget every stage's wire-declared output size before it allocates:
    // intermediate stage outputs may exceed the destination only by the
    // spec's expansion factor (2x for the chunked-FCM DPratio pipeline)
    // plus the fixed per-stage framing slack (see kChunkDecodeSlack).
    scratch.SetDecodeBudget(dest.size() * spec.decode_budget_factor +
                            kChunkDecodeSlack);
    Bytes* src = &scratch.PipelineA();
    Bytes* dst = &scratch.PipelineB();
    ByteSpan cur = payload;
    for (size_t s = spec.stages.size(); s-- > 1;) {
        dst->clear();
        if (shard != nullptr) {
            const uint64_t t0 = TelemetryNowNs();
            spec.stages[s].decode(cur, *dst, scratch);
            const uint64_t t1 = TelemetryNowNs();
            shard->OnStageDecode(spec.stages[s].id, cur.size(), dst->size(),
                                 t1 - t0);
            if (shard->trace != nullptr) {
                shard->trace->RecordStage(
                    kTraceDecode, static_cast<uint8_t>(spec.stages[s].id),
                    t0, t1);
            }
        } else {
            spec.stages[s].decode(cur, *dst, scratch);
        }
        std::swap(src, dst);
        cur = ByteSpan(*src);
    }
    const Stage& last = spec.stages.front();
    const uint64_t t0 = shard != nullptr ? TelemetryNowNs() : 0;
    if (last.decode_into != nullptr) {
        last.decode_into(cur, dest, scratch);
    } else {
        dst->clear();
        last.decode(cur, *dst, scratch);
        FPC_PARSE_CHECK(dst->size() == dest.size(), "chunk size mismatch");
        std::memcpy(dest.data(), dst->data(), dst->size());
    }
    if (shard != nullptr) {
        const uint64_t t1 = TelemetryNowNs();
        shard->OnStageDecode(last.id, cur.size(), dest.size(), t1 - t0);
        if (shard->trace != nullptr) {
            shard->trace->RecordStage(
                kTraceDecode, static_cast<uint8_t>(last.id), t0, t1);
        }
        ++shard->chunks_decoded;
    }
}

}  // namespace fpc
