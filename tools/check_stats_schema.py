#!/usr/bin/env python3
"""Validate the observability JSON documents the library emits.

Reads stdin (or the files named on the command line) line by line and
validates every JSON object whose schema tag it recognises:

``fpc.telemetry.v7`` (``Telemetry::ToJson``, src/core/telemetry.cc):
  - top-level keys: schema, executor, algorithm, isa, compress,
    decompress, ranged, chunks, adaptive, mplg, arena, histograms,
    stages;
  - isa names the dispatched kernel level (scalar/avx2/avx512);
  - compress/decompress: calls, input_bytes, output_bytes, wall_ns — all
    non-negative integers;
  - ranged (random-access decode totals): calls, elements,
    frames_decoded, chunks_decoded, chunks_skipped, io_reads, io_bytes,
    index_hits — non-negative integers with index_hits <= calls;
  - chunks: encoded, raw_fallback, decoded with raw_fallback <= encoded;
  - adaptive (mode=auto selection; all-zero for fixed runs): chunks
    (per-algorithm winner counts), raw_chunks, probe_calls, probe_ns,
    trials, predicted_bytes, actual_bytes, with selected chunks (winner
    counts + raw) <= probe_calls and trials <= 3 * probe_calls (every
    in-margin candidate may be trial-encoded);
  - mplg: subchunks, enhanced_subchunks with enhanced <= subchunks;
  - arena: high_water_bytes;
  - histograms: chunk_encode and chunk_decode latency digests (count,
    p50_ns, p95_ns, p99_ns, max_ns with p50 <= p95 <= p99 <= max), with
    chunks.encoded == chunk_encode.count + adaptive.trials (each margin
    trial is an extra encode attempt outside the executor chunk span);
  - stages: exactly the seven stages, in StageId order, each with an
    encode and a decode counter block plus a latency digest pair whose
    counts match the stage call counters.

``fpc.trace.v1`` (``TraceSink::ToChromeJson``, src/core/trace.cc):
  - top-level schema, dropped (non-negative), traceEvents array;
  - every event is Chrome trace-event shaped: ph "M" (metadata) or "X"
    (complete span with numeric ts/dur >= 0, name, pid, tid).

``fpc.bench.v1`` (bench/bench_regress.cc, bench/bench_seek.cc, and
bench/bench_service.cc):
  - config block carrying the corpus/stream fingerprint and machine
    facts (corpus-shaped reports name values_per_file and the scales,
    seek-shaped reports name frames/values_per_frame/queries,
    service-shaped reports name tenants/requests_per_tenant/
    values_per_request/workers);
  - results entries with algorithm, backend, positive ratio and
    throughputs, and valid latency digests (chunk_encode/chunk_decode
    required for corpus-shaped reports, range_read for ranged ones,
    request for service-shaped ones);
  - mode=auto entries (those carrying probe_ns): probe_ns,
    encode_work_ns (probe plus stage encode time, summed over the same
    workers — the probe gate's denominator) and compress_wall_ns, all
    non-negative integers with probe_ns <= encode_work_ns.

``fpc.metrics.v1`` (``MetricsRegistry::Exposition``, src/core/metrics.cc;
the daemon's /metrics and ``fpcc metrics`` output):
  - a ``# fpc.metrics.v1`` marker line followed by Prometheus
    text-format comment and sample lines (consumed until a blank or
    JSON line);
  - HELP/TYPE at most once per family, every sample typed, no
    duplicate sample identities (name + label set);
  - counter and histogram samples non-negative (gauges may go
    negative);
  - histogram series: cumulative ``le`` buckets monotone, bounds
    ascending, and the ``+Inf`` bucket equal to ``_count``.

Exit code 0 when every recognised line validates and at least one was
seen (pass ``--allow-empty`` when hooks are compiled out and
context/counter content is not expected), 1 otherwise. Wired into ctest
as the ``stats_schema`` test (tests/stats_schema.cmake); also ad hoc:

    fpczip -c -a DPratio --stats in.bin out.fpcz 2>&1 | \\
        python3 tools/check_stats_schema.py
"""

import json
import re
import sys

TELEMETRY_TAG = "fpc.telemetry.v7"
TRACE_TAG = "fpc.trace.v1"
BENCH_TAG = "fpc.bench.v1"
METRICS_TAG = "fpc.metrics.v1"

STAGE_ORDER = ["DIFFMS", "MPLG", "BIT", "RZE", "FCM", "RAZE", "RARE"]

COUNTER_FIELDS = ["calls", "input_bytes", "output_bytes", "wall_ns"]

DIGEST_FIELDS = ["count", "p50_ns", "p95_ns", "p99_ns", "max_ns"]

TOP_KEYS = [
    "schema",
    "executor",
    "algorithm",
    "isa",
    "compress",
    "decompress",
    "ranged",
    "chunks",
    "adaptive",
    "mplg",
    "arena",
    "histograms",
    "stages",
]

RANGED_FIELDS = [
    "calls",
    "elements",
    "frames_decoded",
    "chunks_decoded",
    "chunks_skipped",
    "io_reads",
    "io_bytes",
    "index_hits",
]

ALGORITHMS = ["SPspeed", "SPratio", "DPspeed", "DPratio"]

# Valid bench-entry algorithm labels: the four pipelines plus the
# per-chunk adaptive mode (one entry per element width).
BENCH_ALGORITHMS = ALGORITHMS + ["auto", "auto-SP", "auto-DP"]

ADAPTIVE_FIELDS = [
    "raw_chunks",
    "probe_calls",
    "probe_ns",
    "trials",
    "predicted_bytes",
    "actual_bytes",
]

ISA_LEVELS = ["scalar", "avx2", "avx512"]


def fail(line_no, message):
    print(f"check_stats_schema: line {line_no}: {message}", file=sys.stderr)
    return False


def check_counters(line_no, where, block):
    if not isinstance(block, dict):
        return fail(line_no, f"{where} is not an object")
    ok = True
    for field in COUNTER_FIELDS:
        value = block.get(field)
        if not isinstance(value, int) or value < 0:
            ok = fail(line_no, f"{where}.{field} missing or not a"
                               f" non-negative integer: {value!r}")
    return ok


def check_digest(line_no, where, block):
    """A latency-histogram digest: counts plus ordered quantiles."""
    if not isinstance(block, dict):
        return fail(line_no, f"{where} is not an object")
    ok = True
    for field in DIGEST_FIELDS:
        value = block.get(field)
        if not isinstance(value, int) or value < 0:
            ok = fail(line_no, f"{where}.{field} missing or not a"
                               f" non-negative integer: {value!r}")
    if ok and not (block["p50_ns"] <= block["p95_ns"] <= block["p99_ns"]
                   <= block["max_ns"]):
        ok = fail(line_no, f"{where} quantiles are not ordered:"
                           f" {block!r}")
    if ok and block["count"] == 0 and block["max_ns"] != 0:
        ok = fail(line_no, f"{where} is empty but max_ns != 0")
    return ok


def check_telemetry(line_no, doc):
    ok = True
    for key in TOP_KEYS:
        if key not in doc:
            ok = fail(line_no, f"missing top-level key {key!r}")
    if not ok:
        return False
    extra = set(doc) - set(TOP_KEYS)
    if extra:
        ok = fail(line_no, f"unknown top-level keys {sorted(extra)}"
                           " (bump the schema tag instead)")

    for direction in ("compress", "decompress"):
        ok = check_counters(line_no, direction, doc[direction]) and ok

    ranged = doc["ranged"]
    if not isinstance(ranged, dict):
        ok = fail(line_no, "ranged is not an object")
    else:
        for field in RANGED_FIELDS:
            value = ranged.get(field)
            if not isinstance(value, int) or value < 0:
                ok = fail(line_no, f"ranged.{field} missing or not a"
                                   f" non-negative integer: {value!r}")
        if ok and ranged["index_hits"] > ranged["calls"]:
            ok = fail(line_no, "ranged.index_hits exceeds ranged.calls")
        if ok and ranged["calls"] == 0 and ranged["chunks_decoded"] != 0:
            ok = fail(line_no, "ranged.chunks_decoded nonzero without any"
                               " ranged.calls")

    chunks = doc["chunks"]
    for field in ("encoded", "raw_fallback", "decoded"):
        if not isinstance(chunks.get(field), int) or chunks[field] < 0:
            ok = fail(line_no, f"chunks.{field} missing or invalid")
    if ok and chunks["raw_fallback"] > chunks["encoded"]:
        ok = fail(line_no, "chunks.raw_fallback exceeds chunks.encoded")

    adaptive = doc["adaptive"]
    if not isinstance(adaptive, dict):
        ok = fail(line_no, "adaptive is not an object")
    else:
        for field in ADAPTIVE_FIELDS:
            value = adaptive.get(field)
            if not isinstance(value, int) or value < 0:
                ok = fail(line_no, f"adaptive.{field} missing or not a"
                                   f" non-negative integer: {value!r}")
        winners = adaptive.get("chunks")
        if not isinstance(winners, dict) \
                or sorted(winners) != sorted(ALGORITHMS):
            ok = fail(line_no, "adaptive.chunks must map exactly the four"
                               f" algorithms, got {winners!r}")
        elif ok:
            for name, value in winners.items():
                if not isinstance(value, int) or value < 0:
                    ok = fail(line_no, f"adaptive.chunks.{name} invalid:"
                                       f" {value!r}")
            if ok:
                selected = (sum(winners.values())
                            + adaptive["raw_chunks"])
                if selected > adaptive["probe_calls"]:
                    ok = fail(line_no, "adaptive selections exceed"
                                       " adaptive.probe_calls")
                if adaptive["trials"] > 3 * adaptive["probe_calls"]:
                    ok = fail(line_no, "adaptive.trials exceeds 3x"
                                       " adaptive.probe_calls")

    mplg = doc["mplg"]
    for field in ("subchunks", "enhanced_subchunks"):
        if not isinstance(mplg.get(field), int) or mplg[field] < 0:
            ok = fail(line_no, f"mplg.{field} missing or invalid")
    if ok and mplg["enhanced_subchunks"] > mplg["subchunks"]:
        ok = fail(line_no, "mplg.enhanced_subchunks exceeds subchunks")

    arena = doc["arena"]
    if not isinstance(arena.get("high_water_bytes"), int):
        ok = fail(line_no, "arena.high_water_bytes missing or invalid")

    hists = doc["histograms"]
    if not isinstance(hists, dict):
        ok = fail(line_no, "histograms is not an object")
    else:
        for key in ("chunk_encode", "chunk_decode"):
            if key not in hists:
                ok = fail(line_no, f"histograms lacks {key}")
            else:
                ok = check_digest(line_no, f"histograms.{key}",
                                  hists[key]) and ok
        if ok:
            # chunks.encoded counts encode *attempts*: every adaptive
            # margin trial adds one, while the chunk-encode latency
            # histogram records only the per-chunk executor spans.
            trials = doc["adaptive"]["trials"] \
                if isinstance(doc.get("adaptive"), dict) \
                and isinstance(doc["adaptive"].get("trials"), int) else 0
            expected = hists["chunk_encode"]["count"] + trials
            if chunks["encoded"] != expected:
                ok = fail(line_no, "chunks.encoded"
                                   f" ({chunks['encoded']}) !="
                                   " histograms.chunk_encode.count +"
                                   f" adaptive.trials ({expected})")

    stages = doc["stages"]
    if not isinstance(stages, list):
        return fail(line_no, "stages is not an array")
    names = [s.get("stage") for s in stages if isinstance(s, dict)]
    if names != STAGE_ORDER:
        ok = fail(line_no, f"stage array is {names}, expected fixed order"
                           f" {STAGE_ORDER}")
    for stage in stages:
        if not isinstance(stage, dict):
            ok = fail(line_no, "stage entry is not an object")
            continue
        label = f"stages[{stage.get('stage')!r}]"
        for direction in ("encode", "decode"):
            if direction not in stage:
                ok = fail(line_no, f"{label} lacks a {direction} block")
            else:
                ok = check_counters(line_no, f"{label}.{direction}",
                                    stage[direction]) and ok
        latency = stage.get("latency")
        if not isinstance(latency, dict):
            ok = fail(line_no, f"{label} lacks a latency block")
            continue
        for direction in ("encode", "decode"):
            if direction not in latency:
                ok = fail(line_no,
                          f"{label}.latency lacks {direction}")
                continue
            ok = check_digest(line_no, f"{label}.latency.{direction}",
                              latency[direction]) and ok
            if (ok and direction in stage
                    and latency[direction]["count"]
                    != stage[direction]["calls"]):
                ok = fail(line_no,
                          f"{label}.latency.{direction}.count !="
                          f" {label}.{direction}.calls")
    return ok


def check_telemetry_content(line_no, doc):
    """Extra checks for builds with hooks compiled in: an instrumented
    compress run must have filled in its context and counters."""
    ok = True
    if not doc["executor"]:
        ok = fail(line_no, "executor is empty (no SetContext call?)")
    if not doc["algorithm"]:
        ok = fail(line_no, "algorithm is empty")
    if doc["isa"] not in ISA_LEVELS:
        ok = fail(line_no, f"isa is {doc['isa']!r}, expected one of"
                           f" {ISA_LEVELS}")
    if (doc["compress"]["calls"] + doc["decompress"]["calls"]
            + doc["ranged"]["calls"] == 0):
        ok = fail(line_no, "no compress, decompress, or ranged call ran"
                           " in an instrumented run")
    if doc["chunks"]["encoded"] + doc["chunks"]["decoded"] == 0:
        ok = fail(line_no, "no chunks processed in an instrumented run")
    sum_of_stages = sum(s["encode"]["calls"] + s["decode"]["calls"]
                        for s in doc["stages"])
    coded = doc["chunks"]["encoded"] - doc["chunks"]["raw_fallback"]
    if sum_of_stages == 0 and coded > 0:
        # Decode-only runs of all-raw containers legitimately run no
        # stages; a compress run with coded chunks must have.
        ok = fail(line_no, "every stage counter is 0 for an instrumented"
                           " run with coded chunks")
    hist_counts = (doc["histograms"]["chunk_encode"]["count"]
                   + doc["histograms"]["chunk_decode"]["count"])
    if hist_counts == 0:
        ok = fail(line_no, "chunk latency histograms are empty for an"
                           " instrumented run")
    return ok


def check_trace(line_no, doc):
    ok = True
    dropped = doc.get("dropped")
    if not isinstance(dropped, int) or dropped < 0:
        ok = fail(line_no, f"dropped missing or invalid: {dropped!r}")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return fail(line_no, "traceEvents missing or not an array")
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            ok = fail(line_no, f"{where} is not an object")
            continue
        ph = event.get("ph")
        if ph not in ("M", "X"):
            ok = fail(line_no, f"{where}.ph is {ph!r}, expected M or X")
            continue
        for field in ("name", "pid", "tid"):
            if field not in event:
                ok = fail(line_no, f"{where} lacks {field}")
        if ph == "X":
            for field in ("ts", "dur"):
                value = event.get(field)
                if not isinstance(value, (int, float)) or value < 0:
                    ok = fail(line_no, f"{where}.{field} missing or"
                                       f" negative: {value!r}")
    return ok


def check_trace_content(line_no, doc):
    """An instrumented trace must contain at least one complete span."""
    spans = [e for e in doc["traceEvents"]
             if isinstance(e, dict) and e.get("ph") == "X"]
    if not spans:
        return fail(line_no, "trace has no complete (ph=X) spans for an"
                             " instrumented run")
    return True


def check_probe_fields(line_no, where, entry):
    """The mode=auto probe gate's inputs (bench/bench_regress.cc)."""
    ok = True
    for field in ("probe_ns", "encode_work_ns", "compress_wall_ns"):
        value = entry.get(field)
        if not isinstance(value, int) or value < 0:
            ok = fail(line_no, f"{where}.{field} missing or not a"
                               f" non-negative integer: {value!r}")
    if ok and entry["probe_ns"] > entry["encode_work_ns"]:
        ok = fail(line_no, f"{where}.probe_ns {entry['probe_ns']} exceeds"
                           f" encode_work_ns {entry['encode_work_ns']}")
    return ok


def check_bench(line_no, doc):
    ok = True
    config = doc.get("config")
    # bench_regress reports carry the corpus knobs, bench_seek reports
    # the stream/query knobs, bench_service reports the tenant-load
    # knobs. All share the fingerprint and the machine facts.
    corpus_shaped = isinstance(config, dict) and "values_per_file" in config
    service_shaped = isinstance(config, dict) and "tenants" in config
    if not isinstance(config, dict):
        ok = fail(line_no, "config missing or not an object")
    else:
        if corpus_shaped:
            int_fields = ("values_per_file", "runs", "repeats", "threads")
        elif service_shaped:
            int_fields = ("tenants", "requests_per_tenant",
                          "values_per_request", "workers", "window",
                          "threads")
        else:
            int_fields = ("frames", "values_per_frame", "queries",
                          "range_elements", "repeats", "threads")
        for field in int_fields:
            value = config.get(field)
            if not isinstance(value, int) or value <= 0:
                ok = fail(line_no, f"config.{field} missing or invalid:"
                                   f" {value!r}")
        if corpus_shaped:
            for field in ("sp_scale", "dp_scale"):
                value = config.get(field)
                if not isinstance(value, (int, float)) or value <= 0:
                    ok = fail(line_no, f"config.{field} missing or"
                                       f" invalid: {value!r}")
        if not isinstance(config.get("fingerprint"), str) \
                or not config["fingerprint"]:
            ok = fail(line_no, "config.fingerprint missing or empty")
    results = doc.get("results")
    if not isinstance(results, list) or not results:
        return fail(line_no, "results missing, not an array, or empty")
    for i, entry in enumerate(results):
        where = f"results[{i}]"
        if not isinstance(entry, dict):
            ok = fail(line_no, f"{where} is not an object")
            continue
        if entry.get("algorithm") not in BENCH_ALGORITHMS:
            ok = fail(line_no, f"{where}.algorithm is"
                               f" {entry.get('algorithm')!r}")
        if not isinstance(entry.get("backend"), str) \
                or not entry["backend"]:
            ok = fail(line_no, f"{where}.backend missing or empty")
        for field in ("ratio", "compress_gbps", "decompress_gbps"):
            value = entry.get(field)
            if not isinstance(value, (int, float)) or value <= 0:
                ok = fail(line_no, f"{where}.{field} missing or not"
                                   f" positive: {value!r}")
        if "probe_ns" in entry:
            ok = check_probe_fields(line_no, where, entry) and ok
        hists = entry.get("histograms")
        if not isinstance(hists, dict):
            ok = fail(line_no, f"{where}.histograms missing")
            continue
        if corpus_shaped:
            for key in ("chunk_encode", "chunk_decode"):
                if key not in hists:
                    ok = fail(line_no, f"{where}.histograms lacks {key}")
        elif service_shaped and "request" not in hists:
            ok = fail(line_no, f"{where}.histograms lacks request")
        for key, digest in hists.items():
            ok = check_digest(line_no, f"{where}.histograms.{key}",
                              digest) and ok
    return ok


# One exposition sample: name, optional {label="value",...} block,
# integer value (gauges may be negative; histogram buckets also carry
# le="+Inf"). MetricsRegistry renders integers only — no floats.
SAMPLE_RE = re.compile(
    r'^([a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'
    r'(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})?'
    r' (-?[0-9]+)$')

LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def check_exposition(first_no, block):
    """Validate one fpc.metrics.v1 text-exposition block.

    ``block`` is the list of lines after the ``# fpc.metrics.v1`` marker.
    Checks: every line parses (comment or sample), no duplicate sample
    identities, HELP/TYPE appear once per family, counters are
    non-negative, and for every histogram series the cumulative ``le``
    buckets are monotone with ``+Inf`` equal to ``_count``.
    """
    ok = True
    seen_samples = set()
    family_type = {}
    helped = set()
    # (base family, labels-without-le) -> {"buckets": [...], "inf": v,
    # "count": v, "sum": v}
    series = {}

    for offset, line in enumerate(block):
        line_no = first_no + 1 + offset
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            parts = line.split(" ", 3)
            if len(parts) < 4 or not parts[2]:
                ok = fail(line_no, f"malformed comment line: {line!r}")
                continue
            family = parts[2]
            if parts[1] == "TYPE":
                if family in family_type:
                    ok = fail(line_no, f"duplicate TYPE for {family}")
                elif parts[3] not in ("counter", "gauge", "histogram"):
                    ok = fail(line_no, f"unknown TYPE {parts[3]!r} for"
                                       f" {family}")
                else:
                    family_type[family] = parts[3]
            else:
                if family in helped:
                    ok = fail(line_no, f"duplicate HELP for {family}")
                helped.add(family)
            continue
        if line.startswith("#"):
            ok = fail(line_no, f"unrecognised comment line: {line!r}")
            continue
        m = SAMPLE_RE.match(line)
        if not m:
            ok = fail(line_no, f"unparseable sample line: {line!r}")
            continue
        name, label_text, value = m.group(1), m.group(2) or "", \
            int(m.group(3))
        identity = name + label_text
        if identity in seen_samples:
            ok = fail(line_no, f"duplicate sample {identity}")
        seen_samples.add(identity)

        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) \
                    and name[:-len(suffix)] in family_type:
                base = name[:-len(suffix)]
                break
        mtype = family_type.get(base)
        if mtype is None:
            ok = fail(line_no, f"sample {name} has no TYPE line")
            continue
        if mtype != "gauge" and value < 0:
            ok = fail(line_no, f"{mtype} sample {identity} is negative:"
                               f" {value}")
        if mtype != "histogram":
            continue

        labels = dict(LABEL_RE.findall(label_text))
        le = labels.pop("le", None)
        rest = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
        entry = series.setdefault((base, rest),
                                  {"buckets": [], "inf": None,
                                   "count": None, "sum": None})
        if name.endswith("_bucket"):
            if le is None:
                ok = fail(line_no, f"{identity} lacks an le label")
            elif le == "+Inf":
                entry["inf"] = value
            else:
                entry["buckets"].append((int(le), value))
        elif name.endswith("_sum"):
            entry["sum"] = value
        elif name.endswith("_count"):
            entry["count"] = value

    for (base, rest), entry in series.items():
        where = f"{base}{{{rest}}}" if rest else base
        for field in ("inf", "count", "sum"):
            if entry[field] is None:
                ok = fail(first_no, f"histogram {where} lacks"
                                    f" {field} sample")
        bounds = [b for b, _ in entry["buckets"]]
        values = [v for _, v in entry["buckets"]]
        if bounds != sorted(bounds):
            ok = fail(first_no, f"histogram {where} le bounds out of"
                                " order")
        if any(a > b for a, b in zip(values, values[1:])):
            ok = fail(first_no, f"histogram {where} cumulative buckets"
                                " decrease")
        if entry["inf"] is not None:
            if values and values[-1] > entry["inf"]:
                ok = fail(first_no, f"histogram {where} last bucket"
                                    " exceeds +Inf")
            if entry["count"] is not None \
                    and entry["inf"] != entry["count"]:
                ok = fail(first_no, f"histogram {where} +Inf bucket"
                                    f" ({entry['inf']}) != _count"
                                    f" ({entry['count']})")

    if not seen_samples:
        ok = fail(first_no, "exposition block has no samples")
    return ok


def main(argv):
    allow_empty = "--allow-empty" in argv
    paths = [a for a in argv[1:] if not a.startswith("--")]

    lines = []
    if paths:
        for path in paths:
            with open(path, "r", encoding="utf-8", errors="replace") as f:
                lines.extend(f.read().splitlines())
    else:
        lines = sys.stdin.read().splitlines()

    seen = 0
    ok = True
    index = 0
    while index < len(lines):
        line_no = index + 1
        line = lines[index].strip()
        index += 1
        if line == f"# {METRICS_TAG}":
            # Consume the contiguous exposition block: comment and
            # sample lines until a blank line, a JSON line, or EOF.
            block = []
            while index < len(lines):
                text = lines[index].rstrip("\r\n")
                if not text.strip() or text.lstrip().startswith("{"):
                    break
                block.append(text)
                index += 1
            seen += 1
            ok = check_exposition(line_no, block) and ok
            continue
        if not line.startswith("{"):
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError:
            continue  # not for us (e.g. an inspect line)
        if not isinstance(doc, dict):
            continue
        tag = doc.get("schema")
        if tag == TELEMETRY_TAG:
            seen += 1
            line_ok = check_telemetry(line_no, doc)
            if line_ok and not allow_empty:
                line_ok = check_telemetry_content(line_no, doc)
        elif tag == TRACE_TAG:
            seen += 1
            line_ok = check_trace(line_no, doc)
            if line_ok and not allow_empty:
                line_ok = check_trace_content(line_no, doc)
        elif tag == BENCH_TAG:
            seen += 1
            line_ok = check_bench(line_no, doc)
        else:
            continue
        ok = line_ok and ok

    if seen == 0:
        print("check_stats_schema: no recognised schema lines found"
              f" ({TELEMETRY_TAG} / {TRACE_TAG} / {BENCH_TAG} /"
              f" {METRICS_TAG})",
              file=sys.stderr)
        return 1
    if ok:
        print(f"check_stats_schema: {seen} line(s) OK")
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
