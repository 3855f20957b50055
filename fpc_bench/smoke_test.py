#!/usr/bin/env python3
"""Smoke test of fpc_bench (the ctest fpc_bench_smoke).

    smoke_test.py --bench PATH --benchmark-json PATH --work-dir DIR

Runs every workload once (--smoke: one pass, or about 200 requests),
traced, at seed 7, and asserts that:
  - every metric BENCHMARK.json names is printed with its unit;
  - every correctness check of the workload ran and passed;
  - the trace parses as Chrome trace JSON and trace.unattributed_share
    is below 0.1.
Then the seed contract: seed 7 again yields the same corpus_fingerprint
and ratio, and seed 8 a different fingerprint.
"""
import argparse
import concurrent.futures
import json
import os
import subprocess
import sys

WORKLOADS = ["archive-ratio", "field-speed-mt", "mixed-auto",
             "cross-device", "random-access", "service-mix"]

# Checks every traced run performs (the tour reaches every layer).
TRACED_CHECKS = {
    "decomposed_container_matches_library", "gpusim_decomposed_matches_executor",
    "inspect_original_size", "library_matches_expected",
    "range_read_matches_original", "roundtrip",
    "service_reply_matches_library", "stage_chain_roundtrip", "trace_written",
}
EXTRA_CHECKS = {"cross-device": {"cross_device_identical"},
                "random-access": {"rewritten_stream_matches_file"}}


def run(bench, workload, seed, work_dir, trace=None):
    cmd = [bench, "--workload=" + workload, "--seed=%d" % seed, "--smoke",
           "--tmpdir=" + work_dir]
    if trace:
        cmd.append("--trace=" + trace)
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=120)
    out = {"rc": done.returncode, "header": {}, "metrics": {}, "checks": {}}
    for line in done.stdout.splitlines():
        fields = line.split()
        if fields and fields[0] == "header":
            out["header"] = dict(f.split("=", 1) for f in fields[1:])
        elif len(fields) == 6 and fields[0] == "metric":
            out["metrics"][fields[2]] = (float(fields[3]), fields[4])
        elif len(fields) == 5 and fields[0] == "check":
            out["checks"][fields[2]] = (fields[3], int(fields[4]))
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--bench", required=True)
    parser.add_argument("--benchmark-json", required=True)
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args()
    os.makedirs(args.work_dir, exist_ok=True)
    with open(args.benchmark_json) as f:
        spec = json.load(f)
    expected = {m["name"]: m["unit"]
                for m in spec["end_to_end"] + spec["per_layer"]}
    if [w["name"] for w in spec["workloads"]] != WORKLOADS:
        print("FAIL: BENCHMARK.json workloads differ from", WORKLOADS)
        return 1

    failures = []
    first = {}
    for workload in WORKLOADS:
        trace = os.path.join(args.work_dir, "trace-%s.json" % workload)
        res = run(args.bench, workload, 7, args.work_dir, trace)
        first[workload] = res
        where = "%s seed 7" % workload
        if res["rc"] != 0:
            failures.append("%s: exit code %d" % (where, res["rc"]))
        for name, unit in expected.items():
            got = res["metrics"].get(name)
            if got is None or got[1] != unit:
                failures.append("%s: metric %s missing or not in %s" %
                                (where, name, unit))
        for name in TRACED_CHECKS | EXTRA_CHECKS.get(workload, set()):
            status, runs = res["checks"].get(name, ("missing", 0))
            if status != "ok" or runs < 1:
                failures.append("%s: check %s %s (%d runs)" %
                                (where, name, status, runs))
        try:
            with open(trace) as f:
                events = json.load(f)["traceEvents"]
            if not events or any(e.get("ph") != "X" for e in events):
                failures.append("%s: trace has no complete events" % where)
        except (OSError, ValueError, KeyError) as e:
            failures.append("%s: trace does not parse: %s" % (where, e))
        share = res["metrics"].get("trace.unattributed_share", (1.0, ""))[0]
        if not share < 0.1:
            failures.append("%s: trace.unattributed_share %.3f >= 0.1" %
                            (where, share))
        print("%-15s exit=%d metrics=%d checks=%d unattributed=%.4f" %
              (workload, res["rc"], len(res["metrics"]), len(res["checks"]),
               share), flush=True)

    # Two runs at a time, to keep the test short.
    with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
        contract = {(w, seed): pool.submit(run, args.bench, w, seed,
                                           args.work_dir)
                    for w in WORKLOADS for seed in (7, 8)}
    for workload in WORKLOADS:
        again = contract[(workload, 7)].result()
        other = contract[(workload, 8)].result()
        fp = first[workload]["header"].get("corpus_fingerprint")
        if fp is None or again["header"].get("corpus_fingerprint") != fp:
            failures.append("%s: seed 7 fingerprint not repeated" % workload)
        if first[workload]["metrics"].get("ratio") != \
                again["metrics"].get("ratio"):
            failures.append("%s: seed 7 ratio not repeated" % workload)
        if other["header"].get("corpus_fingerprint") == fp:
            failures.append("%s: seed 8 has seed 7's fingerprint" % workload)
        if again["rc"] != 0 or other["rc"] != 0:
            failures.append("%s: seed-contract runs failed" % workload)

    for failure in failures:
        print("FAIL:", failure)
    print("fpc_bench smoke: %s" % ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
