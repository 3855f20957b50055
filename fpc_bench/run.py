#!/usr/bin/env python3
"""Run one fpc_bench workload and print its result as one JSON line.

    python3 fpc_bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds fpc_bench from source (into
$CARGO_TARGET_DIR, default .bench_build) on first use, runs the workload,
and prints the binary's own report lines followed by, as the last line,
{"correct", "attempted", "failed", "metrics"}: with --trace 0 the
end-to-end metrics BENCHMARK.json names, with --trace 1 its per-layer
metrics (the traced run also writes a Perfetto-loadable trace into the
build directory). Exits non-zero, printing no result, when the build or
the run fails or a named metric is missing; a run whose outputs were
wrong prints its result with "correct": false and exits 1.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build the fpc_bench target; None on failure."""
    binary = os.path.join(build_dir, "fpc_bench")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--target", "fpc_bench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            log("fpc_bench: build timed out")
            return None
        if done.returncode != 0:
            log("fpc_bench: build failed:", " ".join(cmd))
            return None
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        log("fpc_bench: cannot read BENCHMARK.json:", e)
        return 1
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = os.path.join(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "fpc_bench")
    binary = build(build_dir)
    if binary is None:
        return 1
    # Relative, so unix socket paths stay short.
    tmpdir = os.path.relpath(os.path.join(build_dir, "tmp"))
    os.makedirs(tmpdir, exist_ok=True)
    cmd = [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds, "--tmpdir=" + tmpdir]
    if args.trace:
        cmd.append("--trace=" + os.path.join(
            tmpdir, "trace-%s.json" % args.workload))
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("fpc_bench: run timed out")
        return 1

    metrics, checks_ok, ops = {}, True, None
    for line in done.stdout.splitlines():
        print(line)
        fields = line.split()
        if len(fields) == 6 and fields[0] == "metric":
            metrics[fields[2]] = {"value": float(fields[3]),
                                  "unit": fields[4]}
        elif len(fields) == 5 and fields[0] == "check":
            checks_ok &= fields[3] == "ok"
        elif len(fields) == 4 and fields[0] == "ops":
            ops = (int(fields[2]), int(fields[3]))
    if done.returncode not in (0, 1) or ops is None:
        log("fpc_bench: run failed with exit code", done.returncode)
        return 1
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        log("fpc_bench: metrics missing from the run:", ", ".join(missing))
        return 1
    wrong_unit = [m["name"] for m in wanted
                  if metrics[m["name"]]["unit"] != m["unit"]]
    if wrong_unit:
        log("fpc_bench: units differ from BENCHMARK.json:",
            ", ".join(wrong_unit))
        return 1

    correct = done.returncode == 0 and checks_ok and ops[0] >= 1
    print(json.dumps({
        "correct": correct,
        "attempted": ops[0],
        "failed": ops[1],
        "metrics": {m["name"]: metrics[m["name"]] for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
