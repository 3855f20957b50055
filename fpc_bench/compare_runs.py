#!/usr/bin/env python3
"""Compare two sets of fpc_bench runs against BENCHMARK.json's bounds.

    compare_runs.py BENCHMARK.json DIR_A DIR_B

Each directory holds saved fpc_bench (or run.py) outputs, one run per
file; the "metric <workload> <name> <value> <unit> <samples>" lines are
read from every file. For each workload and metric the table shows each
side's median and quartiles over its runs, the change of B's median from
A's, and, for end-to-end metrics, whether the two medians differ by less
than the metric's bound ("within"), or B is worse ("WORSE") or better
("better") by more. Exits 1 when any end-to-end metric is WORSE.
"""
import collections
import json
import os
import statistics
import sys


def load(directory):
    """{(workload, metric): [values, one per run]} from every file."""
    values = collections.defaultdict(list)
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        with open(path) as f:
            for line in f:
                fields = line.split()
                if len(fields) == 6 and fields[0] == "metric":
                    values[(fields[1], fields[2])].append(float(fields[3]))
    return values


def quartiles(vals):
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, statistics.median(vals), q3


def main(argv):
    if len(argv) != 4:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        spec = json.load(f)
    a, b = load(argv[2]), load(argv[3])
    metrics = [(m, True) for m in spec["end_to_end"]] + \
              [(m, False) for m in spec["per_layer"]]
    worse = 0
    header = "%-15s %-34s %-32s %-32s %8s %6s  %s" % (
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]",
        "change", "bound", "verdict")
    print(header)
    print("-" * len(header))
    for workload in (w["name"] for w in spec["workloads"]):
        for m, gated in metrics:
            key = (workload, m["name"])
            if key not in a or key not in b:
                continue
            qa, qb = quartiles(a[key]), quartiles(b[key])
            change = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
            verdict, bound = "", ""
            if gated:
                bound = "%.0f%%" % (100 * m["bound"])
                loss = -change if m["better"] == "higher" else change
                if abs(change) < m["bound"]:
                    verdict = "within"
                elif loss > 0:
                    verdict = "WORSE"
                    worse += 1
                else:
                    verdict = "better"
            print("%-15s %-34s %-32s %-32s %+7.2f%% %6s  %s" % (
                workload, m["name"],
                "%.5g [%.5g, %.5g] n=%d" % (qa[1], qa[0], qa[2],
                                           len(a[key])),
                "%.5g [%.5g, %.5g] n=%d" % (qb[1], qb[0], qb[2],
                                           len(b[key])),
                100 * change, bound, verdict))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
