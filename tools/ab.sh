#!/usr/bin/env sh
# Paired benchmark of a parent revision against the working tree:
#
#   tools/ab.sh <rev> <workload> [pairs] [seconds] [seed]
#
# Exports <rev> with `git archive` into a scratch directory outside the
# repository ($AB_DIR, else a fresh `mktemp -d`), builds fpc_bench there
# and from the working tree (Release, fpc_bench/CMakeLists.txt), then runs
# <pairs> (default 10) pairs of `fpc_bench --workload=<workload>` at
# <seconds> (default 10) and <seed> (default 1). Each pair runs both
# sides back to back, and the side that goes first alternates, so a
# drift in machine speed lands on both. For every metric the run prints
# (the end-to-end ones; with AB_TRACE=1 the traced per-layer ones) it
# reports each side's median and quartiles, the median paired change,
# and how many pairs the change won; "better" comes from BENCHMARK.json.
# Every run's output is kept under <dir>/runs, and any run whose checks
# are not all ok or that failed operations is reported.
#
# Reusing AB_DIR across calls reuses both builds (incremental rebuilds).
# Not a test: it takes pairs * 2 * (seconds + set-up) of wall time and
# wants a quiet machine.

set -eu

if [ $# -lt 2 ]; then
    echo "usage: $0 <rev> <workload> [pairs] [seconds] [seed]" >&2
    exit 2
fi
rev="$1"
workload="$2"
pairs="${3:-10}"
seconds="${4:-10}"
seed="${5:-1}"
trace="${AB_TRACE:-0}"

root="$(cd "$(dirname "$0")/.." && pwd)"
dir="${AB_DIR:-$(mktemp -d)}"
case "${dir}" in
    "${root}"|"${root}"/*)
        echo "ab.sh: AB_DIR must be outside the repository" >&2
        exit 2 ;;
esac
mkdir -p "${dir}/runs" "${dir}/tmp"

sha="$(git -C "${root}" rev-parse --verify "${rev}^{commit}")"
parent_src="${dir}/parent-${sha}"
if [ ! -d "${parent_src}" ]; then
    mkdir -p "${parent_src}"
    git -C "${root}" archive "${sha}" | tar -x -C "${parent_src}"
fi

build() {  # <source root> <build dir>
    if [ ! -f "$2/CMakeCache.txt" ]; then
        cmake -S "$1/fpc_bench" -B "$2" -DCMAKE_BUILD_TYPE=Release \
            > "$2.configure.log" 2>&1 ||
            { cat "$2.configure.log" >&2; exit 1; }
    fi
    cmake --build "$2" --target fpc_bench -j "$(nproc 2>/dev/null || echo 2)" \
        > "$2.build.log" 2>&1 || { cat "$2.build.log" >&2; exit 1; }
}
echo "ab.sh: building parent ${sha} and the working tree in ${dir}" >&2
build "${parent_src}" "${dir}/parent-build-${sha}"
build "${root}" "${dir}/change-build"
parent_bin="${dir}/parent-build-${sha}/fpc_bench"
change_bin="${dir}/change-build/fpc_bench"

tag="${workload}-s${seed}-t${seconds}-x${trace}"
run() {  # <side> <binary> <pair>
    out="${dir}/runs/${tag}-$1-$3.txt"
    set -- "$2" --workload="${workload}" --seed="${seed}" \
        --seconds="${seconds}" --tmpdir="${dir}/tmp"
    if [ "${trace}" = 1 ]; then set -- "$@" --trace="${dir}/tmp/trace.json"; fi
    "$@" > "${out}" 2> "${out}.err" || true
}
i=0
while [ "${i}" -lt "${pairs}" ]; do
    if [ $((i % 2)) -eq 0 ]; then
        run parent "${parent_bin}" "${i}"
        run change "${change_bin}" "${i}"
    else
        run change "${change_bin}" "${i}"
        run parent "${parent_bin}" "${i}"
    fi
    i=$((i + 1))
    echo "ab.sh: pair ${i}/${pairs} done" >&2
done

python3 - "${root}/BENCHMARK.json" "${dir}/runs" "${tag}" "${pairs}" \
    "${trace}" <<'EOF'
import json
import os
import statistics
import sys

spec_path, runs, tag, pairs, trace = sys.argv[1:]
pairs = int(pairs)
with open(spec_path) as f:
    spec = json.load(f)
better = {m["name"]: m["better"]
          for m in spec["per_layer" if trace == "1" else "end_to_end"]}


def read(side, k):
    metrics, bad = {}, []
    path = os.path.join(runs, "%s-%s-%d.txt" % (tag, side, k))
    with open(path) as f:
        for line in f:
            fields = line.split()
            if len(fields) == 6 and fields[0] == "metric":
                metrics[fields[2]] = float(fields[3])
            elif len(fields) == 5 and fields[0] == "check" and \
                    fields[3] != "ok":
                bad.append(line.strip())
            elif len(fields) == 4 and fields[0] == "ops" and fields[3] != "0":
                bad.append(line.strip())
    if not metrics:
        bad.append("no metrics (see %s.err)" % path)
    for line in bad:
        print("%s pair %d: %s" % (side, k, line))
    return metrics


parent = [read("parent", k) for k in range(pairs)]
change = [read("change", k) for k in range(pairs)]


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


print("%-40s %28s %28s %9s %5s" % ("metric (pairs=%d)" % pairs,
                                   "parent q1 / median / q3",
                                   "change q1 / median / q3",
                                   "med chg", "wins"))
for name, direction in better.items():
    both = [(p[name], c[name]) for p, c in zip(parent, change)
            if name in p and name in c]
    if not both:
        continue
    ps = [p for p, _ in both]
    cs = [c for _, c in both]
    changes = [(c / p - 1.0) * 100.0 for p, c in both if p != 0]
    wins = sum(1 for p, c in both
               if (c > p if direction == "higher" else c < p))
    pq, cq = quartiles(ps), quartiles(cs)
    print("%-40s %8.4g / %8.4g / %8.4g %8.4g / %8.4g / %8.4g %+8.1f%% %2d/%d"
          % (name, pq[0], pq[1], pq[2], cq[0], cq[1], cq[2],
             statistics.median(changes) if changes else 0.0, wins,
             len(both)))
EOF
