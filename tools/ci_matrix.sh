#!/usr/bin/env sh
# Build-and-test matrix for CI-style local runs:
#
#   tools/ci_matrix.sh [jobs]
#
# Configurations:
#   default        — Release, telemetry hooks compiled in (the shipping
#                    config). Runs the full suite, which includes the
#                    ratio floor (data_eval_test), the mode=auto probe
#                    budget and the fpc_bench smoke (ctest -L bench)
#                    and the span-tracer reconciliation (ctest -L
#                    telemetry), then exports a figure-bench timeline via
#                    FPC_BENCH_TRACE and schema-checks the fpc.trace.v1
#                    output.
#   telemetry-off  — -DFPC_TELEMETRY=OFF: every hook (telemetry *and* the
#                    span tracer) compiles to a no-op; proves the API
#                    still builds and the wire format is unchanged
#                    (telemetry_test asserts empty sinks, trace_test
#                    asserts empty-but-valid trace exports, the
#                    golden-checksum tests pin the bytes). The ratio
#                    floor still runs; probe_budget skips, having no
#                    telemetry to read.
#   forced-scalar  — the default build re-tested with FPC_FORCE_SCALAR=1:
#                    every kernel dispatches to the portable reference
#                    implementations, proving the wire format (golden
#                    checksums), the ratio floors (mode=auto's included)
#                    and the whole suite hold without vector
#                    kernels at runtime. Reuses the default build tree —
#                    dispatch is a runtime decision.
#   simd-off       — -DFPC_SIMD=OFF: the vector translation units are not
#                    compiled at all (CompiledIsaLevels() == "scalar");
#                    proves the scalar-only build is complete, not just
#                    reachable, for targets without x86 vector extensions.
#   sanitize       — ASan+UBSan over the memory-sensitive test subset,
#                    which includes the SIMD kernel equivalence + ISA
#                    golden matrix (ctest -L sanitize covers -L simd).
#   tsan           — -DFPC_TSAN=ON over the threading subset (ctest -L
#                    thread): the parallel stream decoder's claim/deliver
#                    window and early-abandonment teardown, plus the
#                    service scheduler (worker pool, per-tenant queues,
#                    round-robin dispatch, arena pool) and the daemon's
#                    concurrent connection handling (protocol_test).
#
# The default leg also runs a mode=auto smoke (compress a mixed corpus
# adaptively, inspect the v5 per-chunk table, decode on the gpusim
# backend, byte-compare, and schema-check the v7 adaptive telemetry) and
# a service daemon smoke: fpcd on a unix socket, concurrent fpcc
# roundtrips for all four algorithms plus mode=auto on the gpusim
# backend, every container byte-compared against the library path, and
# the daemon's v7 stats schema-checked.
#
# Each configuration builds into build-matrix/<name> so the normal
# ./build tree is left alone. Exits non-zero on the first failure.

set -eu

jobs="${1:-2}"
root="$(cd "$(dirname "$0")/.." && pwd)"
out="${root}/build-matrix"

run_config() {
    name="$1"; shift
    echo "==> [${name}] configure: $*"
    cmake -B "${out}/${name}" -S "${root}" "$@" >/dev/null
    echo "==> [${name}] build"
    cmake --build "${out}/${name}" -j "${jobs}" >/dev/null
    echo "==> [${name}] test"
}

run_config default -DFPC_WERROR=ON
ctest --test-dir "${out}/default" --output-on-failure -j "${jobs}"

# Trace-export smoke: drive one figure bench with FPC_BENCH_TRACE on a
# tiny corpus and validate the resulting Chrome trace document.
echo "==> [default] trace export"
(cd "${out}/default/bench" && \
    FPC_BENCH_VALUES=8192 FPC_BENCH_SCALE=0.05 FPC_BENCH_RUNS=1 \
    FPC_BENCH_TRACE="${out}/default/ci_trace.json" \
    ./bench_fig12_cpu_sp_comp >/dev/null)
python3 "${root}/tools/check_stats_schema.py" "${out}/default/ci_trace.json"

# Large-file streaming smoke: a >=256 MiB seekable v2 stream decoded
# through the fd (pread) ByteSource by the bounded worker pool. Peak RSS
# of the decode must stay well below the compressed size — the pool holds
# a fixed number of frames in flight, never the file. A ranged read out
# of the same file then exercises the seek index end to end and its
# fpc.telemetry.v7 ranged counters are schema-checked.
echo "==> [default] large-file streaming smoke"
large_dir="${out}/default/large_smoke"
rm -rf "${large_dir}"
mkdir -p "${large_dir}"
# Incompressible input, so the container is the same order of size and
# the RSS bound is meaningful: 272 MiB input -> >=256 MiB stream.
dd if=/dev/urandom of="${large_dir}/input.bin" bs=1048576 count=272 \
    2>/dev/null
"${out}/default/fpczip" -c -a SPspeed --frame-bytes=8m \
    "${large_dir}/input.bin" "${large_dir}/input.fpcz"
packed_bytes=$(wc -c < "${large_dir}/input.fpcz")
if [ "${packed_bytes}" -lt 268435456 ]; then
    echo "large-file smoke: stream only ${packed_bytes} bytes (<256 MiB)"
    exit 1
fi
# Decode via the pool + pread source; fail if peak RSS of the child
# reaches half of the compressed size (8 MiB frames, 2 workers, 4 frames
# in flight: tens of MiB expected against a ~272 MiB file).
python3 - "${out}/default/fpczip" "${large_dir}" "${packed_bytes}" <<'EOF'
import resource, subprocess, sys
fpczip, work, packed = sys.argv[1], sys.argv[2], int(sys.argv[3])
rc = subprocess.run([fpczip, "cat", "--workers=2", "--read=pread",
                     f"{work}/input.fpcz", f"{work}/restored.bin"]).returncode
if rc != 0:
    sys.exit(f"large-file smoke: fpczip cat exited {rc}")
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024
cap = packed // 2
print(f"large-file smoke: peak RSS {peak // 1048576} MiB "
      f"(cap {cap // 1048576} MiB, stream {packed // 1048576} MiB)")
if peak >= cap:
    sys.exit("large-file smoke: peak RSS reached half the stream size")
EOF
cmp "${large_dir}/input.bin" "${large_dir}/restored.bin"
# Compress-side peak RSS: a one-shot container compress of the same
# input on every core. It holds the input, one staging buffer (every
# chunk of this incompressible input is stored raw, so each 16 KiB slot
# fills: 1x the input) and the container (1x the input), plus fixed
# slack: the bound is 3x the input + 64 MiB, 880 MiB here. Measured on a
# 4-vCPU x86-64 host: 820 MiB. A second touched copy of the payloads
# would cross it. RSS counts touched pages only, so a per-worker
# reservation that each worker fills only in part would not.
python3 - "${out}/default/fpczip" "${large_dir}" <<'EOF'
import os, resource, subprocess, sys
fpczip, work = sys.argv[1], sys.argv[2]
size = os.path.getsize(f"{work}/input.bin")
rc = subprocess.run([fpczip, "-c", "-a", "SPspeed", f"{work}/input.bin",
                     f"{work}/oneshot.fpcz"]).returncode
if rc != 0:
    sys.exit(f"compress RSS check: fpczip -c exited {rc}")
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024
cap = 3 * size + (64 << 20)
print(f"compress RSS check: peak RSS {peak // 1048576} MiB "
      f"(cap {cap // 1048576} MiB, input {size // 1048576} MiB)")
if peak >= cap:
    sys.exit("compress RSS check: peak RSS above input + staging + "
             "container + 64 MiB")
EOF
rm -f "${large_dir}/oneshot.fpcz"
# Ranged read out of the middle (1 MiB of floats), checked byte-for-byte
# against the same slice of the input, with the ranged telemetry block
# validated by the schema checker.
"${out}/default/fpczip" cat --range=30000000:262144 --read=pread \
    "--stats-file=${large_dir}/ranged_stats.json" \
    "${large_dir}/input.fpcz" "${large_dir}/slice.bin"
dd if="${large_dir}/input.bin" of="${large_dir}/slice_want.bin" bs=4 \
    skip=30000000 count=262144 2>/dev/null
cmp "${large_dir}/slice.bin" "${large_dir}/slice_want.bin"
python3 "${root}/tools/check_stats_schema.py" \
    "${large_dir}/ranged_stats.json"
rm -rf "${large_dir}"

# mode=auto smoke: a mixed-content corpus (smooth ramp + random noise,
# so chunks genuinely pick different pipelines) compressed adaptively,
# inspected, cross-backend decoded, byte-compared, and its adaptive
# telemetry block schema-checked.
echo "==> [default] mode=auto smoke"
auto_dir="${out}/default/auto_smoke"
rm -rf "${auto_dir}"
mkdir -p "${auto_dir}"
python3 - "${auto_dir}/mixed.bin" <<'EOF'
import random, struct, sys
random.seed(7)
out = []
for region in range(12):
    if region % 2 == 0:
        out += [1.0 + i / 4096.0 for i in range(4096)]
    else:
        out += [random.uniform(1.0, 2.0) for _ in range(4096)]
with open(sys.argv[1], "wb") as f:
    f.write(struct.pack(f"<{len(out)}f", *out))
EOF
"${out}/default/fpczip" -c --mode=auto \
    "--stats-file=${auto_dir}/auto_stats.json" \
    "${auto_dir}/mixed.bin" "${auto_dir}/mixed.fpcz"
"${out}/default/fpczip" inspect "${auto_dir}/mixed.fpcz" \
    | grep -q '"mode": "auto"'
"${out}/default/fpczip" -d --backend=gpusim:4090 \
    "${auto_dir}/mixed.fpcz" "${auto_dir}/mixed.out"
cmp "${auto_dir}/mixed.bin" "${auto_dir}/mixed.out"
python3 "${root}/tools/check_stats_schema.py" "${auto_dir}/auto_stats.json"
rm -rf "${auto_dir}"

# Service daemon smoke: fpcd on a unix socket serving concurrent fpcc
# clients — all four fixed algorithms plus mode=auto on the gpusim
# backend, one tenant each. Every compressed container is byte-compared
# against the library path (fpczip with the same knobs), every
# roundtrip against the input. The daemon's stats (live via `fpcc
# stats` and the --stats-file written at shutdown) carry the v7
# per-run stage/chunk accounting and are schema-checked.
echo "==> [default] service daemon smoke"
svc_dir="${out}/default/service_smoke"
rm -rf "${svc_dir}"
mkdir -p "${svc_dir}"
python3 - "${svc_dir}/in.bin" <<'EOF'
import random, struct, sys
random.seed(11)
out = []
for region in range(8):
    if region % 2 == 0:
        out += [1.0 + i / 4096.0 for i in range(4096)]
    else:
        out += [random.uniform(1.0, 2.0) for _ in range(4096)]
with open(sys.argv[1], "wb") as f:
    f.write(struct.pack(f"<{len(out)}f", *out))
EOF
svc_sock="${svc_dir}/fpcd.sock"
"${out}/default/fpcd" --socket="${svc_sock}" --workers=4 \
    "--stats-file=${svc_dir}/fpcd_stats.json" &
fpcd_pid=$!
tries=0
while [ ! -S "${svc_sock}" ]; do
    tries=$((tries + 1))
    if [ "${tries}" -gt 100 ]; then
        echo "service smoke: fpcd socket never appeared"
        exit 1
    fi
    sleep 0.1
done
svc_pids=""
for algo in SPspeed SPratio DPspeed DPratio; do
    (
        set -eu
        "${out}/default/fpcc" "--socket=${svc_sock}" \
            "--tenant=${algo}" compress -a "${algo}" \
            "${svc_dir}/in.bin" "${svc_dir}/${algo}.fpcz"
        "${out}/default/fpczip" -c -a "${algo}" \
            "${svc_dir}/in.bin" "${svc_dir}/${algo}.want"
        cmp "${svc_dir}/${algo}.fpcz" "${svc_dir}/${algo}.want"
        "${out}/default/fpcc" "--socket=${svc_sock}" \
            "--tenant=${algo}" decompress \
            "${svc_dir}/${algo}.fpcz" "${svc_dir}/${algo}.out"
        cmp "${svc_dir}/in.bin" "${svc_dir}/${algo}.out"
    ) &
    svc_pids="${svc_pids} $!"
done
(
    set -eu
    "${out}/default/fpcc" "--socket=${svc_sock}" --tenant=auto \
        --backend=gpusim:4090 compress --mode=auto \
        "${svc_dir}/in.bin" "${svc_dir}/auto.fpcz"
    "${out}/default/fpczip" -c --mode=auto --backend=gpusim:4090 \
        "${svc_dir}/in.bin" "${svc_dir}/auto.want"
    cmp "${svc_dir}/auto.fpcz" "${svc_dir}/auto.want"
    "${out}/default/fpcc" "--socket=${svc_sock}" --tenant=auto \
        decompress "${svc_dir}/auto.fpcz" "${svc_dir}/auto.out"
    cmp "${svc_dir}/in.bin" "${svc_dir}/auto.out"
) &
svc_pids="${svc_pids} $!"
for pid in ${svc_pids}; do
    wait "${pid}"
done
"${out}/default/fpcc" "--socket=${svc_sock}" stats \
    > "${svc_dir}/live_stats.json"
python3 "${root}/tools/check_stats_schema.py" "${svc_dir}/live_stats.json"
"${out}/default/fpcc" "--socket=${svc_sock}" shutdown
wait "${fpcd_pid}"
python3 "${root}/tools/check_stats_schema.py" "${svc_dir}/fpcd_stats.json"
rm -rf "${svc_dir}"

# Live-metrics + drain-reconcile smoke: fpcd with a --metrics-socket
# exporter, driven by one fpcc loop per tenant, all in parallel: each
# sends REQUESTS compresses and then REQUESTS decompresses of its own
# 256 KiB smooth field, one daemon connection per request. Mid-run the
# HTTP /metrics endpoint is scraped with a 50 ms latency budget and
# schema-checked, while a client that sent half a frame length holds a
# protocol connection open (the daemon's one event loop must answer the
# scrape anyway, then cut the stalled client after its 2 s stall
# timeout); after the load settles a final scrape is taken and the
# daemon is drained with SIGTERM. The registry is checked against an
# outside truth, the requests the clients completed (every fpcc call
# must exit 0, and each tenant's last decompress must restore its input
# byte for byte): the sum of the ok fpc_service_requests_total samples
# must equal TENANTS x 2 x REQUESTS both in the final scrape and in the
# exposition fpcd writes to stderr at drain. The v7 telemetry the
# daemon wrote to --stats-file is schema-checked.
echo "==> [default] live metrics + drain reconcile"
met_dir="${out}/default/metrics_smoke"
rm -rf "${met_dir}"
mkdir -p "${met_dir}"
met_sock="${met_dir}/fpcd.sock"
met_http="${met_dir}/metrics.sock"
"${out}/default/fpcd" --socket="${met_sock}" --workers=4 --queue=64 \
    --metrics-socket="${met_http}" --drain-ms=10000 \
    "--stats-file=${met_dir}/fpcd_stats.json" \
    2> "${met_dir}/fpcd_stderr.log" &
met_pid=$!
tries=0
while [ ! -S "${met_sock}" ] || [ ! -S "${met_http}" ]; do
    tries=$((tries + 1))
    if [ "${tries}" -gt 100 ]; then
        echo "metrics smoke: fpcd sockets never appeared"
        exit 1
    fi
    sleep 0.1
done
met_tenants=4
met_requests=32
python3 - "${met_dir}" "${met_tenants}" <<'EOF'
import random, struct, sys
work, tenants = sys.argv[1], int(sys.argv[2])
for t in range(tenants):
    rng = random.Random(t + 1)
    x, out = 100.0, []
    for _ in range(65536):
        x += rng.uniform(-0.25, 0.25)
        out.append(x)
    with open(f"{work}/t{t}.bin", "wb") as f:
        f.write(struct.pack(f"<{len(out)}f", *out))
EOF
load_pids=""
t=0
while [ "${t}" -lt "${met_tenants}" ]; do
    (
        set -eu
        i=0
        while [ "${i}" -lt "${met_requests}" ]; do
            "${out}/default/fpcc" "--socket=${met_sock}" "--tenant=t${t}" \
                compress -a SPspeed "${met_dir}/t${t}.bin" \
                "${met_dir}/t${t}.fpcz"
            i=$((i + 1))
        done
        i=0
        while [ "${i}" -lt "${met_requests}" ]; do
            "${out}/default/fpcc" "--socket=${met_sock}" "--tenant=t${t}" \
                decompress "${met_dir}/t${t}.fpcz" "${met_dir}/t${t}.out"
            i=$((i + 1))
        done
        cmp "${met_dir}/t${t}.bin" "${met_dir}/t${t}.out"
    ) &
    load_pids="${load_pids} $!"
    t=$((t + 1))
done
python3 - "${met_sock}" <<'EOF' &
import socket, sys, time
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.connect(sys.argv[1])
s.sendall(b"\x10\x00")  # two of the four length bytes, then silence
s.settimeout(10)
t0 = time.monotonic()
if s.recv(1) != b"":
    sys.exit("metrics smoke: the half-frame client got bytes, not a cut")
print(f"metrics smoke: half-frame client cut after "
      f"{time.monotonic() - t0:.1f} s")
EOF
stall_pid=$!
sleep 0.3
# Timed mid-run scrape over the unix-socket HTTP endpoint (python
# stdlib only): the exporter must answer inside the 50 ms budget even
# while every worker is busy, and the body must validate.
python3 - "${met_http}" "${met_dir}/scrape_midrun.txt" 50 <<'EOF'
import socket, sys, time
path, out, budget_ms = sys.argv[1], sys.argv[2], float(sys.argv[3])
t0 = time.monotonic()
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.connect(path)
s.sendall(b"GET /metrics HTTP/1.1\r\nHost: fpcd\r\n"
          b"Connection: close\r\n\r\n")
data = b""
while True:
    chunk = s.recv(65536)
    if not chunk:
        break
    data += chunk
elapsed_ms = (time.monotonic() - t0) * 1e3
s.close()
head, _, body = data.partition(b"\r\n\r\n")
if not head.startswith(b"HTTP/1.1 200"):
    sys.exit(f"metrics smoke: scrape returned {head.splitlines()[0]!r}")
with open(out, "wb") as f:
    f.write(body)
print(f"metrics smoke: /metrics answered in {elapsed_ms:.1f} ms")
if elapsed_ms > budget_ms:
    sys.exit(f"metrics smoke: scrape took {elapsed_ms:.1f} ms "
             f"(budget {budget_ms:.0f} ms)")
EOF
python3 "${root}/tools/check_stats_schema.py" \
    "${met_dir}/scrape_midrun.txt"
wait "${stall_pid}"
for pid in ${load_pids}; do
    wait "${pid}"
done
# Admin surface through the framed protocol: the exposition and the
# health document are also served over the daemon socket itself.
"${out}/default/fpcc" "--socket=${met_sock}" metrics \
    > "${met_dir}/fpcc_metrics.txt"
python3 "${root}/tools/check_stats_schema.py" \
    "${met_dir}/fpcc_metrics.txt"
"${out}/default/fpcc" "--socket=${met_sock}" health \
    | grep -q '"status": "ok"'
"${out}/default/fpcc" "--socket=${met_sock}" server_stats \
    > "${met_dir}/server_stats.json"
grep -q '"protocol_errors": 0,' "${met_dir}/server_stats.json"
grep -q '"stalled": 1,' "${met_dir}/server_stats.json"
# Final scrape with the daemon idle, then a SIGTERM drain; both the
# last scrape and the drain-time exposition must count exactly the
# requests the fpcc clients completed.
python3 - "${met_http}" "${met_dir}/scrape_final.txt" 5000 <<'EOF'
import socket, sys, time
path, out, budget_ms = sys.argv[1], sys.argv[2], float(sys.argv[3])
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.connect(path)
s.sendall(b"GET /metrics HTTP/1.1\r\nHost: fpcd\r\n"
          b"Connection: close\r\n\r\n")
data = b""
while True:
    chunk = s.recv(65536)
    if not chunk:
        break
    data += chunk
s.close()
head, _, body = data.partition(b"\r\n\r\n")
if not head.startswith(b"HTTP/1.1 200"):
    sys.exit("metrics smoke: final scrape failed")
with open(out, "wb") as f:
    f.write(body)
EOF
kill -TERM "${met_pid}"
wait "${met_pid}"
python3 "${root}/tools/check_stats_schema.py" "${met_dir}/fpcd_stats.json"
grep -q '"event": "drain_begin"' "${met_dir}/fpcd_stderr.log"
python3 - "$((met_tenants * 2 * met_requests))" \
    "${met_dir}/scrape_final.txt" "${met_dir}/fpcd_stderr.log" <<'EOF'
import re, sys
completed = int(sys.argv[1])
ok = re.compile(r'^fpc_service_requests_total\{[^}]*status="ok"[^}]*\} (\d+)$')
for path in sys.argv[2:]:
    with open(path, errors="replace") as f:
        total = sum(int(m.group(1)) for m in map(ok.match, f) if m)
    print(f"metrics smoke: {path}: {total} ok requests "
          f"(the clients completed {completed})")
    if total != completed:
        sys.exit("metrics smoke: the registry does not count the requests "
                 "the clients completed")
EOF
rm -rf "${met_dir}"

# Forced-scalar dispatch over the default build: same binaries, kernel
# tables pinned to the portable reference. The ratio floors and the
# probe budget run against the scalar kernels.
echo "==> [forced-scalar] test (default build, FPC_FORCE_SCALAR=1)"
FPC_FORCE_SCALAR=1 ctest --test-dir "${out}/default" \
    --output-on-failure -j "${jobs}"

run_config simd-off -DFPC_WERROR=ON -DFPC_SIMD=OFF
ctest --test-dir "${out}/simd-off" --output-on-failure -j "${jobs}"

run_config telemetry-off -DFPC_WERROR=ON -DFPC_TELEMETRY=OFF
ctest --test-dir "${out}/telemetry-off" --output-on-failure -j "${jobs}"

run_config sanitize -DFPC_SANITIZE=ON -DFPC_BUILD_BENCH=OFF \
    -DFPC_BUILD_EXAMPLES=OFF
ctest --test-dir "${out}/sanitize" -L sanitize --output-on-failure \
    -j "${jobs}"

run_config tsan -DFPC_TSAN=ON -DFPC_BUILD_BENCH=OFF \
    -DFPC_BUILD_EXAMPLES=OFF
ctest --test-dir "${out}/tsan" -L thread --output-on-failure -j "${jobs}"

echo "==> matrix OK (default, forced-scalar, simd-off, telemetry-off," \
    "sanitize, tsan)"
