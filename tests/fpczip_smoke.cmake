# End-to-end smoke test of the fpczip CLI, run by ctest as
#   cmake -DFPCZIP=<path> -DWORK_DIR=<dir> -P fpczip_smoke.cmake
#
# Exercises the full user-visible loop: compress on the CPU backend,
# `inspect` the container (one JSON line), decompress on a gpusim backend
# (cross-device compatibility), and compare against the input bytes.
# Also pins the exit-code contract: 2 for usage errors, 3 for corrupt or
# truncated compressed input (distinct from 1 for I/O failures).

if(NOT FPCZIP OR NOT WORK_DIR)
    message(FATAL_ERROR "usage: cmake -DFPCZIP=... -DWORK_DIR=... -P fpczip_smoke.cmake")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(input "${WORK_DIR}/input.bin")
set(packed "${WORK_DIR}/input.fpcz")
set(restored "${WORK_DIR}/restored.bin")

# Deterministic ~192 KiB input (several 16 KiB chunks) of repeated ASCII:
# compressible, and exercises chunking, the raw/coded decision, and the
# container round trip. file(WRITE) of text is byte-exact for ASCII.
set(pattern "fpcz-smoke-0123456789abcdefghijklmnopqrstuvwxyz-")
set(data "")
foreach(i RANGE 0 4095)
    string(APPEND data "${pattern}")
endforeach()
file(WRITE "${input}" "${data}")

function(run_fpczip expect_rc)
    execute_process(COMMAND "${FPCZIP}" ${ARGN}
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(NOT rc EQUAL ${expect_rc})
        message(FATAL_ERROR "fpczip ${ARGN} exited ${rc} (expected ${expect_rc}):\n${out}\n${err}")
    endif()
    set(last_output "${out}" PARENT_SCOPE)
    set(last_error "${err}" PARENT_SCOPE)
endfunction()

# compress (CPU backend, explicitly)
run_fpczip(0 -c -a SPspeed --backend=cpu "${input}" "${packed}")

# inspect: exactly one JSON line naming the algorithm (by name and id) and
# carrying the per-chunk raw-fallback detail
run_fpczip(0 inspect "${packed}")
if(NOT last_output MATCHES "^\\{\"algorithm\": \"SPspeed\", \"algorithm_id\": 0, .*\"ratio\": [0-9.]+\\}\n$")
    message(FATAL_ERROR "unexpected inspect output: ${last_output}")
endif()
if(NOT last_output MATCHES "\"mode\": \"fixed\"")
    message(FATAL_ERROR "inspect output lacks mode: ${last_output}")
endif()
if(NOT last_output MATCHES "\"raw_chunk_indices\": \\[[0-9, ]*\\]")
    message(FATAL_ERROR "inspect output lacks raw_chunk_indices: ${last_output}")
endif()
if(NOT last_output MATCHES "\"compressed_size\": [0-9]+")
    message(FATAL_ERROR "inspect output lacks compressed_size: ${last_output}")
endif()

# mode=auto: compress with per-chunk adaptive selection, inspect the v5
# container (per-chunk algorithm table + histogram), decompress on the
# device backend, byte-compare. --mode=fixed must match the plain run.
set(packed_auto "${WORK_DIR}/input-auto.fpcz")
run_fpczip(0 -c --mode=auto --backend=cpu "${input}" "${packed_auto}")
if(NOT last_output MATCHES "^auto: ")
    message(FATAL_ERROR "mode=auto compress did not label itself auto: ${last_output}")
endif()
run_fpczip(0 inspect "${packed_auto}")
if(NOT last_output MATCHES "\"mode\": \"auto\"")
    message(FATAL_ERROR "inspect of a v5 container lacks mode=auto: ${last_output}")
endif()
if(NOT last_output MATCHES "\"chunk_algorithms\": \\[\"[A-Za-z0-9\", ]+\\]")
    message(FATAL_ERROR "inspect lacks the per-chunk algorithm table: ${last_output}")
endif()
if(NOT last_output MATCHES "\"algorithm_chunks\": \\{\"SPspeed\": [0-9]+, \"SPratio\": [0-9]+, \"DPspeed\": [0-9]+, \"DPratio\": [0-9]+\\}")
    message(FATAL_ERROR "inspect lacks the algorithm histogram: ${last_output}")
endif()
run_fpczip(0 -d --backend=gpusim:4090 "${packed_auto}" "${restored}.auto")
file(READ "${input}" auto_original)
file(READ "${restored}.auto" auto_roundtrip)
if(NOT auto_original STREQUAL auto_roundtrip)
    message(FATAL_ERROR "mode=auto round trip changed the bytes")
endif()
set(packed_fixed "${WORK_DIR}/input-fixed.fpcz")
run_fpczip(0 -c --mode=fixed -a SPspeed --backend=cpu "${input}" "${packed_fixed}")
file(READ "${packed}" default_hex HEX)
file(READ "${packed_fixed}" fixed_hex HEX)
if(NOT default_hex STREQUAL fixed_hex)
    message(FATAL_ERROR "--mode=fixed diverged from the default container bytes")
endif()
run_fpczip(2 -c --mode=bogus "${input}" "${packed}.bad")

# decompress on a device backend: streams are cross-compatible
run_fpczip(0 -d --backend=gpusim:4090 "${packed}" "${restored}")

file(READ "${input}" original)
file(READ "${restored}" roundtrip)
if(NOT original STREQUAL roundtrip)
    message(FATAL_ERROR "round trip through fpczip changed the bytes")
endif()

# --stats prints one fpc.telemetry.v7 JSON line on stderr; the container
# bytes must be identical to the un-instrumented run. In FPC_TELEMETRY=0
# builds (TELEMETRY passed by the registering CMakeLists) the line still
# appears but its context/counters stay empty, so only the schema tag and
# the byte identity are checked there.
set(packed_stats "${WORK_DIR}/input-stats.fpcz")
run_fpczip(0 -c -a SPspeed --stats "${input}" "${packed_stats}")
if(NOT last_error MATCHES "\\{\"schema\": \"fpc\\.telemetry\\.v7\"")
    message(FATAL_ERROR "--stats did not print a telemetry JSON line: ${last_error}")
endif()
if(TELEMETRY)
    if(NOT last_error MATCHES "\"executor\": \"cpu\", \"algorithm\": \"SPspeed\"")
        message(FATAL_ERROR "--stats line lacks run context: ${last_error}")
    endif()
    if(NOT last_error MATCHES "\"stages\": \\[\\{\"stage\": \"DIFFMS\"")
        message(FATAL_ERROR "--stats line lacks the stage array: ${last_error}")
    endif()
    if(NOT last_error MATCHES "\"histograms\": \\{\"chunk_encode\": \\{\"count\": [0-9]+")
        message(FATAL_ERROR "--stats line lacks the latency histograms: ${last_error}")
    endif()
endif()
file(READ "${packed}" plain_bytes HEX)
file(READ "${packed_stats}" stats_bytes HEX)
if(NOT plain_bytes STREQUAL stats_bytes)
    message(FATAL_ERROR "--stats changed the compressed bytes")
endif()

# --stats-file writes the same JSON line to a file instead of stderr, and
# --trace writes a Chrome trace-event timeline; neither may perturb the
# compressed bytes. Both files must parse as the expected schema even in
# FPC_TELEMETRY=0 builds (empty counters / empty traceEvents).
set(packed_traced "${WORK_DIR}/input-traced.fpcz")
set(stats_json "${WORK_DIR}/stats.json")
set(trace_json "${WORK_DIR}/trace.json")
run_fpczip(0 -c -a SPspeed "--stats-file=${stats_json}"
    "--trace=${trace_json}" "${input}" "${packed_traced}")
if(last_error MATCHES "fpc\\.telemetry")
    message(FATAL_ERROR "--stats-file still printed telemetry to stderr: ${last_error}")
endif()
if(NOT EXISTS "${stats_json}")
    message(FATAL_ERROR "--stats-file did not create ${stats_json}")
endif()
file(READ "${stats_json}" stats_file_line)
if(NOT stats_file_line MATCHES "^\\{\"schema\": \"fpc\\.telemetry\\.v7\"")
    message(FATAL_ERROR "--stats-file wrote unexpected content: ${stats_file_line}")
endif()
if(NOT EXISTS "${trace_json}")
    message(FATAL_ERROR "--trace did not create ${trace_json}")
endif()
file(READ "${trace_json}" trace_line)
if(NOT trace_line MATCHES "^\\{\"schema\": \"fpc\\.trace\\.v1\"")
    message(FATAL_ERROR "--trace wrote unexpected content: ${trace_line}")
endif()
if(NOT trace_line MATCHES "\"traceEvents\": \\[")
    message(FATAL_ERROR "--trace output lacks traceEvents: ${trace_line}")
endif()
if(TELEMETRY)
    if(NOT trace_line MATCHES "\"name\": \"compress SPspeed@cpu\"")
        message(FATAL_ERROR "--trace output lacks the run span: ${trace_line}")
    endif()
    if(NOT trace_line MATCHES "\"name\": \"chunk encode\"")
        message(FATAL_ERROR "--trace output lacks chunk spans: ${trace_line}")
    endif()
endif()
file(READ "${packed_traced}" traced_bytes HEX)
if(NOT plain_bytes STREQUAL traced_bytes)
    message(FATAL_ERROR "--trace/--stats-file changed the compressed bytes")
endif()

# unknown backend must fail with the usage exit code, not crash
run_fpczip(2 -c --backend=tpu "${input}" "${packed}.bad")

# --frame-bytes size parsing: a value whose k/m/g scaling overflows 64
# bits, a negative count, garbage, and zero must all exit 2 (usage), not
# wrap silently into a bogus frame size
run_fpczip(2 -c --frame-bytes=18446744073709551615g "${input}" "${packed}.bad")
run_fpczip(2 -c --frame-bytes=-5 "${input}" "${packed}.bad")
run_fpczip(2 -c --frame-bytes=12q "${input}" "${packed}.bad")
run_fpczip(2 -c --frame-bytes=0 "${input}" "${packed}.bad")

# bytes that are not a container must be rejected with the dedicated
# corrupt-stream exit code (3), distinct from usage and I/O failures
set(nonsense "${WORK_DIR}/not-a-container.fpcz")
file(WRITE "${nonsense}"
    "this is not an fpcz container but is longer than a header")
run_fpczip(3 -d "${nonsense}" "${restored}.bad")

# a truncated container (last 64 bytes missing) must also exit 3
find_program(HEAD_TOOL head)
if(HEAD_TOOL)
    set(truncated "${WORK_DIR}/truncated.fpcz")
    file(SIZE "${packed}" packed_size)
    math(EXPR keep "${packed_size} - 64")
    execute_process(COMMAND "${HEAD_TOOL}" -c ${keep} "${packed}"
        OUTPUT_FILE "${truncated}"
        RESULT_VARIABLE head_rc)
    if(NOT head_rc EQUAL 0)
        message(FATAL_ERROR "head -c ${keep} failed: ${head_rc}")
    endif()
    run_fpczip(3 -d "${truncated}" "${restored}.bad")
endif()

message(STATUS "fpczip smoke test passed")
