# ctest driver for tools/check_stats_schema.py, registered by
# tests/CMakeLists.txt as
#   cmake -DFPCZIP=... -DPYTHON=... -DCHECKER=... -DWORK_DIR=...
#         -DTELEMETRY=<ON|OFF> -P stats_schema.cmake
#
# Runs `fpczip --stats` for one speed and one ratio algorithm, captures
# the telemetry JSON lines from stderr, and validates them field-by-field
# with the Python schema checker; also runs a decompress with
# --stats-file and --trace so the fpc.telemetry.v7 decode digests and the
# fpc.trace.v1 timeline go through the same checker. In FPC_TELEMETRY=0
# builds the lines still appear but stay empty, so the checker runs with
# --allow-empty.

if(NOT FPCZIP OR NOT PYTHON OR NOT CHECKER OR NOT WORK_DIR)
    message(FATAL_ERROR
        "usage: cmake -DFPCZIP=... -DPYTHON=... -DCHECKER=... -DWORK_DIR=... -P stats_schema.cmake")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(input "${WORK_DIR}/input.bin")
set(pattern "stats-schema-0123456789abcdefghijklmnopqrstuvwxyz-")
set(data "")
foreach(i RANGE 0 2047)
    string(APPEND data "${pattern}")
endforeach()
file(WRITE "${input}" "${data}")

set(stats_log "${WORK_DIR}/stats.jsonl")
file(WRITE "${stats_log}" "")
foreach(algorithm SPspeed DPratio)
    execute_process(
        COMMAND "${FPCZIP}" -c -a ${algorithm} --stats
            "${input}" "${WORK_DIR}/${algorithm}.fpcz"
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "fpczip -c -a ${algorithm} --stats exited ${rc}:\n${out}\n${err}")
    endif()
    file(APPEND "${stats_log}" "${err}")
endforeach()

# Decompress with --stats-file and --trace: both artifacts are JSON the
# checker recognises (telemetry v7 with decode-side digests, trace v1).
set(stats_file "${WORK_DIR}/decode-stats.json")
set(trace_file "${WORK_DIR}/decode-trace.json")
execute_process(
    COMMAND "${FPCZIP}" -d "--stats-file=${stats_file}"
        "--trace=${trace_file}"
        "${WORK_DIR}/SPspeed.fpcz" "${WORK_DIR}/SPspeed.out"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "fpczip -d --stats-file --trace exited ${rc}:\n${out}\n${err}")
endif()
foreach(artifact "${stats_file}" "${trace_file}")
    if(NOT EXISTS "${artifact}")
        message(FATAL_ERROR "fpczip did not write ${artifact}")
    endif()
    file(READ "${artifact}" artifact_content)
    file(APPEND "${stats_log}" "${artifact_content}")
endforeach()

# Ranged read over a seekable v2 stream: the telemetry line must carry a
# populated "ranged" block (calls/chunks_decoded/chunks_skipped/...),
# which the checker validates field-by-field.
set(ranged_stats "${WORK_DIR}/ranged-stats.json")
execute_process(
    COMMAND "${FPCZIP}" -c -a SPspeed --frame-bytes=32k
        "${input}" "${WORK_DIR}/stream.fpcz"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "fpczip -c --frame-bytes exited ${rc}:\n${out}\n${err}")
endif()
execute_process(
    COMMAND "${FPCZIP}" cat --range=10000:2000
        "--stats-file=${ranged_stats}"
        "${WORK_DIR}/stream.fpcz" "${WORK_DIR}/stream.slice"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "fpczip cat --range --stats-file exited ${rc}:\n${out}\n${err}")
endif()
if(NOT EXISTS "${ranged_stats}")
    message(FATAL_ERROR "fpczip cat --range did not write ${ranged_stats}")
endif()
file(READ "${ranged_stats}" ranged_content)
file(APPEND "${stats_log}" "${ranged_content}")

set(flags "")
if(NOT TELEMETRY)
    set(flags "--allow-empty")
endif()
execute_process(
    COMMAND "${PYTHON}" "${CHECKER}" ${flags} "${stats_log}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "schema check failed (${rc}):\n${out}\n${err}")
endif()

message(STATUS "stats_schema test passed: ${out}")
