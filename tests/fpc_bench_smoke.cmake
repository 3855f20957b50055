# ctest driver for fpc_bench's smoke test, registered by
# tests/CMakeLists.txt as
#   cmake -DREPO_DIR=... -DBUILD_DIR=... -DBUILD_TYPE=... -DGENERATOR=...
#         -DPYTHON=... -P fpc_bench_smoke.cmake
#
# Configures fpc_bench/CMakeLists.txt into BUILD_DIR and builds its
# fpc_bench target with that file's own recipe (it compiles the library
# from this checkout), so a library change that breaks the benchmark
# fails here rather than first in a benchmark run. Then runs
# fpc_bench/smoke_test.py with the arguments fpc_bench's own
# fpc_bench_smoke test passes: every workload once, traced, plus the
# seed contract.

foreach(var REPO_DIR BUILD_DIR BUILD_TYPE GENERATOR PYTHON)
    if(NOT DEFINED ${var} OR "${${var}}" STREQUAL "")
        message(FATAL_ERROR
            "usage: cmake -DREPO_DIR=... -DBUILD_DIR=... -DBUILD_TYPE=... -DGENERATOR=... -DPYTHON=... -P fpc_bench_smoke.cmake")
    endif()
endforeach()

if(NOT EXISTS "${BUILD_DIR}/CMakeCache.txt")
    execute_process(
        COMMAND "${CMAKE_COMMAND}" -S "${REPO_DIR}/fpc_bench"
            -B "${BUILD_DIR}" -G "${GENERATOR}"
            "-DCMAKE_BUILD_TYPE=${BUILD_TYPE}"
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "configuring fpc_bench failed (${rc}):\n${out}\n${err}")
    endif()
endif()

include(ProcessorCount)
ProcessorCount(jobs)
if(jobs EQUAL 0 OR jobs GREATER 4)
    set(jobs 4)
endif()
execute_process(
    COMMAND "${CMAKE_COMMAND}" --build "${BUILD_DIR}" --target fpc_bench
        -j ${jobs}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "building fpc_bench failed (${rc}):\n${out}\n${err}")
endif()

execute_process(
    COMMAND "${PYTHON}" "${REPO_DIR}/fpc_bench/smoke_test.py"
        --bench "${BUILD_DIR}/fpc_bench"
        --benchmark-json "${REPO_DIR}/BENCHMARK.json"
        --work-dir "${BUILD_DIR}/smoke"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "fpc_bench smoke test failed (${rc}):\n${out}\n${err}")
endif()
message(STATUS "${out}")
