# Regression for the zero-batch percentile bug: `pbt-bench serve` with a
# time budget far below one batch must still exit 0, and the JSON must
# never present a 0.0 percentile as if it were a measured latency --
# a phase with no batches reports its percentiles as null. The old
# behavior emitted `"p50_batch_us": 0,` which downstream dashboards
# averaged in as a real (impossibly fast) datapoint.
#
# The report's write failure is pinned too: with BENCH_serve.json
# occupied by a directory, `serve --json` must exit nonzero and say
# `cannot write`.
#
# Invoked by ctest (label: integration) with -DPBT_BENCH, -DGOLDEN_DIR
# and -DWORK_DIR defined.

file(MAKE_DIRECTORY ${WORK_DIR})

execute_process(
  COMMAND ${PBT_BENCH} serve --model=${GOLDEN_DIR}/sort1.pbt
          --seconds=0.01 --batch=16
          --json --out-dir=${WORK_DIR}
  RESULT_VARIABLE SERVE_RESULT
  OUTPUT_VARIABLE SERVE_OUTPUT
  ERROR_VARIABLE SERVE_OUTPUT
  TIMEOUT 120)
if(NOT SERVE_RESULT EQUAL 0)
  message(FATAL_ERROR "pbt-bench serve failed (${SERVE_RESULT}):\n${SERVE_OUTPUT}")
endif()

if(NOT EXISTS ${WORK_DIR}/BENCH_serve.json)
  message(FATAL_ERROR "pbt-bench serve --json wrote no BENCH_serve.json")
endif()

file(READ ${WORK_DIR}/BENCH_serve.json SERVE_JSON)
string(FIND "${SERVE_JSON}" "\"p50_batch_us\"" P50_POS)
if(P50_POS EQUAL -1)
  message(FATAL_ERROR "BENCH_serve.json carries no p50_batch_us field:\n${SERVE_JSON}")
endif()

# A literal integer zero percentile is the bug; real measurements are
# positive and empty phases must be null.
foreach(bad "\"p50_batch_us\": 0," "\"p50_batch_us\": 0}"
        "\"p99_batch_us\": 0," "\"p99_batch_us\": 0}")
  string(FIND "${SERVE_JSON}" "${bad}" BAD_POS)
  if(NOT BAD_POS EQUAL -1)
    message(FATAL_ERROR
      "BENCH_serve.json reports a zero percentile as a measurement (${bad}):\n${SERVE_JSON}")
  endif()
endforeach()

# Serving is single-threaded: no pooled phase or thread-count field.
foreach(gone "_batched\"" "_threads\"" "\"threads\"")
  string(FIND "${SERVE_JSON}" "${gone}" GONE_POS)
  if(NOT GONE_POS EQUAL -1)
    message(FATAL_ERROR "BENCH_serve.json still reports ${gone}:\n${SERVE_JSON}")
  endif()
endforeach()

# Write failure: the report path is a directory, so opening it fails.
set(BLOCKED_DIR ${WORK_DIR}/blocked)
file(MAKE_DIRECTORY ${BLOCKED_DIR}/BENCH_serve.json)
execute_process(
  COMMAND ${PBT_BENCH} serve --model=${GOLDEN_DIR}/sort1.pbt
          --seconds=0.01 --batch=16
          --json --out-dir=${BLOCKED_DIR}
  RESULT_VARIABLE BLOCKED_RESULT
  OUTPUT_VARIABLE BLOCKED_STDOUT
  ERROR_VARIABLE BLOCKED_STDERR
  TIMEOUT 120)
if(BLOCKED_RESULT EQUAL 0)
  message(FATAL_ERROR
    "pbt-bench serve --json exited 0 with an unwritable report:\n${BLOCKED_STDERR}")
endif()
string(FIND "${BLOCKED_STDERR}" "cannot write" CANNOT_POS)
if(CANNOT_POS EQUAL -1)
  message(FATAL_ERROR
    "pbt-bench serve --json did not report the failed write:\n${BLOCKED_STDERR}")
endif()
