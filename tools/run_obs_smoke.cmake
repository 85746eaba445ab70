# CI smoke for the observability layer (registered as ctest `obs_smoke_report`,
# tier1). Runs one real bench binary end-to-end with OFTEC_OBS=1 and validates
# the two artifacts it must produce:
#   - the structured metrics report, against tools/obs_report_schema.json;
#   - the Chrome trace_event file, structurally (Perfetto-loadable shape).
#
# Invoked as:
#   cmake -DBENCH_BIN=... -DCHECKER=... -DSCHEMA=... -DWORK_DIR=...
#         -P run_obs_smoke.cmake
foreach(var BENCH_BIN CHECKER SCHEMA WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "run_obs_smoke.cmake: -D${var}=... is required")
  endif()
endforeach()

file(MAKE_DIRECTORY "${WORK_DIR}")
set(REPORT "${WORK_DIR}/obs_report.json")
set(TRACE "${WORK_DIR}/obs_trace.json")
file(REMOVE "${REPORT}" "${TRACE}")

set(ENV{OFTEC_OBS} "1")
set(ENV{OFTEC_OBS_REPORT} "${REPORT}")
set(ENV{OFTEC_TRACE_FILE} "${TRACE}")
# Two workers so the pool's job/task counters see real cross-thread traffic.
set(ENV{OFTEC_THREADS} "2")

execute_process(
  COMMAND "${BENCH_BIN}" --smoke
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench --smoke failed with exit code ${rc}")
endif()

foreach(artifact "${REPORT}" "${TRACE}")
  if(NOT EXISTS "${artifact}")
    message(FATAL_ERROR "expected artifact was not written: ${artifact}")
  endif()
endforeach()

execute_process(
  COMMAND "${CHECKER}" "${SCHEMA}" "${REPORT}"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "metrics report failed schema validation: ${REPORT}")
endif()

execute_process(
  COMMAND "${CHECKER}" --trace "${TRACE}"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "Chrome trace failed structural validation: ${TRACE}")
endif()

message(STATUS "obs smoke OK: ${REPORT} and ${TRACE} validated")
