# ctest check of the text trace writer's round trip.
#
# `trace fir FILE` saves the kernel's data trace in the text format; a
# partition study replayed from that file must report the same "results"
# as the study of the kernel itself, at --jobs 1 and --jobs 4. A dropped or
# mis-addressed access changes the block profile and so the report.
#
# Invoked as:
#   cmake -DCLI=<memopt_cli> -DPYTHON=<python3> -DWORK_DIR=<scratch>
#         -P check_trace_text_roundtrip.cmake
foreach(var CLI PYTHON WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_trace_text_roundtrip.cmake: missing -D${var}=...")
  endif()
endforeach()

file(MAKE_DIRECTORY ${WORK_DIR})
set(ENV{MEMOPT_JSON_METRICS} 0)

function(run_checked)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "check_trace_text_roundtrip.cmake: command failed (${rc}): ${ARGN}")
  endif()
endfunction()

file(REMOVE ${WORK_DIR}/fir_rt.txt)
run_checked(${CLI} trace fir ${WORK_DIR}/fir_rt.txt)

file(WRITE ${WORK_DIR}/compare_results.py [=[
import json
import sys

with open(sys.argv[1]) as f:
    replayed = json.load(f)
with open(sys.argv[2]) as f:
    kernel = json.load(f)
if "metrics" in replayed or "metrics" in kernel:
    sys.exit("MEMOPT_JSON_METRICS=0 must omit the metrics section")
if replayed["results"] != kernel["results"]:
    sys.exit(f"{sys.argv[1]}: results differ from the kernel's ({sys.argv[2]})")
]=])

foreach(jobs 1 4)
  run_checked(${CLI} partition ${WORK_DIR}/fir_rt.txt --jobs ${jobs}
              --json ${WORK_DIR}/file_j${jobs}.json)
  run_checked(${CLI} partition fir --jobs ${jobs} --json ${WORK_DIR}/kernel_j${jobs}.json)
  run_checked(${PYTHON} ${WORK_DIR}/compare_results.py
              ${WORK_DIR}/file_j${jobs}.json ${WORK_DIR}/kernel_j${jobs}.json)
endforeach()
