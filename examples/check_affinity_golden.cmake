# ctest driver that pins affinity clustering on the dense-triangle side of
# the accumulator (512 blocks, at most kAffinityDenseMaxBlocks) end to end.
#
# `partition --cluster affinity` over a 512-block hotspot spec runs at
# --jobs 1 and --jobs 4, and the "results" section of each memopt.report.v1
# document must equal the checked-in golden exactly (every double compared
# at full precision). MEMOPT_JSON_METRICS=0 leaves the wall-clock metrics
# out of the documents.
#
# Invoked as:
#   cmake -DCLI=<memopt_cli> -DPYTHON=<python3> -DWORK_DIR=<scratch>
#         -DGOLDEN=<results json> -P check_affinity_golden.cmake
foreach(var CLI PYTHON WORK_DIR GOLDEN)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_affinity_golden.cmake: missing -D${var}=...")
  endif()
endforeach()

file(MAKE_DIRECTORY ${WORK_DIR})
set(ENV{MEMOPT_JSON_METRICS} 0)

set(SPEC "synthetic:hotspot,span=131072,n=300000,seed=5")
foreach(jobs 1 4)
  execute_process(COMMAND ${CLI} partition ${SPEC} --cluster affinity --jobs ${jobs}
                          --json ${WORK_DIR}/affinity_j${jobs}.json
                  RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "check_affinity_golden.cmake: partition --jobs ${jobs} failed (${rc})")
  endif()
endforeach()

file(WRITE ${WORK_DIR}/compare_golden.py [=[
import json
import sys

with open(sys.argv[1]) as f:
    golden = json.load(f)
for path in sys.argv[2:]:
    with open(path) as f:
        results = json.load(f)["results"]
    if results != golden:
        print(json.dumps(results, indent=2, sort_keys=True))
        sys.exit(f"{path}: results differ from the golden {sys.argv[1]}")
]=])
execute_process(COMMAND ${PYTHON} ${WORK_DIR}/compare_golden.py ${GOLDEN}
                        ${WORK_DIR}/affinity_j1.json ${WORK_DIR}/affinity_j4.json
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "check_affinity_golden.cmake: golden mismatch")
endif()
