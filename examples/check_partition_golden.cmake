# ctest script that pins `memopt_cli partition` results end to end against
# checked-in goldens.
#
# For each clustering method in CLUSTERS, `partition SPEC --cluster <method>
# --banks BANKS` runs at --jobs 1 and --jobs 4, and the "results" section of
# each memopt.report.v1 document must equal
# GOLDEN_DIR/partition_<method>_<TAG>.json exactly (every double compared at
# full precision). MEMOPT_JSON_METRICS=0 leaves the wall-clock metrics out
# of the documents.
#
# Invoked as:
#   cmake -DCLI=<memopt_cli> -DPYTHON=<python3> -DWORK_DIR=<scratch>
#         -DSPEC=<source spec> -DCLUSTERS=<method>[,<method>...] -DBANKS=<n>
#         -DGOLDEN_DIR=<dir> -DTAG=<golden name suffix>
#         -P check_partition_golden.cmake
foreach(var CLI PYTHON WORK_DIR SPEC CLUSTERS BANKS GOLDEN_DIR TAG)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_partition_golden.cmake: missing -D${var}=...")
  endif()
endforeach()

file(MAKE_DIRECTORY ${WORK_DIR})
set(ENV{MEMOPT_JSON_METRICS} 0)

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

string(REPLACE "," ";" CLUSTERS "${CLUSTERS}")
foreach(cluster ${CLUSTERS})
  set(reports)
  foreach(jobs 1 4)
    set(report ${WORK_DIR}/${cluster}_${TAG}_j${jobs}.json)
    execute_process(COMMAND ${CLI} partition ${SPEC} --cluster ${cluster} --banks ${BANKS}
                            --jobs ${jobs} --json ${report}
                    RESULT_VARIABLE rc OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR
        "check_partition_golden.cmake: partition --cluster ${cluster} --jobs ${jobs} failed (${rc})")
    endif()
    list(APPEND reports ${report})
  endforeach()
  execute_process(COMMAND ${PYTHON} ${WORK_DIR}/compare_golden.py
                          ${GOLDEN_DIR}/partition_${cluster}_${TAG}.json ${reports}
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "check_partition_golden.cmake: ${cluster} golden mismatch")
  endif()
endforeach()
