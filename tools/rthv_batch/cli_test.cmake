# CLI contract of rthv_batch, run by ctest (rthv_batch_cli, label batch):
#  - the merged metrics JSON of configs/batch_fig6b_1k.json is byte-identical
#    at --jobs 1 and at --jobs 4 --chunk 3;
#  - malformed --jobs/--chunk values print the usage text and exit 2;
#  - a campaign that completes no IRQ ("runs": 0, "irqs": 0,
#    "horizon_ms": 0) reports "no completions" and exits 1.
#
# usage: cmake -DRTHV_BATCH=<rthv_batch> -DSPEC=<campaign.json>
#              -DWORK_DIR=<scratch dir> -P cli_test.cmake
foreach(var RTHV_BATCH SPEC WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_test.cmake: -D${var}=... is required")
  endif()
endforeach()
file(MAKE_DIRECTORY ${WORK_DIR})

function(run_campaign out)
  execute_process(
    COMMAND ${RTHV_BATCH} ${SPEC} --out ${WORK_DIR}/${out} ${ARGN}
    RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE stderr)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "rthv_batch ${ARGN} exited ${status}: ${stderr}")
  endif()
endfunction()

run_campaign(jobs1.json --jobs 1)
run_campaign(jobs4.json --jobs 4 --chunk 3)
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${WORK_DIR}/jobs1.json ${WORK_DIR}/jobs4.json
  RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
  message(FATAL_ERROR "merged metrics differ between --jobs 1 and --jobs 4 --chunk 3")
endif()

foreach(bad "--chunk;-1" "--chunk;0" "--jobs;x" "--jobs;0"
            "--chunk;99999999999999999999")
  execute_process(
    COMMAND ${RTHV_BATCH} ${SPEC} ${bad}
    RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE stderr)
  if(NOT status EQUAL 2 OR NOT stderr MATCHES "usage: rthv_batch")
    message(FATAL_ERROR "rthv_batch ${bad}: expected usage + exit 2, got ${status}: ${stderr}")
  endif()
endforeach()

foreach(spec "{\"runs\": 0}" "{\"irqs\": 0, \"runs\": 2, \"horizon_ms\": 10}"
             "{\"horizon_ms\": 0, \"runs\": 2}")
  file(WRITE ${WORK_DIR}/no_completions.json "${spec}\n")
  execute_process(COMMAND ${RTHV_BATCH} ${WORK_DIR}/no_completions.json
                  RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE stderr)
  if(NOT status EQUAL 1 OR NOT stderr MATCHES "no completions")
    message(FATAL_ERROR "rthv_batch ${spec}: expected \"no completions\" + exit 1, got ${status}: ${stderr}")
  endif()
endforeach()
