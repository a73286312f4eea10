# CLI contract of rthv_hunt, run by ctest (rthv_hunt_cli, label hunt):
#  - `--baseline --weaken 4 --seed 7` prints the same report and writes the
#    same reproducer plan at --jobs 1 and at --jobs 4;
#  - malformed --jobs/--generations/--population values and out-of-range
#    --horizon-ms/--fork-ms/--fork-slot/--event-budget values print the
#    usage text and exit 2.
#
# usage: cmake -DRTHV_HUNT=<rthv_hunt> -DWORK_DIR=<scratch dir> -P rthv_hunt_cli.cmake
foreach(var RTHV_HUNT WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "rthv_hunt_cli.cmake: -D${var}=... is required")
  endif()
endforeach()
file(MAKE_DIRECTORY ${WORK_DIR})

# Both runs write the same --repro-out path (it is echoed on stdout), and
# each run's plan is then moved aside for the comparison.
function(run_hunt jobs)
  execute_process(
    COMMAND ${RTHV_HUNT} --baseline --weaken 4 --seed 7 --jobs ${jobs}
            --repro-out ${WORK_DIR}/repro.plan
    RESULT_VARIABLE status
    OUTPUT_FILE ${WORK_DIR}/jobs${jobs}.out ERROR_VARIABLE stderr)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "rthv_hunt --jobs ${jobs} exited ${status}: ${stderr}")
  endif()
  file(RENAME ${WORK_DIR}/repro.plan ${WORK_DIR}/jobs${jobs}.plan)
endfunction()

run_hunt(1)
run_hunt(4)
foreach(ext out plan)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${WORK_DIR}/jobs1.${ext}
            ${WORK_DIR}/jobs4.${ext}
    RESULT_VARIABLE differ)
  if(NOT differ EQUAL 0)
    message(FATAL_ERROR "rthv_hunt .${ext} differs between --jobs 1 and --jobs 4")
  endif()
endforeach()

foreach(bad "--jobs;0" "--jobs;-1" "--jobs;abc" "--generations;0"
            "--generations;-1" "--generations;abc" "--population;0"
            "--population;-1" "--population;abc" "--population;4294967296"
            "--horizon-ms;99999999999999" "--fork-ms;99999999999999"
            "--fork-slot;-1" "--event-budget;-1")
  execute_process(
    COMMAND ${RTHV_HUNT} --baseline ${bad}
    RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE stderr)
  if(NOT status EQUAL 2 OR NOT stderr MATCHES "usage: rthv_hunt")
    message(FATAL_ERROR "rthv_hunt ${bad}: expected usage + exit 2, got ${status}: ${stderr}")
  endif()
endforeach()
