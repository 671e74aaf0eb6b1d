# Runs BENCH twice and fails unless both runs exit 0 and print the same
# output: a bench that reports modeled (deterministic) cycles must not
# depend on where the OS places its stack or heap.
#   cmake -DBENCH=<bench binary> -P compare_runs.cmake
execute_process(COMMAND ${BENCH} OUTPUT_VARIABLE first RESULT_VARIABLE rc1)
execute_process(COMMAND ${BENCH} OUTPUT_VARIABLE second RESULT_VARIABLE rc2)
if(NOT rc1 EQUAL 0 OR NOT rc2 EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited ${rc1} and ${rc2}")
endif()
if(NOT first STREQUAL second)
  message(FATAL_ERROR "two runs of ${BENCH} printed different output:\n"
                      "--- first\n${first}\n--- second\n${second}")
endif()
