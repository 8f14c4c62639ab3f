# Runs BENCH and fails unless its stdout equals the file GOLDEN byte for byte.
# On a mismatch the actual output is written to the working directory as
# <golden name>.actual and a unified diff is printed.
#
#   cmake -DBENCH=<binary> -DGOLDEN=<file> -P golden_diff.cmake
execute_process(COMMAND ${BENCH} OUTPUT_VARIABLE actual RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()
file(READ ${GOLDEN} golden)
if(NOT actual STREQUAL golden)
  get_filename_component(name ${GOLDEN} NAME)
  file(WRITE ${name}.actual "${actual}")
  execute_process(COMMAND diff -u ${GOLDEN} ${name}.actual)
  message(FATAL_ERROR "stdout of ${BENCH} differs from ${GOLDEN}")
endif()
