# Run one example program and require exit code 0 and, byte for byte,
# the stdout recorded in its golden file. A mismatch keeps the actual
# output next to the build for diffing.
#
#   cmake -DEXE=<example binary> -DGOLDEN=<golden .txt> -P run_example.cmake
execute_process(COMMAND "${EXE}" OUTPUT_VARIABLE actual RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${EXE} exited with ${status}")
endif()
file(READ "${GOLDEN}" expected)
if(NOT "${actual}" STREQUAL "${expected}")
  get_filename_component(name "${GOLDEN}" NAME)
  file(WRITE "${CMAKE_CURRENT_BINARY_DIR}/${name}.actual" "${actual}")
  message(FATAL_ERROR "${EXE}: stdout differs from ${GOLDEN}; "
                      "actual output in ${CMAKE_CURRENT_BINARY_DIR}/${name}.actual")
endif()
