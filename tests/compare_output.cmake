# Runs COMMAND with the optional ARGS and compares its standard output byte
# for byte with the EXPECTED file; the output is kept in ACTUAL for
# inspection.
#
#   cmake -DCOMMAND=<exe> [-DARGS=<arg>] -DEXPECTED=<file> -DACTUAL=<file> \
#         -P compare_output.cmake
execute_process(COMMAND ${COMMAND} ${ARGS} OUTPUT_FILE ${ACTUAL}
                RESULT_VARIABLE exit_code)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR "${COMMAND} exited with ${exit_code}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${EXPECTED}
                        ${ACTUAL}
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  file(READ ${EXPECTED} expected)
  file(READ ${ACTUAL} actual)
  message(FATAL_ERROR "output differs from ${EXPECTED}\n"
                      "--- expected\n${expected}"
                      "--- actual (${ACTUAL})\n${actual}")
endif()
