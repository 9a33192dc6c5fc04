# Runs one run_scenario command line that must be rejected: exit code 2 and
# an "error: ..." line on stderr matching EXPECT, never an abort.
#
#   cmake -DEXE=<run_scenario> "-DARGS=<args>" "-DEXPECT=<regex>" \
#         -P cli_error_test.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
  RESULT_VARIABLE code OUTPUT_QUIET ERROR_VARIABLE stderr)
if(NOT code EQUAL 2)
  message(FATAL_ERROR "expected exit code 2, got '${code}'; stderr:\n${stderr}")
endif()
if(NOT stderr MATCHES "error: [^\n]*${EXPECT}")
  message(FATAL_ERROR "stderr lacks 'error: ...${EXPECT}':\n${stderr}")
endif()
