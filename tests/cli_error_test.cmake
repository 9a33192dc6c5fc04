# Runs one run_scenario command line that must be rejected: exit code 2 and
# an "error: ..." line on stderr matching EXPECT, never an abort. The message
# is for users: it must not carry a source location of the build (such as
# ".../src/util/cli.cc:45:"); the pattern names a source file with a line so
# that a checkout path containing "/src/" in a --restore argument still passes.
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
if(stderr MATCHES "/src/[^ \n]*\\.(cc|h):[0-9]+")
  message(FATAL_ERROR "stderr names a source path:\n${stderr}")
endif()
