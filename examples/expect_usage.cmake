# ctest helper: run CMD with the space-separated ARGS and pass only when it
# exits 2 and prints its usage text.
#
#   cmake -DCMD=<binary> "-DARGS=--threads abc" -P expect_usage.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${CMD}" ${args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT out MATCHES "usage:")
  message(FATAL_ERROR "expected exit 2 with the usage text, got exit ${rc}:\n${out}${err}")
endif()
