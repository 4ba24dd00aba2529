# Runs a command and fails unless it exits with the expected status.
# CTest's PASS_REGULAR_EXPRESSION ignores exit codes and WILL_FAIL only
# distinguishes zero from nonzero, so the pinned-exit-code tests (usage
# errors must be 2, runtime failures 1 -- see rdp_cli.cpp) go through
# this script instead.
#
# Usage: cmake -DCLI=<path> -DEXPECTED=<code> -DARGS="<flag;flag;...>"
#        [-DVMEM_KB=<kb>] -P check_exit_code.cmake
#
# VMEM_KB runs the command under `ulimit -v`, so an input that would ask
# for an absurd allocation fails fast instead of exhausting the host.
if(NOT DEFINED CLI OR NOT DEFINED EXPECTED)
  message(FATAL_ERROR "check_exit_code.cmake: need -DCLI= and -DEXPECTED=")
endif()
separate_arguments(arg_list UNIX_COMMAND "${ARGS}")
set(launcher)
if(DEFINED VMEM_KB)
  set(launcher sh -c "ulimit -v ${VMEM_KB} && exec \"$0\" \"$@\"")
endif()
execute_process(
  COMMAND ${launcher} "${CLI}" ${arg_list}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL "${EXPECTED}")
  message(FATAL_ERROR
          "expected exit ${EXPECTED}, got '${rc}' from: ${CLI} ${ARGS}\n"
          "stdout: ${out}\nstderr: ${err}")
endif()
