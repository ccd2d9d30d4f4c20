# Golden-output check: runs one tool with a fixed worker-thread count and
# requires its output to match a committed golden file byte for byte.
#
#   cmake -DTOOL=<exe> -DARGS=<;-list> -DTHREADS=<n> -DGOLDEN=<file>
#         -DOUT=<file> [-DOUTFILE_ARG=<flag>] [-DFILTER=<regex>]
#         -P compare.cmake
#
# With OUTFILE_ARG (e.g. "--json=") the tool writes its checked output to
# OUT through that flag and its stdout is ignored; otherwise stdout is the
# checked output.  FILTER drops every line of the checked output that
# begins with a match of the regex (e.g. "\\[wall\\]" for host-timing
# lines) before the comparison.  Regenerate goldens only with
# scripts/update-golden.sh.

foreach(var TOOL THREADS GOLDEN OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "compare.cmake: ${var} is not set")
  endif()
endforeach()

set(ENV{BGP_THREADS} "${THREADS}")
if(DEFINED OUTFILE_ARG)
  execute_process(COMMAND "${TOOL}" ${ARGS} "${OUTFILE_ARG}${OUT}"
                  OUTPUT_QUIET RESULT_VARIABLE rc)
else()
  execute_process(COMMAND "${TOOL}" ${ARGS} OUTPUT_FILE "${OUT}"
                  RESULT_VARIABLE rc)
endif()
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${TOOL} exited with ${rc}")
endif()

if(DEFINED FILTER)
  # CMake regexes have no multi-line mode: anchor each line start on the
  # newline before it (a leading one is prepended for the first line).
  # Like `grep -v`, this terminates an unterminated last line.
  file(READ "${OUT}" content)
  if(NOT content MATCHES "(^|\n)$")
    string(APPEND content "\n")
  endif()
  string(REGEX REPLACE "\n(${FILTER})[^\n]*" "" content "\n${content}")
  string(SUBSTRING "${content}" 1 -1 content)
  file(WRITE "${OUT}" "${content}")
endif()

execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${GOLDEN}" "${OUT}"
                RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
  message(FATAL_ERROR "output ${OUT} differs from golden ${GOLDEN} "
                      "(BGP_THREADS=${THREADS}); "
                      "diff them, and regenerate with scripts/update-golden.sh "
                      "only if the change in numbers is intended")
endif()
