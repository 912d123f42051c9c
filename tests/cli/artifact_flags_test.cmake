# Runs every study-running command of the pinscope CLI with every artifact
# flag and checks that each requested file (and the .json twins of the two
# reports) exists and is non-empty.
#
#   cmake -DPINSCOPE=<path to pinscope> -DOUT_DIR=<scratch dir> \
#         -P tests/cli/artifact_flags_test.cmake
if(NOT PINSCOPE OR NOT OUT_DIR)
  message(FATAL_ERROR "usage: cmake -DPINSCOPE=... -DOUT_DIR=... -P ${CMAKE_CURRENT_LIST_FILE}")
endif()

set(runs study incremental tables autopsy)
set(args_study study)
set(args_incremental study --snapshot 2 --incremental on)
set(args_tables tables)
set(args_autopsy autopsy)

set(failures 0)
foreach(run IN LISTS runs)
  set(dir "${OUT_DIR}/${run}")
  file(REMOVE_RECURSE "${dir}")
  file(MAKE_DIRECTORY "${dir}")
  execute_process(
    COMMAND "${PINSCOPE}" ${args_${run}} --scale 0.02 --seed 7 --threads 2
            --summary=off
            --json "${dir}/out.jsonl"
            --csv "${dir}/out.csv"
            --metrics-out "${dir}/metrics.json"
            --trace-out "${dir}/trace.json"
            --log-out "${dir}/journal.jsonl"
            --report-out "${dir}/report.md"
            --perf-report-out "${dir}/perf.md"
            --folded-out "${dir}/stacks.folded"
    RESULT_VARIABLE status
    OUTPUT_QUIET ERROR_VARIABLE stderr)
  if(NOT status EQUAL 0)
    message(SEND_ERROR "${run}: exit status ${status}\n${stderr}")
    math(EXPR failures "${failures} + 1")
    continue()
  endif()
  foreach(name out.jsonl out.csv metrics.json trace.json journal.jsonl
               report.md report.json perf.md perf.json stacks.folded)
    set(path "${dir}/${name}")
    if(NOT EXISTS "${path}")
      message(SEND_ERROR "${run}: ${name} was not written")
      math(EXPR failures "${failures} + 1")
    else()
      file(SIZE "${path}" size)
      if(size EQUAL 0)
        message(SEND_ERROR "${run}: ${name} is empty")
        math(EXPR failures "${failures} + 1")
      endif()
    endif()
  endforeach()
endforeach()

if(failures GREATER 0)
  message(FATAL_ERROR "${failures} artifact check(s) failed")
endif()
