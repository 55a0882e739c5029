# Two encodings of one trace must replay to the byte-identical
# -stats-json= document. Invoked as
#
#   cmake -DESD_SIM=<path> -DWORK_DIR=<dir> -DTRACE_A=<file> \
#         -DTRACE_B=<file> -P check_replay_equal.cmake
#
# A non-zero replay or any byte of divergence is a FATAL_ERROR.

if(NOT DEFINED ESD_SIM OR NOT DEFINED WORK_DIR
   OR NOT DEFINED TRACE_A OR NOT DEFINED TRACE_B)
    message(FATAL_ERROR
            "need -DESD_SIM=, -DWORK_DIR=, -DTRACE_A=, -DTRACE_B=")
endif()

set(reports "")
foreach(trace ${TRACE_A} ${TRACE_B})
    get_filename_component(name "${trace}" NAME)
    set(json "${WORK_DIR}/replay_equal_${name}.json")
    execute_process(
        COMMAND "${ESD_SIM}" -scheme=3 -trace-in=${trace} -warmup=10
                -stats-json=${json}
        RESULT_VARIABLE rc OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "replay of ${trace} failed (rc=${rc})")
    endif()
    list(APPEND reports "${json}")
endforeach()

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${reports}
                RESULT_VARIABLE same)
if(NOT same EQUAL 0)
    message(FATAL_ERROR "${TRACE_A} and ${TRACE_B} replay differently")
endif()
message(STATUS "${TRACE_A} and ${TRACE_B} replay byte-identically")
