# Byte-identity gate for the sharded write pipeline, run as a ctest:
# for every scheme, `esd_sim -workers=N` must write the identical
# -stats-json=, -trace-out=, -spans-out=, -metrics-out= and
# -latency-out= files as `esd_sim -workers=1`; one ESD run with an
# injected crash (-persist-crash-at=) must also write the identical
# -recovery-json=. Invoked as
#
#   cmake -DESD_SIM=<path> -DWORK_DIR=<dir> \
#         [-DTRACE=<trace file>] [-DCHANNELS=8] [-DWORKERS=8] \
#         -P check_pipeline_identity.cmake
#
# Without TRACE the input is 8000 synthetic gcc records; with it, the
# whole trace. Any byte of divergence (or any non-zero run) is a
# FATAL_ERROR.

if(NOT DEFINED ESD_SIM OR NOT DEFINED WORK_DIR)
    message(FATAL_ERROR "need -DESD_SIM= and -DWORK_DIR=")
endif()
if(NOT DEFINED CHANNELS)
    set(CHANNELS 8)
endif()
if(NOT DEFINED WORKERS)
    set(WORKERS 8)
endif()

if(DEFINED TRACE)
    get_filename_component(tag "${TRACE}" NAME_WE)
    set(input -trace-in=${TRACE} -warmup=500)
else()
    set(tag gcc)
    set(input -app=gcc -records=8000 -warmup=1000)
endif()

# One run at @p workers, writing every export of the caller's
# `exports` list under ${WORK_DIR}/identity_<case>_w<workers>.<export>.
function(run_case case workers)
    set(out "${WORK_DIR}/identity_${case}_w${workers}")
    set(extra "")
    list(FIND exports recovery.json crash)
    if(crash GREATER -1)
        set(extra -recovery-json=${out}.recovery.json)
    endif()
    execute_process(
        COMMAND "${ESD_SIM}" ${ARGN} ${extra} ${input} -channels=${CHANNELS}
                -workers=${workers} -stats-json=${out}.stats.json
                -trace-out=${out}.trace.jsonl -spans-out=${out}.spans.json
                -metrics-out=${out}.metrics.prom
                -latency-out=${out}.latency.txt
        RESULT_VARIABLE rc OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${case}: -workers=${workers} run failed "
                            "(rc=${rc})")
    endif()
endfunction()

# Run @p case at -workers=1 and -workers=${WORKERS} and compare each of
# @p exports between the two.
function(check_case case exports)
    run_case(${case} 1 ${ARGN})
    run_case(${case} ${WORKERS} ${ARGN})
    foreach(export ${exports})
        set(ref "${WORK_DIR}/identity_${case}_w1.${export}")
        set(got "${WORK_DIR}/identity_${case}_w${WORKERS}.${export}")
        execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                                "${ref}" "${got}"
                        RESULT_VARIABLE same)
        if(NOT same EQUAL 0)
            message(FATAL_ERROR
                    "${case}: -workers=${WORKERS} ${export} diverges from "
                    "-workers=1 (${ref} vs ${got})")
        endif()
    endforeach()
    message(STATUS
            "${case}: workers 1 vs ${WORKERS} byte-identical")
endfunction()

set(exports stats.json trace.jsonl spans.json metrics.prom latency.txt)
foreach(scheme RANGE 0 5)
    check_case(${tag}_s${scheme} "${exports}" -scheme=${scheme})
endforeach()
check_case(${tag}_crash "${exports};recovery.json" -scheme=3
           -persist-crash-at=3000)

message(STATUS "pipeline identity gate: all schemes byte-identical")
