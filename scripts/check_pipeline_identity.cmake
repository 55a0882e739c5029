# Byte-identity gate for the sharded write pipeline, run as a ctest:
# for every scheme, `esd_sim -workers=N` must write the identical
# -stats-json= document as `esd_sim -workers=1`. Invoked as
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

foreach(scheme RANGE 0 5)
    set(ref "${WORK_DIR}/identity_${tag}_s${scheme}_w1.json")
    set(got "${WORK_DIR}/identity_${tag}_s${scheme}_w${WORKERS}.json")

    execute_process(
        COMMAND "${ESD_SIM}" -scheme=${scheme} ${input}
                -channels=${CHANNELS} -workers=1 -stats-json=${ref}
        RESULT_VARIABLE rc1 OUTPUT_QUIET)
    if(NOT rc1 EQUAL 0)
        message(FATAL_ERROR
                "scheme ${scheme}: -workers=1 run failed (rc=${rc1})")
    endif()

    execute_process(
        COMMAND "${ESD_SIM}" -scheme=${scheme} ${input}
                -channels=${CHANNELS} -workers=${WORKERS}
                -stats-json=${got}
        RESULT_VARIABLE rcn OUTPUT_QUIET)
    if(NOT rcn EQUAL 0)
        message(FATAL_ERROR
                "scheme ${scheme}: -workers=${WORKERS} run failed (rc=${rcn})")
    endif()

    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                            "${ref}" "${got}"
                    RESULT_VARIABLE same)
    if(NOT same EQUAL 0)
        message(FATAL_ERROR
                "scheme ${scheme}: -workers=${WORKERS} stats JSON diverges "
                "from -workers=1 (${ref} vs ${got})")
    endif()
    message(STATUS
            "scheme ${scheme}: workers 1 vs ${WORKERS} byte-identical")
endforeach()

message(STATUS "pipeline identity gate: all schemes byte-identical")
