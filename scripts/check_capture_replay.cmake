# Capture/replay byte-identity gate for the streaming trace frontend,
# run as a ctest: for every scheme, a captured synthetic run must
# replay to the byte-identical -stats-json= document — from the
# original text capture, from an esd_tracecvt binary re-encoding, and
# from a gzip re-encoding, each spelled both -trace-in= and its alias
# -InputFile=, plus the text capture under a misleading .bin name (the
# format is sniffed from content). The committed legacy v1 binary
# fixture must also replay identically under both spellings. Invoked as
#
#   cmake -DESD_SIM=<path> -DESD_TRACECVT=<path> -DWORK_DIR=<dir> \
#         -DESD_TRACES=<tests/traces dir> -P check_capture_replay.cmake
#
# Any byte of divergence (or any non-zero run) is a FATAL_ERROR.

if(NOT DEFINED ESD_SIM OR NOT DEFINED ESD_TRACECVT
   OR NOT DEFINED WORK_DIR OR NOT DEFINED ESD_TRACES)
    message(FATAL_ERROR
            "need -DESD_SIM=, -DESD_TRACECVT=, -DWORK_DIR=, -DESD_TRACES=")
endif()

# Replay @trace with @flag (-trace-in or -InputFile) and require the
# stats JSON to equal @ref byte for byte.
function(expect_replay scheme flag trace ref)
    set(got "${WORK_DIR}/capture_s${scheme}_replay.json")
    execute_process(
        COMMAND "${ESD_SIM}" -scheme=${scheme} ${flag}=${trace}
                ${ARGN} -stats-json=${got}
        RESULT_VARIABLE rc OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
                "scheme ${scheme}: replay of ${trace} via ${flag} failed "
                "(rc=${rc})")
    endif()
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                            "${ref}" "${got}"
                    RESULT_VARIABLE same)
    if(NOT same EQUAL 0)
        message(FATAL_ERROR
                "scheme ${scheme}: replay of ${trace} via ${flag} "
                "diverges from ${ref}")
    endif()
endfunction()

set(records 6000)
set(warmup 1000)

foreach(scheme RANGE 0 5)
    set(cap "${WORK_DIR}/capture_s${scheme}.trace")
    set(ref "${WORK_DIR}/capture_s${scheme}_ref.json")

    execute_process(
        COMMAND "${ESD_SIM}" -scheme=${scheme} -app=mcf
                -records=${records} -warmup=${warmup}
                -capture-out=${cap} -stats-json=${ref}
        RESULT_VARIABLE rc OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
                "scheme ${scheme}: capture run failed (rc=${rc})")
    endif()

    # Re-encode the capture through the converter: text is the capture
    # default, binary and gzip exercise the other decoders.
    set(bin "${WORK_DIR}/capture_s${scheme}.bin")
    set(gz "${WORK_DIR}/capture_s${scheme}.gz")
    execute_process(
        COMMAND "${ESD_TRACECVT}" -in=${cap} -out=${bin} -format=binary
        RESULT_VARIABLE rc OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
                "scheme ${scheme}: binary conversion failed (rc=${rc})")
    endif()
    execute_process(
        COMMAND "${ESD_TRACECVT}" -in=${bin} -out=${gz} -format=gzip
        RESULT_VARIABLE rc OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
                "scheme ${scheme}: gzip conversion failed (rc=${rc})")
    endif()

    # The text capture again under a .bin name: content, not the
    # extension, picks the decoder.
    set(misnamed "${WORK_DIR}/capture_s${scheme}_text.bin")
    execute_process(COMMAND ${CMAKE_COMMAND} -E copy "${cap}" "${misnamed}")

    foreach(replay ${cap} ${bin} ${gz} ${misnamed})
        foreach(flag -trace-in -InputFile)
            expect_replay(${scheme} ${flag} ${replay} ${ref}
                          -warmup=${warmup})
        endforeach()
    endforeach()

    # Legacy v1 binary (no v1 writer remains, so the committed
    # fixture): the alias must replay it exactly as -trace-in does.
    set(v1ref "${WORK_DIR}/legacy_v1_s${scheme}_ref.json")
    execute_process(
        COMMAND "${ESD_SIM}" -scheme=${scheme}
                -trace-in=${ESD_TRACES}/legacy_v1.bin -stats-json=${v1ref}
        RESULT_VARIABLE rc OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
                "scheme ${scheme}: legacy v1 replay failed (rc=${rc})")
    endif()
    expect_replay(${scheme} -InputFile ${ESD_TRACES}/legacy_v1.bin
                  ${v1ref})
    message(STATUS
            "scheme ${scheme}: capture replays byte-identically "
            "(text, binary, gzip, misnamed text; -trace-in and "
            "-InputFile; legacy v1)")
endforeach()

message(STATUS "capture/replay gate: all schemes byte-identical")
