# Worker-count invisibility of the figure driver, run as a ctest: at a
# reduced run size, `esd_figures -jobs=1` and `-jobs=4` must print the
# identical stdout (every table and band verdict) and write the
# identical ESD_BENCH_JSON sweep report. Invoked as
#
#   cmake -DESD_FIGURES=<path> -DWORK_DIR=<dir> \
#         -P check_figures_identity.cmake
#
# Any non-zero run or any byte of divergence is a FATAL_ERROR.

if(NOT DEFINED ESD_FIGURES OR NOT DEFINED WORK_DIR)
    message(FATAL_ERROR "need -DESD_FIGURES= and -DWORK_DIR=")
endif()

foreach(jobs 1 4)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E env
                ESD_BENCH_RECORDS=5000 ESD_BENCH_WARMUP=1000
                ESD_BENCH_JSON=${WORK_DIR}/figures_j${jobs}.json
                "${ESD_FIGURES}" -jobs=${jobs}
        OUTPUT_FILE "${WORK_DIR}/figures_j${jobs}.txt"
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "esd_figures -jobs=${jobs} failed (rc=${rc})")
    endif()
endforeach()

foreach(ext txt json)
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                            "${WORK_DIR}/figures_j1.${ext}"
                            "${WORK_DIR}/figures_j4.${ext}"
                    RESULT_VARIABLE same)
    if(NOT same EQUAL 0)
        message(FATAL_ERROR
                "esd_figures -jobs=4 ${ext} output diverges from -jobs=1 "
                "(${WORK_DIR}/figures_j1.${ext} vs figures_j4.${ext})")
    endif()
endforeach()
message(STATUS "esd_figures: -jobs=1 and -jobs=4 outputs identical")
