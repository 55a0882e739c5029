# The CSV wall of esd_sweep, run as a ctest: each grid below writes
# the CSV committed under tests/golden/ (written by the esd_batch tool
# that esd_sweep -csv= replaced), byte for byte, at -jobs=1 and at
# -jobs=4. Invoked as
#
#   cmake -DESD_SWEEP=<path> -DWORK_DIR=<dir> -DSOURCE_DIR=<repo> \
#         -P check_sweep_csv.cmake
#
# The runs start in SOURCE_DIR, so the trace grid's app column carries
# the relative path tests/traces/tiny.trace. Any non-zero run or any
# byte of divergence is a FATAL_ERROR.

if(NOT DEFINED ESD_SWEEP OR NOT DEFINED WORK_DIR OR NOT DEFINED SOURCE_DIR)
    message(FATAL_ERROR "need -DESD_SWEEP=, -DWORK_DIR= and -DSOURCE_DIR=")
endif()

set(grid_apps -sweep app=mcf,lbm,scheme=0,3,5 -records=6000 -warmup=1000)
set(grid_trace -trace-in=tests/traces/tiny.trace -sweep scheme=0,3
    -records=8 -warmup=2)
set(grid_workers -sweep app=gcc,scheme=3 -workers=2 -channels=4
    -records=6000 -warmup=1000)

foreach(name apps trace workers)
    set(golden "${SOURCE_DIR}/tests/golden/sweep_csv_${name}.csv")
    foreach(jobs 1 4)
        set(csv "${WORK_DIR}/sweep_csv_${name}_j${jobs}.csv")
        execute_process(
            COMMAND "${ESD_SWEEP}" ${grid_${name}} -jobs=${jobs}
                    -csv=${csv}
            WORKING_DIRECTORY "${SOURCE_DIR}"
            OUTPUT_QUIET ERROR_VARIABLE err
            RESULT_VARIABLE rc)
        if(NOT rc EQUAL 0)
            message(FATAL_ERROR
                    "esd_sweep ${grid_${name}} -jobs=${jobs} failed "
                    "(rc=${rc}): ${err}")
        endif()
        execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                                "${golden}" "${csv}"
                        RESULT_VARIABLE same)
        if(NOT same EQUAL 0)
            message(FATAL_ERROR
                    "${csv} differs from ${golden}")
        endif()
    endforeach()
endforeach()
message(STATUS "esd_sweep -csv=: 3 grids match their goldens at -jobs=1,4")
