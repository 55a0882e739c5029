# esd_sweep's JSON document, run as a ctest. Invoked as
#
#   cmake -DESD_SWEEP=<path> -DWORK_DIR=<dir> -DCHECK=<check> \
#         -P check_sweep_json.cmake
#
# with CHECK one of
#   stdout_is_json          -out=- prints the sweep document alone on
#                           stdout (progress goes to stderr);
#   grid_replays_one_trace  every point of a scheme x channels grid on
#                           one app runs on the same seed and so sees
#                           the same instructions and logical writes.
# A failed check is a FATAL_ERROR.

if(NOT DEFINED ESD_SWEEP OR NOT DEFINED WORK_DIR OR NOT DEFINED CHECK)
    message(FATAL_ERROR "need -DESD_SWEEP=, -DWORK_DIR= and -DCHECK=")
endif()

set(out "${WORK_DIR}/sweep_${CHECK}.json")
if(CHECK STREQUAL "stdout_is_json")
    set(out "-")
endif()
execute_process(
    COMMAND "${ESD_SWEEP}" -sweep app=mcf,scheme=0,3,channels=1,4
            -records=3000 -warmup=300 -jobs=2 -out=${out}
    OUTPUT_VARIABLE doc ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "esd_sweep failed (rc=${rc}): ${err}")
endif()
if(NOT out STREQUAL "-")
    file(READ "${out}" doc)
endif()
string(JSON count ERROR_VARIABLE json_err GET "${doc}" job_count)
if(json_err)
    message(FATAL_ERROR "-out=${out} is not a JSON document: "
                        "${json_err}")
endif()
if(NOT count EQUAL 4)
    message(FATAL_ERROR "expected 4 jobs, the document has ${count}")
endif()

if(CHECK STREQUAL "grid_replays_one_trace")
    foreach(field seed report.result.instructions
                  report.result.logical_writes)
        string(REPLACE "." ";" path "${field}")
        set(first "")
        foreach(i RANGE 3)
            string(JSON v GET "${doc}" jobs ${i} ${path})
            if(i EQUAL 0)
                set(first "${v}")
            elseif(NOT v STREQUAL first)
                message(FATAL_ERROR
                        "jobs[${i}].${field} = ${v} but jobs[0] has "
                        "${first}: the grid points replay different "
                        "traces")
            endif()
        endforeach()
    endforeach()
elseif(NOT CHECK STREQUAL "stdout_is_json")
    message(FATAL_ERROR "unknown CHECK '${CHECK}'")
endif()
message(STATUS "esd_sweep ${CHECK}: ok")
