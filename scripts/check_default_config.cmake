# configs/default.cfg must be exactly what `esd_sim -dump-config`
# prints for the built-in defaults, so the sample file lists every key
# with its current default. Invoked as
#
#   cmake -DESD_SIM=<path> -DWORK_DIR=<dir> -DDEFAULT_CFG=<file> \
#         -P check_default_config.cmake
#
# Regenerate a stale file with `esd_sim -dump-config > configs/default.cfg`.

if(NOT DEFINED ESD_SIM OR NOT DEFINED WORK_DIR OR NOT DEFINED DEFAULT_CFG)
    message(FATAL_ERROR "need -DESD_SIM=, -DWORK_DIR=, -DDEFAULT_CFG=")
endif()

set(dump "${WORK_DIR}/dump_config_defaults.cfg")
execute_process(COMMAND "${ESD_SIM}" -dump-config
                OUTPUT_FILE "${dump}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "esd_sim -dump-config failed (rc=${rc})")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        "${dump}" "${DEFAULT_CFG}"
                RESULT_VARIABLE same)
if(NOT same EQUAL 0)
    message(FATAL_ERROR "${DEFAULT_CFG} differs from esd_sim -dump-config; "
                        "regenerate it with "
                        "`esd_sim -dump-config > configs/default.cfg`")
endif()
message(STATUS "${DEFAULT_CFG} matches esd_sim -dump-config")
