# Smoke run of the host-perf driver, as a ctest: every row at a small
# size (its identity check included) must exit 0, and each <row>.json
# must parse and carry exactly the metric names that
# scripts/check_perf.py extracts from the row's committed baseline.
# Invoked as
#
#   cmake -DESD_HOSTBENCH=<path> -DPYTHON=<python3> -DSOURCE_DIR=<repo> \
#         -DWORK_DIR=<dir> -P check_hostbench_smoke.cmake

if(NOT DEFINED ESD_HOSTBENCH OR NOT DEFINED PYTHON OR
   NOT DEFINED SOURCE_DIR OR NOT DEFINED WORK_DIR)
    message(FATAL_ERROR
            "need -DESD_HOSTBENCH=, -DPYTHON=, -DSOURCE_DIR= and -DWORK_DIR=")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
execute_process(
    COMMAND ${CMAKE_COMMAND} -E env
            ESD_BENCH_RECORDS=2000 ESD_BENCH_WARMUP=400
            "${ESD_HOSTBENCH}" "-out=${WORK_DIR}"
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "esd_hostbench failed (rc=${rc})")
endif()

execute_process(
    COMMAND "${PYTHON}" -c "
import json, sys
sys.path.insert(0, sys.argv[1] + '/scripts')
from check_perf import extract_metrics
for row in ('hotpath', 'sweep_scaling', 'pipeline_scaling',
            'trace_ingest', 'ecc_codecs'):
    fresh = json.load(open(f'{sys.argv[2]}/{row}.json'))
    base = json.load(open(f'{sys.argv[1]}/bench/baselines/{row}.json'))
    want, got = set(extract_metrics(base)), set(extract_metrics(fresh))
    if want != got or not isinstance(fresh.get('host_threads'), int):
        sys.exit(f'{row}.json: metrics {sorted(got)}, want {sorted(want)}')
print('esd_hostbench: every row carries its baseline metrics')
" "${SOURCE_DIR}" "${WORK_DIR}"
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "esd_hostbench smoke: a row's JSON is off")
endif()
