/**
 * @file
 * Sharded-pipeline scaling: wall-clock of one simulation split across
 * -workers in {1, 2, 4, 8} on the 8-channel evaluation config, for
 * all 6 schemes, with a cross-level byte-identity check of every
 * report — the "one huge trace finally uses the whole host" claim,
 * measured, without ever trading determinism for it.
 *
 * Usage: bench_pipeline_scaling [-jobs=N]  (N replaces the level list
 *        with {1, N})
 * ESD_BENCH_JSON emits the {workers, wall_s, speedup, writes_per_s}
 * grid plus the host's hardware thread count (check_perf.py gates only
 * the rows both hosts can run in parallel).
 */

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "common/json.hh"
#include "exec/pipeline.hh"
#include "exec/sweep_runner.hh"
#include "metrics/report.hh"

int
main(int argc, char **argv)
{
    using namespace esd;
    using namespace esd::exec;

    bench::parseBenchArgs(argc, argv);
    bench::printHeader("Pipeline scaling",
                       "One 8-channel simulation sharded across "
                       "workers in {1,2,4,8}, all 6 schemes");

    SimConfig cfg = bench::benchConfig();
    cfg.channels.count = 8;
    cfg.channels.wpqCoalescing = true;

    std::vector<unsigned> levels = {1, 2, 4, 8};
    if (bench::benchJobs() > 1)
        levels = {1, bench::benchJobs()};

    const std::vector<SchemeKind> kinds = allSchemeKindsExtended();

    TablePrinter table({"workers", "wall_s", "speedup",
                        "agg_writes/s"});
    struct Row
    {
        unsigned workers;
        double wall, speedup, aggWps;
    };
    std::vector<Row> rows;
    double base_wall = 0;
    std::vector<std::string> base_reports;

    for (unsigned workers : levels) {
        auto t0 = std::chrono::steady_clock::now();
        double total_writes = 0;
        std::vector<std::string> reports;
        for (SchemeKind kind : kinds) {
            SyntheticWorkload trace(findApp("gcc"), cfg.seed);
            ShardedPipeline pipe(cfg, kind, workers);
            const RunResult &r = pipe.run(trace, bench::benchRecords(),
                                          bench::benchWarmup());
            total_writes += static_cast<double>(r.logicalWrites);
            std::ostringstream doc;
            pipe.writeReport(doc, /*indent=*/0);
            reports.push_back(doc.str());
        }
        double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
        if (base_wall == 0)
            base_wall = wall;

        // Cross-level byte identity: the report of every scheme must
        // match the workers=1 bytes exactly. A divergence is a
        // determinism bug, and the bench is the wrong place to shrug
        // it off.
        if (base_reports.empty()) {
            base_reports = reports;
        } else {
            for (std::size_t k = 0; k < kinds.size(); ++k) {
                if (reports[k] != base_reports[k]) {
                    std::cout << "DETERMINISM VIOLATION: "
                              << schemeName(kinds[k]) << " at workers="
                              << workers << ": "
                              << firstJsonDivergence(base_reports[k],
                                                     reports[k])
                              << "\n";
                    return 1;
                }
            }
        }

        Row row{workers, wall, base_wall / wall,
                wall > 0 ? total_writes / wall : 0};
        rows.push_back(row);
        table.addRow({std::to_string(workers),
                      TablePrinter::num(wall, 2),
                      TablePrinter::num(row.speedup, 2),
                      TablePrinter::num(row.aggWps, 0)});
    }
    table.print();
    std::cout << "\nall " << kinds.size()
              << " scheme reports byte-identical across every worker "
                 "count; speedup is host-parallelism bound (hardware "
                 "threads: "
              << std::thread::hardware_concurrency() << ")\n";

    if (const char *path = std::getenv("ESD_BENCH_JSON");
        path && *path) {
        std::ofstream out(path);
        if (out) {
            JsonWriter w(out);
            w.beginObject();
            w.kv("records_per_run", bench::benchRecords());
            w.kv("warmup", bench::benchWarmup());
            w.kv("channels",
                 static_cast<std::uint64_t>(cfg.channels.count));
            w.kv("schemes_per_level",
                 static_cast<std::uint64_t>(kinds.size()));
            w.kv("host_threads", static_cast<std::uint64_t>(
                                     std::thread::hardware_concurrency()));
            w.key("scaling");
            w.beginArray();
            for (const Row &r : rows) {
                w.beginObject();
                w.kv("workers", static_cast<std::uint64_t>(r.workers));
                w.kv("wall_s", r.wall);
                w.kv("speedup", r.speedup);
                w.kv("writes_per_s", r.aggWps);
                w.endObject();
            }
            w.endArray();
            w.endObject();
            out << "\n";
            std::cerr << "bench: wrote scaling grid to " << path
                      << "\n";
        }
    }
    return 0;
}
