/**
 * @file
 * Sweep-engine scaling: wall-clock of one fixed 24-point grid
 * (4 apps x 6 schemes) at -jobs in {1, 2, 4, 8}, with per-job
 * simulator throughput and a byte-identity cross-check of the merged
 * reports — the "every future figure regenerates in 1/N the time"
 * claim, measured.
 *
 * Usage: bench_sweep_scaling [-jobs=N]   (N caps the sweep points)
 * ESD_BENCH_JSON emits the {jobs, wall_s, speedup, writes_per_s} grid
 * plus the host's hardware thread count (check_perf.py gates only the
 * rows both hosts can run in parallel).
 */

#include <chrono>
#include <sstream>
#include <thread>
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "bench_common.hh"
#include "common/json.hh"
#include "exec/sweep_grid.hh"
#include "exec/sweep_runner.hh"
#include "metrics/report.hh"

int
main(int argc, char **argv)
{
    using namespace esd;
    using namespace esd::exec;

    bench::parseBenchArgs(argc, argv);
    bench::printHeader("Sweep scaling",
                       "Parallel sweep wall-clock, 4 apps x 6 schemes "
                       "= 24 jobs, jobs in {1,2,4,8}");

    SweepGrid sweep;
    sweep.apps = {"mcf", "lbm", "gcc", "deepsjeng"};
    JobSpec proto;
    proto.cfg = bench::benchConfig();
    proto.records = bench::benchRecords();
    proto.warmup = bench::benchWarmup();
    const std::vector<JobSpec> grid = expandGrid(sweep, proto);

    std::vector<unsigned> levels = {1, 2, 4, 8};
    if (bench::benchJobs() > 1)
        levels = {1, bench::benchJobs()};

    TablePrinter table({"jobs", "wall_s", "speedup", "agg_writes/s",
                        "mean_job_writes/s"});
    double base_wall = 0;
    std::string base_report;
    struct Row
    {
        unsigned jobs;
        double wall, speedup, aggWps, meanWps;
    };
    std::vector<Row> rows;

    for (unsigned jobs : levels) {
        SweepRunner runner(jobs);
        auto t0 = std::chrono::steady_clock::now();
        std::vector<SweepOutcome> outcomes = runner.run(grid);
        double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
        if (base_wall == 0)
            base_wall = wall;

        double total_writes = 0, mean_wps = 0;
        for (const SweepOutcome &o : outcomes) {
            total_writes += static_cast<double>(o.result.logicalWrites);
            if (o.hostSeconds > 0)
                mean_wps += static_cast<double>(o.result.logicalWrites) /
                            o.hostSeconds;
        }
        mean_wps /= outcomes.empty() ? 1 : outcomes.size();

        std::ostringstream doc;
        writeSweepReport(doc, outcomes);
        if (base_report.empty()) {
            base_report = doc.str();
        } else if (doc.str() != base_report) {
            std::cout << "DETERMINISM VIOLATION at jobs=" << jobs
                      << ": "
                      << firstJsonDivergence(base_report, doc.str())
                      << "\n";
            return 1;
        }

        Row row{jobs, wall, base_wall / wall,
                wall > 0 ? total_writes / wall : 0, mean_wps};
        rows.push_back(row);
        table.addRow({std::to_string(jobs), TablePrinter::num(wall, 2),
                      TablePrinter::num(row.speedup, 2),
                      TablePrinter::num(row.aggWps, 0),
                      TablePrinter::num(row.meanWps, 0)});
    }
    table.print();
    std::cout << "\nmerged reports byte-identical across all job "
                 "counts; speedup is host-parallelism bound "
                 "(hardware threads: "
              << std::thread::hardware_concurrency() << ")\n";

    if (const char *path = std::getenv("ESD_BENCH_JSON");
        path && *path) {
        std::ofstream out(path);
        if (out) {
            JsonWriter w(out);
            w.beginObject();
            w.kv("records_per_run", bench::benchRecords());
            w.kv("warmup", bench::benchWarmup());
            w.kv("grid_jobs",
                 static_cast<std::uint64_t>(grid.size()));
            w.kv("host_threads", static_cast<std::uint64_t>(
                                     std::thread::hardware_concurrency()));
            w.key("scaling");
            w.beginArray();
            for (const Row &r : rows) {
                w.beginObject();
                w.kv("jobs", static_cast<std::uint64_t>(r.jobs));
                w.kv("wall_s", r.wall);
                w.kv("speedup", r.speedup);
                w.kv("agg_writes_per_s", r.aggWps);
                w.kv("mean_job_writes_per_s", r.meanWps);
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
