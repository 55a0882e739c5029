/**
 * @file
 * Host-side hot-path throughput: simulated writes per host second for
 * every scheme over the fig11 workload mix (all 20 paper apps). This
 * is the one bench about the *simulator's* speed, not the simulated
 * hardware's — it is the before/after yardstick for hot-path work
 * (flat-map metadata, kernel tuning) and the input to the CI perf
 * gate (scripts/check_perf.py vs bench/baselines/).
 *
 * Usage: bench_hotpath [-jobs=N]        (-jobs accepted, unused)
 *   ESD_BENCH_RECORDS / ESD_BENCH_WARMUP  per-run trace sizing
 *   ESD_BENCH_REPS   timing repetitions; best rep is reported
 *                    (default 3 — host noise only ever slows a run)
 *   ESD_BENCH_JSON   path: machine-readable {schemes, aggregate} dump
 *
 * Simulated results are ignored here except as a sanity anchor: the
 * same runs' reported stats are checked for cross-rep identity, so a
 * "faster" hot path that changes simulation output fails loudly.
 */

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "common/json.hh"
#include "metrics/report.hh"

namespace
{

using namespace esd;

std::uint64_t
benchReps()
{
    if (const char *env = std::getenv("ESD_BENCH_REPS"); env && *env) {
        char *end = nullptr;
        unsigned long long v = std::strtoull(env, &end, 10);
        if (end && *end == '\0' && v > 0)
            return v;
    }
    return 3;
}

/** Order-stable digest of the simulated (host-independent) results. */
std::string
resultDigest(const RunResult &r)
{
    std::ostringstream os;
    os << r.schemeName << ':' << r.records << ':' << r.logicalWrites
       << ':' << r.dedupHits << ':' << r.nvmDataWrites << ':'
       << r.nvmWritesTotal << ':' << r.nvmReadsTotal << ':'
       << r.runtimeNs;
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace esd;

    bench::parseBenchArgs(argc, argv);
    bench::printHeader("Hot-path throughput",
                       "Simulated writes per host second, per scheme, "
                       "fig11 workload mix (20 apps)");

    const std::vector<std::string> apps = bench::appNames();
    const std::uint64_t records = bench::benchRecords();
    const std::uint64_t warmup = bench::benchWarmup();
    const std::uint64_t reps = benchReps();

    struct Row
    {
        std::string scheme;
        std::uint64_t writes = 0;
        double hostS = 0;  ///< best (minimum) across reps
        double wps = 0;
    };
    std::vector<Row> rows;
    double agg_writes = 0, agg_host = 0;

    for (SchemeKind kind : allSchemeKindsExtended()) {
        Row row;
        row.scheme = schemeName(kind);
        std::string digest;
        for (std::uint64_t rep = 0; rep < reps; ++rep) {
            std::uint64_t writes = 0, host_ns = 0;
            std::ostringstream rep_digest;
            for (const std::string &app : apps) {
                SimConfig cfg = bench::benchConfig();
                cfg.seed = 1;
                Simulator sim(cfg, kind);
                SyntheticWorkload trace(findApp(app), cfg.seed);
                RunResult r = sim.run(trace, records, warmup);
                writes += r.logicalWrites;
                host_ns += r.hostNs;
                rep_digest << resultDigest(r) << '\n';
            }
            if (digest.empty()) {
                digest = rep_digest.str();
            } else if (rep_digest.str() != digest) {
                std::cout << "DETERMINISM VIOLATION: " << row.scheme
                          << " rep " << rep
                          << " changed simulated results\n";
                return 1;
            }
            double host_s = host_ns / 1e9;
            if (row.hostS == 0 || host_s < row.hostS) {
                row.hostS = host_s;
                row.writes = writes;
            }
        }
        row.wps = row.hostS > 0 ? row.writes / row.hostS : 0;
        agg_writes += static_cast<double>(row.writes);
        agg_host += row.hostS;
        rows.push_back(row);
    }

    TablePrinter table({"scheme", "writes", "host_s", "writes/s"});
    for (const Row &r : rows)
        table.addRow({r.scheme, std::to_string(r.writes),
                      TablePrinter::num(r.hostS, 3),
                      TablePrinter::num(r.wps, 0)});
    double agg_wps = agg_host > 0 ? agg_writes / agg_host : 0;
    table.addRow({"aggregate",
                  std::to_string(static_cast<std::uint64_t>(agg_writes)),
                  TablePrinter::num(agg_host, 3),
                  TablePrinter::num(agg_wps, 0)});
    table.print();
    std::cout << "\nbest of " << reps
              << " reps per scheme; simulated results cross-checked "
                 "identical across reps\n";

    if (const char *path = std::getenv("ESD_BENCH_JSON");
        path && *path) {
        std::ofstream out(path);
        if (out) {
            JsonWriter w(out);
            w.beginObject();
            w.kv("records_per_run", records);
            w.kv("warmup", warmup);
            w.kv("reps", reps);
            w.kv("apps", static_cast<std::uint64_t>(apps.size()));
            w.kv("host_threads", static_cast<std::uint64_t>(
                                     std::thread::hardware_concurrency()));
            w.key("schemes");
            w.beginArray();
            for (const Row &r : rows) {
                w.beginObject();
                w.kv("scheme", r.scheme);
                w.kv("writes", r.writes);
                w.kv("host_s", r.hostS);
                w.kv("writes_per_s", r.wps);
                w.endObject();
            }
            w.endArray();
            w.kv("aggregate_writes_per_s", agg_wps);
            w.endObject();
            out << "\n";
            std::cerr << "bench: wrote hot-path throughput to " << path
                      << "\n";
        }
    }
    return 0;
}
