/**
 * @file
 * Parallel grid CLI: expand a sweep spec into independent
 * (app x scheme x config) jobs, run them on a thread pool, and write
 * the merged stats reports as one deterministic sweep document, one
 * CSV row per job, or both.
 *
 *   esd_sweep [-sweep app=mcf,lbm,scheme=0..5,channels=1,2,8]
 *             [-jobs=N] [-records=N] [-warmup=N] [-workers=N]
 *             [-trace-in=path] [-ConfigFile=path]
 *             [-out=sweep.json] [-csv=results.csv]
 *             [-<section>.<key>=V | config-flag alias, e.g. -seed=]...
 *
 * Sweep dimensions: app, scheme, channels (channels.count) and
 * wpq_depth (pcm.write_queue_depth, the per-channel WPQ depth). Every
 * job runs on the config's seed, so all points of one app replay the
 * same trace and differ only in what the grid varies.
 *
 * Config flags (common/config_io.hh, ConfigFlags) lay over -ConfigFile=
 * and set the base config of every job; swept dimensions then override
 * it. -workers=N runs each job through the sharded pipeline
 * (exec/pipeline.hh); concurrent jobs x workers must not oversubscribe
 * the host. -trace-in= replays one on-disk trace (format sniffed)
 * instead of a synthetic app — it replaces the app dimension, the app
 * column carries its path, and the whole file replays with no warmup
 * unless -records= / -warmup= are given.
 *
 * -out= writes the sweep document (default sweep.json; it is skipped
 * when only -csv= is given). -csv= writes one row per job in grid
 * order, a "# FAILED" comment row for a failed job; the CSV has no
 * channels or wpq_depth column, so sweeping those with -csv= is
 * refused. "-" names stdout for either; progress goes to stderr.
 *
 * Both outputs are byte-identical for any -jobs value (enforced by
 * test_sweep_determinism and the esd_sweep_csv_golden ctest): every
 * job owns its whole simulated world, and results merge in grid order
 * regardless of completion order.
 */

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "common/atomic_file.hh"
#include "common/cli_flags.hh"
#include "common/config_io.hh"
#include "common/logging.hh"
#include "exec/sweep_grid.hh"
#include "exec/sweep_runner.hh"
#include "trace/trace_frontend.hh"

namespace
{

using namespace esd;

/** One CSV row per job, grid order; a failed job keeps its slot as a
 * comment row so the artifact stays aligned with the grid. */
std::string
renderCsv(const std::vector<exec::JobSpec> &jobs,
          const std::vector<exec::SweepOutcome> &outcomes)
{
    std::ostringstream out;
    out << "app,scheme,records,logical_writes,logical_reads,"
           "dedup_hits,write_reduction,nvm_data_writes,"
           "nvm_writes_total,nvm_reads_total,write_lat_mean,"
           "write_lat_p99,read_lat_mean,read_lat_p99,ipc,"
           "energy_pj,metadata_bytes,fp_cache_hit,amt_cache_hit,"
           "max_line_wear\n";
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const exec::JobSpec &job = jobs[i];
        if (!outcomes[i].ok) {
            out << "# FAILED " << job.app << ',' << schemeName(job.scheme)
                << ": " << outcomes[i].error << '\n';
            continue;
        }
        const RunResult &r = outcomes[i].result;
        out << job.app << ',' << r.schemeName << ',' << r.records << ','
            << r.logicalWrites << ',' << r.logicalReads << ','
            << r.dedupHits << ',' << r.writeReduction() << ','
            << r.nvmDataWrites << ',' << r.nvmWritesTotal << ','
            << r.nvmReadsTotal << ',' << r.writeLatency.mean() << ','
            << r.writeLatency.percentile(99) << ','
            << r.readLatency.mean() << ','
            << r.readLatency.percentile(99) << ',' << r.ipc << ','
            << r.energy.total() << ',' << r.metadataNvmBytes << ','
            << r.fpCacheHitRate << ',' << r.amtCacheHitRate << ','
            << r.wear.maxLineWrites << '\n';
    }
    return out.str();
}

/** Write @p body to @p path ("-" is stdout); a failed write exits 1. */
void
publish(const std::string &path, const std::string &body)
{
    if (path == "-") {
        std::cout << body << std::flush;
        if (!std::cout)
            esd_fatal("cannot write to stdout");
    } else if (!writeFileAtomic(path, body)) {
        esd_fatal("cannot write '%s'", path.c_str());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace esd::exec;

    JobFlags run_flags(/*default_records=*/50000, /*default_warmup=*/10000);
    JobSpec proto;
    unsigned jobs = 1;
    std::string out_path;
    std::string csv_path;
    std::string config_file;
    ConfigFlags config_flags;
    SweepGrid grid;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        std::string err;
        if (run_flags.take(arg))
            continue;
        if (arg.rfind("-trace-in=", 0) == 0) {
            proto.traceFile = arg.substr(10);
        } else if (arg.rfind("-jobs=", 0) == 0) {
            jobs = static_cast<unsigned>(
                parseU64InRange("-jobs", arg.substr(6), 1, 256));
        } else if (arg.rfind("-out=", 0) == 0) {
            out_path = arg.substr(5);
        } else if (arg.rfind("-csv=", 0) == 0) {
            csv_path = arg.substr(5);
        } else if (arg.rfind("-ConfigFile=", 0) == 0) {
            config_file = arg.substr(12);
        } else if (arg == "-sweep" && i + 1 < argc) {
            if (!parseSweepSpec(argv[++i], grid, &err))
                esd_fatal("bad -sweep spec: %s", err.c_str());
        } else if (arg.rfind("-sweep=", 0) == 0) {
            if (!parseSweepSpec(arg.substr(7), grid, &err))
                esd_fatal("bad -sweep spec: %s", err.c_str());
        } else if (!config_flags.take(arg)) {
            esd_fatal("unknown argument '%s'", arg.c_str());
        }
    }

    // Validate the whole plan before any simulation runs: a typo must
    // exit non-zero at once, not after minutes of runs.
    if (!proto.traceFile.empty()) {
        if (!grid.apps.empty())
            esd_fatal("-trace-in is incompatible with the app= sweep "
                      "dimension (the trace is the workload)");
        // Sniffing checks up front that the file opens.
        detectTraceFormat(proto.traceFile);
    }
    if (!csv_path.empty() &&
        (!grid.channels.empty() || !grid.wpqDepths.empty()))
        esd_fatal("-csv has no column for the channels or wpq_depth "
                  "sweep dimensions; sweep them with -out= only");
    if (out_path.empty() && csv_path.empty())
        out_path = "sweep.json";
    if (out_path == "-" && csv_path == "-")
        esd_fatal("-out=- and -csv=- would both write to stdout");
    for (const std::string &path : {out_path, csv_path}) {
        // A path in a missing directory fails now, not after the whole
        // grid ran. An existing target (perhaps a FIFO) is left alone.
        std::error_code ec;
        if (!path.empty() && path != "-" &&
            !std::filesystem::exists(path, ec) && !std::ofstream(path))
            esd_fatal("cannot open '%s'", path.c_str());
    }

    SimConfig cfg;
    if (!config_file.empty())
        loadConfigFile(cfg, config_file);
    config_flags.apply(cfg);
    proto.cfg = cfg;
    run_flags.applyTo(proto);
    std::vector<JobSpec> grid_jobs = expandGrid(grid, proto);

    // Pipeline workers multiply under the sweep pool: J concurrent jobs
    // each running a W-worker pipeline is J*W live threads. Refuse
    // plans that oversubscribe the host instead of quietly thrashing.
    if (unsigned workers = run_flags.workers()) {
        unsigned hc = std::max(1u, std::thread::hardware_concurrency());
        std::uint64_t live = std::min<std::uint64_t>(jobs, grid_jobs.size());
        if (live * workers > hc)
            esd_fatal("%llu concurrent jobs x -workers=%u = %llu threads "
                      "oversubscribes this host (%u hardware threads); "
                      "lower -jobs= or -workers=",
                      static_cast<unsigned long long>(live), workers,
                      static_cast<unsigned long long>(live * workers), hc);
    }

    std::cerr << "sweep: " << grid_jobs.size() << " jobs, -jobs=" << jobs
              << ", seed " << cfg.seed << "\n";
    auto t0 = std::chrono::steady_clock::now();
    std::vector<SweepOutcome> outcomes = SweepRunner(jobs).run(
        grid_jobs,
        [](std::size_t index, const JobSpec &job, const RunResult &r) {
            std::cerr << "  [" << index << "] " << job.app << " / "
                      << r.schemeName << " ch=" << job.cfg.channels.count
                      << " done\n";
        });
    double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();

    std::uint64_t failed = 0;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        if (outcomes[i].ok)
            continue;
        ++failed;
        esd_warn("job [%zu] %s/%s failed: %s", i,
                 grid_jobs[i].app.c_str(),
                 schemeName(grid_jobs[i].scheme),
                 outcomes[i].error.c_str());
    }

    if (!out_path.empty()) {
        std::ostringstream doc;
        writeSweepReport(doc, outcomes);
        publish(out_path, doc.str());
    }
    if (!csv_path.empty())
        publish(csv_path, renderCsv(grid_jobs, outcomes));
    std::cerr << "wrote";
    for (const std::string &path : {out_path, csv_path})
        if (!path.empty())
            std::cerr << ' ' << (path == "-" ? "stdout" : path);
    std::cerr << " (" << outcomes.size() << " jobs, " << wall
              << " s wall)\n";
    if (failed) {
        std::cerr << failed << " of " << outcomes.size()
                  << " jobs failed\n";
        return 1;
    }
    return 0;
}
