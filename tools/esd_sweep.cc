/**
 * @file
 * Parallel config-grid sweep CLI: expand a sweep spec into independent
 * (app x scheme x config) jobs, run them on a thread pool, and merge
 * the per-job stats reports into one deterministic sweep document.
 *
 *   esd_sweep [-sweep scheme=0..5,channels=1,2,8] [-jobs=N]
 *             [-records=N] [-warmup=N] [-seed=N]
 *             [-ConfigFile=path] [-out=sweep.json]
 *             [-<section>.<key>=V | config-flag alias]...
 *
 * Sweep dimensions: app, scheme, channels (channels.count) and
 * wpq_depth (pcm.write_queue_depth, the per-channel WPQ depth).
 *
 * Config flags (common/config_io.hh, ConfigFlags) lay over -ConfigFile=
 * and set the base config of every job; swept dimensions then override
 * it. -seed= is not the config key here but the base seed that job
 * seeds derive from (default: the config's seed).
 *
 * The merged report is byte-identical for any -jobs value (enforced by
 * test_sweep_determinism): job seeds derive from (seed, job index),
 * every job owns its whole simulated world, and results merge in grid
 * order regardless of completion order.
 */

#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>

#include "common/cli_flags.hh"
#include "common/config_io.hh"
#include "common/logging.hh"
#include "exec/sweep_grid.hh"
#include "exec/sweep_runner.hh"

int
main(int argc, char **argv)
{
    using namespace esd;
    using namespace esd::exec;

    std::uint64_t records = 50000;
    std::uint64_t warmup = 10000;
    std::uint64_t base_seed = 0;
    bool seed_set = false;
    unsigned jobs = 1;
    std::string out_path = "sweep.json";
    std::string config_file;
    ConfigFlags config_flags;
    SweepGrid grid;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("-records=", 0) == 0) {
            records = parseU64("-records", arg.substr(9));
        } else if (arg.rfind("-warmup=", 0) == 0) {
            warmup = parseU64("-warmup", arg.substr(8));
        } else if (arg.rfind("-jobs=", 0) == 0) {
            jobs = static_cast<unsigned>(parseU64("-jobs", arg.substr(6)));
        } else if (arg.rfind("-seed=", 0) == 0) {
            base_seed = parseU64("-seed", arg.substr(6));
            seed_set = true;
        } else if (arg.rfind("-out=", 0) == 0) {
            out_path = arg.substr(5);
        } else if (arg.rfind("-ConfigFile=", 0) == 0) {
            config_file = arg.substr(12);
        } else if (arg == "-sweep" && i + 1 < argc) {
            std::string err;
            if (!parseSweepSpec(argv[++i], grid, &err))
                esd_fatal("bad -sweep spec: %s", err.c_str());
        } else if (arg.rfind("-sweep=", 0) == 0) {
            std::string err;
            if (!parseSweepSpec(arg.substr(7), grid, &err))
                esd_fatal("bad -sweep spec: %s", err.c_str());
        } else if (!config_flags.take(arg)) {
            esd_fatal("unknown argument '%s'", arg.c_str());
        }
    }

    SimConfig cfg;
    if (!config_file.empty())
        loadConfigFile(cfg, config_file);
    config_flags.apply(cfg);
    if (!seed_set)
        base_seed = cfg.seed;

    std::vector<JobSpec> grid_jobs =
        expandGrid(grid, cfg, records, warmup, base_seed);
    std::cout << "sweep: " << grid_jobs.size() << " jobs, -jobs="
              << jobs << ", base seed " << base_seed << "\n";

    auto t0 = std::chrono::steady_clock::now();
    SweepRunner runner(jobs);
    std::vector<SweepOutcome> outcomes = runner.run(
        grid_jobs,
        [](std::size_t index, const JobSpec &job, const RunResult &r) {
            std::cout << "  [" << index << "] " << job.app << " / "
                      << r.schemeName << " ch="
                      << job.cfg.channels.count << " done\n";
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

    std::ostringstream doc;
    writeSweepReport(doc, outcomes);
    if (out_path == "-") {
        std::cout << doc.str();
    } else {
        std::ofstream out(out_path);
        if (!out)
            esd_fatal("cannot open '%s'", out_path.c_str());
        out << doc.str();
        std::cout << "wrote " << out_path << " ("
                  << outcomes.size() << " jobs, " << wall
                  << " s wall)\n";
    }
    if (failed) {
        std::cerr << failed << " of " << outcomes.size()
                  << " jobs failed\n";
        return 1;
    }
    return 0;
}
