/**
 * @file
 * The simulator command-line front end, mirroring the artifact's
 * `nvmain.fast` interface:
 *
 *   esd_sim -scheme=<0..5|name> [-ConfigFile=<path>]
 *           (-InputFile=<trace> | -trace-in=<trace> | -app=<name>)
 *           [-records=N] [-warmup=N] [-workers=N]
 *           [-latency-out=<path>] [-dump-config]
 *           [-stats-json=<path>] [-stats-interval=N]
 *           [-trace-out=<path>] [-spans-out=<path>] [-metrics-out=<path>]
 *           [-<section>.<key>=V | config-flag alias]...
 *
 * Scheme selector follows the artifact: 0 Baseline, 1 Dedup_SHA1,
 * 2 DeWrite, 3 ESD (4/5 add the ESD_Full and ESD+ extensions).
 * `-InputFile` is the artifact's spelling of `-trace-in` (below): the
 * same streaming frontend, the format sniffed from content, never
 * from the extension. `-latency-out` writes the raw write-latency
 * samples, one per line, for external CDF plotting (Fig. 15).
 *
 * Observability outputs:
 *   `-stats-json` writes the machine-readable run report (config +
 *   result + every registered stat + interval snapshots every
 *   `-stats-interval` measured writes);
 *   `-trace-out` dumps the most recent telemetry.trace_ring_capacity
 *   per-write events as JSONL (one record per line);
 *   `-spans-out` writes a Chrome trace-event / Perfetto JSON span
 *   trace of the write pipeline and per-channel device service,
 *   admitting every telemetry.span_sample_every-th write;
 *   `-metrics-out` writes a Prometheus text-format page of the stat
 *   registry at the end of the run;
 *   telemetry.histogram_buckets (`-hist-buckets`) embeds the exact
 *   latency histogram buckets in the `-stats-json` report;
 *   `-profile` attributes host wall-clock to the write-path phases
 *   (fingerprint/lookup/compare/encrypt/device) and prints the table
 *   after the run — the `host.profile.*` gauges also land in
 *   `-stats-json` output when both flags are given.
 *
 * Config flags: `-<section>.<key>=v` sets any `-ConfigFile=` key
 * (`-metadata.efit_kb=64`, `-persistence.counter_slack=1`), validated
 * by the same setter, and beats the file. The legacy spellings
 * (`-channels=`, `-persist-*=`, ...) are aliases of one key each;
 * `esd_sim -h` lists them with the key each one sets.
 * A `-ras-*` or `-persist-*` alias also turns its section on; an
 * explicit `-persist=0` still turns it off. `-recovery-json=path`
 * writes the machine-readable crash + recovery + pad-safety report of
 * an injected crash (`-persist-crash-at=N`, warmup counts).
 *
 * Every export is rendered after the run from the job's simulators:
 * the one Simulator, or under -workers one shard simulator per channel,
 * each with its own sinks, in shard order.
 *
 * Sharded write pipeline:
 *   `-workers=N` runs the simulation through the intra-simulation
 *   sharded pipeline (exec/pipeline.hh): one shard simulator per
 *   memory channel, driven by N worker threads joining at `[pipeline]`
 *   epoch barriers. Every output is byte-identical at any N
 *   (including N=1), so -workers only buys wall-clock time. A shard's
 *   exports depend only on its own records: -trace-out and
 *   -latency-out list the shards' records one shard after another,
 *   -spans-out gives each shard its own process, -metrics-out labels
 *   each sample shard="s", -profile sums the shards' phase times
 *   against the workers' thread time (workers x the pipeline's
 *   wall-clock) and prints that wall-clock as the run time, and
 *   -recovery-json reports the shard that crashed.
 *
 * Trace frontend / capture (see `[trace]` config keys):
 *   `-trace-in=path` (alias `-InputFile=path`; give the file once)
 *   streams an on-disk trace (text, gzip, or binary; format sniffed
 *   from content) through the streaming frontend — constant memory at
 *   any trace length. Exclusive with -app=; composes with -workers=N
 *   and crash injection. The whole file replays unless -records caps
 *   it; -warmup applies only when given (file input defaults to 0/0);
 *   `-capture-out=path` tees the consumed record stream to a trace
 *   file (format from [trace] format, auto = text; address-only
 *   records with line_payload off) so the run replays bit-identically
 *   via -trace-in. Requires a synthetic workload (-app=).
 */

#include <algorithm>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/atomic_file.hh"
#include "common/cli_flags.hh"
#include "common/config_io.hh"
#include "common/logging.hh"
#include "common/write_trace.hh"
#include "core/run_report.hh"
#include "exec/job.hh"
#include "metrics/prometheus.hh"
#include "metrics/report.hh"
#include "trace/trace_capture.hh"
#include "trace/workloads.hh"

namespace
{

using namespace esd;

struct Options
{
    exec::JobSpec spec;  ///< scheme, app | trace file; cfg built in main
    std::string configFile;
    ConfigFlags config;  ///< config-key flags, applied over the file
    std::string captureOut;
    std::string latencyOut;
    std::string statsJson;
    std::string traceOut;
    std::string spansOut;
    std::string metricsOut;
    std::string recoveryJson;
    std::uint64_t statsInterval = 10000;
    exec::JobFlags run{/*default_records=*/200000, /*default_warmup=*/40000};
    bool dumpConfig = false;
    bool profile = false;
};

void
usage()
{
    std::cerr
        << "usage: esd_sim -scheme=<0..5|name> [-ConfigFile=path]\n"
           "               (-trace-in=trace | -InputFile=trace | "
           "-app=name)\n"
           "               [-records=N] [-warmup=N] [-workers=N]\n"
           "               [-capture-out=path] [-latency-out=path] "
           "[-dump-config]\n"
           "               [-stats-json=path] [-stats-interval=N]\n"
           "               [-trace-out=path] [-spans-out=path] "
           "[-metrics-out=path]\n"
           "               [-recovery-json=path] [-profile]\n"
           "               [-<section>.<key>=V]  (any -ConfigFile= key)\n"
           "config-key aliases:\n";
    for (const ConfigFlagAlias &a : configFlagAliases())
        std::cerr << "  " << a.flag << (a.bare ? "[=" : "=")
                  << configKeyPlaceholder(a.key)
                  << (a.bare ? "]" : "") << "  = " << a.key
                  << (a.implies ? std::string(" (implies ") + a.implies + ")"
                                : "")
                  << "\n";
    std::cerr << "schemes: 0 Baseline, 1 Dedup_SHA1, 2 DeWrite, 3 ESD, "
                 "4 ESD_Full, 5 ESD+\napps: ";
    for (const AppProfile &p : paperApps())
        std::cerr << p.name << " ";
    std::cerr << "\n";
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    opt.spec.scheme = SchemeKind::Esd;  // without -scheme=
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&](const char *prefix) -> std::string {
            return arg.substr(std::string(prefix).size());
        };
        if (opt.run.take(arg))
            continue;
        if (arg.rfind("-scheme=", 0) == 0) {
            opt.spec.scheme = parseSchemeKind(value("-scheme="));
        } else if (arg.rfind("-ConfigFile=", 0) == 0) {
            opt.configFile = value("-ConfigFile=");
        } else if (arg.rfind("-trace-in=", 0) == 0 ||
                   arg.rfind("-InputFile=", 0) == 0) {
            if (!opt.spec.traceFile.empty())
                esd_fatal("trace file given twice (-InputFile= is an "
                          "alias of -trace-in=)");
            opt.spec.traceFile = arg.substr(arg.find('=') + 1);
        } else if (arg.rfind("-app=", 0) == 0) {
            opt.spec.app = value("-app=");
        } else if (arg.rfind("-capture-out=", 0) == 0) {
            opt.captureOut = value("-capture-out=");
        } else if (arg.rfind("-latency-out=", 0) == 0) {
            opt.latencyOut = value("-latency-out=");
        } else if (arg.rfind("-stats-json=", 0) == 0) {
            opt.statsJson = value("-stats-json=");
        } else if (arg.rfind("-stats-interval=", 0) == 0) {
            opt.statsInterval =
                parseU64("-stats-interval", value("-stats-interval="));
        } else if (arg.rfind("-trace-out=", 0) == 0) {
            opt.traceOut = value("-trace-out=");
        } else if (arg.rfind("-spans-out=", 0) == 0) {
            opt.spansOut = value("-spans-out=");
        } else if (arg.rfind("-metrics-out=", 0) == 0) {
            opt.metricsOut = value("-metrics-out=");
        } else if (arg.rfind("-recovery-json=", 0) == 0) {
            opt.recoveryJson = value("-recovery-json=");
        } else if (arg == "-profile") {
            opt.profile = true;
        } else if (arg == "-dump-config") {
            opt.dumpConfig = true;
        } else if (arg == "-h" || arg == "--help") {
            usage();
            std::exit(0);
        } else if (!opt.config.take(arg)) {
            usage();
            esd_fatal("unknown argument '%s'", arg.c_str());
        }
    }
    return opt;
}

/**
 * Publish one export, rendered in memory, through writeFileAtomic: a
 * reader never sees a torn file, even if we die mid-write, and a failed
 * write exits non-zero.
 */
void
publish(const std::string &path, const std::string &body)
{
    if (!writeFileAtomic(path, body))
        esd_fatal("cannot write '%s'", path.c_str());
}

/**
 * The console summary of a finished @p job, in both modes: the metric
 * table, the -profile table, and the ras:/persist:/crash: lines summed
 * over the job's simulators. Then the job's crash self-check: prints
 * its crash: and recovery: lines, writes -recovery-json off it, and
 * dies when the check failed (crash never fired, recovery NOT-OK, pad
 * reuse).
 */
void
printSummary(const Options &opt, const SimConfig &cfg, const RunResult &r,
             const exec::Job &job)
{
    const std::vector<Simulator *> &shards = job.simulators();
    const auto *pipe = job.pipeline();
    std::cout << "scheme: " << r.schemeName << "\n"
              << "records: " << r.records << " (" << r.logicalWrites
              << " writes, " << r.logicalReads << " reads)\n";
    if (pipe)
        std::cout << "pipeline: shards=" << pipe->shardCount()
                  << " workers=" << pipe->workers()
                  << " epochs=" << pipe->epochsRun()
                  << " epoch_records=" << cfg.pipeline.epochRecords
                  << (pipe->dedupSuspendedGlobally()
                          ? " dedup_suspended@" +
                                std::to_string(pipe->suspendEpoch())
                          : "")
                  << "\n";

    TablePrinter t({"metric", "value"});
    t.addRow({"write reduction", TablePrinter::pct(r.writeReduction())});
    t.addRow({"NVMM writes (data/total)",
              std::to_string(r.nvmDataWrites) + " / " +
                  std::to_string(r.nvmWritesTotal)});
    if (cfg.channels.count > 1 || cfg.channels.wpqCoalescing)
        t.addRow({"channels (issued+coalesced)",
                  std::to_string(cfg.channels.count) + " ch, " +
                      std::to_string(r.nvmWritesTotal) + " + " +
                      std::to_string(r.nvmWritesCoalesced) + " writes"});
    t.addRow({"NVMM reads (total)", std::to_string(r.nvmReadsTotal)});
    t.addRow({"write latency mean/p99",
              TablePrinter::num(r.writeLatency.mean(), 1) + " / " +
                  TablePrinter::num(r.writeLatency.percentile(99), 0) +
                  " ns"});
    t.addRow({"read latency mean/p99",
              TablePrinter::num(r.readLatency.mean(), 1) + " / " +
                  TablePrinter::num(r.readLatency.percentile(99), 0) +
                  " ns"});
    t.addRow({"IPC", TablePrinter::num(r.ipc, 3)});
    t.addRow({"energy", TablePrinter::num(r.energy.total() / 1e6, 2) +
                            " uJ"});
    t.addRow({"metadata in NVMM",
              TablePrinter::num(r.metadataNvmBytes / 1024.0, 1) + " KB"});
    t.print();

    if (opt.profile) {
        Profiler prof;
        for (const Simulator *sim : shards)
            prof.merge(sim->profiler());
        // The shards share the pipeline's wall-clock window, so their
        // phases are shares of the workers' thread time.
        std::uint64_t workers = pipe ? pipe->workers() : 1;
        std::uint64_t thread_ns = r.hostNs * workers;
        double run_ns = static_cast<double>(thread_ns);
        std::uint64_t writes = std::max<std::uint64_t>(r.logicalWrites, 1);
        std::cout << "host profile (measured window):\n";
        TablePrinter pt({"phase", "calls", "total ms", "ns/write",
                         "% of run"});
        for (unsigned p = 0; p < Profiler::kPhaseCount; ++p) {
            const Profiler::PhaseTotals &tp = prof.phase(p);
            pt.addRow({Profiler::phaseName(p),
                       std::to_string(tp.calls),
                       TablePrinter::num(tp.ns / 1e6, 2),
                       TablePrinter::num(static_cast<double>(tp.ns) /
                                             writes, 0),
                       run_ns > 0
                           ? TablePrinter::pct(tp.ns / run_ns)
                           : "-"});
        }
        std::uint64_t other =
            thread_ns - std::min(prof.profiledNs(), thread_ns);
        pt.addRow({"(unattributed)", "-",
                   TablePrinter::num(other / 1e6, 2),
                   TablePrinter::num(static_cast<double>(other) / writes,
                                     0),
                   run_ns > 0 ? TablePrinter::pct(other / run_ns) : "-"});
        pt.print();
        double secs = r.hostNs / 1e9;
        std::cout << "host run: " << TablePrinter::num(r.hostNs / 1e6, 1)
                  << " ms"
                  << (pipe ? " wall on " + std::to_string(workers) +
                                 (workers == 1 ? " worker" : " workers")
                           : "")
                  << ", "
                  << TablePrinter::num(
                         secs > 0 ? r.logicalWrites / secs : 0, 0)
                  << " writes/s\n";
    }

    if (cfg.ras.enabled) {
        std::uint64_t corrected = 0, ues = 0, retired = 0, sdc = 0;
        std::uint64_t blast = 0;
        for (Simulator *sim : shards) {
            const SchemeStats &ss = sim->scheme().stats();
            const RasStats &rs = sim->scheme().ras().stats();
            corrected += ss.eccCorrectedReads.value();
            ues += rs.ueEvents.value();
            retired += rs.linesRetired.value();
            sdc += ss.sdcEvents.value();
            blast += rs.blastRadiusRefs.value();
        }
        bool suspended = pipe ? pipe->dedupSuspendedGlobally()
                              : shards[0]->scheme().ras().dedupSuspended();
        std::cout << "ras: corrected=" << corrected
                  << " uncorrectable=" << ues << " retired=" << retired
                  << " sdc=" << sdc << " blast_radius=" << blast
                  << (suspended ? " dedup_suspended" : "") << "\n";
    }

    if (!cfg.persist.enabled)
        return;
    std::uint64_t jrecords = 0, commits = 0, checkpoints = 0;
    std::uint64_t barrier_ns = 0;
    for (Simulator *sim : shards) {
        const PersistStats &ps = sim->persistence()->stats();
        jrecords += ps.journalRecords.value();
        commits += ps.epochCommits.value();
        checkpoints += ps.checkpoints.value();
        barrier_ns += ps.barrierNs.value();
    }
    std::cout << "persist: domain=" << persistDomainName(cfg.persist.domain)
              << " records=" << jrecords << " commits=" << commits
              << " checkpoints=" << checkpoints
              << " barrier_ns=" << barrier_ns << "\n";

    const CrashCheck check = job.checkInjectedCrash();
    if (check.image) {
        const CrashImage &img = *check.image;
        const RecoverySummary &rs = check.recovered.summary;
        std::cout << "crash: "
                  << (pipe ? "shard=" + std::to_string(check.shard) + " "
                           : "")
                  << "write=" << img.crashWriteIndex
                  << " phase=" << crashPhaseName(img.phase)
                  << " surviving_lines=" << img.content.size()
                  << " durable_records=" << img.records.size()
                  << " torn=" << img.tornRecords << "\n"
                  << "recovery: replayed=" << rs.recordsReplayed
                  << " counters_repaired=" << rs.countersRepaired
                  << " unresolved=" << rs.countersUnresolved
                  << " mappings_invalidated=" << rs.mappingsInvalidated
                  << (rs.mappingsPoisoned != 0
                          ? " mappings_poisoned=" +
                                std::to_string(rs.mappingsPoisoned)
                          : "")
                  << " pad_violations=" << check.audit.violations
                  << (rs.ok ? " ok" : " NOT-OK") << "\n";
        if (!opt.recoveryJson.empty()) {
            std::ostringstream os;
            writeRecoveryJson(os, img, check.recovered);
            publish(opt.recoveryJson, os.str());
            std::cout << "wrote recovery report to " << opt.recoveryJson
                      << "\n";
        }
    }
    if (!check.error.empty())
        esd_fatal("%s", check.error.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);

    exec::JobSpec &spec = opt.spec;
    SimConfig &cfg = spec.cfg;
    if (!opt.configFile.empty())
        loadConfigFile(cfg, opt.configFile);
    opt.config.apply(cfg);
    if (!opt.recoveryJson.empty() &&
        (!cfg.persist.enabled || cfg.persist.crashAtWrite == 0))
        esd_fatal("-recovery-json requires an injected crash "
                  "(-persist-crash-at=N)");

    if (opt.dumpConfig) {
        std::cout << renderConfig(cfg);
        return 0;
    }

    // Exactly one workload source: reject ambiguous combinations up
    // front instead of silently preferring one.
    if (!spec.traceFile.empty() && !spec.app.empty())
        esd_fatal("-trace-in is incompatible with -app= (the trace is "
                  "the workload)");
    if (spec.traceFile.empty() && spec.app.empty()) {
        usage();
        esd_fatal("need -app or -trace-in (alias -InputFile)");
    }
    // Capture re-exports a synthetic run; capturing a replayed file
    // would only copy it.
    if (!opt.captureOut.empty() && spec.app.empty())
        esd_fatal("-capture-out requires a synthetic workload (-app=)");
    opt.run.applyTo(spec);

    std::unique_ptr<TraceSource> trace = exec::openSource(spec);

    // Capture tee: the pipeline demux and Simulator::run are each the
    // sole consumer of the source, so the captured order is exactly
    // the consumed order in both modes.
    std::unique_ptr<TraceCaptureWriter> capture;
    std::unique_ptr<TraceSource> captured_inner;
    if (!opt.captureOut.empty()) {
        capture = std::make_unique<TraceCaptureWriter>(opt.captureOut,
                                                       cfg.trace);
        captured_inner = std::move(trace);
        trace = std::make_unique<CapturingSource>(*captured_inner,
                                                  *capture);
    }

    // Every sink attaches to each of the job's simulators; a shard's
    // sinks see only its own records, so the exports need no merge.
    exec::Job job(spec);
    const std::vector<Simulator *> &sims = job.simulators();
    std::vector<WriteEventTrace> events;
    if (!opt.traceOut.empty())
        events.assign(sims.size(),
                      WriteEventTrace(cfg.telemetry.traceRingCapacity));
    std::vector<SpanTrace> spans;
    if (!opt.spansOut.empty())
        spans.assign(sims.size(), SpanTrace(SpanTrace::kExportCapacity,
                                            cfg.telemetry.spanSampleEvery));
    for (std::size_t s = 0; s < sims.size(); ++s) {
        if (!events.empty())
            sims[s]->setEventTrace(&events[s]);
        if (!spans.empty())
            sims[s]->setSpanTrace(&spans[s]);
        if (!opt.latencyOut.empty())
            sims[s]->enableRawLatencySamples();
        if (opt.profile)
            sims[s]->enableProfiling();
    }
    // A pipeline samples at its epoch barriers instead ([pipeline]
    // sample_epochs).
    if (!opt.statsJson.empty() && !job.pipeline())
        sims.front()->enableIntervalSampling(opt.statsInterval);

    const RunResult &r = job.run(*trace);
    // Closed before the crash self-check can exit, so even a failed
    // run leaves a complete capture.
    if (capture) {
        capture->close();
        std::cout << "captured " << capture->count() << " records to "
                  << opt.captureOut << "\n";
    }
    printSummary(opt, cfg, r, job);

    if (!opt.latencyOut.empty()) {
        // LatencyStat::merge drops raw samples: read each shard's own.
        std::ostringstream out;
        for (std::size_t s = 0; s < sims.size(); ++s) {
            const RunResult &rs =
                job.pipeline() ? job.pipeline()->shardResult(s) : r;
            for (double v : rs.writeLatency.samples())
                out << v << "\n";
        }
        publish(opt.latencyOut, out.str());
        std::cout << "wrote " << r.writeLatency.count()
                  << " write-latency samples to " << opt.latencyOut
                  << "\n";
    }

    if (!opt.statsJson.empty()) {
        std::ostringstream out;
        job.writeReport(out, /*indent=*/2);
        publish(opt.statsJson, out.str());
        if (const auto *pipe = job.pipeline())
            std::cout << "wrote pipeline stats report ("
                      << pipe->shardCount() << " shards) to "
                      << opt.statsJson << "\n";
        else
            std::cout << "wrote stats report ("
                      << sims.front()->statRegistry().size() << " stats, "
                      << sims.front()->sampler().rows().size()
                      << " interval samples) to " << opt.statsJson
                      << "\n";
    }

    if (!spans.empty()) {
        std::vector<const SpanTrace *> parts;
        std::size_t kept = 0;
        std::uint64_t recorded = 0;
        for (const SpanTrace &t : spans) {
            parts.push_back(&t);
            kept += t.size();
            recorded += t.totalRecorded();
        }
        std::ostringstream out;
        SpanTrace::writeChromeJson(out, parts);
        publish(opt.spansOut, out.str());
        std::cout << "wrote " << kept << " of " << recorded << " spans to "
                  << opt.spansOut << "\n";
    }

    if (!opt.metricsOut.empty()) {
        std::vector<const StatRegistry *> regs;
        for (const Simulator *sim : sims)
            regs.push_back(&sim->statRegistry());
        std::ostringstream out;
        writePrometheusText(out, regs);
        publish(opt.metricsOut, out.str());
        std::cout << "wrote the metrics page of " << regs.size()
                  << (regs.size() == 1 ? " simulator" : " shards") << " to "
                  << opt.metricsOut << "\n";
    }

    if (!events.empty()) {
        std::size_t kept = 0;
        std::uint64_t recorded = 0;
        std::ostringstream out;
        for (const WriteEventTrace &t : events) {
            t.writeJsonl(out);
            kept += t.size();
            recorded += t.totalRecorded();
        }
        publish(opt.traceOut, out.str());
        std::cout << "wrote " << kept << " of " << recorded
                  << " write events to " << opt.traceOut << "\n";
    }
    return 0;
}
