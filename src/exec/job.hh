/**
 * @file
 * One run, start to finish: the single place that decides which engine
 * a simulation runs on, how its injected crash is self-checked, and
 * which report schema it writes.
 *
 * A job is either one Simulator (JobSpec::workers == 0) or a
 * ShardedPipeline of per-channel shard simulators driven by `workers`
 * threads (exec/pipeline.hh). esd_sim runs one Job; SweepRunner runs
 * one per grid point for esd_sweep and the figure driver.
 * Each Job owns its whole simulated world, so jobs stay shared-nothing
 * across the sweep pool.
 */

#ifndef ESD_EXEC_JOB_HH
#define ESD_EXEC_JOB_HH

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/config.hh"
#include "core/run_report.hh"
#include "core/simulator.hh"
#include "exec/pipeline.hh"

namespace esd::exec
{

/** One run: a full simulation a Job owns end to end. */
struct JobSpec
{
    std::string app;          ///< paper application profile name
    SchemeKind scheme = SchemeKind::Baseline;
    SimConfig cfg;            ///< complete config incl. the job's seed
    std::uint64_t records = 0;  ///< 0 = until the source is exhausted
    std::uint64_t warmup = 0;

    /** On-disk trace to replay through the streaming frontend instead
     * of generating `app` synthetically. Each job opens its own
     * frontend, so jobs stay shared-nothing. */
    std::string traceFile;

    /** Intra-simulation pipeline threads. 0 runs one Simulator; >= 1
     * runs a ShardedPipeline, whose report uses the pipeline schema
     * (per-shard results) and is byte-identical at any thread count.
     * Don't mix modes within one sweep — the two schemas differ. */
    unsigned workers = 0;

    /** Apps of cores 1..N-1 of a multi-core run, one Simulator with
     * one trace per core; empty runs one core. Core i replays its app
     * synthetically, seeded cfg.seed + i, so core 0 is the job's own
     * source. Each core runs `records` records with `warmup` warm-up.
     * Pipeline shards step only core 0: needs workers == 0. */
    std::vector<std::string> coreApps;
};

/** The job's workload: a TraceFrontend over spec.traceFile, or the
 * synthetic spec.app generator seeded with spec.cfg.seed. */
std::unique_ptr<TraceSource> openSource(const JobSpec &spec);

/**
 * The run-shape flags the front ends share: -records=, -warmup= and
 * -workers= (range [1, 256]). A trace file replays whole with no
 * warmup unless -records= / -warmup= are given; a synthetic workload
 * takes the tool's defaults.
 */
class JobFlags
{
  public:
    JobFlags(std::uint64_t default_records, std::uint64_t default_warmup)
        : records_(default_records), warmup_(default_warmup)
    {
    }

    /** Consume @p arg when it is one of the three flags; a bad value
     * dies through esd_fatal naming the flag. */
    bool take(const std::string &arg);

    /** Pipeline workers given by -workers=; 0 when absent. */
    unsigned workers() const { return workers_; }

    /** Set @p spec's records, warmup and workers; spec.traceFile must
     * already be set. */
    void applyTo(JobSpec &spec) const;

  private:
    std::uint64_t records_;
    std::uint64_t warmup_;
    bool recordsGiven_ = false;
    bool warmupGiven_ = false;
    unsigned workers_ = 0;
};

/**
 * The world of one run. Construct it, attach sinks or profilers to
 * simulators(), run() once, then check and report.
 */
class Job
{
  public:
    explicit Job(const JobSpec &spec);

    Job(const Job &) = delete;
    Job &operator=(const Job &) = delete;

    /** The simulators the run drives: the one Simulator, or the S
     * shard simulators in shard order. */
    const std::vector<Simulator *> &simulators() const { return sims_; }

    /** Run spec.records records of @p trace (core 0's), the first
     * spec.warmup excluded from statistics; cores 1..N-1 replay
     * spec.coreApps. May be called exactly once. */
    const RunResult &run(TraceSource &trace);

    /** esd::checkInjectedCrash on the simulator, or on the shard that
     * crashed (shard 0 when none did). */
    CrashCheck checkInjectedCrash() const;

    /** The pipeline that drove the shards; nullptr for one Simulator. */
    const ShardedPipeline *pipeline() const { return pipe_.get(); }

    /**
     * The stats report: the pipeline schema under a pipeline, else
     * writeStatsReport with the interval rows when the simulator's
     * sampler is enabled. Latency histogram buckets are embedded when
     * cfg.telemetry.histogram_buckets is set. @p indent 0 emits the
     * compact one-line form the sweep merger embeds per job.
     */
    void writeReport(std::ostream &os, int indent) const;

  private:
    JobSpec spec_;
    std::unique_ptr<Simulator> sim_;
    std::unique_ptr<ShardedPipeline> pipe_;
    std::vector<Simulator *> sims_;
    RunResult result_;  ///< single-Simulator result
};

} // namespace esd::exec

#endif // ESD_EXEC_JOB_HH
