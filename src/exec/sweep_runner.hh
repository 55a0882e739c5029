/**
 * @file
 * Shared-nothing parallel sweep execution.
 *
 * Every paper figure and ablation is a grid of independent
 * (application x scheme x config) simulations; SweepRunner executes
 * those grid points on a host thread pool, one exec::Job each (job.hh).
 * Each job owns its entire simulated world — config, trace generator
 * (PCG-seeded), Simulator or pipeline shards, StatRegistry, PcmDevice —
 * so workers share no mutable state and the merged sweep report is
 * byte-identical whatever the thread count or completion order:
 *
 *   - each job's seed is its own cfg.seed, fixed by the job list and
 *     never by scheduling;
 *   - each worker serializes its own per-job JSON fragment while its
 *     registry is alive;
 *   - the merger splices fragments in job-index order.
 *
 * test_sweep_determinism.cc enforces the byte-identity guarantee; the
 * TSan CI job enforces the shared-nothing claim.
 */

#ifndef ESD_EXEC_SWEEP_RUNNER_HH
#define ESD_EXEC_SWEEP_RUNNER_HH

#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "exec/job.hh"

namespace esd::exec
{

/** What one finished job yields. */
struct SweepOutcome
{
    RunResult result;

    /** Compact per-job JSON document: job identity + the full stats
     * report ({"config","result","stats"}), or job identity + "error"
     * when the job failed. Deterministic — contains no host timing. */
    std::string reportJson;

    /** Host wall-clock seconds this job took (bench-only; deliberately
     * excluded from reportJson). */
    double hostSeconds = 0;

    /** False when the job failed — it threw, or its injected crash
     * did not recover cleanly. A failed slot is a first-class outcome:
     * callers must surface it, never silently drop it. */
    bool ok = true;

    /** Human-readable failure reason when !ok. */
    std::string error;
};

/** Serialized progress callback: (job index, job, its result). */
using SweepProgressFn =
    std::function<void(std::size_t, const JobSpec &, const RunResult &)>;

/**
 * Thread-pooled executor for independent jobs.
 *
 * Workers pull job indices from an atomic cursor and write outcomes
 * into per-job slots, so results always come back in job order
 * regardless of completion order. The progress callback runs under a
 * mutex (safe to print from).
 */
class SweepRunner
{
  public:
    /** @param jobs worker threads, at least 1. */
    explicit SweepRunner(unsigned jobs = 1);

    /** Execute every job; outcomes[i] belongs to jobs[i]. */
    std::vector<SweepOutcome> run(const std::vector<JobSpec> &jobs,
                                  const SweepProgressFn &progress =
                                      nullptr) const;

  private:
    unsigned jobs_;
};

/**
 * Merge per-job fragments into the one sweep report document:
 *   {"job_count": N, "jobs": [{...}, ...],
 *    "aggregate": {"read_latency": {...}, "write_latency": {...}}}
 * The aggregate merges every job's exact latency histograms (buckets
 * included), so sweep-wide percentiles are exact, not
 * percentile-of-percentiles. Byte-identical for identical job lists,
 * independent of the worker count that produced @p outcomes.
 */
void writeSweepReport(std::ostream &os,
                      const std::vector<SweepOutcome> &outcomes);

/**
 * First structural divergence between two JSON documents as a
 * dotted/indexed path ("jobs[3].report.stats.pcm.writes"), or "" when
 * structurally equal. Diagnostic for determinism-test failures.
 */
std::string firstJsonDivergence(const std::string &a,
                                const std::string &b);

} // namespace esd::exec

#endif // ESD_EXEC_SWEEP_RUNNER_HH
