/**
 * @file
 * Machine-readable run reports: the full stats-JSON document emitted
 * by `esd_sim -stats-json=` — run configuration, the RunResult
 * summary, every registered stat, and the interval-sampler
 * time-series — so downstream tooling parses one schema instead of
 * scraping table output — and the post-run crash self-check every
 * front end runs before it reports a crash-injected run.
 */

#ifndef ESD_CORE_RUN_REPORT_HH
#define ESD_CORE_RUN_REPORT_HH

#include <ostream>
#include <string>

#include "core/simulator.hh"
#include "persist/recovery.hh"

namespace esd
{

class JsonWriter;

/** Serialize the per-run summary (records, IPC, energy, wear, ...).
 * @p histogram_buckets additionally embeds the exact log-histogram
 * buckets of each latency stat; off by default so existing reports
 * stay byte-identical. */
void writeRunResultJson(JsonWriter &w, const RunResult &r,
                        bool histogram_buckets = false);

/**
 * Write the complete stats report document to @p os:
 *   {"config": {...}, "result": {...}, "stats": {...},
 *    "intervals": {...}}        // intervals only when sampler != null
 * "config" is writeConfigJson() (common/config_io.hh): every config
 * key outside the execution sections, named as in a config file.
 *
 * @param indent spaces per JSON nesting level; 0 emits the compact
 *        one-line form the sweep merger embeds per job.
 * @param histogram_buckets embed exact histogram buckets in every
 *        latency stat (opt-in; widens the schema).
 */
void writeStatsReport(std::ostream &os, const SimConfig &cfg,
                      const RunResult &r, const StatRegistry &reg,
                      const IntervalSampler *sampler = nullptr,
                      int indent = 2,
                      bool histogram_buckets = false);

/** Outcome of checkInjectedCrash(). */
struct CrashCheck
{
    /** The captured image; nullptr when no crash fired. */
    const CrashImage *image = nullptr;

    /** Recovery off the image, and its pad-reuse audit (valid only
     * when image is set). */
    RecoveredState recovered;
    PadSafetyReport audit;

    /** Empty on success (or when the run injected no crash), else
     * the failure reason. */
    std::string error;

    /** Shard the check ran on; 0 for a single Simulator. */
    unsigned shard = 0;
};

/**
 * Post-run self-check for a run that injected a crash (@p cfg's
 * [persistence] crash_at_write): the crash must have fired in @p sim,
 * recovery off its image must complete with no unresolved state, and
 * the pad-safety audit must be clean. @p cfg is the run's config;
 * under the sharded pipeline @p sim is the shard that crashed (any
 * shard when none did).
 */
CrashCheck checkInjectedCrash(Simulator &sim, const SimConfig &cfg);

} // namespace esd

#endif // ESD_CORE_RUN_REPORT_HH
