/**
 * @file
 * Intra-simulation sharded write pipeline.
 *
 * SweepRunner (sweep_runner.hh) parallelises *across* independent
 * simulations; this layer parallelises *inside* one simulation. The
 * per-channel metadata sharding of the schemes — the partitions of
 * the EFIT, fingerprint, AMT and content caches (one ChannelCache
 * core) and of DeWrite's predictor, LineStore allocation, and PCM
 * channel queues are all keyed by channelOf(addr) — means a line in
 * channel c can only ever deduplicate against channel c, and a shard
 * counts exactly what its channel does in a serial run (every counter
 * that does not depend on time). ShardedPipeline cashes that in: it
 * runs one complete Simulator per channel shard (shared-nothing — each
 * owns its scheme, device, store, RAS state, persistence journal, and
 * StatRegistry) and demultiplexes the trace by channelOf(line) into
 * per-shard work queues consumed by worker threads.
 *
 * Determinism contract (the strongest the repo has): the merged stats
 * report is byte-for-byte identical at any worker count, because
 *
 *   - the demux assigns records to shards by address alone, so every
 *     shard sees the same input stream whatever the thread count;
 *   - each shard simulator is single-threaded and touches no shared
 *     mutable state between barriers (the TSan CI job enforces this);
 *   - cross-shard effects apply only at deterministic *epoch barriers*
 *     (every [pipeline] epoch_records trace records), in canonical
 *     shard order: the global dedup-suspension latch (RAS UE counts
 *     summed across shards), and the merged interval-sampling rows;
 *   - the merge visits shards in index order and reuses the exact
 *     mergeable-stat machinery (LogHistogram/LatencyStat::merge,
 *     summed counters), so no float is ever combined in a
 *     scheduling-dependent order;
 *   - the worker count is an execution knob, never serialized into
 *     the report (exactly like -jobs= for sweeps).
 *
 * Composition: [persistence] journals commit per shard on the shard's
 * own write counts (journal records are ordered by (shard, seq));
 * crash injection by global write index is tagged by the demux and
 * armed on the owning shard just before the chosen write (every shard
 * is prepared for crash capture at construction). [ras] fault
 * streams stay per shard; only the suspension latch crosses shards.
 *
 * tests/test_pipeline.cc enforces the byte-identity guarantee;
 * ESD_TEST_JITTER=1 injects randomized per-worker barrier delays so
 * the TSan job also flushes scheduling-dependent merges.
 */

#ifndef ESD_EXEC_PIPELINE_HH
#define ESD_EXEC_PIPELINE_HH

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/config.hh"
#include "core/run_report.hh"
#include "core/simulator.hh"

namespace esd::exec
{

/**
 * One parallel simulation: S = channels.count shard simulators driven
 * by min(workers, S) worker threads joining at epoch barriers.
 *
 * Single-shot: construct, run() once, then read results / the report.
 */
class ShardedPipeline
{
  public:
    /** One merged counter row recorded at an epoch barrier (all
     * counters cumulative since the measurement reset). */
    struct IntervalRow
    {
        std::uint64_t epoch = 0;          ///< 1-based barrier index
        std::uint64_t logicalWrites = 0;
        std::uint64_t dedupHits = 0;
        std::uint64_t nvmWritesTotal = 0;
        std::uint64_t nvmReadsTotal = 0;
    };

    /**
     * @param cfg     the run configuration; shard count =
     *                cfg.channels.count, barrier cadence from
     *                cfg.pipeline
     * @param kind    scheme under test (one instance per shard)
     * @param workers worker threads; clamped to [1, shard count]
     */
    ShardedPipeline(const SimConfig &cfg, SchemeKind kind,
                    unsigned workers);
    ~ShardedPipeline();

    ShardedPipeline(const ShardedPipeline &) = delete;
    ShardedPipeline &operator=(const ShardedPipeline &) = delete;

    /**
     * Demultiplex @p trace through the shard simulators. May be called
     * exactly once.
     *
     * @param records total records to consume (0 = until exhausted)
     * @param warmup  leading records excluded from statistics (global
     *                index, same semantics as Simulator::run)
     * @return the merged run result (also available via result())
     */
    const RunResult &run(TraceSource &trace, std::uint64_t records,
                         std::uint64_t warmup = 0);

    unsigned shardCount() const { return shardCount_; }

    /** Resolved worker count (>= 1, <= shardCount). */
    unsigned workers() const { return workers_; }

    Simulator &shard(unsigned s) { return *shards_[s]; }
    const Simulator &shard(unsigned s) const { return *shards_[s]; }

    /** Per-shard run result; valid after run(). */
    const RunResult &shardResult(unsigned s) const
    {
        return results_[s];
    }

    /** The merged result; valid after run(). */
    const RunResult &result() const { return merged_; }

    /** Epoch barriers executed (= ceil(records / epoch_records), plus
     * the final partial epoch). */
    std::uint64_t epochsRun() const { return epochsRun_; }

    /** True once the cross-shard UE sum latched dedup suspension on
     * every shard. */
    bool dedupSuspendedGlobally() const { return globalSuspend_; }

    /** Barrier index (0-based) at which the global latch fired; only
     * meaningful when dedupSuspendedGlobally(). */
    std::uint64_t suspendEpoch() const { return suspendEpoch_; }

    /** Shard whose persistence manager captured a crash image, or -1
     * when none crashed. */
    int crashedShard() const;

    /**
     * esd::checkInjectedCrash (core/run_report.hh) on the crashed
     * shard, or shard 0 when none crashed, against the global crash
     * point; CrashCheck::shard names the shard checked.
     */
    CrashCheck checkInjectedCrash() const;

    /** Merged counter rows recorded at barriers ([pipeline]
     * sample_epochs > 0). */
    const std::vector<IntervalRow> &intervals() const
    {
        return intervalRows_;
    }

    /**
     * Write the merged stats report document:
     *   {"config": {...}, "pipeline": {...}, "result": {...},
     *    "shards": [{"shard": i, "result": {...}, "stats": {...}},
     *    ...], "intervals": {...}}   // intervals only when sampled
     * "config" is writeConfigJson() (common/config_io.hh), as in the
     * serial report. Byte-identical at any worker count: the pipeline section carries
     * shard count and barrier cadence but never the worker count.
     */
    void writeReport(std::ostream &os, int indent = 2,
                     bool histogram_buckets = false) const;

  private:
    struct Item;
    struct Batch;
    struct ShardQueue;
    struct Barrier;

    void workerLoop(unsigned w);
    void applyBarrierEffects(std::uint64_t epoch);
    void flushEpoch(std::vector<Batch> &pending, bool final);
    RunResult mergeResults() const;

    SimConfig cfg_;
    SchemeKind kind_;
    unsigned shardCount_;
    unsigned workers_;
    bool jitter_;

    std::vector<std::unique_ptr<Simulator>> shards_;
    std::vector<std::unique_ptr<ShardQueue>> queues_;
    std::unique_ptr<Barrier> barrier_;

    std::vector<RunResult> results_;
    RunResult merged_;
    bool ran_ = false;

    std::uint64_t epochsRun_ = 0;
    bool globalSuspend_ = false;
    std::uint64_t suspendEpoch_ = 0;
    std::vector<IntervalRow> intervalRows_;
};

} // namespace esd::exec

#endif // ESD_EXEC_PIPELINE_HH
