/**
 * @file
 * Trace-driven system simulator: an in-order core model issuing the
 * memory-level request stream of a TraceSource through a scheme into
 * the banked PCM device, collecting every metric the evaluation needs
 * (latency distributions, IPC, energy, write reduction, metadata
 * footprint, cache hit rates).
 *
 * Core timing model: the core retires icount instructions at baseCpi
 * between requests; LLC miss fills (reads) block it for the observed
 * memory latency; evictions (writes) are posted and only stall the
 * core via write-queue backpressure — exactly the asymmetry that lets
 * write reduction translate into IPC (Fig. 14).
 *
 * Several cores (Table I's CPU is 8-core) share the one scheme,
 * metadata caches and device: run() takes one trace per core, each
 * core keeps its own clock, and a next-event loop fires the core whose
 * pending record issues earliest, so device arrival times stay
 * globally non-decreasing (which the bank model requires). A read
 * blocks only the core that issued it.
 */

#ifndef ESD_CORE_SIMULATOR_HH
#define ESD_CORE_SIMULATOR_HH

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/stat_registry.hh"
#include "common/stats.hh"
#include "common/write_trace.hh"
#include "dedup/scheme.hh"
#include "dedup/scheme_factory.hh"
#include "metrics/energy.hh"
#include "metrics/interval_sampler.hh"
#include "metrics/profiler.hh"
#include "metrics/span_trace.hh"
#include "nvm/nvm_store.hh"
#include "nvm/pcm_device.hh"
#include "persist/persistence.hh"
#include "trace/trace.hh"

namespace esd
{

/** Everything measured over one simulation run. */
struct RunResult
{
    std::string schemeName;

    /** Measured records and retired instructions, summed over cores. */
    std::uint64_t records = 0;
    std::uint64_t instructions = 0;

    /** Simulated wall time in ns: the slowest core's measured window. */
    double runtimeNs = 0;

    /** Instructions per core cycle of wall time (system IPC when
     * several cores ran). */
    double ipc = 0;

    LatencyStat readLatency;
    LatencyStat writeLatency;

    std::uint64_t logicalWrites = 0;
    std::uint64_t logicalReads = 0;
    std::uint64_t dedupHits = 0;
    std::uint64_t nvmDataWrites = 0;
    std::uint64_t nvmReadsTotal = 0;   ///< incl. metadata traffic
    std::uint64_t nvmWritesTotal = 0;  ///< incl. metadata traffic
    std::uint64_t nvmWritesCoalesced = 0;  ///< absorbed in a channel WPQ

    EnergyBreakdown energy;
    WriteBreakdown breakdown;

    std::uint64_t metadataNvmBytes = 0;
    std::uint64_t uniqueLinesStored = 0;

    /** Scheme-dependent cache hit rates (0 when not applicable). */
    double fpCacheHitRate = 0;  ///< EFIT (ESD) / fp cache (full dedup)
    double amtCacheHitRate = 0;

    /** Fraction of logical writes deduplicated via a fingerprint
     * resident in the memory cache vs fetched from NVMM (Fig. 5). */
    double dedupViaFpCacheFrac = 0;
    double dedupViaFpNvmFrac = 0;

    /** Endurance accounting over the measured window. */
    WearStats wear;

    /** Host wall-clock of the measured window in ns. Never serialized
     * into run reports — simulated results stay machine-independent —
     * but the self-profiling benches read it for writes/s. */
    std::uint64_t hostNs = 0;

    /** dedupHits / logicalWrites. */
    double
    writeReduction() const
    {
        return logicalWrites == 0
                   ? 0.0
                   : static_cast<double>(dedupHits) / logicalWrites;
    }
};

/**
 * One simulated system instance: cores + scheme + device.
 */
class Simulator
{
  public:
    Simulator(const SimConfig &cfg, SchemeKind kind);

    /**
     * Play one trace per core through the system; one trace is the
     * single-core run.
     *
     * @param records records each core consumes (0 = until its trace
     *                is exhausted)
     * @param warmup  each core's leading records excluded from its
     *                timing window (the paper warms the NVMM before
     *                measuring); the shared statistics reset when the
     *                last core leaves its warm-up
     */
    RunResult run(const std::vector<TraceSource *> &traces,
                  std::uint64_t records, std::uint64_t warmup = 0);

    /** The single-core run of @p trace. */
    RunResult
    run(TraceSource &trace, std::uint64_t records, std::uint64_t warmup = 0)
    {
        return run(std::vector<TraceSource *>{&trace}, records, warmup);
    }

    // ------------------------------------------------------------------
    // Incremental run API.
    //
    // The sharded write pipeline (exec/pipeline.hh) drives one
    // Simulator per shard record by record instead of handing it a
    // whole TraceSource; a single-core run() is exactly beginRun() +
    // one stepRecord() per record + endRun(), so both paths share one
    // timing model.

    /** Reset run-loop state; call once before the first stepRecord(). */
    void beginRun();

    /**
     * Advance core 0 by one trace record. @p measured marks records
     * inside the measurement window (the caller owns the warmup
     * policy); the first measured record after an unmeasured prefix
     * closes the warm-up window exactly like run() does.
     */
    void
    stepRecord(const TraceRecord &rec, bool measured)
    {
        step(cores_.front(), rec, measured);
    }

    /** Close the run and assemble the RunResult over the measured
     * window. A run that saw no measured record yields zeros. */
    RunResult endRun();

    /** True once every core has left its warm-up. */
    bool measuring() const { return measuring_; }

    DedupScheme &scheme() { return *scheme_; }
    PcmDevice &device() { return device_; }
    NvmStore &store() { return store_; }
    const SimConfig &config() const { return cfg_; }

    /** Every stat of the system, hierarchically named: "scheme.*",
     * "pcm.*" / "pcm.bankN.*", "esd.efit.*", "cache.amt.*", ... */
    const StatRegistry &statRegistry() const { return registry_; }

    /** Attach (nullptr detaches) a write-event trace sink; events are
     * recorded for measured and warm-up writes alike. */
    void setEventTrace(WriteEventTrace *trace)
    {
        scheme_->setEventTrace(trace);
    }

    /** Attach (nullptr detaches) a span-trace sink to both the write
     * pipeline and the PCM device, so pipeline spans and channel
     * service spans land in one trace. */
    void
    setSpanTrace(SpanTrace *spans)
    {
        scheme_->setSpanTrace(spans);
        device_.setSpanTrace(spans);
    }

    /** Opt the latency stats into keeping every raw sample (for
     * -latency-out= style exports). Percentiles always come from the
     * exact histograms. Call before run(). */
    void
    enableRawLatencySamples()
    {
        readLatency_.enableRawSamples();
        writeLatency_.enableRawSamples();
    }

    /** Snapshot every scalar stat each @p every_writes measured
     * writes (0 disables). Call before run(). */
    void
    enableIntervalSampling(std::uint64_t every_writes)
    {
        sampler_.configure(registry_, every_writes);
    }

    const IntervalSampler &sampler() const { return sampler_; }

    /**
     * Attach the host-side phase profiler to the scheme and register
     * its gauges under "host.profile.*". Call before run(); opt-in
     * because registration widens the stats-JSON schema (unprofiled
     * reports stay byte-identical to earlier releases).
     */
    void
    enableProfiling()
    {
        if (profiling_)
            return;
        profiling_ = true;
        scheme_->setProfiler(&profiler_);
        if (persist_)
            persist_->setProfiler(&profiler_);
        profiler_.registerStats(registry_, "host.profile");
        // Registering gauges widened the registry; an already-enabled
        // sampler must re-capture its column set or its row width
        // assertion fires on the first sample.
        if (sampler_.enabled())
            sampler_.configure(registry_, sampler_.interval());
    }

    const Profiler &profiler() const { return profiler_; }

    /** The crash-consistency engine, or nullptr when [persistence] is
     * off. Crash tooling reads the image and runs recovery off it. */
    PersistenceManager *persistence() { return persist_.get(); }
    const PersistenceManager *persistence() const
    {
        return persist_.get();
    }

  private:
    /** One in-order core's clock and its measured window. */
    struct Core
    {
        double time = 0;  ///< simulated ns
        std::uint64_t instructions = 0;
        double measureStartTime = 0;
        std::uint64_t measureStartInstr = 0;
        std::uint64_t measuredRecords = 0;
        bool measuring = false;
    };

    /** When @p c issues @p rec: after retiring rec.icount
     * instructions. */
    double
    issueTime(const Core &c, const TraceRecord &rec) const
    {
        const double ns_per_cycle = 1.0 / cfg_.core.clockGhz;
        return c.time + rec.icount * cfg_.core.baseCpi * ns_per_cycle;
    }

    void step(Core &c, const TraceRecord &rec, bool measured);

    /** Open @p c's measured window; the last core to do so resets the
     * shared statistics after a warm-up. */
    void leaveWarmup(Core &c);

    void resetMeasurement();

    // Run-loop state shared by run() and the incremental API.
    std::vector<Core> cores_ = std::vector<Core>(1);
    std::size_t warmCores_ = 0;  ///< cores that left their warm-up
    std::uint64_t measuredWrites_ = 0;
    bool measuring_ = false;     ///< every core left its warm-up
    bool sawUnmeasured_ = false;
    std::chrono::steady_clock::time_point hostStart_;

    SimConfig cfg_;
    PcmDevice device_;
    NvmStore store_;
    std::unique_ptr<DedupScheme> scheme_;
    std::unique_ptr<PersistenceManager> persist_;

    StatRegistry registry_;
    IntervalSampler sampler_;
    Profiler profiler_;
    bool profiling_ = false;

    /** Measured-window latency distributions; registered as
     * "scheme.read_latency" / "scheme.write_latency" and copied into
     * the RunResult at the end of run(). */
    LatencyStat readLatency_;
    LatencyStat writeLatency_;
};

/**
 * Convenience wrapper: construct, run, and summarise an (app profile,
 * scheme) pair — the unit of work of every figure bench.
 */
RunResult runWorkload(const SimConfig &cfg, SchemeKind kind,
                      TraceSource &trace, std::uint64_t records,
                      std::uint64_t warmup = 0);

} // namespace esd

#endif // ESD_CORE_SIMULATOR_HH
