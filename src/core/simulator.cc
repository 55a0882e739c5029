#include "core/simulator.hh"

#include <vector>

#include "common/logging.hh"

namespace esd
{

Simulator::Simulator(const SimConfig &cfg, SchemeKind kind)
    : cfg_(cfg),
      device_(cfg.pcm, cfg.channels),
      store_(cfg.pcm.capacityBytes),
      scheme_(makeScheme(kind, cfg, device_, store_))
{
    scheme_->registerStats(registry_);
    device_.registerStats(registry_);
    registry_.addLatency("scheme.read_latency", readLatency_,
                         "measured LLC-miss fill latency, ns");
    registry_.addLatency("scheme.write_latency", writeLatency_,
                         "measured write-path latency, ns");
    if (cfg_.persist.enabled) {
        persist_ = std::make_unique<PersistenceManager>(
            cfg_.persist, device_, store_, cfg_.seed);
        scheme_->setPersistence(persist_.get());
        // Registered only on persistence-enabled runs: default-off
        // stats-JSON schemas stay byte-identical.
        persist_->registerStats(registry_, "persist");
    }
}

void
Simulator::resetMeasurement()
{
    scheme_->resetStats();
    device_.resetStats();
    device_.resetWear();
    readLatency_.reset();
    writeLatency_.reset();
    sampler_.reset();
    profiler_.reset();
    metrics_.reset();
    if (persist_)
        persist_->resetStats();
}

void
Simulator::beginRun()
{
    coreTime_ = 0;
    instructions_ = 0;
    measureStartTime_ = 0;
    measureStartInstr_ = 0;
    measuredRecords_ = 0;
    measuredWrites_ = 0;
    measuring_ = false;
    sawUnmeasured_ = false;

    readLatency_.reset();
    writeLatency_.reset();
    sampler_.reset();
    profiler_.reset();
    hostStart_ = std::chrono::steady_clock::now();
}

void
Simulator::stepRecord(const TraceRecord &rec, bool measured)
{
    if (measured && !measuring_) {
        // First measured record: close the warm-up window. A run with
        // no unmeasured prefix skips the reset — everything is still
        // in its freshly-constructed state.
        if (sawUnmeasured_)
            resetMeasurement();
        measureStartTime_ = coreTime_;
        measureStartInstr_ = instructions_;
        measuring_ = true;
        hostStart_ = std::chrono::steady_clock::now();
    }
    if (!measured)
        sawUnmeasured_ = true;

    // The core retires the inter-request instructions first.
    const double ns_per_cycle = 1.0 / cfg_.core.clockGhz;
    coreTime_ += rec.icount * cfg_.core.baseCpi * ns_per_cycle;
    instructions_ += rec.icount;

    auto now = static_cast<Tick>(coreTime_);
    if (rec.op == OpType::Write) {
        if (persist_)
            persist_->onWriteBegin(now);
        AccessResult r = scheme_->write(rec.addr, rec.data, now);
        if (persist_) {
            // Journal flush / epoch commit: the barrier and append
            // costs charge to this write so journaling overhead
            // shows in the latency histograms.
            Tick extra = persist_->onWriteEnd(now + r.latency);
            r.latency += extra;
            coreTime_ += static_cast<double>(extra);
        }
        if (measuring_) {
            writeLatency_.sample(static_cast<double>(r.latency));
            sampler_.onWrite(++measuredWrites_);
            metrics_.onWrite(measuredWrites_);
        }
        // Posted write: only backpressure stalls the core.
        coreTime_ += static_cast<double>(r.issuerStall);
    } else {
        CacheLine data;
        AccessResult r = scheme_->read(rec.addr, data, now);
        if (measuring_)
            readLatency_.sample(static_cast<double>(r.latency));
        // Miss fills block the core.
        coreTime_ += static_cast<double>(r.latency + r.issuerStall);
    }
    if (measuring_)
        ++measuredRecords_;
}

RunResult
Simulator::endRun()
{
    RunResult out;
    out.schemeName = scheme_->name();

    if (!measuring_) {
        // No measured record (e.g. an empty pipeline shard): an empty
        // measurement window starting now.
        measureStartTime_ = coreTime_;
        measureStartInstr_ = instructions_;
    }

    out.hostNs = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - hostStart_)
            .count());
    profiler_.setRunNs(out.hostNs);
    // Final exposition snapshot: a scraper always ends up with the
    // complete end-of-run page even when interval writes are off.
    metrics_.writeSnapshot();

    out.readLatency = readLatency_;
    out.writeLatency = writeLatency_;
    out.records = measuredRecords_;
    out.instructions = instructions_ - measureStartInstr_;
    out.runtimeNs = coreTime_ - measureStartTime_;
    double cycles = out.runtimeNs * cfg_.core.clockGhz;
    out.ipc = cycles > 0 ? out.instructions / cycles : 0.0;

    const SchemeStats &ss = scheme_->stats();
    out.logicalWrites = ss.logicalWrites.value();
    out.logicalReads = ss.logicalReads.value();
    out.dedupHits = ss.dedupHits.value();
    out.nvmDataWrites = ss.nvmDataWrites.value();
    out.nvmReadsTotal = device_.stats().reads.value();
    out.nvmWritesTotal = device_.stats().writes.value();
    out.nvmWritesCoalesced = device_.stats().writesCoalesced.value();
    out.energy = EnergyBreakdown::collect(device_.stats(), ss);
    out.breakdown = ss.breakdown;
    out.metadataNvmBytes = scheme_->metadataNvmBytes();
    out.uniqueLinesStored = store_.residentLines();
    out.wear = device_.wear().stats();
    if (out.logicalWrites > 0) {
        out.dedupViaFpCacheFrac =
            static_cast<double>(ss.dedupHitsFpCache.value()) /
            out.logicalWrites;
        out.dedupViaFpNvmFrac =
            static_cast<double>(ss.dedupHitsFpNvm.value()) /
            out.logicalWrites;
    }

    MetadataCacheCounts mc = scheme_->metadataCacheCounts();
    out.fpCacheHitRate = mc.fpHitRate();
    out.amtCacheHitRate = mc.amtHitRate();

    return out;
}

RunResult
Simulator::run(TraceSource &trace, std::uint64_t records,
               std::uint64_t warmup)
{
    beginRun();

    // Pull in batches (TraceSource::nextBatch): streaming sources pay
    // one virtual call per buffer instead of per record, and the
    // record sequence is identical to one-at-a-time consumption.
    constexpr std::size_t kRunChunk = 1024;
    std::vector<TraceRecord> chunk(kRunChunk);
    std::uint64_t processed = 0;
    while (records == 0 || processed < records) {
        std::size_t want = kRunChunk;
        if (records != 0 && records - processed < want)
            want = static_cast<std::size_t>(records - processed);
        std::size_t got = trace.nextBatch(chunk.data(), want);
        if (got == 0)
            break;
        for (std::size_t i = 0; i < got; ++i) {
            stepRecord(chunk[i], processed >= warmup);
            ++processed;
        }
    }

    if (warmup > 0 && !measuring_)
        esd_fatal("trace shorter than the %llu-record warmup",
                  static_cast<unsigned long long>(warmup));

    return endRun();
}

RunResult
runWorkload(const SimConfig &cfg, SchemeKind kind, TraceSource &trace,
            std::uint64_t records, std::uint64_t warmup)
{
    Simulator sim(cfg, kind);
    return sim.run(trace, records, warmup);
}

} // namespace esd
