#include "core/simulator.hh"

#include <algorithm>
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
    if (persist_)
        persist_->resetStats();
}

void
Simulator::beginRun()
{
    cores_.assign(1, Core{});
    warmCores_ = 0;
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
Simulator::leaveWarmup(Core &c)
{
    c.measuring = true;
    c.measureStartTime = c.time;
    c.measureStartInstr = c.instructions;
    if (++warmCores_ < cores_.size())
        return;
    // The last core left its warm-up: open the shared window. Shared
    // structures can't be split per core, so they reset only now. A
    // run with no unmeasured prefix skips the reset — everything is
    // still in its freshly-constructed state.
    if (sawUnmeasured_)
        resetMeasurement();
    measuring_ = true;
    hostStart_ = std::chrono::steady_clock::now();
}

void
Simulator::step(Core &c, const TraceRecord &rec, bool measured)
{
    if (measured && !c.measuring)
        leaveWarmup(c);
    if (!measured)
        sawUnmeasured_ = true;

    // The core retires the inter-request instructions first.
    c.time = issueTime(c, rec);
    c.instructions += rec.icount;

    auto now = static_cast<Tick>(c.time);
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
            c.time += static_cast<double>(extra);
        }
        if (measuring_) {
            writeLatency_.sample(static_cast<double>(r.latency));
            sampler_.onWrite(++measuredWrites_);
        }
        // Posted write: only backpressure stalls the core.
        c.time += static_cast<double>(r.issuerStall);
    } else {
        CacheLine data;
        AccessResult r = scheme_->read(rec.addr, data, now);
        if (measuring_)
            readLatency_.sample(static_cast<double>(r.latency));
        // Miss fills block the core.
        c.time += static_cast<double>(r.latency + r.issuerStall);
    }
    if (c.measuring)
        ++c.measuredRecords;
}

RunResult
Simulator::endRun()
{
    RunResult out;
    out.schemeName = scheme_->name();

    out.hostNs = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - hostStart_)
            .count());
    profiler_.setRunNs(out.hostNs);

    out.readLatency = readLatency_;
    out.writeLatency = writeLatency_;
    for (Core &c : cores_) {
        // A core with no measured record (e.g. an empty pipeline
        // shard) has an empty window starting now.
        if (!c.measuring) {
            c.measureStartTime = c.time;
            c.measureStartInstr = c.instructions;
        }
        out.records += c.measuredRecords;
        out.instructions += c.instructions - c.measureStartInstr;
        out.runtimeNs =
            std::max(out.runtimeNs, c.time - c.measureStartTime);
    }
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
Simulator::run(const std::vector<TraceSource *> &traces,
               std::uint64_t records, std::uint64_t warmup)
{
    esd_assert(!traces.empty(), "need at least one core trace");
    beginRun();
    cores_.resize(traces.size());
    if (warmup == 0)
        for (Core &c : cores_)
            leaveWarmup(c);

    // Each core pulls its trace in batches (TraceSource::nextBatch):
    // streaming sources pay one virtual call per buffer instead of per
    // record, and the record sequence is identical to one-at-a-time
    // consumption.
    constexpr std::size_t kRunChunk = 1024;
    struct Feed
    {
        TraceSource *trace;
        std::vector<TraceRecord> chunk;
        std::size_t head = 0;
        std::size_t size = 0;
        std::uint64_t pulled = 0;
        std::uint64_t processed = 0;
    };
    std::vector<Feed> feeds;
    feeds.reserve(traces.size());
    for (TraceSource *t : traces)
        feeds.push_back(Feed{t, std::vector<TraceRecord>(kRunChunk)});
    auto refill = [&](Feed &f) {
        std::size_t want = kRunChunk;
        if (records != 0 && records - f.pulled < want)
            want = static_cast<std::size_t>(records - f.pulled);
        f.head = 0;
        f.size = want == 0 ? 0 : f.trace->nextBatch(f.chunk.data(), want);
        f.pulled += f.size;
    };
    for (Feed &f : feeds)
        refill(f);

    for (;;) {
        // Fire the core whose pending record issues earliest (the
        // lowest core index on a tie).
        std::size_t next = feeds.size();
        double next_at = 0;
        for (std::size_t i = 0; i < feeds.size(); ++i) {
            const Feed &f = feeds[i];
            if (f.head == f.size)
                continue;
            double at = issueTime(cores_[i], f.chunk[f.head]);
            if (next == feeds.size() || at < next_at) {
                next = i;
                next_at = at;
            }
        }
        if (next == feeds.size())
            break;

        Feed &f = feeds[next];
        step(cores_[next], f.chunk[f.head], f.processed >= warmup);
        ++f.processed;
        if (++f.head == f.size)
            refill(f);
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
