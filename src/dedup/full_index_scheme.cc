#include "dedup/full_index_scheme.hh"

namespace esd
{

FullIndexScheme::FullIndexScheme(const SimConfig &cfg, PcmDevice &device,
                                 NvmStore &store, std::uint64_t entry_bytes,
                                 Addr nvm_base)
    : MappedDedupScheme(cfg, device, store),
      fps_(cfg.metadata.efitCacheBytes, entry_bytes, cfg.metadata.efitAssoc,
           nvm_base, device.channelCount())
{
}

std::uint64_t
FullIndexScheme::metadataNvmBytes() const
{
    return fps_.nvmBytes() + amt_.nvmBytes();
}

void
FullIndexScheme::registerStats(StatRegistry &reg) const
{
    MappedDedupScheme::registerStats(reg);
    fps_.registerStats(reg, "cache.fp");
}

MetadataCacheCounts
FullIndexScheme::metadataCacheCounts() const
{
    MetadataCacheCounts c = MappedDedupScheme::metadataCacheCounts();
    c.fpHits = fps_.stats().cacheHits.value();
    c.fpLookups = fps_.stats().lookups.value();
    return c;
}

void
FullIndexScheme::dropIndexEntry(std::uint64_t fp, Addr /*phys*/,
                                unsigned shard)
{
    fps_.erase(fp, shard);
}

FpTable::LookupResult
FullIndexScheme::probeIndex(WriteCtx &w, std::uint64_t fp, unsigned shard,
                            bool suspended)
{
    FpTable::LookupResult lr;
    {
        Profiler::Scope ps = profScope(Profiler::Lookup);
        if (!suspended)
            lr = fps_.lookup(fp, shard);
    }
    if (lr.nvmLookup) {
        stats_.fpNvmLookups.inc();
        NvmAccessResult r = deviceRead(lr.nvmAddr, w.t);
        w.bd.fpNvmLookup += static_cast<double>(r.complete - w.t);
        w.t = r.complete;
    }
    if (lr.found && !lines_.isLive(lr.phys)) {
        // Stale index entry pointing at a dead line.
        noteJournal(JournalOp::EfitEvict, lr.phys);
        fps_.erase(fp, shard);
        lr.found = false;
    } else if (lr.found) {
        w.probe = FpProbe::Hit;
        w.bankAddr = lr.phys;
    }
    return lr;
}

Tick
FullIndexScheme::indexNewLine(std::uint64_t fp, Addr phys, unsigned shard,
                              Tick at)
{
    Addr fp_store;
    {
        Profiler::Scope ps = profScope(Profiler::Lookup);
        fps_.insert(fp, phys, fp_store, shard);
        lines_.setFingerprint(phys, fp);
    }
    noteJournal(JournalOp::EfitInsert, phys, kInvalidAddr, fp);
    stats_.fpNvmStores.inc();
    return deviceWrite(fp_store, at).issuerStall;
}

} // namespace esd
