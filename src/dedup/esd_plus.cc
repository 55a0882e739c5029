#include "dedup/esd_plus.hh"

#include "common/stat_registry.hh"

namespace esd
{

EsdPlusScheme::EsdPlusScheme(const SimConfig &cfg, PcmDevice &device,
                             NvmStore &store)
    : EsdScheme(cfg, device, store),
      hotThreshold_(2),
      capacity_(64)  // 64 lines = 4 KB of SRAM
{
}

void
EsdPlusScheme::registerStats(StatRegistry &reg) const
{
    EsdScheme::registerStats(reg);
    reg.addGauge("esd.content_cache.hits",
                 [this] { return static_cast<double>(contentHits_); },
                 "compares answered on chip, no device read");
    reg.addGauge("esd.content_cache.size",
                 [this] { return static_cast<double>(lru_.size()); },
                 "resident hot lines");
    reg.addGauge("esd.content_cache.capacity",
                 [this] { return static_cast<double>(capacity_); },
                 "content-cache capacity in lines");
}

const CacheLine *
EsdPlusScheme::findContent(Addr phys)
{
    auto it = index_.find(lineAlign(phys));
    if (it == index_.end())
        return nullptr;
    lru_.splice(lru_.begin(), lru_, it->second);
    return &it->second->data;
}

void
EsdPlusScheme::installContent(Addr phys, const CacheLine &data)
{
    phys = lineAlign(phys);
    auto it = index_.find(phys);
    if (it != index_.end()) {
        it->second->data = data;
        lru_.splice(lru_.begin(), lru_, it->second);
        return;
    }
    if (lru_.size() >= capacity_) {
        index_.erase(lru_.back().phys);
        lru_.pop_back();
    }
    lru_.push_front(CachedLine{phys, data});
    index_[phys] = lru_.begin();
}

void
EsdPlusScheme::eraseContent(Addr phys)
{
    auto it = index_.find(lineAlign(phys));
    if (it != index_.end()) {
        lru_.erase(it->second);
        index_.erase(it);
    }
}

void
EsdPlusScheme::onPhysFreed(Addr phys)
{
    eraseContent(phys);
    EsdScheme::onPhysFreed(phys);
}

AccessResult
EsdPlusScheme::write(Addr addr, const CacheLine &data, Tick now)
{
    stats_.logicalWrites.inc();
    AccessResult res;
    WriteBreakdown bd;
    addr = lineAlign(addr);

    LineEcc ecc = encodeEcc(data);
    Tick t = now + cfg_.crypto.eccLatency;

    Tick m = metadataAccess();
    t += m;
    bd.metadata += static_cast<double>(m);

    bool suspended = dedupSuspended();
    unsigned shard = channelOf(addr);
    Efit::Entry *entry = nullptr;
    {
        Profiler::Scope ps = profScope(Profiler::Lookup);
        if (!suspended)
            entry = efit_.lookup(ecc, shard);
    }
    bool dedup_done = false;
    bool saturated_rewrite = false;

    FpProbe probe = FpProbe::Miss;
    CompareVerdict verdict = CompareVerdict::None;
    Addr decisive_addr = addr;
    Tick decisive_queue = 0;
    Tick encrypt_ns = 0;

    if (entry && lines_.isLive(entry->phys.toAddr())) {
        Addr cand = entry->phys.toAddr();
        probe = FpProbe::Hit;
        decisive_addr = cand;

        // Fast path: hot candidate content is on chip — the compare
        // costs comparator latency only, no device read.
        bool matched = false;
        bool resolved = false;
        if (const CacheLine *cached = findContent(cand)) {
            ++contentHits_;
            t += cfg_.crypto.compareLatency;
            stats_.metadataEnergy += cfg_.crypto.compareEnergy;
            matched = linesEqualFast(*cached, data);
            resolved = true;
        }

        if (!resolved) {
            // Slow path: fetch and compare, as plain ESD.
            NvmAccessResult r = deviceRead(cand, t);
            bd.readCompare += static_cast<double>(r.complete - t);
            t = r.complete;
            decisive_queue = r.queueDelay;
            stats_.compareReads.inc();
            stats_.metadataEnergy += cfg_.crypto.compareEnergy;
            t += cfg_.crypto.compareLatency;

            CacheLine plain;
            matched = compareStored(cand, data, t, &plain);
            // Promote proven-hot lines into the content cache.
            if (matched && entry->referH + 1 >= hotThreshold_)
                installContent(cand, plain);
        }

        verdict = matched ? CompareVerdict::Equal : CompareVerdict::Mismatch;
        if (matched) {
            if (efit_.bumpRef(entry)) {
                stats_.dedupHits.inc();
                if (data.isZero())
                    stats_.dedupHitsZeroLine.inc();
                stats_.dedupHitsFpCache.inc();
                res.issuerStall += remap(addr, cand, t, bd);
                res.dedup = true;
                dedup_done = true;
            } else {
                stats_.refHOverflowRewrites.inc();
                saturated_rewrite = true;
                eraseContent(cand);  // the new copy becomes the target
            }
        } else {
            stats_.compareMismatches.inc();
        }
    } else if (entry) {
        Profiler::Scope ps = profScope(Profiler::Lookup);
        noteJournal(JournalOp::EfitEvict, entry->phys.toAddr());
        efit_.erase(entry->ecc, entry->phys.toAddr(), shard);
    }

    if (!dedup_done) {
        Addr phys;
        NvmAccessResult w = writeNewLine(addr, data, ecc, phys, t, bd);
        res.issuerStall += w.issuerStall;
        decisive_addr = phys;
        decisive_queue = w.queueDelay;
        encrypt_ns = cfg_.crypto.encryptLatency;

        {
            Profiler::Scope ps = profScope(Profiler::Lookup);
            if (saturated_rewrite) {
                noteJournal(JournalOp::EfitEvict, entry->phys.toAddr());
                efit_.redirect(entry, phys);
                physToEcc_[phys] = ecc;
                noteJournal(JournalOp::EfitInsert, phys, kInvalidAddr,
                            ecc);
            } else if (!suspended) {
                efit_.insert(ecc, phys, shard);
                physToEcc_[phys] = ecc;
                noteJournal(JournalOp::EfitInsert, phys, kInvalidAddr,
                            ecc);
            }
        }

        res.issuerStall += remap(addr, phys, t, bd);
    }

    res.latency = t - now;
    stats_.breakdown.add(bd);

    WriteOutcome outcome = WriteOutcome::Unique;
    if (dedup_done)
        outcome = WriteOutcome::Dedup;
    else if (saturated_rewrite)
        outcome = WriteOutcome::SaturatedRewrite;
    else if (verdict == CompareVerdict::Mismatch)
        outcome = WriteOutcome::Collision;
    traceWrite(now, addr, ecc, probe, verdict, outcome, decisive_addr,
               decisive_queue, encrypt_ns, res.latency, bd);
    return res;
}

} // namespace esd
