#include "dedup/esd.hh"

namespace esd
{

EsdScheme::EsdScheme(const SimConfig &cfg, PcmDevice &device,
                     NvmStore &store)
    : MappedDedupScheme(cfg, device, store),
      efit_(cfg.metadata, device.channelCount())
{
}

void
EsdScheme::registerStats(StatRegistry &reg) const
{
    MappedDedupScheme::registerStats(reg);
    efit_.registerStats(reg, "esd.efit");
}

MetadataCacheCounts
EsdScheme::metadataCacheCounts() const
{
    MetadataCacheCounts c = MappedDedupScheme::metadataCacheCounts();
    c.fpHits = efit_.stats().hits.value();
    c.fpLookups = efit_.stats().lookups.value();
    return c;
}

void
EsdScheme::dropIndexEntry(std::uint64_t fp, Addr phys, unsigned shard)
{
    efit_.erase(fp, phys, shard);
}

bool
EsdScheme::compareCandidate(WriteCtx &w, const Efit::Entry &entry,
                            const CacheLine &data)
{
    return timedCompare(w, entry.phys.toAddr(), data);
}

AccessResult
EsdScheme::write(Addr addr, const CacheLine &data, Tick now)
{
    WriteCtx w = beginWrite(addr, now);

    // 1. The fingerprint is the ECC the controller already computed —
    //    zero latency, zero energy on the critical path.
    LineEcc ecc = eccFingerprint(w, data);

    // 2. EFIT probe — on-chip only; a miss never consults NVMM.
    chargeMetadata(w);

    // The RAS UE policy can suspend dedup: skip the probe, never
    // insert, and let every write take the unique path.
    bool suspended = dedupSuspended();
    unsigned shard = channelOf(w.addr);
    Efit::Entry *entry = nullptr;
    {
        Profiler::Scope ps = profScope(Profiler::Lookup);
        if (!suspended)
            entry = efit_.lookup(ecc, shard);
    }
    bool saturated_rewrite = false;

    if (entry && lines_.isLive(entry->phys.toAddr())) {
        Addr cand = entry->phys.toAddr();
        w.probe = FpProbe::Hit;
        w.bankAddr = cand;
        // 3. Similar line: fetch and byte-compare (PCM reads are half
        //    the cost of the write being saved — the asymmetry the
        //    selective design exploits). A mismatch is an ECC
        //    collision caught by the content comparison.
        if (compareCandidate(w, *entry, data)) {
            if (efit_.bumpRef(entry)) {
                // Duplicate eliminated.
                countDedupHit(w, data, /*via_cache=*/true);
                remap(w, cand);
            } else {
                // referH saturated: the paper writes the line as a new
                // cache line and updates the AMT (Section III-D); the
                // fresh copy becomes the dedup target from now on.
                stats_.refHOverflowRewrites.inc();
                onSaturatedRewrite(cand);
                saturated_rewrite = true;
            }
        }
    } else if (entry) {
        // Stale entry whose line died — drop it.
        Profiler::Scope ps = profScope(Profiler::Lookup);
        noteJournal(JournalOp::EfitEvict, entry->phys.toAddr());
        efit_.erase(entry->ecc, entry->phys.toAddr(), shard);
    }

    if (!w.res.dedup) {
        // Non-duplicate (or collision / saturation): encrypt + write,
        // then remember the fingerprint under LRCU.
        Addr phys = writeUnique(w, data, ecc);

        {
            Profiler::Scope ps = profScope(Profiler::Lookup);
            if (saturated_rewrite) {
                // Retarget the saturated entry instead of duplicating
                // it.
                noteJournal(JournalOp::EfitEvict, entry->phys.toAddr());
                efit_.redirect(entry, phys);
                lines_.setFingerprint(phys, ecc);
                noteJournal(JournalOp::EfitInsert, phys, kInvalidAddr,
                            ecc);
            } else if (!suspended) {
                efit_.insert(ecc, phys, shard);
                lines_.setFingerprint(phys, ecc);
                noteJournal(JournalOp::EfitInsert, phys, kInvalidAddr,
                            ecc);
            }
        }

        remap(w, phys);
    }
    return finishWrite(w, ecc, saturated_rewrite);
}

} // namespace esd
