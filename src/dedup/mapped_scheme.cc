#include "dedup/mapped_scheme.hh"

namespace esd
{

namespace
{

/** The NVMM-resident AMT region sits above the data region. */
constexpr Addr kAmtRegionBase = 8ull << 30;

} // namespace

MappedDedupScheme::MappedDedupScheme(const SimConfig &cfg,
                                     PcmDevice &device, NvmStore &store)
    : DedupScheme(cfg, device, store),
      lines_(store, device.channelCount()),
      amt_(cfg.metadata, kAmtRegionBase, device.channelCount())
{
    // RAS retirement must see dedup reference counts (blast radius)
    // and invalidate the scheme's fingerprint metadata.
    RasEngine::Hooks hooks;
    hooks.refCountOf = [this](Addr phys) {
        return static_cast<std::uint64_t>(lines_.refCount(phys));
    };
    hooks.onRetire = [this](Addr phys) { onPhysFreed(phys); };
    ras_.setHooks(std::move(hooks));
}

void
MappedDedupScheme::registerStats(StatRegistry &reg) const
{
    DedupScheme::registerStats(reg);
    amt_.registerStats(reg, "cache.amt");
}

MetadataCacheCounts
MappedDedupScheme::metadataCacheCounts() const
{
    MetadataCacheCounts c;
    c.amtHits = amt_.stats().cacheHits.value();
    c.amtLookups = amt_.stats().lookups.value();
    return c;
}

void
MappedDedupScheme::setPersistence(PersistenceManager *pm)
{
    DedupScheme::setPersistence(pm);
    lines_.setDeferredReclaim(pm != nullptr);
    if (pm)
        pm->setEpochCommitHook([this] { lines_.promoteFreed(); });
}

void
MappedDedupScheme::onPhysFreed(Addr phys)
{
    Profiler::Scope ps = profScope(Profiler::Lookup);
    if (std::optional<std::uint64_t> fp = lines_.takeFingerprint(phys)) {
        // Lines allocate on their logical address's channel, so the
        // owning index shard follows from the physical address.
        dropIndexEntry(*fp, phys, channelOf(phys));
        noteJournal(JournalOp::EfitEvict, phys);
    }
}

void
MappedDedupScheme::remap(WriteCtx &w, Addr phys)
{
    // Rewriting an address with its current mapping (the common case
    // for in-place duplicate rewrites) changes nothing: charge the
    // cache probe, leave the AMT clean. The one table probe here finds
    // the entry the update below writes through.
    Amt::Slot slot;
    {
        Profiler::Scope ps = profScope(Profiler::Lookup);
        slot = amt_.claim(w.addr);
    }
    std::optional<Addr> old = slot.previous();
    if (old && *old == phys) {
        chargeMetadata(w);
        return;
    }

    // Order matters: take the new reference before dropping the old
    // one so remapping an address to its current line is a no-op.
    bool freed = false;
    {
        Profiler::Scope ps = profScope(Profiler::Lookup);
        lines_.addRef(phys);
        noteJournal(JournalOp::RefAdd, phys);
        if (old) {
            LineStore::Released r = lines_.releaseIfLive(*old);
            freed = r == LineStore::Released::Freed;
            if (r != LineStore::Released::NotLive)
                noteJournal(JournalOp::RefRelease, *old);
        }
    }
    if (freed)
        onPhysFreed(*old);

    chargeMetadata(w);

    MetadataEffects eff;
    {
        Profiler::Scope ps = profScope(Profiler::Lookup);
        eff = amt_.update(slot, phys);
    }
    noteJournal(JournalOp::AmtUpdate, w.addr, phys);
    if (eff.nvmWriteback) {
        // Dirty metadata write-back: off the critical path but real
        // device traffic (and possible queue backpressure).
        stats_.amtTrafficWrites.inc();
        NvmAccessResult r = deviceWrite(eff.nvmWritebackAddr, w.t);
        w.res.issuerStall += r.issuerStall;
    }
}

Addr
MappedDedupScheme::writeUnique(WriteCtx &w, const CacheLine &data,
                               LineEcc ecc)
{
    // Allocate on the logical address's channel so the data write, and
    // every later dedup probe for this content, stay channel-local.
    Addr phys;
    {
        Profiler::Scope ps = profScope(Profiler::Lookup);
        phys = lines_.allocate(channelOf(w.addr));
    }

    Tick enc = cfg_.crypto.encryptLatency;
    CacheLine cipher = encryptLine(phys, data);
    w.t += enc;
    w.bd.encrypt += static_cast<double>(enc);

    NvmAccessResult r = writeLine(phys, cipher, ecc, w.t);
    w.bd.lineWrite += static_cast<double>(r.complete - w.t);
    w.t = r.complete;
    stats_.nvmDataWrites.inc();

    w.res.issuerStall += r.issuerStall;
    w.bankAddr = phys;
    w.queueWait = r.queueDelay;
    w.encryptNs = enc;
    return phys;
}

bool
MappedDedupScheme::timedCompare(WriteCtx &w, Addr cand,
                                const CacheLine &data, CacheLine *plain_out)
{
    NvmAccessResult r = deviceRead(cand, w.t);
    w.bd.readCompare += static_cast<double>(r.complete - w.t);
    w.t = r.complete;
    w.queueWait = r.queueDelay;
    stats_.compareReads.inc();
    stats_.metadataEnergy += cfg_.crypto.compareEnergy;
    w.t += cfg_.crypto.compareLatency;
    return recordVerdict(w, compareStored(cand, data, w.t, plain_out));
}

AccessResult
MappedDedupScheme::finishWrite(WriteCtx &w, std::uint64_t fp,
                               bool saturated_rewrite)
{
    w.res.latency = w.t - w.now;
    stats_.breakdown.add(w.bd);

    WriteOutcome outcome = WriteOutcome::Unique;
    if (w.res.dedup)
        outcome = WriteOutcome::Dedup;
    else if (saturated_rewrite)
        outcome = WriteOutcome::SaturatedRewrite;
    else if (w.verdict == CompareVerdict::Mismatch)
        outcome = WriteOutcome::Collision;
    traceWrite(w.now, w.addr, fp, w.probe, w.verdict, outcome, w.bankAddr,
               w.queueWait, w.encryptNs, w.res.latency, w.bd);
    return w.res;
}

AccessResult
MappedDedupScheme::read(Addr addr, CacheLine &out, Tick now)
{
    stats_.logicalReads.inc();
    AccessResult res;
    Tick t = now + metadataAccess();

    Amt::LookupResult lr;
    {
        Profiler::Scope ps = profScope(Profiler::Lookup);
        lr = amt_.lookup(addr);
    }
    if (lr.effects.nvmRead) {
        stats_.amtTrafficReads.inc();
        NvmAccessResult r = deviceRead(lr.effects.nvmReadAddr, t);
        t = r.complete;
    }
    if (lr.effects.nvmWriteback) {
        stats_.amtTrafficWrites.inc();
        NvmAccessResult r = deviceWrite(lr.effects.nvmWritebackAddr, t);
        res.issuerStall += r.issuerStall;
    }

    // A never-written logical line has no mapping: the access still
    // costs a device read (of the uninitialised location), but the
    // content is the initialised-to-zero line — it must NOT alias
    // into the deduplicated physical space, which holds other
    // addresses' data.
    Addr phys = lr.found ? lr.phys : addr;

    NvmAccessResult r = deviceRead(phys, t);
    t = r.complete;
    stats_.nvmDataReads.inc();

    out = CacheLine{};
    if (lr.found) {
        VerifiedRead vr = fetchStored(phys, t);
        out = vr.line;
        res.integrity = vr.integrity;
        if (vr.integrity == ReadIntegrity::Uncorrectable)
            stats_.sdcEvents.inc();
    }

    res.latency = t - now;
    return res;
}

} // namespace esd
