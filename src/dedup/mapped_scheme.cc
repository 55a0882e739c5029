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

void
MappedDedupScheme::setPersistence(PersistenceManager *pm)
{
    DedupScheme::setPersistence(pm);
    lines_.setDeferredReclaim(pm != nullptr);
    if (pm)
        pm->setEpochCommitHook([this] { lines_.promoteFreed(); });
}

Tick
MappedDedupScheme::remap(Addr addr, Addr phys, Tick &t, WriteBreakdown &bd)
{
    Tick stall = 0;

    // Rewriting an address with its current mapping (the common case
    // for in-place duplicate rewrites) changes nothing: charge the
    // cache probe, leave the AMT clean.
    std::optional<Addr> old;
    {
        Profiler::Scope ps = profScope(Profiler::Lookup);
        old = amt_.peek(addr);
    }
    if (old && *old == phys) {
        Tick m = metadataAccess();
        t += m;
        bd.metadata += static_cast<double>(m);
        return stall;
    }

    // Order matters: take the new reference before dropping the old
    // one so remapping an address to its current line is a no-op.
    bool freed = false;
    {
        Profiler::Scope ps = profScope(Profiler::Lookup);
        lines_.addRef(phys);
        noteJournal(JournalOp::RefAdd, phys);
        if (old) {
            bool was_live = lines_.isLive(*old);
            freed = was_live && lines_.release(*old);
            if (was_live)
                noteJournal(JournalOp::RefRelease, *old);
        }
    }
    if (freed)
        onPhysFreed(*old);

    Tick m = metadataAccess();
    t += m;
    bd.metadata += static_cast<double>(m);

    MetadataEffects eff;
    {
        Profiler::Scope ps = profScope(Profiler::Lookup);
        eff = amt_.update(addr, phys);
    }
    noteJournal(JournalOp::AmtUpdate, addr, phys);
    if (eff.nvmWriteback) {
        // Dirty metadata write-back: off the critical path but real
        // device traffic (and possible queue backpressure).
        stats_.amtTrafficWrites.inc();
        NvmAccessResult r = deviceWrite(eff.nvmWritebackAddr, t);
        stall += r.issuerStall;
    }
    return stall;
}

NvmAccessResult
MappedDedupScheme::writeNewLine(Addr addr, const CacheLine &data,
                                LineEcc ecc, Addr &phys_out, Tick &t,
                                WriteBreakdown &bd)
{
    // Allocate on the logical address's channel so the data write, and
    // every later dedup probe for this content, stay channel-local.
    {
        Profiler::Scope ps = profScope(Profiler::Lookup);
        phys_out = lines_.allocate(channelOf(addr));
    }

    Tick enc = cfg_.crypto.encryptLatency;
    CacheLine cipher = encryptLine(phys_out, data);
    t += enc;
    bd.encrypt += static_cast<double>(enc);

    NvmAccessResult r = writeLine(phys_out, cipher, ecc, t);
    bd.lineWrite += static_cast<double>(r.complete - t);
    t = r.complete;
    stats_.nvmDataWrites.inc();
    return r;
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
