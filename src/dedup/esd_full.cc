#include "dedup/esd_full.hh"

namespace esd
{

namespace
{

/** ECC fp (8 B) + packed phys (5 B) + refcount (1 B). */
constexpr std::uint64_t kEntryBytes = 14;

/** NVMM region of the full ECC fingerprint index (ablation). */
constexpr Addr kFpRegionBase = 14ull << 30;

} // namespace

EsdFullScheme::EsdFullScheme(const SimConfig &cfg, PcmDevice &device,
                             NvmStore &store)
    : FullIndexScheme(cfg, device, store, kEntryBytes, kFpRegionBase)
{
}

AccessResult
EsdFullScheme::write(Addr addr, const CacheLine &data, Tick now)
{
    WriteCtx w = beginWrite(addr, now);

    // Free ECC fingerprint, exactly as in ESD.
    LineEcc ecc = eccFingerprint(w, data);
    chargeMetadata(w);

    // Full dedup: a cache miss forces the fingerprint NVMM_lookup.
    bool suspended = dedupSuspended();
    unsigned shard = channelOf(w.addr);
    FpTable::LookupResult lr = probeIndex(w, ecc, shard, suspended);

    // Verify by byte comparison (ECC collisions are expected).
    if (lr.found && timedCompare(w, lr.phys, data)) {
        countDedupHit(w, data, lr.cacheHit);
        remap(w, lr.phys);
    } else {
        Addr phys = writeUnique(w, data, ecc);
        if (!suspended)
            w.res.issuerStall += indexNewLine(ecc, phys, shard, w.t);
        remap(w, phys);
    }
    return finishWrite(w, ecc);
}

} // namespace esd
