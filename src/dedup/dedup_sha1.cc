#include "dedup/dedup_sha1.hh"

#include "crypto/sha1.hh"

namespace esd
{

namespace
{

/** SHA-1 entry: 20 B digest + 5 B packed phys + 1 B refcount. */
constexpr std::uint64_t kEntryBytes = 26;

/** NVMM region of the SHA-1 fingerprint index. */
constexpr Addr kFpRegionBase = 12ull << 30;

} // namespace

DedupSha1Scheme::DedupSha1Scheme(const SimConfig &cfg, PcmDevice &device,
                                 NvmStore &store)
    : FullIndexScheme(cfg, device, store, kEntryBytes, kFpRegionBase)
{
}

AccessResult
DedupSha1Scheme::write(Addr addr, const CacheLine &data, Tick now)
{
    WriteCtx w = beginWrite(addr, now);

    // 1. SHA-1 fingerprint — charged on the critical path for *every*
    //    line, duplicate or not (the paper's first challenge).
    std::uint64_t fp;
    {
        Profiler::Scope ps = profScope(Profiler::Fingerprint);
        fp = Sha1::fingerprint64(data);
    }
    chargeFingerprint(w, cfg_.crypto.sha1Latency, cfg_.crypto.sha1Energy);

    // 2. On-chip fingerprint cache, then the NVMM-resident index.
    chargeMetadata(w);
    bool suspended = dedupSuspended();
    unsigned shard = channelOf(w.addr);
    FpTable::LookupResult lr = probeIndex(w, fp, shard, suspended);

    if (lr.found) {
        // Fingerprint match is trusted — no byte comparison (classic
        // hash-dedup risk the paper contrasts with ESD in Section V).
        countDedupHit(w, data, lr.cacheHit);
        remap(w, lr.phys);
    } else {
        // Unique line: register the fingerprint (an NVMM index store,
        // off the critical path), encrypt, and write.
        Addr phys = writeUnique(w, data, encodeEcc(data));
        if (!suspended)
            w.res.issuerStall += indexNewLine(fp, phys, shard, w.t);
        remap(w, phys);
    }

    // Fingerprint match is final here — there is never a compare.
    return finishWrite(w, fp);
}

} // namespace esd
