#include "dedup/dewrite.hh"

#include "common/stat_registry.hh"
#include "crypto/crc.hh"

namespace esd
{

namespace
{

/** DeWrite entry: 16 B + 3 bits, modelled as 17 B. */
constexpr std::uint64_t kEntryBytes = 17;

/** NVMM region of the CRC fingerprint index. */
constexpr Addr kFpRegionBase = 13ull << 30;

} // namespace

DeWriteScheme::DeWriteScheme(const SimConfig &cfg, PcmDevice &device,
                             NvmStore &store)
    : FullIndexScheme(cfg, device, store, kEntryBytes, kFpRegionBase),
      predictor_(DupPredictor::kDefaultEntries, device.channelCount())
{
}

void
DeWriteScheme::registerStats(StatRegistry &reg) const
{
    FullIndexScheme::registerStats(reg);

    const PredictorStats &p = predictor_.stats();
    reg.addCounter("scheme.predictor.t1_dup_dup",
                   p.predictDupActualDup,
                   "predicted duplicate, was duplicate");
    reg.addCounter("scheme.predictor.f2_dup_new",
                   p.predictDupActualNew,
                   "predicted duplicate, was new");
    reg.addCounter("scheme.predictor.t3_new_new",
                   p.predictNewActualNew,
                   "predicted new, was new");
    reg.addCounter("scheme.predictor.f4_new_dup",
                   p.predictNewActualDup,
                   "predicted new, was duplicate");
    reg.addGauge("scheme.predictor.accuracy",
                 [&p] { return p.accuracy(); },
                 "fraction of correct predictions");
}

FpTable::LookupResult
DeWriteScheme::resolveDuplicate(WriteCtx &w, std::uint64_t fp,
                                const CacheLine &data, unsigned shard)
{
    // Suspended dedup: no probe, no compare — the write goes unique.
    if (dedupSuspended())
        return {};

    chargeMetadata(w);
    FpTable::LookupResult lr = probeIndex(w, fp, shard, false);

    // CRC collides easily (Fig. 8): always verify by byte comparison.
    if (lr.found && !timedCompare(w, lr.phys, data))
        lr.found = false;
    return lr;
}

AccessResult
DeWriteScheme::write(Addr addr, const CacheLine &data, Tick now)
{
    WriteCtx w = beginWrite(addr, now);

    // CRC is computed for every line, predicted duplicate or not.
    std::uint64_t fp;
    {
        Profiler::Scope ps = profScope(Profiler::Fingerprint);
        fp = Crc32c::line(data);
    }
    chargeFingerprint(w, cfg_.crypto.crcLatency, cfg_.crypto.crcEnergy);

    bool predicted_dup = predictor_.predictDuplicate(w.addr);
    unsigned shard = channelOf(w.addr);

    // Both predictions run the same check. A predicted duplicate takes
    // the serial path (the write waits for the check); a predicted
    // non-duplicate the parallel one (encryption and, for true
    // uniques, the write overlap the dedup check).
    FpTable::LookupResult chk = resolveDuplicate(w, fp, data, shard);
    predictor_.train(w.addr, predicted_dup, chk.found);
    Addr phys = chk.phys;

    if (chk.found) {
        // T1 (or F4): duplicate confirmed, write eliminated.
        countDedupHit(w, data, chk.cacheHit);
        if (!predicted_dup) {
            // F4: the line was speculatively encrypted for nothing —
            // wasted crypto energy, latency hidden behind the check.
            stats_.cryptoEnergy += cfg_.crypto.encryptEnergy;
            Tick enc_done = now + cfg_.crypto.encryptLatency;
            w.t = std::max(w.t, enc_done);
            w.encryptNs = cfg_.crypto.encryptLatency;
        }
    } else if (predicted_dup) {
        // F2: worst case — full check, then encrypt + write.
        phys = writeUnique(w, data, encodeEcc(data));
        if (!ras_.dedupSuspended())
            w.res.issuerStall += indexNewLine(fp, phys, shard, w.t);
    } else {
        // T3: prediction right; write latency overlaps the check.
        Tick t_check = w.t;
        w.t = now;
        phys = writeUnique(w, data, encodeEcc(data));
        if (!ras_.dedupSuspended())
            w.res.issuerStall += indexNewLine(fp, phys, shard, t_check);
        w.t = std::max(t_check, w.t);
    }

    remap(w, phys);
    return finishWrite(w, fp);
}

} // namespace esd
