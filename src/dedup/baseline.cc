#include "dedup/baseline.hh"

#include "common/logging.hh"

namespace esd
{

AccessResult
BaselineScheme::write(Addr addr, const CacheLine &data, Tick now)
{
    stats_.logicalWrites.inc();
    AccessResult res;
    WriteBreakdown bd;

    addr = lineAlign(addr);
    // Physical = logical: an address past the device has no line to
    // land on. (The remapping schemes allocate physical lines, so only
    // this scheme can see one.)
    if (lineIndex(addr) >= cfg_.pcm.capacityBytes / kLineSize)
        esd_fatal("Baseline writes in place, but address 0x%llx is "
                  "beyond the %llu-byte PCM capacity",
                  static_cast<unsigned long long>(addr),
                  static_cast<unsigned long long>(
                      cfg_.pcm.capacityBytes));
    Tick t = now;

    Tick enc = cfg_.crypto.encryptLatency;
    CacheLine cipher = encryptLine(addr, data);
    t += enc;
    bd.encrypt += static_cast<double>(enc);

    LineEcc ecc = encodeEcc(data);
    NvmAccessResult r = writeLine(addr, cipher, ecc, t);
    bd.lineWrite += static_cast<double>(r.complete - t);
    stats_.nvmDataWrites.inc();
    noteJournal(JournalOp::DataWrite, addr);

    res.latency = r.complete - now;
    res.issuerStall = r.issuerStall;
    stats_.breakdown.add(bd);

    // No fingerprinting at all: every write is unique by construction.
    traceWrite(now, addr, ecc, FpProbe::None, CompareVerdict::None,
               WriteOutcome::Unique, addr, r.queueDelay, enc,
               res.latency, bd);
    return res;
}

AccessResult
BaselineScheme::read(Addr addr, CacheLine &out, Tick now)
{
    stats_.logicalReads.inc();
    AccessResult res;

    addr = lineAlign(addr);
    NvmAccessResult r = deviceRead(addr, now);
    stats_.nvmDataReads.inc();

    VerifiedRead vr = fetchStored(addr, r.complete);
    out = vr.line;
    res.integrity = vr.integrity;
    if (vr.integrity == ReadIntegrity::Uncorrectable)
        stats_.sdcEvents.inc();

    res.latency = r.complete - now;
    return res;
}

} // namespace esd
