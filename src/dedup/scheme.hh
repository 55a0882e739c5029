/**
 * @file
 * The scheme abstraction: one object per evaluated design point
 * (Baseline, Dedup_SHA1, DeWrite, ESD) handling the write path (LLC
 * eviction) and the read path (LLC miss fill) against a shared PCM
 * timing device and content store.
 *
 * Every scheme reports the Fig. 17 write-latency breakdown
 * (fingerprint computation / fingerprint NVMM_lookup / read-for-
 * comparison / line write) and the side-band energy beyond the raw
 * device energy (hashing, encryption, metadata cache).
 */

#ifndef ESD_DEDUP_SCHEME_HH
#define ESD_DEDUP_SCHEME_HH

#include <memory>
#include <string>

#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "common/write_trace.hh"
#include "crypto/ctr_mode.hh"
#include "dedup/amt.hh"
#include "dedup/line_store.hh"
#include "ecc/ecc_engine.hh"
#include "ecc/line_ecc.hh"
#include "metrics/profiler.hh"
#include "metrics/span_trace.hh"
#include "nvm/nvm_store.hh"
#include "nvm/pcm_device.hh"
#include "persist/persistence.hh"
#include "ras/ras_engine.hh"

namespace esd
{

class StatRegistry;

/** Integrity of the data a read handed back. */
enum class ReadIntegrity
{
    Ok,             ///< clean (or never-written zero line)
    Corrected,      ///< media faults repaired by ECC
    Poisoned,       ///< line was retired after a UE; defined zero line
    Uncorrectable,  ///< double fault: the returned data is corrupt
};

const char *toString(ReadIntegrity integrity);

/** A decrypted, ECC-scrubbed stored line. */
struct VerifiedRead
{
    CacheLine line;
    ReadIntegrity integrity = ReadIntegrity::Ok;
};

/** Nanoseconds attributed to each write-path component (Fig. 17). */
struct WriteBreakdown
{
    double fpCompute = 0;    ///< hash / CRC fingerprint computation
    double fpNvmLookup = 0;  ///< fingerprint NVMM_lookup reads
    double readCompare = 0;  ///< reading candidate lines for comparison
    double lineWrite = 0;    ///< writing the unique line (incl. queue)
    double encrypt = 0;      ///< counter-mode pad application
    double metadata = 0;     ///< on-chip metadata cache accesses

    double
    total() const
    {
        return fpCompute + fpNvmLookup + readCompare + lineWrite +
               encrypt + metadata;
    }

    void
    add(const WriteBreakdown &o)
    {
        fpCompute += o.fpCompute;
        fpNvmLookup += o.fpNvmLookup;
        readCompare += o.readCompare;
        lineWrite += o.lineWrite;
        encrypt += o.encrypt;
        metadata += o.metadata;
    }
};

/** Result of one logical access through a scheme. */
struct AccessResult
{
    /** Observed latency in ns, from issue to completion. */
    Tick latency = 0;

    /** Stall imposed on the core (write-queue backpressure). */
    Tick issuerStall = 0;

    /** Write was eliminated by deduplication. */
    bool dedup = false;

    /** Integrity of the returned data (reads only). */
    ReadIntegrity integrity = ReadIntegrity::Ok;
};

/** Per-scheme aggregate statistics. */
struct SchemeStats
{
    Counter logicalWrites;
    Counter logicalReads;
    Counter dedupHits;           ///< eliminated data writes
    Counter dedupHitsZeroLine;
    Counter dedupHitsFpCache;    ///< duplicate found via on-chip fp entry
    Counter dedupHitsFpNvm;      ///< duplicate found via fp NVMM_lookup
    Counter nvmDataWrites;
    Counter nvmDataReads;
    Counter compareReads;        ///< byte-compare candidate fetches
    Counter compareMismatches;   ///< fingerprint collisions caught
    Counter fpNvmLookups;
    Counter fpNvmStores;
    Counter amtTrafficReads;
    Counter amtTrafficWrites;
    Counter refHOverflowRewrites;
    Counter eccCorrectedReads;      ///< media faults repaired on read
    Counter eccUncorrectableReads;  ///< double faults detected on read
    Counter sdcEvents;              ///< corrupt data returned to a consumer
    Counter poisonedReads;          ///< demand reads of retired lines
    Counter dedupSuspendedWrites;   ///< writes bypassing suspended dedup

    Energy hashEnergy = 0;       ///< SHA-1 / MD5 / CRC computation
    Energy cryptoEnergy = 0;     ///< counter-mode encryption
    Energy metadataEnergy = 0;   ///< on-chip metadata cache accesses

    WriteBreakdown breakdown;

    double
    writeReduction() const
    {
        return logicalWrites.value() == 0
                   ? 0.0
                   : static_cast<double>(dedupHits.value()) /
                         logicalWrites.value();
    }

    /** Register every field under "<prefix>." in @p reg. The struct's
     * address must be stable for the registry's lifetime (it is: it
     * sits by value inside the scheme, and resetStats() assigns over
     * it rather than replacing it). */
    void registerIn(StatRegistry &reg, const std::string &prefix) const;
};

/**
 * Base class wiring a scheme to the shared device/store and providing
 * the timed-access helpers every scheme uses.
 */
class DedupScheme
{
  public:
    DedupScheme(const SimConfig &cfg, PcmDevice &device, NvmStore &store);
    virtual ~DedupScheme() = default;

    DedupScheme(const DedupScheme &) = delete;
    DedupScheme &operator=(const DedupScheme &) = delete;

    /** Handle a dirty LLC eviction of @p data to logical @p addr. */
    virtual AccessResult write(Addr addr, const CacheLine &data,
                               Tick now) = 0;

    /** Handle an LLC miss fill; @p out receives the line content. */
    virtual AccessResult read(Addr addr, CacheLine &out, Tick now) = 0;

    /** Scheme display name. */
    virtual std::string name() const = 0;

    /** Bytes of scheme metadata resident in NVMM (Fig. 19). */
    virtual std::uint64_t metadataNvmBytes() const = 0;

    const SchemeStats &stats() const { return stats_; }

    virtual void
    resetStats()
    {
        stats_ = SchemeStats{};
        ras_.resetStats();
    }

    /** The scheme's RAS pipeline (fault planting and inspection in
     * tests and benches). */
    RasEngine &ras() { return ras_; }
    const RasEngine &ras() const { return ras_; }

    /**
     * Register this scheme's statistics (and those of any owned
     * metadata structures) in @p reg under hierarchical names
     * ("scheme.*", "esd.efit.*", "cache.amt.*", ...). Call once per
     * registry; the scheme must outlive it.
     */
    virtual void registerStats(StatRegistry &reg) const;

    /** Attach (or detach with nullptr) a write-event trace sink. */
    void setEventTrace(WriteEventTrace *trace) { trace_ = trace; }

    /** Attach (or detach with nullptr) a host-side phase profiler.
     * Detached (the default) every phase marker is one null check. */
    void setProfiler(Profiler *prof) { prof_ = prof; }

    /** Attach (or detach with nullptr) a simulated-time span trace.
     * Detached (the default) the write path pays one null check. */
    void setSpanTrace(SpanTrace *spans) { spans_ = spans; }

    /**
     * Attach (or detach with nullptr) the crash-consistency engine.
     * Attached, every crash-relevant metadata mutation (AMT updates,
     * refcount changes, fingerprint inserts/evicts, counter bumps,
     * retirements) journals through it and content writes report their
     * undo state. Detached (the default) the write path pays one null
     * check per mutation and behaves bit-identically to before the
     * subsystem existed.
     */
    virtual void
    setPersistence(PersistenceManager *pm)
    {
        persist_ = pm;
        ras_.setPersistence(pm);
        if (pm) {
            pm->attachCrypto(&crypto_);
            pm->setInPlace(persistInPlace());
        }
    }

    /** The scheme writes data at its logical address (no AMT
     * indirection) — recorded into crash images so recovery knows
     * whether orphaned lines are possible. */
    virtual bool persistInPlace() const { return true; }

    /** The counter-mode engine (holds the AES key that survives a
     * crash) — recovery decrypts counter probes with it. */
    const CtrModeEngine &crypto() const { return crypto_; }

    /** The line ECC engine this run fingerprints and scrubs with —
     * recovery re-encodes counter probes through the same codec. */
    const EccEngine &ecc() const { return ecc_; }

    /** Total scheme-side (non-device) energy in pJ. */
    Energy
    sideEnergy() const
    {
        return stats_.hashEnergy + stats_.cryptoEnergy +
               stats_.metadataEnergy;
    }

  protected:
    /** Host-profiling phase marker (no-op without a profiler). */
    Profiler::Scope
    profScope(Profiler::Phase phase)
    {
        return Profiler::Scope(prof_, phase);
    }

    /** The ECC of plaintext @p data under this run's engine, profiled
     * as the Fingerprint phase (for the ESD schemes it *is* the
     * fingerprint). */
    LineEcc
    encodeEcc(const CacheLine &data)
    {
        Profiler::Scope ps(prof_, Profiler::Fingerprint);
        return ecc_.encodeLine(data);
    }

    /** Timed read of @p addr content; charges device stats, injects
     * read-path media faults, and follows retirement remaps. */
    NvmAccessResult
    deviceRead(Addr addr, Tick arrival)
    {
        Profiler::Scope ps(prof_, Profiler::Device);
        ras_.beforeRead(addr);
        return device_.access(OpType::Read, ras_.resolve(addr), arrival);
    }

    /** Timed write (metadata traffic); charges device stats and feeds
     * the patrol-scrub write budget. */
    NvmAccessResult
    deviceWrite(Addr addr, Tick arrival)
    {
        Profiler::Scope ps(prof_, Profiler::Device);
        NvmAccessResult r =
            device_.access(OpType::Write, ras_.resolve(addr), arrival);
        ras_.patrolTick(r.complete);
        return r;
    }

    /** Content write: store @p cipher + @p ecc at @p phys and issue
     * the timed device write through the RAS pipeline (fault
     * injection, write-verify/retry, retirement). */
    NvmAccessResult
    writeLine(Addr phys, const CacheLine &cipher, LineEcc ecc,
              Tick arrival)
    {
        Profiler::Scope ps(prof_, Profiler::Device);
        if (persist_) {
            // Capture the pre-write state before RAS overwrites it:
            // crash images revert writes still queued at the crash.
            const StoredLine *prev = store_.peek(lineAlign(phys));
            bool had = prev != nullptr;
            StoredLine old;
            if (had)
                old = *prev;
            NvmAccessResult r = ras_.storeAndWrite(phys, cipher, ecc,
                                                   arrival);
            persist_->noteLineWrite(phys, had ? &old : nullptr,
                                    r.complete);
            return r;
        }
        return ras_.storeAndWrite(phys, cipher, ecc, arrival);
    }

    /** Charge one metadata-cache access (latency returned, energy
     * accumulated). */
    Tick
    metadataAccess()
    {
        stats_.metadataEnergy += cfg_.crypto.metadataCacheEnergy;
        return cfg_.crypto.metadataCacheLatency;
    }

    /** Encrypt @p plain for physical @p phys, charging cost and
     * journaling the counter bump. */
    CacheLine
    encryptLine(Addr phys, const CacheLine &plain)
    {
        Profiler::Scope ps(prof_, Profiler::Encrypt);
        stats_.cryptoEnergy += cfg_.crypto.encryptEnergy;
        CacheLine out = crypto_.encrypt(phys, plain);
        if (persist_)
            persist_->note(JournalOp::CtrBump, lineAlign(phys),
                           kInvalidAddr, crypto_.counter(phys));
        return out;
    }

    /** Decrypt the stored line at @p phys. */
    CacheLine
    decryptLine(Addr phys, const CacheLine &cipher) const
    {
        return crypto_.decrypt(phys, cipher);
    }

    /**
     * Decrypt and ECC-scrub a stored line on the read path. Counter
     * mode maps each flipped ciphertext bit to exactly one plaintext
     * bit, so the per-word SEC-DED (computed over plaintext) corrects
     * single media faults after decryption and flags double faults.
     *
     * Corrected reads trigger a demand scrub; uncorrectable ones run
     * the retirement policy and return the corrupt plaintext marked
     * Uncorrectable — the *caller* decides whether handing it on is a
     * silent data corruption (demand fills) or a detected failure
     * (candidate compares, which simply never match).
     */
    VerifiedRead
    verifyStored(Addr phys, const StoredLine &stored, Tick now)
    {
        VerifiedRead out;
        CacheLine plain = decryptLine(phys, stored.data);
        LineDecodeResult r = ecc_.decodeLine(plain, stored.ecc);
        if (r.status == EccStatus::Uncorrectable) {
            stats_.eccUncorrectableReads.inc();
            if (!ras_.enabled()) {
                // Legacy offline-injection path: corruption is
                // unexpected, make it loud.
                esd_warn("uncorrectable media fault at phys 0x%llx",
                         static_cast<unsigned long long>(phys));
            }
            ras_.onUncorrectable(phys, now);
            out.line = plain;
            out.integrity = ReadIntegrity::Uncorrectable;
            return out;
        }
        if (r.correctedWords > 0) {
            stats_.eccCorrectedReads.inc();
            ras_.demandScrub(phys, r.line, r.ecc, now);
            out.integrity = ReadIntegrity::Corrected;
        }
        out.line = r.line;
        return out;
    }

    /**
     * Demand-fill fetch of the stored content at @p phys: handles
     * poisoned (retired) and never-written lines, then verifies.
     * Callers must count sdcEvents when forwarding Uncorrectable data.
     */
    VerifiedRead
    fetchStored(Addr phys, Tick now)
    {
        VerifiedRead out;
        out.line = CacheLine{};
        if (ras_.isPoisoned(phys)) {
            stats_.poisonedReads.inc();
            out.integrity = ReadIntegrity::Poisoned;
            return out;
        }
        const StoredLine *stored = store_.peek(phys);
        if (!stored)
            return out;
        return verifyStored(phys, *stored, now);
    }

    /**
     * Verified byte comparison of @p data against the stored candidate
     * at @p cand. Correctable media faults are repaired (and scrubbed)
     * before comparing, so a single-bit fault cannot defeat
     * deduplication; uncorrectable or poisoned candidates never match,
     * so a fault can never produce a wrong dedup hit.
     *
     * @param plain_out when non-null, receives the corrected plaintext
     */
    bool
    compareStored(Addr cand, const CacheLine &data, Tick now,
                  CacheLine *plain_out = nullptr)
    {
        Profiler::Scope ps(prof_, Profiler::Compare);
        if (ras_.isPoisoned(cand))
            return false;
        const StoredLine *stored = store_.peek(cand);
        if (!stored)
            return false;
        VerifiedRead vr = verifyStored(cand, *stored, now);
        if (plain_out)
            *plain_out = vr.line;
        return vr.integrity != ReadIntegrity::Uncorrectable &&
               linesEqualFast(vr.line, data);
    }

    /** Memory channel servicing @p addr — also the metadata shard the
     * schemes probe, so dedup lookups on different channels touch
     * disjoint EFIT/AMT/fingerprint partitions. */
    unsigned channelOf(Addr addr) const { return device_.channelOf(addr); }

    /** Partition count for per-channel metadata shards. */
    unsigned metadataShards() const { return device_.channelCount(); }

    /** True when dedup is suspended by the RAS UE policy; counts the
     * bypassed write. Call once per write at the fingerprint probe. */
    bool
    dedupSuspended()
    {
        if (!ras_.dedupSuspended())
            return false;
        stats_.dedupSuspendedWrites.inc();
        return true;
    }

    /**
     * Emit one write-path trace record and, when a span trace is
     * attached and admits this write, the per-phase span tree (no-op
     * without sinks — two pointer tests on the hot path).
     *
     * @param bank_addr the decisive device access's address: the new
     *        physical line for unique writes, the compared candidate
     *        for dedup hits (its bank and queue wait are what the
     *        record reports)
     * @param bd this write's latency breakdown — the span slices
     */
    void
    traceWrite(Tick now, Addr addr, std::uint64_t fp, FpProbe probe,
               CompareVerdict compare, WriteOutcome outcome,
               Addr bank_addr, Tick queue_wait, Tick encrypt_ns,
               Tick latency, const WriteBreakdown &bd)
    {
        if (trace_) {
            WriteEvent e;
            e.tick = now;
            e.addr = addr;
            e.fingerprint = fp;
            e.probe = probe;
            e.compare = compare;
            e.outcome = outcome;
            e.bank =
                static_cast<std::uint16_t>(device_.bankOf(bank_addr));
            e.channel =
                static_cast<std::uint16_t>(device_.channelOf(bank_addr));
            e.queueWaitNs = queue_wait;
            e.encryptNs = encrypt_ns;
            e.latencyNs = latency;
            trace_->record(e);
        }
        if (spans_ && spans_->admitWrite())
            emitWriteSpans(now, addr, fp, probe, compare, outcome,
                           bank_addr, queue_wait, latency, bd);
    }

    /** Cold path of traceWrite: the admitted write's span tree. */
    void emitWriteSpans(Tick now, Addr addr, std::uint64_t fp,
                        FpProbe probe, CompareVerdict compare,
                        WriteOutcome outcome, Addr bank_addr,
                        Tick queue_wait, Tick latency,
                        const WriteBreakdown &bd);

    /** Journal one metadata mutation (no-op when detached). */
    void
    noteJournal(JournalOp op, Addr a, Addr b = kInvalidAddr,
                std::uint64_t value = 0)
    {
        if (persist_)
            persist_->note(op, a, b, value);
    }

    SimConfig cfg_;
    PcmDevice &device_;
    NvmStore &store_;
    CtrModeEngine crypto_;
    const EccEngine &ecc_;
    RasEngine ras_;
    SchemeStats stats_;
    WriteEventTrace *trace_ = nullptr;
    Profiler *prof_ = nullptr;
    SpanTrace *spans_ = nullptr;
    PersistenceManager *persist_ = nullptr;
};

} // namespace esd

#endif // ESD_DEDUP_SCHEME_HH
