/**
 * @file
 * Shared machinery of the deduplicating schemes (Dedup_SHA1, DeWrite,
 * ESD, ESD_Full, ESD+): reference-counted physical allocation,
 * AMT-mediated remapping on the write path, the AMT-indirected read
 * path, and the write-path steps the schemes share — the per-write
 * context and its trace record, the fingerprint cost, the timed
 * candidate compare, dedup-hit accounting and the unique-line write.
 * The concrete schemes differ only in how they fingerprint and how
 * much of the fingerprint index they keep.
 */

#ifndef ESD_DEDUP_MAPPED_SCHEME_HH
#define ESD_DEDUP_MAPPED_SCHEME_HH

#include "dedup/scheme.hh"

namespace esd
{

/**
 * Base for schemes that remap logical lines through the AMT.
 */
class MappedDedupScheme : public DedupScheme
{
  public:
    MappedDedupScheme(const SimConfig &cfg, PcmDevice &device,
                      NvmStore &store);

    /** AMT-indirected miss fill, common to all dedup schemes. */
    AccessResult read(Addr addr, CacheLine &out, Tick now) override;

    /** Adds the AMT metadata cache under "cache.amt.*". */
    void registerStats(StatRegistry &reg) const override;

    void
    resetStats() override
    {
        DedupScheme::resetStats();
        amt_.resetStats();
    }

    /** Mapped schemes additionally defer line reclamation to epoch
     * commits, so a freed physical line is never reused before the
     * journal record releasing it is durable. */
    void setPersistence(PersistenceManager *pm) override;

    /** Data lives behind the AMT, not at its logical address. */
    bool persistInPlace() const override { return false; }

    /** The AMT cache's counts; fingerprint indexes add theirs. */
    MetadataCacheCounts metadataCacheCounts() const override;

    const Amt &amt() const { return amt_; }
    const LineStore &lineStore() const { return lines_; }

  protected:
    /**
     * One write's running state, threaded through the shared steps:
     * the critical-path clock, the result, the Fig. 17 breakdown and
     * what the write-event trace reports about it.
     */
    struct WriteCtx
    {
        WriteCtx(Addr line, Tick issue)
            : addr(line), now(issue), t(issue), bankAddr(line)
        {
        }

        Addr addr;  ///< line-aligned logical address
        Tick now;   ///< issue time
        Tick t;     ///< running timestamp on the critical path
        AccessResult res;
        WriteBreakdown bd;

        // Trace annotations.
        FpProbe probe = FpProbe::Miss;
        CompareVerdict verdict = CompareVerdict::None;
        Addr bankAddr;       ///< decisive access: candidate or new line
        Tick queueWait = 0;  ///< its bank wait
        Tick encryptNs = 0;
    };

    /** Count the logical write and open its context. */
    WriteCtx
    beginWrite(Addr addr, Tick now)
    {
        stats_.logicalWrites.inc();
        return WriteCtx(lineAlign(addr), now);
    }

    /**
     * Close the write: its latency, its breakdown, and its trace
     * record, whose outcome follows from what the path decided.
     *
     * @param fp the fingerprint the trace record reports
     */
    AccessResult finishWrite(WriteCtx &w, std::uint64_t fp,
                             bool saturated_rewrite = false);

    /** Charge a fingerprint computation's @p latency to the clock and
     * bd.fpCompute and its @p energy to the hash energy. */
    void
    chargeFingerprint(WriteCtx &w, Tick latency, Energy energy)
    {
        w.t += latency;
        w.bd.fpCompute += static_cast<double>(latency);
        stats_.hashEnergy += energy;
    }

    /** The ECC the memory controller computes anyway, used as the
     * fingerprint, with its cost. */
    LineEcc
    eccFingerprint(WriteCtx &w, const CacheLine &data)
    {
        LineEcc ecc = encodeEcc(data);
        chargeFingerprint(w, cfg_.crypto.eccLatency, cfg_.crypto.eccEnergy);
        return ecc;
    }

    /** Charge one on-chip metadata access to the clock and
     * bd.metadata. */
    void
    chargeMetadata(WriteCtx &w)
    {
        Tick m = metadataAccess();
        w.t += m;
        w.bd.metadata += static_cast<double>(m);
    }

    /**
     * Timed byte comparison of @p data against the stored candidate
     * @p cand: the device read, the comparator's energy and latency,
     * then compareStored. Advances the clock past the comparison and
     * records the verdict.
     *
     * @param plain_out when non-null, receives the candidate's
     *        corrected plaintext
     * @return true when the contents are equal
     */
    bool timedCompare(WriteCtx &w, Addr cand, const CacheLine &data,
                      CacheLine *plain_out = nullptr);

    /** Record a compare's verdict; a mismatch is a fingerprint
     * collision the comparison caught. Returns @p equal. */
    bool
    recordVerdict(WriteCtx &w, bool equal)
    {
        w.verdict = equal ? CompareVerdict::Equal : CompareVerdict::Mismatch;
        if (!equal)
            stats_.compareMismatches.inc();
        return equal;
    }

    /** Count the write as eliminated; @p via_cache says whether the
     * on-chip fingerprint entry found it (else an NVMM_lookup did). */
    void
    countDedupHit(WriteCtx &w, const CacheLine &data, bool via_cache)
    {
        stats_.dedupHits.inc();
        if (data.isZero())
            stats_.dedupHitsZeroLine.inc();
        if (via_cache)
            stats_.dedupHitsFpCache.inc();
        else
            stats_.dedupHitsFpNvm.inc();
        w.res.dedup = true;
    }

    /**
     * The physical line @p phys lost its last reference (or was
     * retired): drop the index entry its record was filed under, once,
     * and journal the eviction.
     */
    virtual void onPhysFreed(Addr phys);

    /** Erase the index entry filed under @p fp for line @p phys from
     * index shard @p shard. */
    virtual void dropIndexEntry(std::uint64_t fp, Addr phys,
                                unsigned shard) = 0;

    /**
     * Point the write's address at @p phys: bump the new reference,
     * release the old mapping (possibly freeing a line), update the
     * AMT, and issue any metadata write-back traffic. Advances the
     * clock by the metadata access; write-back backpressure adds to
     * the issuer stall.
     */
    void remap(WriteCtx &w, Addr phys);

    /**
     * Allocate a physical line on the write address's channel, encrypt
     * @p data into it, store it with its ECC @p ecc (encodeEcc(data),
     * which the ESD schemes already hold as their fingerprint), and
     * issue the timed device write. The clock ends at the write's
     * completion and the new line becomes the decisive access.
     *
     * @return the new physical line
     */
    Addr writeUnique(WriteCtx &w, const CacheLine &data, LineEcc ecc);

    LineStore lines_;
    Amt amt_;
};

} // namespace esd

#endif // ESD_DEDUP_MAPPED_SCHEME_HH
