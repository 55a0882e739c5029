/**
 * @file
 * ESD — the paper's contribution (Section III): ECC-assisted,
 * selective deduplication for encrypted NVMM.
 *
 * Write path:
 *   1. the per-line ECC already computed by the memory controller is
 *      intercepted as a free fingerprint (no hash latency or energy);
 *   2. the EFIT (on-chip only) is probed — a miss *definitively* means
 *      no cached duplicate: encrypt and write, then insert the
 *      fingerprint under LRCU replacement;
 *   3. a hit means "similar": the candidate is read back from NVMM
 *      (cheap — reads are half the cost of writes on PCM) and byte-
 *      compared; equality dedups the write, inequality was an ECC
 *      collision and the line is written normally.
 *
 * There is no fingerprint store in NVMM at all — the selective part —
 * so the fingerprint NVMM_lookup bottleneck (Fig. 5) and its space
 * overhead (Fig. 19) vanish. A saturated referH (1 byte) causes the
 * paper's "treat as new line" rewrite.
 */

#ifndef ESD_DEDUP_ESD_HH
#define ESD_DEDUP_ESD_HH

#include "dedup/efit.hh"
#include "dedup/mapped_scheme.hh"

namespace esd
{

/** The ESD scheme. */
class EsdScheme : public MappedDedupScheme
{
  public:
    EsdScheme(const SimConfig &cfg, PcmDevice &device, NvmStore &store);

    AccessResult write(Addr addr, const CacheLine &data,
                       Tick now) override;

    std::string name() const override { return "ESD"; }

    /** Adds the EFIT under "esd.efit.*". */
    void registerStats(StatRegistry &reg) const override;

    void
    resetStats() override
    {
        MappedDedupScheme::resetStats();
        efit_.resetStats();
    }

    /** Only the AMT lives in NVMM — no fingerprint store. */
    std::uint64_t metadataNvmBytes() const override
    {
        return amt_.nvmBytes();
    }

    const Efit &efit() const { return efit_; }

    /** The EFIT's counts plus the AMT's. */
    MetadataCacheCounts metadataCacheCounts() const override;

  protected:
    void dropIndexEntry(std::uint64_t fp, Addr phys,
                        unsigned shard) override;

    /**
     * Step 3: whether @p data equals the live candidate behind the
     * EFIT hit @p entry, advancing the clock past the comparison. ESD
     * reads the candidate from NVMM (timedCompare).
     */
    virtual bool compareCandidate(WriteCtx &w, const Efit::Entry &entry,
                                  const CacheLine &data);

    /** The candidate matched but its referH is saturated, so a fresh
     * copy replaces it as the dedup target. ESD keeps nothing per
     * candidate beyond the EFIT entry. */
    virtual void onSaturatedRewrite(Addr /*cand*/) {}

    Efit efit_;
};

} // namespace esd

#endif // ESD_DEDUP_ESD_HH
