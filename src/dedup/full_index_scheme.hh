/**
 * @file
 * Shared base of the full-deduplication schemes (Dedup_SHA1, DeWrite,
 * ESD_Full): the complete fingerprint index lives in NVMM behind a
 * small on-chip cache (an FpTable). A cache miss forces a fingerprint
 * NVMM_lookup and every unique line stores its entry to NVMM — the
 * costs ESD's selective, cache-only EFIT removes. The schemes differ
 * in the fingerprint they index (SHA-1, CRC or the free ECC), in the
 * modelled entry size, and in whether they verify a match.
 */

#ifndef ESD_DEDUP_FULL_INDEX_SCHEME_HH
#define ESD_DEDUP_FULL_INDEX_SCHEME_HH

#include "dedup/fp_table.hh"
#include "dedup/mapped_scheme.hh"

namespace esd
{

/** Base for schemes keeping the whole fingerprint index in NVMM. */
class FullIndexScheme : public MappedDedupScheme
{
  public:
    /**
     * @param entry_bytes modelled index entry size (Fig. 19 space)
     * @param nvm_base    byte address of the scheme's NVMM index region
     */
    FullIndexScheme(const SimConfig &cfg, PcmDevice &device,
                    NvmStore &store, std::uint64_t entry_bytes,
                    Addr nvm_base);

    /** The index plus the AMT. */
    std::uint64_t metadataNvmBytes() const override;

    /** Adds the fingerprint index under "cache.fp.*". */
    void registerStats(StatRegistry &reg) const override;

    void
    resetStats() override
    {
        MappedDedupScheme::resetStats();
        fps_.resetStats();
    }

    /** The fingerprint cache's counts plus the AMT's. */
    MetadataCacheCounts metadataCacheCounts() const override;

    const FpTable &fpTable() const { return fps_; }

  protected:
    void dropIndexEntry(std::uint64_t fp, Addr phys,
                        unsigned shard) override;

    /**
     * Look @p fp up in @p shard: the on-chip cache, then on a miss the
     * timed NVMM_lookup read (charged to the clock and
     * bd.fpNvmLookup). An entry whose line died is erased and reported
     * not found, so `found` means a live candidate, which becomes the
     * write's decisive access. A @p suspended probe skips the lookup
     * and finds nothing.
     */
    FpTable::LookupResult probeIndex(WriteCtx &w, std::uint64_t fp,
                                     unsigned shard, bool suspended);

    /**
     * Register unique line @p phys under @p fp: the index insert, its
     * journal record, and the NVMM index store issued at @p at (off
     * the critical path).
     *
     * @return the store's queue-backpressure stall
     */
    Tick indexNewLine(std::uint64_t fp, Addr phys, unsigned shard,
                      Tick at);

  private:
    FpTable fps_;
};

} // namespace esd

#endif // ESD_DEDUP_FULL_INDEX_SCHEME_HH
