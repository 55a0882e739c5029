/**
 * @file
 * DeWrite (MICRO'18) — the state-of-the-art comparison scheme. Full
 * deduplication with a lightweight CRC fingerprint, a duplication
 * predictor, and parallel encryption:
 *
 *   - predicted duplicate  -> serial: CRC, fingerprint lookup (cache
 *     then NVMM), candidate read + byte comparison; mispredictions
 *     (F2 in Fig. 4) pay the whole check *and* the encrypt+write;
 *   - predicted non-duplicate -> encryption+write overlap the check;
 *     wrong predictions (F4) waste the encryption work (energy) even
 *     though the check hides the latency.
 *
 * CRC collisions are caught by byte comparison, so like ESD this
 * scheme never loses data — but it computes CRC for every line and
 * keeps the full fingerprint index in NVMM.
 */

#ifndef ESD_DEDUP_DEWRITE_HH
#define ESD_DEDUP_DEWRITE_HH


#include "dedup/full_index_scheme.hh"
#include "dedup/predictor.hh"

namespace esd
{

/** DeWrite: CRC + prediction + parallel encryption, full dedup. */
class DeWriteScheme : public FullIndexScheme
{
  public:
    DeWriteScheme(const SimConfig &cfg, PcmDevice &device,
                  NvmStore &store);

    AccessResult write(Addr addr, const CacheLine &data,
                       Tick now) override;

    std::string name() const override { return "DeWrite"; }

    /** Adds the predictor ("scheme.predictor.*"). */
    void registerStats(StatRegistry &reg) const override;

    void
    resetStats() override
    {
        FullIndexScheme::resetStats();
        predictor_.resetStats();
    }

    const DupPredictor &predictor() const { return predictor_; }

  private:
    /** The duplicate-or-not resolution common to both predicted paths:
     * fingerprint lookup plus byte comparison of the candidate.
     * Advances the clock along the *check* path; `found` means a
     * verified duplicate. */
    FpTable::LookupResult resolveDuplicate(WriteCtx &w, std::uint64_t fp,
                                           const CacheLine &data,
                                           unsigned shard);

    DupPredictor predictor_;
};

} // namespace esd

#endif // ESD_DEDUP_DEWRITE_HH
