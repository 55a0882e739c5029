/**
 * @file
 * Ablation variant: ECC-assisted *full* deduplication.
 *
 * Identical to ESD in how it fingerprints (free ECC interception, no
 * hash) and verifies (byte-by-byte comparison), but instead of the
 * cache-only EFIT it keeps the complete fingerprint index in NVMM
 * behind the on-chip cache, like Dedup_SHA1/DeWrite do. Comparing this
 * against EsdScheme isolates the contribution of *selective*
 * deduplication from the contribution of the ECC fingerprint itself
 * (esd_figures' bench_abl_selective row; not a paper scheme).
 */

#ifndef ESD_DEDUP_ESD_FULL_HH
#define ESD_DEDUP_ESD_FULL_HH

#include "dedup/full_index_scheme.hh"

namespace esd
{

/** ECC fingerprints + full NVMM-resident index. */
class EsdFullScheme : public FullIndexScheme
{
  public:
    EsdFullScheme(const SimConfig &cfg, PcmDevice &device,
                  NvmStore &store);

    AccessResult write(Addr addr, const CacheLine &data,
                       Tick now) override;

    std::string name() const override { return "ESD_Full"; }
};

} // namespace esd

#endif // ESD_DEDUP_ESD_FULL_HH
