/**
 * @file
 * Dedup_SHA1: the traditional full-deduplication baseline (Section
 * IV-A). Every evicted line is fingerprinted with SHA-1 (321 ns on the
 * critical path), the full fingerprint index lives in NVMM behind a
 * small on-chip cache, and a duplicate is declared on fingerprint
 * match alone (collision-trusting, like classic dedup storage).
 */

#ifndef ESD_DEDUP_DEDUP_SHA1_HH
#define ESD_DEDUP_DEDUP_SHA1_HH

#include "dedup/full_index_scheme.hh"

namespace esd
{

/** SHA-1 full deduplication. */
class DedupSha1Scheme : public FullIndexScheme
{
  public:
    DedupSha1Scheme(const SimConfig &cfg, PcmDevice &device,
                    NvmStore &store);

    AccessResult write(Addr addr, const CacheLine &data,
                       Tick now) override;

    std::string name() const override { return "Dedup_SHA1"; }
};

} // namespace esd

#endif // ESD_DEDUP_DEDUP_SHA1_HH
