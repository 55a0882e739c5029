/**
 * @file
 * Shared machinery of the deduplicating schemes (Dedup_SHA1, DeWrite,
 * ESD): reference-counted physical allocation, AMT-mediated remapping
 * on the write path, and the AMT-indirected read path. The concrete
 * schemes differ only in how they fingerprint and when they dedup.
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

    /** Mapped schemes additionally defer line reclamation to epoch
     * commits, so a freed physical line is never reused before the
     * journal record releasing it is durable. */
    void setPersistence(PersistenceManager *pm) override;

    /** Data lives behind the AMT, not at its logical address. */
    bool persistInPlace() const override { return false; }

    const Amt &amt() const { return amt_; }
    const LineStore &lineStore() const { return lines_; }

  protected:
    /** Hook: the physical line @p phys lost its last reference; the
     * scheme must drop any fingerprint entry referencing it. */
    virtual void onPhysFreed(Addr phys) = 0;

    /**
     * Point @p addr at @p phys: bump the new reference, release the
     * old mapping (possibly freeing a line), update the AMT, and issue
     * any metadata write-back traffic.
     *
     * @param t  running timestamp; advanced by the metadata access
     * @param bd write breakdown accumulator
     * @return stall from async metadata traffic (queue backpressure)
     */
    Tick remap(Addr addr, Addr phys, Tick &t, WriteBreakdown &bd);

    /**
     * Allocate a physical line on logical @p addr 's channel, encrypt
     * @p data into it, store it with its ECC @p ecc (encodeEcc(data),
     * which the ESD schemes already hold as their fingerprint), and
     * issue the timed device write.
     *
     * @param t running timestamp; advanced past encryption; the
     *          returned result's complete is the write completion
     */
    NvmAccessResult writeNewLine(Addr addr, const CacheLine &data,
                                 LineEcc ecc, Addr &phys_out, Tick &t,
                                 WriteBreakdown &bd);

    LineStore lines_;
    Amt amt_;
};

} // namespace esd

#endif // ESD_DEDUP_MAPPED_SCHEME_HH
