/**
 * @file
 * ESD+ — an extension beyond the paper: a small on-chip *content*
 * cache for the hottest deduplication targets.
 *
 * ESD's only remaining write-path NVMM access for a duplicate is the
 * byte-compare read of the candidate line. But the content-locality
 * observation (Fig. 3) cuts both ways: the same few lines (the zero
 * line above all) are compared against over and over. ESD+ keeps the
 * plaintext of EFIT entries whose referH crosses a threshold in a
 * tiny SRAM cache (default 64 lines = 4 KB), turning their
 * comparisons into pure on-chip work — no device read at all. Like
 * the EFIT it sits in the controller split by channel: each channel
 * holds an LRU set of 64 / N lines of its own (ChannelCache).
 *
 * Correctness is unchanged: the cached content is installed from a
 * verified compare and invalidated when its physical line dies.
 */

#ifndef ESD_DEDUP_ESD_PLUS_HH
#define ESD_DEDUP_ESD_PLUS_HH

#include "dedup/channel_cache.hh"
#include "dedup/esd.hh"

namespace esd
{

/** ESD with a hot-content cache on the compare path. */
class EsdPlusScheme : public EsdScheme
{
  public:
    EsdPlusScheme(const SimConfig &cfg, PcmDevice &device,
                  NvmStore &store);

    std::string name() const override { return "ESD+"; }

    /** Adds the content cache under "esd.content_cache.*". */
    void registerStats(StatRegistry &reg) const override;

    void
    resetStats() override
    {
        EsdScheme::resetStats();
        contentHits_ = 0;
    }

    /** Compares answered without a device read. */
    std::uint64_t contentCacheHits() const { return contentHits_; }
    std::uint64_t contentCacheCapacity() const { return content_.capacity(); }
    std::uint64_t contentCacheSize() const { return content_.validWays(); }

  protected:
    void onPhysFreed(Addr phys) override;

    /** Answers the compare on chip when the candidate's content is
     * cached; otherwise reads it as ESD does and caches it once hot. */
    bool compareCandidate(WriteCtx &w, const Efit::Entry &entry,
                          const CacheLine &data) override;

    /** The fresh copy becomes the target: drop the old one's content. */
    void onSaturatedRewrite(Addr cand) override { eraseContent(cand); }

  private:
    struct CachedLine
    {
        bool valid = false;
        Addr phys = 0;
        std::uint64_t lastUse = 0;
        CacheLine data;
    };

    /** @p phys 's way in its channel's partition, or nullptr. */
    CachedLine *findContent(Addr phys);

    /** Install (or refresh) @p phys 's plaintext, evicting LRU. */
    void installContent(Addr phys, const CacheLine &data);

    void eraseContent(Addr phys);

    /** referH at which a line earns a content-cache slot. */
    std::uint32_t hotThreshold_;
    std::uint64_t contentHits_ = 0;

    /** One fully associative set per channel. */
    ChannelCache<CachedLine> content_;
};

} // namespace esd

#endif // ESD_DEDUP_ESD_PLUS_HH
