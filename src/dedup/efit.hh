/**
 * @file
 * ECC-based Fingerprint Index Table (EFIT) — Section III-B/III-D.
 *
 * The EFIT lives *only* in the on-chip memory-controller cache: this
 * is the heart of selective deduplication. Entries are
 * <ECC, Addr_base, Addr_offsets, referH>; replacement is LRCU (Least
 * Reference Count Used) so that high-reference-count fingerprints — the
 * content-locality winners of Fig. 3 — survive, while the referH-of-1
 * long tail is evicted first. A periodic decay subtracts a fixed value
 * from every cached referH so stale once-hot entries age out.
 */

#ifndef ESD_DEDUP_EFIT_HH
#define ESD_DEDUP_EFIT_HH

#include <cstdint>
#include <vector>

#include "common/config.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "dedup/amt.hh"
#include "dedup/channel_cache.hh"
#include "ecc/line_ecc.hh"

namespace esd
{

class StatRegistry;

/** EFIT statistics. */
struct EfitStats
{
    Counter lookups;
    Counter hits;
    Counter misses;
    Counter inserts;
    Counter evictions;
    Counter evictionsRef1;  ///< victims whose referH was 1 (LRCU target)
    Counter decayRounds;
    Counter referHSaturations;

    double hitRate() const { return hits.shareOf(lookups); }
};

/**
 * The EFIT cache.
 */
class Efit
{
  public:
    /** One cached fingerprint entry. */
    struct Entry
    {
        bool valid = false;
        LineEcc ecc = 0;
        PackedPhys phys;
        std::uint32_t referH = 0;
        std::uint64_t lastUse = 0;
    };

    /** @param shards one partition per memory channel (ChannelCache),
     *         each decaying on its own inserts; one shard (the default)
     *         is the unpartitioned cache. */
    explicit Efit(const MetadataConfig &cfg, unsigned shards = 1);

    /**
     * Look up @p ecc within @p shard.
     * @return the matching entry (LRU refreshed) or nullptr.
     */
    Entry *lookup(LineEcc ecc, unsigned shard = 0);

    /**
     * Insert a fingerprint for the line stored at @p phys with an
     * initial referH of 1 into @p shard. Applies LRCU replacement when
     * the set is full and decays the partition every decayPeriod
     * insertions into it.
     */
    void insert(LineEcc ecc, Addr phys, unsigned shard = 0);

    /**
     * Credit one more reference to @p entry.
     * @return false when referH was already saturated at referHMax —
     *         the paper's "treat as a new cache line" condition.
     */
    bool bumpRef(Entry *entry);

    /**
     * Repoint @p entry at a freshly written copy and restart its
     * reference count — the paper's referH-saturation handling: the
     * rewritten line becomes the deduplication target for subsequent
     * identical writes (Section III-D).
     */
    void
    redirect(Entry *entry, Addr phys)
    {
        esd_assert(entry && entry->valid, "redirect on invalid entry");
        entry->phys = PackedPhys::fromAddr(phys);
        entry->referH = 1;
        cache_.touch(*entry);
    }

    /** Drop the entry matching (@p ecc, @p phys) if cached in
     * @p shard — called when the referenced physical line dies. */
    void erase(LineEcc ecc, Addr phys, unsigned shard = 0);

    std::uint64_t capacityEntries() const { return cache_.capacity(); }

    /** Count of valid entries (tests / occupancy reporting). */
    std::uint64_t validEntries() const { return cache_.validWays(); }

    /** Copy of every valid entry (invariant checks in tests). */
    std::vector<Entry>
    snapshotValid() const
    {
        std::vector<Entry> out;
        cache_.forEachValid([&out](const Entry &e) { out.push_back(e); });
        return out;
    }

    const EfitStats &stats() const { return stats_; }

    /** Zero the counters at the warm-up boundary; contents stay warm. */
    void resetStats() { stats_ = EfitStats{}; }

    /** Register counters, hit rate, and occupancy under
     * "<prefix>.*". */
    void registerStats(StatRegistry &reg,
                       const std::string &prefix) const;

  private:
    /** Subtract decayDelta from every referH in @p shard . */
    void decay(unsigned shard);

    MetadataConfig cfg_;
    ChannelCache<Entry> cache_;

    /** Inserts into each partition since its last decay. */
    std::vector<std::uint64_t> sinceDecay_;
    EfitStats stats_;
};

} // namespace esd

#endif // ESD_DEDUP_EFIT_HH
