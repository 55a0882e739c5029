/**
 * @file
 * Full-deduplication fingerprint table, as used by Dedup_SHA1,
 * DeWrite and ESD_Full through FullIndexScheme (Section II-B /
 * Fig. 10): the complete fingerprint index resides in NVMM while a
 * small on-chip cache holds recently used entries. A cache miss forces
 * a fingerprint NVMM_lookup — the exact bottleneck ESD's selective
 * deduplication eliminates.
 */

#ifndef ESD_DEDUP_FP_TABLE_HH
#define ESD_DEDUP_FP_TABLE_HH

#include <cstdint>
#include <vector>

#include "common/config.hh"
#include "common/flat_map.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "dedup/amt.hh"
#include "dedup/channel_cache.hh"

namespace esd
{

/** Fingerprint table statistics. */
struct FpTableStats
{
    Counter lookups;
    Counter cacheHits;
    Counter cacheMisses;
    Counter nvmLookups;      ///< reads of the NVMM-resident index
    Counter nvmFoundAfterMiss;
    Counter nvmStores;       ///< index inserts written to NVMM
    Counter erases;

    double cacheHitRate() const { return cacheHits.shareOf(lookups); }
};

/**
 * The fingerprint index: full map "in NVMM" + set-associative on-chip
 * cache keyed by a 64-bit fingerprint.
 */
class FpTable
{
  public:
    /**
     * @param cache_bytes on-chip cache capacity
     * @param entry_bytes modelled entry size (SHA-1: 26 B; DeWrite:
     *                    ~16 B) — determines cached entry count and the
     *                    Fig. 19 NVMM space accounting
     * @param assoc       cache associativity
     * @param nvm_base    byte address of the NVMM-resident index region
     * @param shards      one cache partition (ChannelCache) and one
     *                    NVMM index slice per memory channel; one shard
     *                    (the default) reproduces the unsharded table
     */
    FpTable(std::uint64_t cache_bytes, std::uint64_t entry_bytes,
            unsigned assoc, Addr nvm_base, unsigned shards = 1);

    struct LookupResult
    {
        bool found = false;       ///< fingerprint known to the system
        Addr phys = kInvalidAddr; ///< stored line it references
        bool cacheHit = false;    ///< resolved without NVMM access
        bool nvmLookup = false;   ///< an NVMM index read was required
        Addr nvmAddr = kInvalidAddr;
    };

    /** Query @p fp in @p shard; misses consult (and cache from) the
     * NVMM index. */
    LookupResult lookup(std::uint64_t fp, unsigned shard = 0);

    /**
     * Register a fresh fingerprint for the line at @p phys. The write
     * to the NVMM-resident index is reported through @p nvm_store_addr
     * so the scheme can charge a device write.
     */
    void insert(std::uint64_t fp, Addr phys, Addr &nvm_store_addr,
                unsigned shard = 0);

    /** Remove @p fp from @p shard (its physical line died). */
    void erase(std::uint64_t fp, unsigned shard = 0);

    /** NVMM line address of @p fp 's index bucket in @p shard, on
     * the shard's own channel. */
    Addr entryNvmAddr(std::uint64_t fp, unsigned shard = 0) const;

    /** Entries resident in the NVMM index (all shards). */
    std::uint64_t
    nvmEntries() const
    {
        std::uint64_t n = 0;
        for (const auto &m : maps_)
            n += m.size();
        return n;
    }

    /** NVMM bytes consumed by the index (Fig. 19). */
    std::uint64_t nvmBytes() const { return nvmEntries() * entryBytes_; }

    std::uint64_t cacheCapacityEntries() const { return cache_.capacity(); }

    const FpTableStats &stats() const { return stats_; }

    /** Zero the counters at the warm-up boundary; contents stay warm. */
    void resetStats() { stats_ = FpTableStats{}; }

    /** Register counters, hit rate, and footprint under
     * "<prefix>.*". */
    void registerStats(StatRegistry &reg,
                       const std::string &prefix) const;

  private:
    struct Way
    {
        bool valid = false;
        std::uint64_t fp = 0;
        PackedPhys phys;
        std::uint64_t lastUse = 0;
    };

    Way *
    findWay(std::uint64_t fp, unsigned shard)
    {
        return cache_.find(shard, fp,
                           [fp](const Way &w) { return w.fp == fp; });
    }

    void fill(std::uint64_t fp, PackedPhys phys, unsigned shard);

    std::uint64_t entryBytes_;
    Addr nvmBase_;
    ChannelCache<Way> cache_;

    /** Authoritative NVMM-resident index, one partition per shard
     * (functional model). */
    std::vector<FlatMap<std::uint64_t, PackedPhys>> maps_;

    FpTableStats stats_;
};

} // namespace esd

#endif // ESD_DEDUP_FP_TABLE_HH
