/**
 * @file
 * Address Mapping Table (AMT) — Section III-B.
 *
 * The AMT records the many-to-one mapping from a logical line address
 * (what the LLC evicts) to the physical line that stores its content.
 * The full table lives in NVMM; hot entries are buffered in a 512 KB
 * on-chip cache inside the memory controller. A lookup that misses the
 * cache costs a real NVMM read (reported to the caller so the scheme
 * can charge the device access); dirty cache evictions cost an NVMM
 * write-back.
 *
 * Entries model the paper's 40-bit split physical address:
 * Addr_base (4 B, 8-bit left shift) + Addr_offsets (1 B), addressing
 * 64 TB of line-granular space.
 *
 * The on-chip cache is organised at NVMM-line granularity: the entries
 * of several (64 B / amtEntryBytes) consecutive logical lines of one
 * channel share one cached block, so spatially local updates coalesce
 * into a single dirty write-back — matching how a real controller
 * moves metadata. A block lives in its channel's cache partition and
 * on its channel's NVMM lines (ChannelCache).
 */

#ifndef ESD_DEDUP_AMT_HH
#define ESD_DEDUP_AMT_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/config.hh"
#include "common/line_table.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "dedup/channel_cache.hh"

namespace esd
{

class StatRegistry;

/** Packed 40-bit physical address in the paper's base+offset format. */
struct PackedPhys
{
    std::uint32_t base = 0;    ///< Addr_base: upper 32 of 40 line bits
    std::uint8_t offset = 0;   ///< Addr_offsets: low 8 bits

    /** Pack a physical line address. */
    static PackedPhys
    fromAddr(Addr phys)
    {
        std::uint64_t line = lineIndex(phys);
        PackedPhys p;
        p.base = static_cast<std::uint32_t>(line >> 8);
        p.offset = static_cast<std::uint8_t>(line & 0xff);
        return p;
    }

    /** Unpack back to a byte address: (base << 8 | offset) * 64. */
    Addr
    toAddr() const
    {
        std::uint64_t line =
            (static_cast<std::uint64_t>(base) << 8) | offset;
        return line * kLineSize;
    }

    bool
    operator==(const PackedPhys &o) const
    {
        return base == o.base && offset == o.offset;
    }
};

/** What a metadata operation had to touch — the caller translates
 * these into timed device accesses. */
struct MetadataEffects
{
    /** The on-chip cache missed and an NVMM read of the table entry's
     * line was required. */
    bool nvmRead = false;

    /** Address of the entry line read from NVMM (valid iff nvmRead). */
    Addr nvmReadAddr = kInvalidAddr;

    /** A dirty cached entry was displaced and written back. */
    bool nvmWriteback = false;
    Addr nvmWritebackAddr = kInvalidAddr;
};

/** AMT statistics. */
struct AmtStats
{
    Counter lookups;
    Counter cacheHits;
    Counter cacheMisses;
    Counter nvmReads;
    Counter nvmWritebacks;
    Counter updates;

    double hitRate() const { return cacheHits.shareOf(lookups); }
};

/**
 * The AMT: full logical->physical map plus a set-associative hot-entry
 * cache with write-back semantics.
 */
class Amt
{
  public:
    /**
     * @param cfg       metadata sizing (cache bytes, entry bytes, assoc)
     * @param nvm_base  byte address where the NVMM-resident table
     *                  begins (entries are packed amtEntryBytes apart)
     * @param shards    one cache partition per memory channel. The AMT
     *                  is keyed by logical address, so a line's
     *                  partition is its channel under the device's
     *                  mod-N interleave; one shard (default) is the
     *                  unpartitioned cache.
     */
    Amt(const MetadataConfig &cfg, Addr nvm_base, unsigned shards = 1);

    /** Result of a lookup. */
    struct LookupResult
    {
        bool found = false;      ///< a mapping exists
        Addr phys = kInvalidAddr;
        bool cacheHit = false;   ///< served from the on-chip cache
        MetadataEffects effects;
    };

    /** Find the physical line of @p logical (read path). */
    LookupResult lookup(Addr logical);

    /**
     * A logical line's entry in the NVMM-resident table, found or
     * created by one probe (claim()). Valid until the next call that
     * inserts into the table.
     */
    struct Slot
    {
        std::uint64_t line = 0;
        PackedPhys *entry = nullptr;
        bool mapped = false;  ///< the entry held a mapping before claim()

        /** The mapping before claim(), if any. */
        std::optional<Addr>
        previous() const
        {
            if (!mapped)
                return std::nullopt;
            return entry->toAddr();
        }
    };

    /**
     * Find-or-create @p logical 's table entry with one probe: the
     * write path reads the old mapping from it and then installs the
     * new one with update(slot, phys). A fresh entry holds no mapping
     * until that update, so no other table call may come in between.
     * Touches neither the cache nor the statistics.
     */
    Slot claim(Addr logical);

    /**
     * Install/overwrite the mapping (write path). The entry becomes
     * dirty in the cache; the returned effects may include a write-back
     * of a displaced dirty entry (and a fill read when the paper's
     * write-allocate behaviour misses).
     */
    MetadataEffects update(Addr logical, Addr phys);

    /** update() through an entry claim() already found. */
    MetadataEffects update(const Slot &slot, Addr phys);

    /** Current mapping of @p logical without touching the cache or
     * the statistics. */
    std::optional<Addr> peek(Addr logical) const;

    /** NVMM line address holding @p logical 's entry, on the line's
     * own channel. */
    Addr
    entryNvmAddr(Addr logical) const
    {
        return nvmAddrOf(blockOf(lineIndex(logical)));
    }

    /** Mappings resident in the (conceptual) NVMM table. */
    std::uint64_t mappingCount() const { return map_.size(); }

    /** NVMM bytes consumed by the table (Fig. 19 accounting). */
    std::uint64_t
    nvmBytes() const
    {
        return map_.size() * cfg_.amtEntryBytes;
    }

    const AmtStats &stats() const { return stats_; }

    /** Zero the counters at the warm-up boundary; contents stay warm. */
    void resetStats() { stats_ = AmtStats{}; }

    /** Register counters, hit rate, and footprint under
     * "<prefix>.*". */
    void registerStats(StatRegistry &reg,
                       const std::string &prefix) const;

    /** Consecutive logical lines of one channel sharing one cached
     * 64 B block. */
    std::uint64_t entriesPerBlock() const { return entriesPerBlock_; }

  private:
    struct Way
    {
        bool valid = false;
        bool dirty = false;
        std::uint64_t tag = 0;   ///< entry-block index in its channel
        std::uint64_t lastUse = 0;
    };

    /** A logical line's entry block: its channel's partition and
     * the block's index among that channel's lines. */
    struct Block
    {
        unsigned part;
        std::uint64_t group;
    };

    Block
    blockOf(std::uint64_t line) const
    {
        unsigned n = cache_.partitions();
        return {static_cast<unsigned>(line % n),
                line / n / entriesPerBlock_};
    }

    /** The NVMM line holding block @p b. */
    Addr
    nvmAddrOf(const Block &b) const
    {
        return cache_.nvmLine(nvmBase_, b.part, b.group * kLineSize);
    }

    Way *findWay(const Block &b);
    /** Insert @p b, returning the NVMM line of the displaced dirty
     * victim when a write-back is needed. */
    std::optional<Addr> fill(const Block &b, bool dirty);

    MetadataConfig cfg_;
    Addr nvmBase_;
    std::uint64_t entriesPerBlock_;
    ChannelCache<Way> cache_;

    /** The authoritative NVMM-resident table (functional model),
     * directly indexed where the mapped lines are dense. */
    LineTable<PackedPhys> map_;

    AmtStats stats_;
};

} // namespace esd

#endif // ESD_DEDUP_AMT_HH
