/**
 * @file
 * Reference-counted physical line allocation for deduplicating schemes.
 *
 * Dedup decouples logical addresses from physical lines: many logical
 * lines may reference one stored physical line. The LineStore owns
 * that relationship — allocating physical line addresses (bump pointer
 * plus free list), counting references, and releasing content back to
 * the NvmStore when the last reference dies. It is the one home of
 * per-physical-line state: each line's record also holds the
 * fingerprint its index entry is filed under, so a dying line's entry
 * is found without a reverse map.
 */

#ifndef ESD_DEDUP_LINE_STORE_HH
#define ESD_DEDUP_LINE_STORE_HH

#include <optional>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "nvm/nvm_store.hh"

namespace esd
{

/** Physical-line allocator with reference counting.
 *
 * With @p shards > 1 the allocator hands out per-shard address
 * streams: shard s only produces lines with lineIndex % shards == s,
 * so a line allocated for a logical address lands on the same memory
 * channel (the device uses the identical mod-N interleave). One shard
 * reproduces the original bump-pointer sequence exactly.
 *
 * Lines are dense per shard, so their records sit in one vector per
 * shard indexed by lineIndex / shards, whose size is the shard's bump
 * pointer. */
class LineStore
{
  public:
    explicit LineStore(NvmStore &store, unsigned shards = 1)
        : store_(store), shards_(shards), recs_(shards), free_(shards)
    {
        esd_assert(shards_ > 0, "line store needs at least one shard");
    }

    /** Allocate a fresh physical line address in @p shard (refcount
     * starts at 0; callers addRef() for each mapping created). */
    Addr
    allocate(unsigned shard = 0)
    {
        esd_assert(shard < shards_, "line store shard out of range");
        Addr phys;
        std::vector<Record> &recs = recs_[shard];
        if (!free_[shard].empty()) {
            phys = free_[shard].back();
            free_[shard].pop_back();
        } else {
            phys = (recs.size() * shards_ + shard) * kLineSize;
            esd_assert(lineIndex(phys) < store_.capacityLines(),
                       "physical line space exhausted");
            recs.emplace_back();
        }
        Record &r = recs[lineIndex(phys) / shards_];
        r = Record{};
        r.live = true;
        ++live_;
        return phys;
    }

    /** Shard owning physical line @p phys (the device interleave). */
    unsigned
    shardOf(Addr phys) const
    {
        return static_cast<unsigned>(lineIndex(phys) % shards_);
    }

    /** Add one reference to @p phys. */
    void
    addRef(Addr phys)
    {
        Record *r = find(phys);
        esd_assert(r && r->live, "addRef on unallocated line");
        ++r->refs;
    }

    /** What releaseIfLive() did. */
    enum class Released
    {
        NotLive,  ///< no live line at the address; nothing changed
        Dropped,  ///< one reference dropped, the line lives on
        Freed,    ///< the last reference died
    };

    /**
     * Drop one reference to @p phys when it names a live line. A line
     * whose last reference dies has its content erased and its address
     * freed — or, under deferred reclamation, queued to be.
     */
    Released
    releaseIfLive(Addr phys)
    {
        phys = lineAlign(phys);
        Record *r = find(phys);
        if (!r || !r->live)
            return Released::NotLive;
        esd_assert(r->refs > 0, "refcount underflow");
        if (--r->refs != 0)
            return Released::Dropped;
        r->live = false;
        --live_;
        if (deferred_) {
            pendingFree_.push_back(phys);
        } else {
            store_.erase(phys);
            free_[shardOf(phys)].push_back(phys);
        }
        return Released::Freed;
    }

    /**
     * Drop one reference to the live line @p phys.
     * @return true when the line died.
     */
    bool
    release(Addr phys)
    {
        Released r = releaseIfLive(phys);
        esd_assert(r != Released::NotLive, "release on unallocated line");
        return r == Released::Freed;
    }

    /** File the live line @p phys under fingerprint @p fp (its index
     * entry's key), for takeFingerprint() to hand back. */
    void
    setFingerprint(Addr phys, std::uint64_t fp)
    {
        Record *r = find(phys);
        esd_assert(r && r->live, "fingerprint on unallocated line");
        r->fp = fp;
        r->hasFp = true;
    }

    /** The fingerprint @p phys was filed under, cleared so it is
     * handed out once (nullopt when none is held). */
    std::optional<std::uint64_t>
    takeFingerprint(Addr phys)
    {
        Record *r = find(phys);
        if (!r || !r->hasFp)
            return std::nullopt;
        r->hasFp = false;
        return r->fp;
    }

    /**
     * Defer the destructive half of release() (content erase + free-
     * list push) until promoteFreed(). Crash consistency needs this: a
     * physical line must not be reused before the journal record that
     * released it commits, or recovery could resurrect a mapping onto
     * foreign content. Off (the default) release() is immediate and
     * allocation order is bit-identical to the pre-persistence code.
     */
    void
    setDeferredReclaim(bool on)
    {
        esd_assert(on || pendingFree_.empty(),
                   "disabling deferred reclaim with frees pending");
        deferred_ = on;
    }

    /** Reclaim every deferred-dead line (call at epoch commit). */
    void
    promoteFreed()
    {
        for (Addr phys : pendingFree_) {
            store_.erase(phys);
            free_[shardOf(phys)].push_back(phys);
        }
        pendingFree_.clear();
    }

    /** Current reference count (0 when not live). Any address is
     * accepted: stale index entries and RAS spares can name lines
     * never allocated. */
    std::uint32_t
    refCount(Addr phys) const
    {
        const Record *r = find(phys);
        return r && r->live ? r->refs : 0;
    }

    bool
    isLive(Addr phys) const
    {
        const Record *r = find(phys);
        return r && r->live;
    }

    /** Live unique physical lines. */
    std::uint64_t liveLines() const { return live_; }

    /** All live (phys, refcount) pairs, shard by shard in address
     * order — for invariant checks. */
    std::vector<std::pair<Addr, std::uint32_t>>
    refTable() const
    {
        std::vector<std::pair<Addr, std::uint32_t>> out;
        out.reserve(live_);
        for (unsigned s = 0; s < shards_; ++s) {
            for (std::uint64_t i = 0; i < recs_[s].size(); ++i) {
                if (recs_[s][i].live)
                    out.emplace_back((i * shards_ + s) * kLineSize,
                                     recs_[s][i].refs);
            }
        }
        return out;
    }

  private:
    /** Per-line state. The fingerprint survives the line's death
     * until the scheme takes it to drop the index entry. */
    struct Record
    {
        std::uint64_t fp = 0;   ///< fingerprint its index entry is under
        std::uint32_t refs = 0;
        bool live = false;
        bool hasFp = false;
    };

    /** The record of @p phys, or nullptr past its shard's high-water
     * mark. */
    const Record *
    find(Addr phys) const
    {
        std::uint64_t line = lineIndex(phys);
        const std::vector<Record> &recs = recs_[line % shards_];
        std::uint64_t i = line / shards_;
        return i < recs.size() ? &recs[i] : nullptr;
    }

    Record *
    find(Addr phys)
    {
        return const_cast<Record *>(std::as_const(*this).find(phys));
    }

    NvmStore &store_;
    unsigned shards_;
    std::vector<std::vector<Record>> recs_;  ///< per shard; size = bump
    std::vector<std::vector<Addr>> free_;    ///< per-shard free lists
    std::vector<Addr> pendingFree_;          ///< dead, awaiting commit
    std::uint64_t live_ = 0;
    bool deferred_ = false;
};

} // namespace esd

#endif // ESD_DEDUP_LINE_STORE_HH
