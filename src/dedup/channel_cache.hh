/**
 * @file
 * The one partitioned set-associative cache core behind the memory
 * controller's metadata caches: the EFIT, the fingerprint cache, the
 * AMT cache and ESD+'s content cache (Section III-B).
 *
 * Each memory channel owns one partition and its controller touches no
 * other, so a `-workers=N` pipeline shard, which simulates one channel,
 * holds exactly its channel's slice and sees the hits, misses and
 * victims of a serial run. The core owns the geometry check, the
 * partitions (each allocated by its first fill), the set index, the use
 * clock, the victim choice (an invalid way first, then the way the
 * caller's rank puts first, LRU by default) and the NVMM line of a
 * partition's table bucket, which lies on the partition's own channel.
 * Way types carry `bool valid` and `std::uint64_t lastUse`; each cache
 * keeps only its own policy. One partition indexes exactly as an
 * unpartitioned cache.
 */

#ifndef ESD_DEDUP_CHANNEL_CACHE_HH
#define ESD_DEDUP_CHANNEL_CACHE_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace esd
{

template <typename Way>
class ChannelCache
{
  public:
    /**
     * @param what       cache name for fatal messages
     * @param entries    capacity in ways, rounded down to whole sets
     *                   per partition
     * @param partitions one per memory channel
     * @param set_mix    multiplier that mixes a key before its set is
     *                   taken, or 0 to index by the key itself
     */
    ChannelCache(const char *what, std::uint64_t entries, unsigned assoc,
                 unsigned partitions, std::uint64_t set_mix = 0)
        : assoc_(assoc), mix_(set_mix), parts_(partitions)
    {
        if (partitions == 0)
            esd_fatal("%s needs at least one partition", what);
        if (assoc == 0 || entries < assoc)
            esd_fatal("%s too small for %u ways", what, assoc);
        if (entries / assoc < partitions)
            esd_fatal("%s too small for %u shards", what, partitions);
        setsPer_ = entries / assoc / partitions;
    }

    unsigned partitions() const { return static_cast<unsigned>(parts_.size()); }
    unsigned assoc() const { return assoc_; }
    std::uint64_t capacity() const { return setsPer_ * parts_.size() * assoc_; }

    /** Set index of @p key inside its partition. */
    std::uint64_t
    setOf(std::uint64_t key) const
    {
        if (mix_ != 0) {
            key ^= key >> 33;
            key *= mix_;
            key ^= key >> 33;
        }
        return key % setsPer_;
    }

    /** The valid way of @p key 's set in partition @p part that
     * @p match accepts, or nullptr. Never allocates. */
    template <typename Match>
    Way *
    find(unsigned part, std::uint64_t key, Match match)
    {
        if (Way *set = setBase(part, key))
            for (unsigned w = 0; w < assoc_; ++w)
                if (set[w].valid && match(set[w]))
                    return &set[w];
        return nullptr;
    }

    /** The way a fill of @p key into @p part takes: the first invalid
     * way, else the first way no other is @p before. The caller fills
     * and touch()es it. */
    template <typename Before>
    Way &
    victim(unsigned part, std::uint64_t key, Before before)
    {
        Way *set = setBase(part, key);
        if (!set) {
            parts_[part].resize(setsPer_ * assoc_);
            set = setBase(part, key);
        }
        Way *v = set;
        for (unsigned w = 0; w < assoc_; ++w) {
            if (!set[w].valid)
                return set[w];
            if (before(set[w], *v))
                v = &set[w];
        }
        return *v;
    }

    Way &
    victim(unsigned part, std::uint64_t key)
    {
        return victim(part, key, [](const Way &a, const Way &b) {
            return a.lastUse < b.lastUse;
        });
    }

    /** Make @p way the most recently used. */
    void touch(Way &way) { way.lastUse = ++clock_; }

    /** Visit partition @p part 's valid ways. */
    template <typename Fn>
    void
    forEachValid(unsigned part, Fn fn)
    {
        for (Way &w : parts_[part])
            if (w.valid)
                fn(w);
    }

    /** Visit every valid way, partition by partition. */
    template <typename Fn>
    void
    forEachValid(Fn fn) const
    {
        for (const std::vector<Way> &part : parts_)
            for (const Way &w : part)
                if (w.valid)
                    fn(w);
    }

    std::uint64_t
    validWays() const
    {
        std::uint64_t n = 0;
        forEachValid([&n](const Way &) { ++n; });
        return n;
    }

    /** NVMM line of byte @p offset of partition @p part 's slice of
     * the table region at @p base: the slice is the region's lines on
     * channel @p part (lineIndex % N == part), in order. */
    Addr
    nvmLine(Addr base, unsigned part, std::uint64_t offset) const
    {
        std::uint64_t n = parts_.size();
        std::uint64_t first = lineIndex(base);
        std::uint64_t lead = (part + n - first % n) % n;
        return (first + lead + offset / kLineSize * n) * kLineSize;
    }

  private:
    /** @p key 's set in @p part, or nullptr before the first fill. */
    Way *
    setBase(unsigned part, std::uint64_t key)
    {
        esd_assert(part < parts_.size(), "cache partition out of range");
        std::vector<Way> &ways = parts_[part];
        return ways.empty() ? nullptr : &ways[setOf(key) * assoc_];
    }

    unsigned assoc_;
    std::uint64_t mix_;
    std::uint64_t setsPer_ = 0;
    std::uint64_t clock_ = 0;
    std::vector<std::vector<Way>> parts_;
};

} // namespace esd

#endif // ESD_DEDUP_CHANNEL_CACHE_HH
