/**
 * @file
 * Per-line tables that go dense where the lines do.
 *
 * The AMT mapping, the counter-mode counters and the wear counts are
 * keyed by line index. Their keys are dense wherever a dedup scheme
 * allocates physical lines (LineStore hands them out from a bump
 * pointer) and wherever a trace has a working set, but Baseline's
 * addresses are whatever the trace says, and a trace may scatter them
 * over the whole address space. A hash map is right for the second
 * case and wasteful for the first; a paged array is the reverse (on
 * uniform random lines over 8 GB it multiplies the footprint by 5 at
 * 64-line pages and by 50 at 4096-line pages).
 *
 * `LineTable<T>` keeps both: every line starts in one `FlatMap`, and a
 * 4096-line region moves into a directly indexed array once that array
 * costs no more than the hash entries it replaces. The cost compares
 * the array (values, a presence bit per slot, fixed per-region
 * overhead) with a FlatMap slot at its densest load (3/4).
 *
 * A region's array may be strided. Promotion looks at the low offset
 * bits its keys share: when every key agrees on the low k bits (k <=
 * kMaxStrideBits), the array holds only the offsets with those bits,
 * one slot per 2^k lines. A pipeline shard owns every S-th physical
 * line, so its regions promote at S <= 8 with S times fewer slots. A
 * later key off that stride widens the array when the region is still
 * worth an array at the finer stride, and otherwise moves the region
 * back to the hash.
 *
 * Counting every region's hashed keys exactly would cost a second
 * hash entry per key on scattered input. Instead, each hashed key bumps
 * one of a few 16-bit counters (one per 16 to 32 hash slots), picked by
 * hashing its region and its offset class (offset mod 8). A region
 * that pays at any stride has a class holding at least classTrigger()
 * keys, so only a counter at that level makes an insert count its
 * class exactly (512 probes) and, if the class is that full, take the
 * region's census (4096 probes). A region still short of paying is
 * then watched: its census is kept up to date on every further insert,
 * so it is never probed again and promotes on exactly the insert that
 * makes it pay. A failed class count raises the counter's next check
 * level by the keys the class still lacks. Promotion can therefore
 * come late when classes collide in a counter; it never comes early.
 *
 * Iteration order (forEach) is a pure function of the operation
 * sequence. Pointers into the table are invalidated by the next
 * insert, as with FlatMap.
 */

#ifndef ESD_COMMON_LINE_TABLE_HH
#define ESD_COMMON_LINE_TABLE_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "common/flat_map.hh"

namespace esd
{

template <typename T>
class LineTable
{
  public:
    /** Lines per region (the unit of promotion). */
    static constexpr unsigned kRegionBits = 12;
    static constexpr std::uint64_t kRegionLines = 1ull << kRegionBits;

    /** Largest stride (as log2) a region's array may have. */
    static constexpr unsigned kMaxStrideBits = 3;

    /** Value of @p line, default-inserted when absent.
     * @return (the value, true when newly inserted) */
    std::pair<T *, bool>
    emplace(std::uint64_t line)
    {
        const std::uint64_t region = line >> kRegionBits;
        const auto off = static_cast<std::uint32_t>(line & kOffsetMask);
        if (!dense_.empty()) {
            auto it = dense_.find(region);
            if (it != dense_.end()) {
                Dense &d = it->second;
                if (d.holds(off) || widen(d, off)) {
                    auto claimed = d.claim(off);
                    denseSize_ += claimed.second;
                    return claimed;
                }
                demote(region);
            }
        }

        auto [value, fresh] = insertSparse(line);
        if (fresh && noteKey(region, off))
            return {dense_.find(region)->second.find(off), true};
        return {value, fresh};
    }

    T &at(std::uint64_t line) { return *emplace(line).first; }

    /** Value of @p line, or nullptr when absent. */
    const T *
    find(std::uint64_t line) const
    {
        if (!dense_.empty()) {
            auto it = dense_.find(line >> kRegionBits);
            if (it != dense_.end()) {
                const Dense &d = it->second;
                auto off = static_cast<std::uint32_t>(line & kOffsetMask);
                return d.holds(off) ? d.find(off) : nullptr;
            }
        }
        auto it = sparse_.find(line);
        return it == sparse_.end() ? nullptr : &it->second;
    }

    /** Value of @p line, or T{} when absent. */
    T
    get(std::uint64_t line) const
    {
        const T *v = find(line);
        return v ? *v : T{};
    }

    std::uint64_t size() const { return sparse_.size() + denseSize_; }
    bool empty() const { return size() == 0; }

    void
    clear()
    {
        sparse_ = FlatMap<std::uint64_t, T>();
        dense_ = FlatMap<std::uint64_t, Dense>();
        buckets_.clear();
        watch_ = FlatMap<std::uint64_t, Census>();
        denseSize_ = 0;
    }

    /** Call @p f(line, value) once per entry: the array regions first,
     * then the hashed lines. */
    template <typename F>
    void
    forEach(F &&f) const
    {
        for (const auto &[region, d] : dense_) {
            for (std::uint32_t i = 0; i < d.values.size(); ++i) {
                if (d.has(i))
                    f((region << kRegionBits) | (std::uint64_t{i} << d.shift) |
                          d.phase,
                      d.values[i]);
            }
        }
        for (const auto &[line, v] : sparse_)
            f(line, v);
    }

    /** Heap bytes held (the hash's slots and probe distances, the
     * counters, the region index and every region's arrays). */
    std::uint64_t
    bytes() const
    {
        std::uint64_t b = sparse_.capacity() * kSparseSlotBytes +
                          buckets_.capacity() * sizeof(Bucket) +
                          watch_.capacity() * kWatchSlotBytes +
                          dense_.capacity() * kDenseSlotBytes;
        for (const auto &kv : dense_)
            b += kv.second.values.capacity() * sizeof(T) +
                 kv.second.present.capacity() * sizeof(std::uint64_t);
        return b;
    }

    /** Regions held as arrays. */
    std::uint64_t denseRegions() const { return dense_.size(); }

    /** Keys a region needs before an array of 2^-@p stride_bits of its
     * lines replaces their hash entries. */
    static constexpr std::uint64_t
    promoteThreshold(unsigned stride_bits)
    {
        const std::uint64_t slots = kRegionLines >> stride_bits;
        const std::uint64_t array = slots * sizeof(T) + (slots + 63) / 64 * 8 +
                                    kDenseOverheadBytes;
        // A hash entry at load 3/4 costs 4/3 of a slot.
        const std::uint64_t per_key4 = kSparseSlotBytes * 4;
        return (array * 3 + per_key4 - 1) / per_key4;
    }

  private:
    static constexpr std::uint64_t kOffsetMask = kRegionLines - 1;

    /** Hash slots per shared counter: between 2^bits and twice that
     * (the counters are re-sized every second growth of the hash). */
    static constexpr unsigned kSlotsPerBucketBits = 4;

    /** A region's array: the values of the offsets congruent to
     * `phase` modulo 2^shift, one slot each, plus a presence bit. */
    struct Dense
    {
        std::vector<T> values;
        std::vector<std::uint64_t> present;
        std::uint32_t shift = 0;
        std::uint32_t phase = 0;
        std::uint32_t count = 0;

        Dense() = default;

        Dense(unsigned s, std::uint32_t ph)
            : values(kRegionLines >> s), present(((kRegionLines >> s) + 63) / 64),
              shift(s), phase(ph)
        {
        }

        bool
        holds(std::uint32_t off) const
        {
            return ((off ^ phase) & ((1u << shift) - 1)) == 0;
        }

        bool has(std::uint32_t i) const
        {
            return (present[i >> 6] >> (i & 63)) & 1;
        }

        T *
        find(std::uint32_t off)
        {
            std::uint32_t i = off >> shift;
            return has(i) ? &values[i] : nullptr;
        }

        const T *
        find(std::uint32_t off) const
        {
            std::uint32_t i = off >> shift;
            return has(i) ? &values[i] : nullptr;
        }

        /** Value of @p off (which holds()), marked present.
         * @return (the value, true when newly present) */
        std::pair<T *, bool>
        claim(std::uint32_t off)
        {
            std::uint32_t i = off >> shift;
            std::uint64_t bit = std::uint64_t{1} << (i & 63);
            bool fresh = (present[i >> 6] & bit) == 0;
            if (fresh) {
                present[i >> 6] |= bit;
                ++count;
            }
            return {&values[i], fresh};
        }
    };

    /** Hashed keys of the region classes sharing one counter, and the
     * count at which the next insert re-counts its class exactly. The
     * counts only decide when to look, never what to promote, so a
     * 16-bit wrap costs at most one needless count. */
    struct Bucket
    {
        std::uint16_t keys = 0;
        std::uint16_t checkAt = 0;
    };

    static constexpr std::uint64_t kSparseSlotBytes =
        sizeof(std::pair<std::uint64_t, T>) + 1;
    static constexpr std::uint64_t kDenseSlotBytes =
        sizeof(std::pair<std::uint64_t, Dense>) + 1;

    /** What a region's hashed keys are: how many, the first offset
     * found, and the OR of every other offset XOR that one (the low
     * offset bits all keys share are the zero bits below its lowest
     * set bit). */
    struct Census
    {
        std::uint32_t keys = 0;
        std::uint32_t first = 0;
        std::uint32_t differ = 0;

        void
        add(std::uint32_t off)
        {
            if (keys++ == 0)
                first = off;
            else
                differ |= off ^ first;
        }

        unsigned shift() const { return strideBits(differ); }
    };

    static constexpr std::uint64_t kWatchSlotBytes =
        sizeof(std::pair<std::uint64_t, Census>) + 1;
    /** The region's index slot at load 3/4 plus two allocation
     * headers. */
    static constexpr std::uint64_t kDenseOverheadBytes =
        kDenseSlotBytes * 4 / 3 + 32;

    /** Offsets of one class: congruent modulo kClasses. */
    static constexpr std::uint32_t kClasses = 1u << kMaxStrideBits;

    /** Counter of the class of @p off in @p region. */
    std::uint64_t
    bucketOf(std::uint64_t region, std::uint32_t off) const
    {
        return flatHashMix(region * kClasses + (off & (kClasses - 1))) &
               (buckets_.size() - 1);
    }

    /** Keys some class of a region holds once the region pays at any
     * stride: at stride 2^s its keys share kClasses >> s classes. */
    static std::uint16_t
    classTrigger()
    {
        std::uint64_t least = kRegionLines;
        for (unsigned s = 0; s <= kMaxStrideBits; ++s) {
            const std::uint64_t classes = kClasses >> s;
            const std::uint64_t need =
                (promoteThreshold(s) + classes - 1) / classes;
            least = need < least ? need : least;
        }
        return static_cast<std::uint16_t>(least);
    }

    /** Insert @p line into the hash, keeping the counters in step
     * with its capacity. */
    std::pair<T *, bool>
    insertSparse(std::uint64_t line)
    {
        const std::uint64_t cap = sparse_.capacity();
        const std::uint64_t before = sparse_.size();
        T *value = &sparse_[line];
        if (sparse_.size() == before)
            return {value, false};
        if (sparse_.capacity() != cap &&
            sparse_.capacity() > (buckets_.size() << (kSlotsPerBucketBits + 1)))
            recount();
        else
            ++buckets_[bucketOf(line >> kRegionBits,
                                static_cast<std::uint32_t>(line))]
                  .keys;
        return {value, true};
    }

    /** Size the counters to the hash and count every hashed key. */
    void
    recount()
    {
        std::uint64_t n = sparse_.capacity() >> kSlotsPerBucketBits;
        buckets_.assign(n < 1 ? 1 : n, Bucket{0, classTrigger()});
        for (const auto &kv : sparse_)
            ++buckets_[bucketOf(kv.first >> kRegionBits,
                                static_cast<std::uint32_t>(kv.first))]
                  .keys;
    }

    /** Account a fresh hashed key at @p off of @p region, and move the
     * region into an array when it pays.
     * @return true when the region moved */
    bool
    noteKey(std::uint64_t region, std::uint32_t off)
    {
        if (!watch_.empty()) {
            auto it = watch_.find(region);
            if (it != watch_.end()) {
                it->second.add(off);
                if (it->second.keys < promoteThreshold(it->second.shift()))
                    return false;
                Census c = it->second;
                watch_.erase(it);
                promote(region, c);
                return true;
            }
        }
        Bucket &b = buckets_[bucketOf(region, off)];
        if (b.keys < b.checkAt)
            return false;

        // Count @p off 's class exactly; a region that pays has a class
        // at classTrigger(), so a thinner class rules it out.
        const std::uint64_t base = region << kRegionBits;
        std::uint32_t in_class = 0;
        for (std::uint32_t o = off & (kClasses - 1); o < kRegionLines;
             o += kClasses)
            in_class += sparse_.contains(base | o) ? 1 : 0;
        if (in_class < classTrigger()) {
            b.checkAt = static_cast<std::uint16_t>(
                b.keys + (classTrigger() - in_class));
            return false;
        }

        // Near paying: take a census once and keep it from now on.
        Census c;
        for (std::uint32_t o = 0; o < kRegionLines; ++o) {
            if (sparse_.contains(base | o))
                c.add(o);
        }
        if (c.keys < promoteThreshold(c.shift())) {
            watch_.emplace(region, c);
            return false;
        }
        promote(region, c);
        return true;
    }

    /** Move @p region 's hashed keys (described by @p c) into an
     * array. */
    void
    promote(std::uint64_t region, const Census &c)
    {
        const std::uint64_t base = region << kRegionBits;
        const unsigned shift = c.shift();
        const std::uint32_t phase = c.first & ((1u << shift) - 1);
        Dense d(shift, phase);
        for (std::uint32_t o = phase; o < kRegionLines; o += 1u << shift) {
            auto it = sparse_.find(base | o);
            if (it == sparse_.end())
                continue;
            *d.claim(o).first = std::move(it->second);
            sparse_.erase(it);
            Bucket &b = buckets_[bucketOf(region, o)];
            --b.keys;
            b.checkAt = classTrigger();
        }
        denseSize_ += c.keys;
        dense_.emplace(region, std::move(d));
        compact();
    }

    /** Make room in @p d for @p off, which is off its stride: rebuild
     * it at the finer stride when it still pays.
     * @return false when the region must go back to the hash. */
    bool
    widen(Dense &d, std::uint32_t off)
    {
        const unsigned shift = strideBits((off ^ d.phase) | (1u << d.shift));
        if (d.count + 1 < promoteThreshold(shift))
            return false;
        Dense wide(shift, d.phase & ((1u << shift) - 1));
        for (std::uint32_t i = 0; i < d.values.size(); ++i) {
            if (d.has(i))
                *wide.claim((i << d.shift) | d.phase).first =
                    std::move(d.values[i]);
        }
        d = std::move(wide);
        return true;
    }

    /** Move every entry of @p region 's array back into the hash. */
    void
    demote(std::uint64_t region)
    {
        auto it = dense_.find(region);
        Dense d = std::move(it->second);
        dense_.erase(it);
        denseSize_ -= d.count;
        const std::uint64_t base = region << kRegionBits;
        for (std::uint32_t i = 0; i < d.values.size(); ++i) {
            if (d.has(i))
                *insertSparse(base | (std::uint64_t{i} << d.shift) | d.phase)
                     .first = std::move(d.values[i]);
        }
    }

    /** Rebuild the hash at its size once promotions have emptied
     * seven eighths of it. */
    void
    compact()
    {
        if (sparse_.capacity() <= 64 ||
            sparse_.size() * 8 >= sparse_.capacity())
            return;
        FlatMap<std::uint64_t, T> fresh;
        fresh.reserve(sparse_.size());
        for (auto &kv : sparse_)
            fresh.emplace(kv.first, std::move(kv.second));
        sparse_ = std::move(fresh);
        recount();
    }

    /** The stride (as log2) of offsets that differ in the bits of
     * @p differ, capped at kMaxStrideBits. */
    static unsigned
    strideBits(std::uint32_t differ)
    {
        if (differ == 0)
            return kMaxStrideBits;
        auto low = static_cast<unsigned>(__builtin_ctz(differ));
        return low < kMaxStrideBits ? low : kMaxStrideBits;
    }

    FlatMap<std::uint64_t, T> sparse_;
    FlatMap<std::uint64_t, Dense> dense_;   ///< region -> array
    std::vector<Bucket> buckets_;
    /** Exact census of each hashed region that once came near paying,
     * kept up to date from then on. */
    FlatMap<std::uint64_t, Census> watch_;
    std::uint64_t denseSize_ = 0;           ///< entries in the arrays
};

} // namespace esd

#endif // ESD_COMMON_LINE_TABLE_HH
