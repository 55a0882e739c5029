/**
 * @file
 * Functional content store of the NVMM: what is actually resident at
 * each physical line address, together with its line ECC.
 *
 * The timing model (PcmDevice) and the content model are deliberately
 * separate: schemes consult PcmDevice for *when* an access completes
 * and NvmStore for *what* the access returns — e.g. the ESD byte-by-
 * byte comparison reads real bytes back, so an ECC collision between
 * different lines is actually caught.
 *
 * Storage layout: a flat index of address -> slot plus a dense pool of
 * 72-byte StoredLine payloads. Keeping the big payloads out of the
 * hash table keeps its probe sequences inside a few cache lines (the
 * index entry is 12 bytes), and erased slots are recycled LIFO so the
 * pool stays as hot as the working set. Iteration order (patrol-scrub
 * sweeps) comes from the index and therefore depends only on the
 * address operation history, exactly as it did when the payloads lived
 * inline.
 */

#ifndef ESD_NVM_NVM_STORE_HH
#define ESD_NVM_NVM_STORE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/flat_map.hh"
#include "common/logging.hh"
#include "common/types.hh"
#include "ecc/line_ecc.hh"

namespace esd
{

/** One resident physical line: payload plus its protecting ECC. */
struct StoredLine
{
    CacheLine data;
    LineEcc ecc = 0;
};

/** Sparse map of physical line address to resident content. */
class NvmStore
{
  public:
    explicit NvmStore(std::uint64_t capacity_bytes)
        : capacityLines_(capacity_bytes / kLineSize)
    {
    }

    /** Install @p data (+ @p ecc) at physical address @p phys. */
    void
    write(Addr phys, const CacheLine &data, LineEcc ecc)
    {
        esd_assert(lineIndex(phys) < capacityLines_,
                   "physical address beyond device capacity");
        // One probe: find-or-insert, then fill a fresh entry's slot.
        auto [it, fresh] = index_.emplace(lineAlign(phys), 0);
        if (!fresh) {
            pool_[it->second].data = data;
            pool_[it->second].ecc = ecc;
            return;
        }
        std::uint32_t slot;
        if (!freeSlots_.empty()) {
            slot = freeSlots_.back();
            freeSlots_.pop_back();
            pool_[slot].data = data;
            pool_[slot].ecc = ecc;
        } else {
            slot = static_cast<std::uint32_t>(pool_.size());
            pool_.push_back(StoredLine{data, ecc});
        }
        it->second = slot;
    }

    /**
     * Borrowed view of the content at @p phys, or nullptr when never
     * written. The pointer is invalidated by the next mutating call —
     * hot-path readers (candidate compares, demand fills) consume it
     * immediately instead of copying the 72-byte line.
     */
    const StoredLine *
    peek(Addr phys) const
    {
        auto it = index_.find(lineAlign(phys));
        return it == index_.end() ? nullptr : &pool_[it->second];
    }

    /** Content at @p phys, or nullopt when never written. */
    std::optional<StoredLine>
    read(Addr phys) const
    {
        const StoredLine *l = peek(phys);
        if (!l)
            return std::nullopt;
        return *l;
    }

    /** Drop the line at @p phys (after its last reference died). */
    void
    erase(Addr phys)
    {
        auto it = index_.find(lineAlign(phys));
        if (it == index_.end())
            return;
        freeSlots_.push_back(it->second);
        index_.erase(it);
    }

    /**
     * Fault injection: flip one stored bit of the line at @p phys.
     * Bits 0..511 hit the payload, 512..575 the ECC word.
     * @return false when no line is resident there.
     */
    bool
    corruptBit(Addr phys, unsigned bit)
    {
        StoredLine *l = peekMutable(phys);
        if (!l)
            return false;
        if (bit < 512) {
            l->data[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        } else {
            l->ecc ^= 1ull << (bit - 512);
        }
        return true;
    }

    /**
     * Fault injection: force one stored bit of the line at @p phys to
     * @p value (stuck-at cells re-asserting after a write). Bit
     * numbering matches corruptBit().
     * @return false when no line is resident there.
     */
    bool
    setBit(Addr phys, unsigned bit, bool value)
    {
        StoredLine *l = peekMutable(phys);
        if (!l)
            return false;
        if (bit < 512) {
            auto mask = static_cast<std::uint8_t>(1u << (bit % 8));
            if (value)
                l->data[bit / 8] |= mask;
            else
                l->data[bit / 8] &= static_cast<std::uint8_t>(~mask);
        } else {
            std::uint64_t mask = 1ull << (bit - 512);
            if (value)
                l->ecc |= mask;
            else
                l->ecc &= ~mask;
        }
        return true;
    }

    /** Current value of stored bit @p bit at @p phys (false when the
     * line is absent). */
    bool
    bitAt(Addr phys, unsigned bit) const
    {
        const StoredLine *l = peek(phys);
        if (!l)
            return false;
        if (bit < 512)
            return (l->data[bit / 8] >> (bit % 8)) & 1u;
        return (l->ecc >> (bit - 512)) & 1u;
    }

    bool contains(Addr phys) const
    {
        return index_.count(lineAlign(phys)) != 0;
    }

    /** Snapshot of every resident line address (patrol-scrub sweep
     * order source; slot order — deterministic for a given operation
     * history). */
    std::vector<Addr>
    residentAddrs() const
    {
        std::vector<Addr> out;
        out.reserve(index_.size());
        for (const auto &[addr, slot] : index_)
            out.push_back(addr);
        return out;
    }

    /** Number of resident lines (space-efficiency accounting). */
    std::uint64_t residentLines() const { return index_.size(); }

    std::uint64_t capacityLines() const { return capacityLines_; }

  private:
    StoredLine *
    peekMutable(Addr phys)
    {
        auto it = index_.find(lineAlign(phys));
        return it == index_.end() ? nullptr : &pool_[it->second];
    }

    std::uint64_t capacityLines_;
    /** Address -> pool slot; small entries keep probing cache-local. */
    FlatMap<Addr, std::uint32_t> index_;
    /** Dense payload storage addressed by slot. */
    std::vector<StoredLine> pool_;
    /** Recycled slots, reused LIFO. */
    std::vector<std::uint32_t> freeSlots_;
};

} // namespace esd

#endif // ESD_NVM_NVM_STORE_HH
