/**
 * @file
 * Counter-mode encryption (CME) of cache lines.
 *
 * The ESD write path encrypts every line that survives deduplication
 * before it crosses the memory bus (Section III-A). Counter-mode
 * encryption keeps the per-line pad precomputable: the pad depends only
 * on (line address, per-line write counter), so the XOR is the only
 * work left on the critical path — which is why CryptoCostConfig models
 * a small encryptLatency.
 *
 * A 64-byte line needs four AES blocks; the counter block packs the
 * line address, the monotonically increasing write counter, and the
 * block index.
 */

#ifndef ESD_CRYPTO_CTR_MODE_HH
#define ESD_CRYPTO_CTR_MODE_HH

#include <cstdint>
#include <cstring>

#include "common/line_table.hh"
#include "common/types.hh"
#include "crypto/aes.hh"

namespace esd
{

/**
 * Line-granular counter-mode encryption engine with a per-line counter
 * table (the "minor counter" store of CME designs).
 */
class CtrModeEngine
{
  public:
    explicit CtrModeEngine(const AesKey &key) : aes_(key) {}

    /**
     * Encrypt @p plain for @p addr, bumping the line's write counter.
     * @param ctr_out when non-null, receives the bumped counter (saves
     *        the journal a second counter-table probe)
     * @return the ciphertext line.
     */
    CacheLine
    encrypt(Addr addr, const CacheLine &plain,
            std::uint64_t *ctr_out = nullptr)
    {
        std::uint64_t ctr = ++counters_.at(lineIndex(addr));
        if (ctr_out)
            *ctr_out = ctr;
        return applyPad(addr, ctr, plain);
    }

    /**
     * Decrypt @p cipher previously produced for @p addr with the
     * current counter value.
     */
    CacheLine
    decrypt(Addr addr, const CacheLine &cipher) const
    {
        return applyPad(addr, counter(addr), cipher);
    }

    /** Current write counter of @p addr (0 when never written). */
    std::uint64_t
    counter(Addr addr) const
    {
        return counters_.get(lineIndex(addr));
    }

    /** The full per-line counter table, keyed by line index. Crash
     * tooling snapshots this as the ground-truth oracle a recovered
     * counter set is audited against (a recovered counter below the
     * true value means a pad would be reused). */
    const LineTable<std::uint64_t> &table() const { return counters_; }

    /**
     * Stateless pad application used by both directions. Each counter
     * block is two little-endian words: the address, then the
     * counter's low 7 bytes under the block index in the top byte.
     */
    CacheLine
    applyPad(Addr addr, std::uint64_t ctr, const CacheLine &in) const
    {
        static_assert(kLineSize == 64, "pad batch assumes 4 AES blocks");
        static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
                      "counter blocks are built as little-endian words");
        std::uint64_t lo = addr;
        std::uint64_t hi = ctr & 0x00ffffffffffffffull;
        AesBlock cb[4];
        for (unsigned blk = 0; blk < 4; ++blk) {
            std::uint64_t h = hi | (std::uint64_t{blk} << 56);
            std::memcpy(cb[blk].data(), &lo, 8);
            std::memcpy(cb[blk].data() + 8, &h, 8);
        }
        AesBlock pad[4];
        aes_.encryptBlocks4(cb, pad);
        CacheLine out(in);
        for (unsigned w = 0; w < kWordsPerLine; ++w) {
            std::uint64_t p;
            std::memcpy(&p, pad[w / 2].data() + (w % 2) * 8, 8);
            out.setWord(w, out.word(w) ^ p);
        }
        return out;
    }

  private:
    Aes128 aes_;
    LineTable<std::uint64_t> counters_;  ///< by line index
};

} // namespace esd

#endif // ESD_CRYPTO_CTR_MODE_HH
