/**
 * @file
 * AES-128 block cipher (FIPS-197), encrypt direction only — sufficient
 * for the counter-mode encryption (CME) the paper's write path uses.
 *
 * The S-box is generated at startup from the GF(2^8) multiplicative
 * inverse plus the affine transform rather than pasted as a literal
 * table, and is validated against the FIPS-197 test vector in the unit
 * tests.
 */

#ifndef ESD_CRYPTO_AES_HH
#define ESD_CRYPTO_AES_HH

#include <array>
#include <cstdint>

namespace esd
{

/** A 128-bit AES key. */
using AesKey = std::array<std::uint8_t, 16>;

/** A 128-bit cipher block. */
using AesBlock = std::array<std::uint8_t, 16>;

/** AES-128 with a precomputed key schedule. */
class Aes128
{
  public:
    explicit Aes128(const AesKey &key) { expandKey(key); }

    /** Encrypt one 16-byte block in place semantics: returns the
     * ciphertext of @p in. */
    AesBlock encryptBlock(const AesBlock &in) const;

    /**
     * Encrypt four independent blocks. On machines with AES-NI the
     * four streams share one pass over the key schedule and keep the
     * AES unit's pipeline full (the counter-mode pad of one cache line
     * is exactly four blocks); elsewhere this is four encryptBlock()
     * calls. Bit-identical to the one-block path either way.
     */
    void encryptBlocks4(const AesBlock in[4], AesBlock out[4]) const;

    /** The portable T-table path encryptBlock() takes without AES-NI
     * (exposed so tests can hold the hardware path against it on any
     * host). */
    AesBlock encryptBlockPortable(const AesBlock &in) const;

    /** The S-box value of @p x (exposed for tests). */
    static std::uint8_t sbox(std::uint8_t x);

  private:
    void expandKey(const AesKey &key);

    /** 11 round keys as 44 packed column words (byte 0 = row 0). */
    std::array<std::uint32_t, 44> roundKeys_;
};

} // namespace esd

#endif // ESD_CRYPTO_AES_HH
