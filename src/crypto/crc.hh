/**
 * @file
 * CRC32C (Castagnoli), the lightweight fingerprint DeWrite (MICRO'18)
 * uses for duplicate prediction: SSE4.2's crc32 instruction where the
 * host has it, a table otherwise. esd_figures' Fig 8 row compares its
 * collisions against the ECC fingerprint's.
 */

#ifndef ESD_CRYPTO_CRC_HH
#define ESD_CRYPTO_CRC_HH

#include <cstddef>
#include <cstdint>

#include "common/types.hh"

namespace esd
{

/** CRC32C (polynomial 0x1EDC6F41, reflected 0x82F63B78). */
class Crc32c
{
  public:
    /** CRC of @p len bytes, seeded/continuing from @p crc. */
    static std::uint32_t compute(const void *data, std::size_t len,
                                 std::uint32_t crc = 0);

    /** CRC32C of a cache line — DeWrite's fingerprint. */
    static std::uint32_t
    line(const CacheLine &l)
    {
        return compute(l.data(), kLineSize);
    }
};

} // namespace esd

#endif // ESD_CRYPTO_CRC_HH
