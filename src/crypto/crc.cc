#include "crypto/crc.hh"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>

#include "crypto/cpu_features.hh"
#define ESD_CRC_HW 1
#endif

namespace esd
{

namespace
{

/** Reflected CRC32C table. */
struct Crc32cTable
{
    std::array<std::uint32_t, 256> t{};

    Crc32cTable()
    {
        constexpr std::uint32_t poly = 0x82F63B78u;
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? (poly ^ (c >> 1)) : (c >> 1);
            t[i] = c;
        }
    }
};

const Crc32cTable crc32c_tbl;

#ifdef ESD_CRC_HW

/**
 * SSE4.2's crc32 instruction implements exactly this CRC32C variant
 * (reflected 0x82F63B78); the caller supplies and receives the
 * pre-complemented running value.
 */
__attribute__((target("sse4.2"))) std::uint32_t
crc32cHw(const std::uint8_t *p, std::size_t len, std::uint32_t crc)
{
    std::uint64_t c = crc;
    while (len >= 8) {
        std::uint64_t v;
        std::memcpy(&v, p, 8);
        c = _mm_crc32_u64(c, v);
        p += 8;
        len -= 8;
    }
    crc = static_cast<std::uint32_t>(c);
    while (len > 0) {
        crc = _mm_crc32_u8(crc, *p++);
        --len;
    }
    return crc;
}

#endif // ESD_CRC_HW

} // namespace

std::uint32_t
Crc32c::compute(const void *data, std::size_t len, std::uint32_t crc)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
#ifdef ESD_CRC_HW
    if (cpuHasCrc32c())
        return ~crc32cHw(p, len, ~crc);
#endif
    crc = ~crc;
    for (std::size_t i = 0; i < len; ++i)
        crc = crc32c_tbl.t[(crc ^ p[i]) & 0xff] ^ (crc >> 8);
    return ~crc;
}

} // namespace esd
