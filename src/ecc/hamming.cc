#include "ecc/hamming.hh"

#include <array>
#include <bit>

#include "common/logging.hh"

namespace esd
{

namespace
{

/** True when @p p is a power of two (a check-bit position). */
constexpr bool
isPow2(unsigned p)
{
    return p != 0 && (p & (p - 1)) == 0;
}

/** The code's layout: codeword position -> data-bit index, plus the
 * seven parity coverage masks over data bits. */
struct Layout
{
    std::array<int, 72> posToData{};        // position -> data bit or -1
    std::array<std::uint64_t, 7> mask{};    // check c covers data bits
};

constexpr Layout
buildLayout()
{
    Layout l;
    l.posToData.fill(-1);
    unsigned i = 0;
    for (unsigned p = 1; p <= 71 && i < 64; ++p) {
        if (isPow2(p))
            continue;
        l.posToData[p] = static_cast<int>(i);
        // Data bit i sits at position p: it feeds every check c whose
        // bit is set in p.
        for (unsigned c = 0; c < 7; ++c) {
            if (p & (1u << c))
                l.mask[c] |= 1ull << i;
        }
        ++i;
    }
    return l;
}

constexpr Layout kLayout = buildLayout();

/** Even parity of a 64-bit value. */
constexpr unsigned
parity64(std::uint64_t v)
{
    return static_cast<unsigned>(std::popcount(v) & 1);
}

/** Mask-and-popcount encode: the oracle, and the source of the check
 * table below. */
constexpr std::uint8_t
encodeByMasks(std::uint64_t data)
{
    std::uint8_t check = 0;
    for (unsigned c = 0; c < 7; ++c) {
        if (parity64(data & kLayout.mask[c]))
            check |= static_cast<std::uint8_t>(1u << c);
    }
    // Overall even parity over the 71 codeword bits (data + 7 checks).
    unsigned p = parity64(data) ^
                 parity64(static_cast<std::uint64_t>(check & 0x7f));
    if (p)
        check |= 0x80;
    return check;
}

/**
 * kCheckTable[k][v] is the check byte of the word whose only non-zero
 * byte is byte k = v. Every check bit is a GF(2)-linear function of the
 * data and encode(0) == 0, so a word's check byte is the XOR of its
 * eight bytes' entries. 2 KB, built at compile time: it is constant-
 * initialised, so it is valid even during other units' static init.
 */
using CheckTable = std::array<std::array<std::uint8_t, 256>, 8>;

constexpr CheckTable
buildCheckTable()
{
    CheckTable t{};
    for (unsigned k = 0; k < 8; ++k) {
        for (unsigned v = 0; v < 256; ++v)
            t[k][v] = encodeByMasks(static_cast<std::uint64_t>(v)
                                    << (8 * k));
    }
    return t;
}

constexpr CheckTable kCheckTable = buildCheckTable();

/** Table-driven check byte of @p data: eight lookups, spelled out so
 * every byte extract is a constant shift. */
inline std::uint8_t
tableCheck(std::uint64_t d)
{
    const CheckTable &t = kCheckTable;
    return t[0][d & 0xff] ^ t[1][(d >> 8) & 0xff] ^
           t[2][(d >> 16) & 0xff] ^ t[3][(d >> 24) & 0xff] ^
           t[4][(d >> 32) & 0xff] ^ t[5][(d >> 40) & 0xff] ^
           t[6][(d >> 48) & 0xff] ^ t[7][d >> 56];
}

} // namespace

std::uint64_t
Hamming72::checkMask(unsigned c)
{
    esd_assert(c < 7, "check index out of range");
    return kLayout.mask[c];
}

std::uint8_t
Hamming72::encode(std::uint64_t data)
{
    return encodeByMasks(data);
}

void
Hamming72::encodeLine(const std::uint64_t words[8], std::uint8_t checks[8])
{
    for (unsigned j = 0; j < 8; ++j)
        checks[j] = tableCheck(words[j]);
}

EccDecodeResult
Hamming72::decode(std::uint64_t data, std::uint8_t check)
{
    EccDecodeResult res;
    res.data = data;
    res.check = check;

    // Recomputed checks XOR received checks. The low seven bits are the
    // Hamming syndrome: with a single flipped codeword bit it equals
    // that bit's position (check-bit positions are powers of two, so a
    // flipped check bit yields exactly its own position). The parity of
    // all eight bits is the overall parity across the 72 codeword bits:
    // even when no (or an even number of) flips occurred.
    auto s = static_cast<unsigned>(tableCheck(data) ^ check);
    unsigned syndrome = s & 0x7f;
    unsigned overall = parity64(s);

    if (syndrome == 0 && overall == 0) {
        res.status = EccStatus::Ok;
        return res;
    }

    if (overall == 0) {
        // Non-zero syndrome with even total parity: two bit flips.
        res.status = EccStatus::Uncorrectable;
        return res;
    }

    // Odd parity: assume a single flip.
    if (syndrome == 0) {
        // The overall-parity bit itself flipped.
        res.status = EccStatus::CorrectedCheck;
        res.check = check ^ 0x80;
        res.bitIndex = 7;
        return res;
    }

    if (syndrome > 71) {
        // Single-flip syndromes are valid positions <= 71; anything
        // larger means >= 3 errors conspired.
        res.status = EccStatus::Uncorrectable;
        return res;
    }

    if (isPow2(syndrome)) {
        // A Hamming check bit flipped.
        unsigned c = static_cast<unsigned>(std::countr_zero(syndrome));
        res.status = EccStatus::CorrectedCheck;
        res.check = check ^ static_cast<std::uint8_t>(1u << c);
        res.bitIndex = static_cast<std::uint8_t>(c);
        return res;
    }

    int data_bit = kLayout.posToData[syndrome];
    esd_assert(data_bit >= 0, "syndrome maps to no data bit");
    res.status = EccStatus::CorrectedData;
    res.data = data ^ (1ull << data_bit);
    res.bitIndex = static_cast<std::uint8_t>(data_bit);
    return res;
}

} // namespace esd
