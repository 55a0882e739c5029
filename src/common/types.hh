/**
 * @file
 * Fundamental value types shared by every ESD module.
 *
 * The unit conventions used throughout the library are:
 *   - time is measured in nanoseconds (`Tick`, a 64-bit unsigned count),
 *   - energy is measured in picojoules (`Energy`, a double),
 *   - addresses are byte addresses (`Addr`), always cache-line aligned
 *     when they name a line.
 */

#ifndef ESD_COMMON_TYPES_HH
#define ESD_COMMON_TYPES_HH

#include <array>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>

namespace esd
{

/** Simulated time in nanoseconds. */
using Tick = std::uint64_t;

/** Byte address in the physical or logical address space. */
using Addr = std::uint64_t;

/** Energy in picojoules. */
using Energy = double;

/** Size of the cache line moved between LLC and NVMM (fixed by Table I). */
constexpr std::size_t kLineSize = 64;

/** Number of 8-byte words in a cache line. */
constexpr std::size_t kWordsPerLine = kLineSize / 8;

/** An invalid / not-present address sentinel. */
constexpr Addr kInvalidAddr = ~static_cast<Addr>(0);

/**
 * A 64-byte cache line payload.
 *
 * This is the unit of deduplication: the memory controller sees whole
 * lines evicted from the LLC and whole lines filled on a miss. The class
 * is a thin value wrapper over a fixed byte array with word-granular
 * accessors (the ECC codec operates on 8-byte words).
 */
class CacheLine
{
  public:
    /** Construct an all-zero line (the most common duplicate). */
    CacheLine() { bytes_.fill(0); }

    /** Construct a line from raw bytes; @p data must hold kLineSize bytes. */
    explicit CacheLine(const std::uint8_t *data)
    {
        std::memcpy(bytes_.data(), data, kLineSize);
    }

    /** Read the @p i -th 64-bit word (little-endian, i in [0, 8)). */
    std::uint64_t
    word(std::size_t i) const
    {
        std::uint64_t w;
        std::memcpy(&w, bytes_.data() + i * 8, 8);
        return w;
    }

    /** Overwrite the @p i -th 64-bit word. */
    void
    setWord(std::size_t i, std::uint64_t w)
    {
        std::memcpy(bytes_.data() + i * 8, &w, 8);
    }

    /** Raw byte access. */
    const std::uint8_t *data() const { return bytes_.data(); }
    std::uint8_t *data() { return bytes_.data(); }

    std::uint8_t operator[](std::size_t i) const { return bytes_[i]; }
    std::uint8_t &operator[](std::size_t i) { return bytes_[i]; }

    /** True when every byte is zero (zero lines dominate some apps). */
    bool
    isZero() const
    {
        for (std::size_t i = 0; i < kWordsPerLine; ++i) {
            if (word(i) != 0)
                return false;
        }
        return true;
    }

    /** Byte-by-byte equality — the dedup ground truth comparison. */
    bool
    operator==(const CacheLine &other) const
    {
        return std::memcmp(bytes_.data(), other.bytes_.data(),
                           kLineSize) == 0;
    }

    bool operator!=(const CacheLine &other) const { return !(*this == other); }

    /** Stable 64-bit content hash for host-side indexing (not a scheme
     * fingerprint — schemes use ECC/SHA-1/CRC from src/ecc and
     * src/crypto). FNV-1a over the 64 bytes. */
    std::uint64_t
    contentHash() const
    {
        std::uint64_t h = 0xcbf29ce484222325ull;
        for (std::uint8_t b : bytes_) {
            h ^= b;
            h *= 0x100000001b3ull;
        }
        return h;
    }

  private:
    std::array<std::uint8_t, kLineSize> bytes_;
};

/** Memory operation kind as seen by the memory controller. */
enum class OpType : std::uint8_t
{
    Read = 0,   ///< LLC miss fill from NVMM
    Write = 1,  ///< dirty LLC eviction to NVMM
};

/** Human-readable name of an OpType. */
inline const char *
toString(OpType t)
{
    return t == OpType::Read ? "read" : "write";
}

/**
 * Early-exit word-granular line equality — the dedup verify-path
 * compare kernel. Walks the eight 64-bit words and bails on the first
 * mismatch, so fingerprint collisions (which typically differ in an
 * early word) cost one load-compare instead of a full 64-byte
 * memcmp. CacheLine::operator== (memcmp) is the reference oracle.
 */
inline bool
linesEqualFast(const CacheLine &a, const CacheLine &b)
{
    for (std::size_t i = 0; i < kWordsPerLine; ++i) {
        if (a.word(i) != b.word(i))
            return false;
    }
    return true;
}

/** Align @p a down to the containing cache-line address. */
inline Addr
lineAlign(Addr a)
{
    return a & ~static_cast<Addr>(kLineSize - 1);
}

/** Line index of a byte address. */
inline std::uint64_t
lineIndex(Addr a)
{
    return a / kLineSize;
}

} // namespace esd

namespace std
{

/** Hash support so CacheLine can key unordered containers in tests and
 * host-side indexes. */
template <>
struct hash<esd::CacheLine>
{
    size_t
    operator()(const esd::CacheLine &l) const noexcept
    {
        return static_cast<size_t>(l.contentHash());
    }
};

} // namespace std

#endif // ESD_COMMON_TYPES_HH
