/**
 * @file
 * Strict command-line value parsers shared by the CLI tools. Each one
 * takes the whole flag value or dies through esd_fatal naming the
 * flag: an integer is ASCII digits only, so "-5", "+5", " 5" and a
 * value past 2^64-1 are refused instead of wrapped or trimmed.
 */

#ifndef ESD_COMMON_CLI_FLAGS_HH
#define ESD_COMMON_CLI_FLAGS_HH

#include <cstdint>
#include <limits>
#include <string>

#include "common/logging.hh"

namespace esd
{

/** Parse @p v as a u64 of ASCII digits only; false on anything else
 * (empty, a sign, a space, overflow). */
inline bool
tryParseDigits(const std::string &v, std::uint64_t &out)
{
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
    out = 0;
    for (char c : v) {
        if (c < '0' || c > '9')
            return false;
        unsigned digit = static_cast<unsigned>(c - '0');
        if (out > (kMax - digit) / 10)
            return false;
        out = out * 10 + digit;
    }
    return !v.empty();
}

/** Parse @p v as one of the boolean spellings 1/true/on/yes and
 * 0/false/off/no; false (leaving @p out alone) on anything else. */
inline bool
tryParseBool(const std::string &v, bool &out)
{
    if (v == "1" || v == "true" || v == "on" || v == "yes")
        out = true;
    else if (v == "0" || v == "false" || v == "off" || v == "no")
        out = false;
    else
        return false;
    return true;
}

/** Strict u64 parse: the whole flag value must be a number. */
inline std::uint64_t
parseU64(const std::string &flag, const std::string &v)
{
    std::uint64_t out;
    if (!tryParseDigits(v, out))
        esd_fatal("%s: '%s' is not an unsigned integer", flag.c_str(),
                  v.c_str());
    return out;
}

/** parseU64 within [@p lo, @p hi]. */
inline std::uint64_t
parseU64InRange(const std::string &flag, const std::string &v,
                std::uint64_t lo, std::uint64_t hi)
{
    std::uint64_t out = parseU64(flag, v);
    if (out < lo || out > hi)
        esd_fatal("%s: %llu out of range [%llu, %llu]", flag.c_str(),
                  static_cast<unsigned long long>(out),
                  static_cast<unsigned long long>(lo),
                  static_cast<unsigned long long>(hi));
    return out;
}

/** Strict bool parse: 0/1/true/false/on/off/yes/no. */
inline bool
parseBool(const std::string &flag, const std::string &v)
{
    bool out;
    if (tryParseBool(v, out))
        return out;
    esd_fatal("%s: '%s' is not a boolean (use 0/1/true/false/on/off/"
              "yes/no)",
              flag.c_str(), v.c_str());
}

} // namespace esd

#endif // ESD_COMMON_CLI_FLAGS_HH
