/**
 * @file
 * Strict command-line value parsers shared by the CLI tools. Each one
 * takes the whole flag value or dies through esd_fatal naming the
 * flag: no silent wrap of "-5" to 2^64-5, no uncaught std::stoull
 * exception on "abc".
 */

#ifndef ESD_COMMON_CLI_FLAGS_HH
#define ESD_COMMON_CLI_FLAGS_HH

#include <cstdint>
#include <stdexcept>
#include <string>

#include "common/logging.hh"

namespace esd
{

/** Strict u64 parse: the whole flag value must be a number. */
inline std::uint64_t
parseU64(const std::string &flag, const std::string &v)
{
    try {
        std::size_t consumed = 0;
        if (v.empty() || v[0] == '-')
            throw std::invalid_argument(v);
        std::uint64_t out = std::stoull(v, &consumed);
        if (consumed != v.size())
            throw std::invalid_argument(v);
        return out;
    } catch (const std::exception &) {
        esd_fatal("%s: '%s' is not an unsigned integer", flag.c_str(),
                  v.c_str());
    }
}

/** Strict bool parse: 0/1/true/false/on/off/yes/no. */
inline bool
parseBool(const std::string &flag, const std::string &v)
{
    if (v == "1" || v == "true" || v == "on" || v == "yes")
        return true;
    if (v == "0" || v == "false" || v == "off" || v == "no")
        return false;
    esd_fatal("%s: '%s' is not a boolean (use 0/1/true/false/on/off/"
              "yes/no)",
              flag.c_str(), v.c_str());
}

} // namespace esd

#endif // ESD_COMMON_CLI_FLAGS_HH
