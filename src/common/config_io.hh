/**
 * @file
 * Configuration file support, mirroring the artifact's
 * `-ConfigFile=` workflow: a simple `key = value` format (one per
 * line, `#` comments) that overrides the Table I defaults. Each key
 * is one row of the table in config_io.cc: its name, SimConfig field,
 * parser, bounds and rendering. `esd_sim -dump-config` lists every
 * key (configs/default.cfg is its output for the defaults), and the
 * stats report's "config" object is the same table (writeConfigJson).
 * Any other key is unknown: a config file warns once per such line
 * and skips it, a `-<section>.<key>=` flag dies naming it.
 *
 * Command lines reach the same keys through ConfigFlags: the generic
 * `-<section>.<key>=v` spelling of any key, or one of the legacy
 * aliases in configFlagAliases() (`-channels=`, `-persist-*=`, ...).
 */

#ifndef ESD_COMMON_CONFIG_IO_HH
#define ESD_COMMON_CONFIG_IO_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hh"

namespace esd
{

class JsonWriter;

/** Apply one `key = value` assignment to @p cfg.
 *  @return false (with no change) when the key is unknown. */
bool applyConfigKey(SimConfig &cfg, const std::string &key,
                    const std::string &value);

/** Parse @p path over the defaults in @p cfg; fatal on I/O or syntax
 * errors, warns on unknown keys. */
void loadConfigFile(SimConfig &cfg, const std::string &path);

/** Render @p cfg in the same key=value format (round-trippable:
 * doubles print in as many digits as they need, six or more). */
std::string renderConfig(const SimConfig &cfg);

/**
 * Serialize @p cfg as the stats report's `config` object: every key of
 * the table outside the execution sections (telemetry, trace,
 * pipeline), in table order, one object per section and `seed` at the
 * top level. Each key is named and valued as in renderConfig(): an
 * integer in its own unit, a double as a number, a bool as a bool, an
 * enum as its config-file name.
 */
void writeConfigJson(JsonWriter &w, const SimConfig &cfg);

/** Usage text for @p key's value: N (integer), B (boolean), P
 * (probability), X (other number) or its enum names joined by '|'. */
std::string configKeyPlaceholder(const std::string &key);

/** Inclusive bounds of integer key @p key in its own unit, to check a
 * value without dying on it (sweep specs). */
std::pair<std::uint64_t, std::uint64_t>
configKeyBounds(const std::string &key);

/** Config-file spellings of enum values, and parsers of them that are
 * fatal on any other spelling. */
const char *eccEngineName(EccEngineKind k);
const char *persistDomainName(PersistDomain d);
const char *crashPhaseName(CrashPhase p);
const char *traceFormatName(TraceFormat f);
PersistDomain parsePersistDomain(const std::string &key,
                                 const std::string &v);
TraceFormat parseTraceFormat(const std::string &key,
                             const std::string &v);

/** A legacy command-line spelling of one config key. */
struct ConfigFlagAlias
{
    const char *flag;  ///< e.g. "-channels"
    const char *key;   ///< e.g. "channels.count"
    /** Section switch the flag turns on ("ras.enabled"), or nullptr. */
    const char *implies = nullptr;
    /** Value when given bare (no `=v`), or nullptr if one is needed. */
    const char *bare = nullptr;
};

/** Every legacy config-flag spelling, in usage order. */
const std::vector<ConfigFlagAlias> &configFlagAliases();

/**
 * The config keys given on a tool's command line. take() records each
 * config flag in argv order; apply() lays them over a SimConfig after
 * `-ConfigFile=` is loaded, so a flag beats the file for every key.
 */
class ConfigFlags
{
  public:
    /** Record @p arg if it is a config flag: `-<section>.<key>=v` or
     * an alias. @return false (nothing recorded) for any other flag. */
    bool take(const std::string &arg);

    /** Apply the recorded flags to @p cfg: implied section enables
     * first (so `-persist=0` wins in any argv position), then every
     * pair in argv order. Fatal on an unknown key or a bad value. */
    void apply(SimConfig &cfg) const;

  private:
    std::vector<std::string> enables_;
    std::vector<std::pair<std::string, std::string>> pairs_;
};

} // namespace esd

#endif // ESD_COMMON_CONFIG_IO_HH
