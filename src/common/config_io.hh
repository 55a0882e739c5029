/**
 * @file
 * Configuration file support, mirroring the artifact's
 * `-ConfigFile=` workflow: a simple `key = value` format (one per
 * line, `#` comments) that overrides the Table I defaults.
 *
 * Recognised keys (dotted sections):
 *
 *   pcm.capacity_gb, pcm.read_latency, pcm.write_latency,
 *   pcm.read_energy_pj, pcm.write_energy_pj, pcm.channels,
 *   pcm.ranks, pcm.banks, pcm.write_queue_depth,
 *   pcm.row_buffer_lines, pcm.row_hit_read_latency, pcm.read_priority,
 *   pcm.start_gap, pcm.gap_move_period, pcm.start_gap_region_lines
 *   channels.count, channels.wpq_depth, channels.wpq_coalescing
 *   crypto.sha1_latency, crypto.md5_latency, crypto.crc_latency,
 *   crypto.encrypt_latency, crypto.compare_latency
 *   metadata.efit_kb, metadata.amt_kb, metadata.refer_h_max,
 *   metadata.decay_period, metadata.decay_delta, metadata.use_lrcu
 *   ras.enabled, ras.read_ber, ras.write_ber, ras.stuck_at_onset_writes,
 *   ras.stuck_at_per_write, ras.demand_scrub, ras.patrol_interval_writes,
 *   ras.patrol_lines_per_sweep, ras.write_verify_retries,
 *   ras.write_verify_backoff_ns, ras.spare_region_lines,
 *   ras.dedup_suspend_ues
 *   telemetry.trace_ring_capacity, telemetry.span_sample_every,
 *   telemetry.span_buffer_cap, telemetry.metrics_every_writes,
 *   telemetry.histogram_buckets
 *   ecc.engine
 *   persistence.enabled, persistence.domain, persistence.epoch_writes,
 *   persistence.checkpoint_epochs, persistence.barrier_ns,
 *   persistence.journal_append_ns, persistence.metadata_buffer_records,
 *   persistence.counter_slack, persistence.counter_probe_max,
 *   persistence.crash_at_write, persistence.crash_phase
 *   trace.format, trace.line_payload, trace.read_ahead
 *   pipeline.epoch_records, pipeline.queue_epochs, pipeline.sample_epochs
 *   core.clock_ghz, core.base_cpi
 *   seed
 *
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

/** Inclusive bounds of an integer config key, for callers that must
 * check a value without dying on it (sweep specs). */
struct KeyRange
{
    std::uint64_t lo;
    std::uint64_t hi;

    bool contains(std::uint64_t v) const { return v >= lo && v <= hi; }
};

/** Bounds of channels.count and channels.wpq_depth (0 = inherit). */
inline constexpr KeyRange kChannelCountRange{1, 64};
inline constexpr KeyRange kWpqDepthRange{0, 1u << 16};

/** Apply one `key = value` assignment to @p cfg.
 *  @return false (with no change) when the key is unknown. */
bool applyConfigKey(SimConfig &cfg, const std::string &key,
                    const std::string &value);

/** Parse @p path over the defaults in @p cfg; fatal on I/O or syntax
 * errors, warns on unknown keys. */
void loadConfigFile(SimConfig &cfg, const std::string &path);

/** Render @p cfg in the same key=value format (round-trippable). */
std::string renderConfig(const SimConfig &cfg);

/** Config-file spelling of an ECC engine ("hamming"/"bch"/"rs"). */
const char *eccEngineName(EccEngineKind k);

/** Config-file spelling of a persistence domain ("adr"/"eadr"). */
const char *persistDomainName(PersistDomain d);

/** Config-file spelling of a crash phase ("pre_barrier"/...). */
const char *crashPhaseName(CrashPhase p);

/** Parse a persistence domain name; fatal on anything else. */
PersistDomain parsePersistDomain(const std::string &key,
                                 const std::string &v);

/** Config-file spelling of a trace format ("auto"/"text"/...). */
const char *traceFormatName(TraceFormat f);

/** Parse a trace-format name; fatal on anything else. */
TraceFormat parseTraceFormat(const std::string &key,
                             const std::string &v);

/** A legacy command-line spelling of one config key. */
struct ConfigFlagAlias
{
    const char *flag;     ///< e.g. "-channels"
    const char *key;      ///< e.g. "channels.count"
    const char *arg;      ///< value placeholder for usage text
    /** Section switch the flag turns on ("ras.enabled"), or nullptr. */
    const char *implies;
    /** Value when given bare (no `=v`), or nullptr if one is needed. */
    const char *bare;
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
