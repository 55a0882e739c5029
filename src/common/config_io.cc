#include "common/config_io.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <limits>
#include <type_traits>
#include <variant>

#include "common/cli_flags.hh"
#include "common/json.hh"
#include "common/logging.hh"

namespace esd
{

namespace
{

std::string
trim(const std::string &s)
{
    std::size_t a = s.find_first_not_of(" \t\r");
    if (a == std::string::npos)
        return "";
    std::size_t b = s.find_last_not_of(" \t\r");
    return s.substr(a, b - a + 1);
}

/** Decimal ASCII digits only: "010" is ten, not octal eight, and a
 * sign, a space or "0x10" is refused with what is wrong with it. */
std::uint64_t
asU64(const std::string &key, const std::string &v)
{
    std::uint64_t out;
    if (tryParseDigits(v, out))
        return out;
    if (!v.empty() && v[0] == '-')
        esd_fatal("config key '%s': '%s' is negative (expected an "
                  "unsigned integer)",
                  key.c_str(), v.c_str());
    if (v.empty() || v[0] < '0' || v[0] > '9')
        esd_fatal("config key '%s': '%s' is not an integer", key.c_str(),
                  v.c_str());
    if (v.find_first_not_of("0123456789") != std::string::npos)
        esd_fatal("config key '%s': trailing garbage in '%s'", key.c_str(),
                  v.c_str());
    esd_fatal("config key '%s': '%s' does not fit in 64 bits", key.c_str(),
              v.c_str());
}

/** A finite decimal double: "nan" and "inf" parse but are rejected.
 * std::from_chars in general format takes neither the leading '+' or
 * space nor the hex floats std::stod accepts, so "+2", " 2" and
 * "0x1p1" are refused like the integer keys' spellings. */
double
asDouble(const std::string &key, const std::string &v)
{
    double out = 0;
    const char *end = v.data() + v.size();
    auto [ptr, ec] =
        std::from_chars(v.data(), end, out, std::chars_format::general);
    if (ec == std::errc::result_out_of_range)
        esd_fatal("config key '%s': '%s' is out of double range",
                  key.c_str(), v.c_str());
    if (ec != std::errc())
        esd_fatal("config key '%s': '%s' is not a number", key.c_str(),
                  v.c_str());
    if (ptr != end)
        esd_fatal("config key '%s': trailing garbage in '%s'", key.c_str(),
                  v.c_str());
    if (!std::isfinite(out))
        esd_fatal("config key '%s': '%s' is not a finite number",
                  key.c_str(), v.c_str());
    return out;
}

bool
asBool(const std::string &key, const std::string &v)
{
    bool out;
    if (tryParseBool(v, out))
        return out;
    esd_fatal("config key '%s': '%s' is not a boolean", key.c_str(),
              v.c_str());
}

/** @p x in `%g` style with the fewest significant digits, six or
 * more, that read back exactly: a value six digits hold keeps the
 * spelling `std::ostream` gives it. */
std::string
formatDouble(double x)
{
    char buf[32];
    for (int digits = 6;; ++digits) {
        auto [end, ec] = std::to_chars(buf, buf + sizeof buf, x,
                                       std::chars_format::general, digits);
        double back = 0;
        std::from_chars(buf, end, back);
        if (back == x || digits == 17)
            return std::string(buf, end);
    }
}

/** The config-file spellings of an enum, in declaration order. */
struct EnumNames
{
    const char *what;  ///< "an ecc engine", for diagnostics
    std::vector<const char *> names;

    std::size_t
    parse(const std::string &key, const std::string &v) const
    {
        for (std::size_t i = 0; i < names.size(); ++i)
            if (v == names[i])
                return i;
        esd_fatal("config key '%s': '%s' is not %s (expected %s)",
                  key.c_str(), v.c_str(), what, join(nullptr).c_str());
    }

    template <typename E>
    const char *name(E e) const { return names.at(std::size_t(e)); }

    /** The names joined by @p sep ("a|b|c"), or as prose when @p sep
     * is null ("a, b, or c"; "a or b"). */
    std::string
    join(const char *sep) const
    {
        std::string out;
        for (std::size_t i = 0; i < names.size(); ++i) {
            if (i > 0)
                out += sep                     ? sep
                       : names.size() == 2     ? " or "
                       : i + 1 == names.size() ? ", or "
                                               : ", ";
            out += names[i];
        }
        return out;
    }
};

const EnumNames kEccEngines{"an ecc engine", {"hamming", "bch", "rs"}};
const EnumNames kPersistDomains{"a persistence domain", {"adr", "eadr"}};
const EnumNames kCrashPhases{"a crash phase",
                             {"pre_barrier", "mid_journal", "post_data"}};
const EnumNames kTraceFormats{"a trace format",
                              {"auto", "text", "gzip", "binary"}};

/** A key's storage: a reference into the SimConfig it is applied to. */
template <typename T>
using FieldRef = T &(*)(SimConfig &);

/** The domain of a double key; every double key must also be finite. */
enum class Real
{
    NonNegative,  ///< [0, max]: energies
    Positive,     ///< (0, max]: clock, CPI
    Probability,  ///< [0, 1]: error rates
};

constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();

/**
 * One config key: its name, its SimConfig field, and how a value is
 * parsed, bounded and rendered. The field type picks the parser:
 * an integer in [lo, hi] (in the key's unit; stored `<< shift`, and hi
 * capped so that the field holds it), a finite double in `real`, a
 * boolean, or one of an enum's `names`.
 */
struct ConfigKey
{
    template <typename T>
    constexpr ConfigKey(const char *n, FieldRef<T> f, std::uint64_t l = 0,
                        std::uint64_t h = kU64Max, unsigned s = 0)
        : name(n), field(f), lo(l),
          hi(std::min<std::uint64_t>(h, std::numeric_limits<T>::max() >> s)),
          shift(s) {}

    constexpr ConfigKey(const char *n, FieldRef<double> f,
                        Real r = Real::NonNegative)
        : name(n), field(f), real(r) {}

    template <typename E>
    constexpr ConfigKey(const char *n, FieldRef<E> f, const EnumNames &e)
        : name(n), field(f), names(&e) {}

    const char *name;
    std::variant<FieldRef<std::uint64_t>, FieldRef<unsigned>,
                 FieldRef<double>, FieldRef<bool>, FieldRef<EccEngineKind>,
                 FieldRef<PersistDomain>, FieldRef<CrashPhase>,
                 FieldRef<TraceFormat>>
        field;
    std::uint64_t lo = 0;
    std::uint64_t hi = kU64Max;
    unsigned shift = 0;
    Real real = Real::NonNegative;
    const EnumNames *names = nullptr;

    void
    set(SimConfig &cfg, const std::string &v) const
    {
        std::visit(
            [&](auto field) {
                using T = std::remove_reference_t<decltype(field(cfg))>;
                if constexpr (std::is_same_v<T, bool>) {
                    field(cfg) = asBool(name, v);
                } else if constexpr (std::is_same_v<T, double>) {
                    double x = asDouble(name, v);
                    if (x < 0.0 || (real == Real::Probability && x > 1.0) ||
                        (real == Real::Positive && x == 0.0))
                        esd_fatal("config key '%s': %s is out of range "
                                  "(must be %s)",
                                  name, v.c_str(),
                                  real == Real::Probability ? "in [0, 1]"
                                  : real == Real::Positive  ? "> 0"
                                                            : ">= 0");
                    field(cfg) = x;
                } else if constexpr (std::is_enum_v<T>) {
                    field(cfg) = static_cast<T>(names->parse(name, v));
                } else {
                    std::uint64_t u = asU64(name, v);
                    if (u < lo || u > hi)
                        esd_fatal("config key '%s': %s is out of range "
                                  "[%s, %s]",
                                  name, v.c_str(), std::to_string(lo).c_str(),
                                  std::to_string(hi).c_str());
                    field(cfg) = static_cast<T>(u << shift);
                }
            },
            field);
    }

    /** @p cfg is only read; a FieldRef takes a mutable config. */
    std::string
    render(SimConfig &cfg) const
    {
        return std::visit(
            [&](auto field) -> std::string {
                using T = std::remove_reference_t<decltype(field(cfg))>;
                const T x = field(cfg);
                if constexpr (std::is_same_v<T, bool>)
                    return x ? "true" : "false";
                else if constexpr (std::is_same_v<T, double>)
                    return formatDouble(x);
                else if constexpr (std::is_enum_v<T>)
                    return names->name(x);
                else
                    return std::to_string(std::uint64_t{x} >> shift);
            },
            field);
    }
};

/** A FieldRef to `cfg.<path>`. */
#define FIELD(path) +[](SimConfig &c) -> auto & { return c.path; }

/** Every config key, in renderConfig() order. */
constexpr ConfigKey kConfigKeys[] = {
    {"pcm.capacity_gb", FIELD(pcm.capacityBytes), 1, 1u << 20, 30},
    {"pcm.read_latency", FIELD(pcm.readLatency)},
    {"pcm.write_latency", FIELD(pcm.writeLatency)},
    {"pcm.read_energy_pj", FIELD(pcm.readEnergy)},
    {"pcm.write_energy_pj", FIELD(pcm.writeEnergy)},
    {"pcm.banks_per_channel", FIELD(pcm.banksPerChannel), 1, 1024},
    {"pcm.write_queue_depth", FIELD(pcm.writeQueueDepth), 1, 1u << 20},
    {"pcm.row_buffer_lines", FIELD(pcm.rowBufferLines), 0, 1u << 20},
    {"pcm.row_hit_read_latency", FIELD(pcm.rowHitReadLatency)},
    {"pcm.read_priority", FIELD(pcm.readPriority)},
    {"pcm.start_gap", FIELD(pcm.startGapEnabled)},
    {"pcm.gap_move_period", FIELD(pcm.gapMovePeriod), 1, 1ull << 40},
    {"pcm.start_gap_region_lines", FIELD(pcm.startGapRegionLines), 1,
     1ull << 30},
    {"channels.count", FIELD(channels.count), 1, 64},
    {"channels.wpq_coalescing", FIELD(channels.wpqCoalescing)},
    {"crypto.sha1_latency", FIELD(crypto.sha1Latency)},
    {"crypto.crc_latency", FIELD(crypto.crcLatency)},
    {"crypto.encrypt_latency", FIELD(crypto.encryptLatency)},
    {"crypto.compare_latency", FIELD(crypto.compareLatency)},
    {"metadata.efit_kb", FIELD(metadata.efitCacheBytes), 0, kU64Max, 10},
    {"metadata.amt_kb", FIELD(metadata.amtCacheBytes), 0, kU64Max, 10},
    {"metadata.refer_h_max", FIELD(metadata.referHMax)},
    {"metadata.decay_period", FIELD(metadata.decayPeriod)},
    {"metadata.decay_delta", FIELD(metadata.decayDelta)},
    {"metadata.use_lrcu", FIELD(metadata.useLrcu)},
    {"ras.enabled", FIELD(ras.enabled)},
    {"ras.read_ber", FIELD(ras.readBer), Real::Probability},
    {"ras.write_ber", FIELD(ras.writeBer), Real::Probability},
    {"ras.stuck_at_onset_writes", FIELD(ras.stuckAtOnsetWrites)},
    {"ras.stuck_at_per_write", FIELD(ras.stuckAtPerWrite), Real::Probability},
    {"ras.demand_scrub", FIELD(ras.demandScrub)},
    {"ras.patrol_interval_writes", FIELD(ras.patrolIntervalWrites)},
    {"ras.patrol_lines_per_sweep", FIELD(ras.patrolLinesPerSweep), 1,
     1u << 20},
    {"ras.write_verify_retries", FIELD(ras.writeVerifyRetries), 0, 64},
    {"ras.write_verify_backoff_ns", FIELD(ras.writeVerifyBackoffNs)},
    {"ras.spare_region_lines", FIELD(ras.spareRegionLines), 1, 1ull << 30},
    {"ras.dedup_suspend_ues", FIELD(ras.dedupSuspendUes)},
    {"telemetry.trace_ring_capacity", FIELD(telemetry.traceRingCapacity), 1,
     1u << 24},
    {"telemetry.span_sample_every", FIELD(telemetry.spanSampleEvery), 1,
     1u << 30},
    {"telemetry.histogram_buckets", FIELD(telemetry.histogramBuckets)},
    {"ecc.engine", FIELD(ecc.engine), kEccEngines},
    {"persistence.enabled", FIELD(persist.enabled)},
    {"persistence.domain", FIELD(persist.domain), kPersistDomains},
    {"persistence.epoch_writes", FIELD(persist.epochWrites), 1, 1u << 20},
    {"persistence.checkpoint_epochs", FIELD(persist.checkpointEpochs), 1,
     1u << 20},
    {"persistence.barrier_ns", FIELD(persist.barrierNs), 0, 1u << 20},
    {"persistence.journal_append_ns", FIELD(persist.journalAppendNs), 0,
     1u << 20},
    {"persistence.metadata_buffer_records",
     FIELD(persist.metadataBufferRecords), 1, 1u << 24},
    {"persistence.counter_slack", FIELD(persist.counterSlack), 0, 1u << 24},
    {"persistence.counter_probe_max", FIELD(persist.counterProbeMax), 0,
     1u << 16},
    {"persistence.crash_at_write", FIELD(persist.crashAtWrite), 0, 1ull << 40},
    {"persistence.crash_phase", FIELD(persist.crashPhase), kCrashPhases},
    {"trace.format", FIELD(trace.format), kTraceFormats},
    {"trace.line_payload", FIELD(trace.linePayload)},
    {"pipeline.epoch_records", FIELD(pipeline.epochRecords), 1, 1u << 20},
    {"pipeline.sample_epochs", FIELD(pipeline.sampleEpochs), 0, 1u << 20},
    {"core.clock_ghz", FIELD(core.clockGhz), Real::Positive},
    {"core.base_cpi", FIELD(core.baseCpi), Real::Positive},
    {"seed", FIELD(seed)},
};

#undef FIELD

/** The row of @p name, or nullptr. */
const ConfigKey *
findKey(const std::string &name)
{
    for (const ConfigKey &k : kConfigKeys)
        if (name == k.name)
            return &k;
    return nullptr;
}

/** The row of @p name, which must exist. */
const ConfigKey &
knownKey(const std::string &name)
{
    const ConfigKey *k = findKey(name);
    if (!k)
        esd_panic("unknown config key '%s'", name.c_str());
    return *k;
}

} // namespace

const char *
eccEngineName(EccEngineKind k)
{
    return kEccEngines.name(k);
}

const char *
persistDomainName(PersistDomain d)
{
    return kPersistDomains.name(d);
}

const char *
crashPhaseName(CrashPhase p)
{
    return kCrashPhases.name(p);
}

PersistDomain
parsePersistDomain(const std::string &key, const std::string &v)
{
    return static_cast<PersistDomain>(kPersistDomains.parse(key, v));
}

const char *
traceFormatName(TraceFormat f)
{
    return kTraceFormats.name(f);
}

TraceFormat
parseTraceFormat(const std::string &key, const std::string &v)
{
    return static_cast<TraceFormat>(kTraceFormats.parse(key, v));
}

bool
applyConfigKey(SimConfig &cfg, const std::string &key,
               const std::string &value)
{
    const ConfigKey *k = findKey(key);
    if (!k)
        return false;
    k->set(cfg, value);
    return true;
}

std::string
configKeyPlaceholder(const std::string &key)
{
    const ConfigKey &k = knownKey(key);
    if (k.names)
        return k.names->join("|");
    if (std::holds_alternative<FieldRef<bool>>(k.field))
        return "B";
    if (std::holds_alternative<FieldRef<double>>(k.field))
        return k.real == Real::Probability ? "P" : "X";
    return "N";
}

std::pair<std::uint64_t, std::uint64_t>
configKeyBounds(const std::string &key)
{
    const ConfigKey &k = knownKey(key);
    return {k.lo, k.hi};
}

void
loadConfigFile(SimConfig &cfg, const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        esd_fatal("cannot open config file '%s'", path.c_str());
    std::string line;
    std::uint64_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        std::string t = trim(line);
        if (t.empty() || t[0] == '#')
            continue;
        std::size_t eq = t.find('=');
        if (eq == std::string::npos)
            esd_fatal("%s:%llu: expected 'key = value'", path.c_str(),
                      static_cast<unsigned long long>(line_no));
        std::string key = trim(t.substr(0, eq));
        std::string value = trim(t.substr(eq + 1));
        if (!applyConfigKey(cfg, key, value))
            esd_warn("%s:%llu: unknown config key '%s' ignored",
                     path.c_str(),
                     static_cast<unsigned long long>(line_no),
                     key.c_str());
    }
}

const std::vector<ConfigFlagAlias> &
configFlagAliases()
{
    const char *const ras = "ras.enabled";
    const char *const persist = "persistence.enabled";
    static const std::vector<ConfigFlagAlias> table = {
        {"-seed", "seed"},
        {"-ecc", "ecc.engine"},
        {"-channels", "channels.count"},
        {"-wpq-depth", "pcm.write_queue_depth"},
        {"-wpq-coalescing", "channels.wpq_coalescing"},
        {"-ras-read-ber", "ras.read_ber", ras},
        {"-ras-write-ber", "ras.write_ber", ras},
        {"-ras-patrol-interval", "ras.patrol_interval_writes", ras},
        {"-ras-write-verify", "ras.write_verify_retries", ras},
        {"-persist", "persistence.enabled"},
        {"-persist-domain", "persistence.domain", persist},
        {"-persist-epoch-writes", "persistence.epoch_writes", persist},
        {"-persist-checkpoint-epochs", "persistence.checkpoint_epochs",
         persist},
        {"-persist-counter-slack", "persistence.counter_slack", persist},
        {"-persist-crash-at", "persistence.crash_at_write", persist},
        {"-persist-crash-phase", "persistence.crash_phase", persist},
        {"-trace-format", "trace.format"},
        {"-trace-payload", "trace.line_payload"},
        {"-trace-ring", "telemetry.trace_ring_capacity"},
        {"-span-every", "telemetry.span_sample_every"},
        {"-hist-buckets", "telemetry.histogram_buckets", nullptr, "true"},
    };
    return table;
}

bool
ConfigFlags::take(const std::string &arg)
{
    std::size_t eq = arg.find('=');
    for (const ConfigFlagAlias &a : configFlagAliases()) {
        if (arg.compare(0, eq, a.flag) != 0)
            continue;
        if (eq == std::string::npos && !a.bare)
            return false;
        if (a.implies)
            enables_.push_back(a.implies);
        pairs_.emplace_back(a.key, eq == std::string::npos
                                       ? std::string(a.bare)
                                       : arg.substr(eq + 1));
        return true;
    }
    // Generic form: -<section>.<key>=v.
    if (arg[0] != '-' || eq == std::string::npos || arg.find('.') > eq)
        return false;
    pairs_.emplace_back(arg.substr(1, eq - 1), arg.substr(eq + 1));
    return true;
}

void
ConfigFlags::apply(SimConfig &cfg) const
{
    for (const std::string &key : enables_)
        applyConfigKey(cfg, key, "true");
    for (const auto &[key, value] : pairs_) {
        if (!applyConfigKey(cfg, key, value))
            esd_fatal("unknown config key '%s' in flag -%s=%s",
                      key.c_str(), key.c_str(), value.c_str());
    }
}

std::string
renderConfig(const SimConfig &cfg)
{
    SimConfig copy = cfg;
    std::string out = "# ESD simulator configuration\n";
    for (const ConfigKey &k : kConfigKeys)
        out += std::string(k.name) + " = " + k.render(copy) + "\n";
    return out;
}

void
writeConfigJson(JsonWriter &w, const SimConfig &cfg)
{
    SimConfig copy = cfg;
    w.beginObject();
    std::string open;  // the section whose object is being written
    for (const ConfigKey &k : kConfigKeys) {
        const std::string name = k.name;
        const std::size_t dot = name.find('.');
        const std::string section =
            dot == std::string::npos ? "" : name.substr(0, dot);
        // Execution settings: they never change a simulated outcome.
        if (section == "telemetry" || section == "trace" ||
            section == "pipeline")
            continue;
        if (section != open) {
            if (!open.empty())
                w.endObject();
            if (!section.empty()) {
                w.key(section);
                w.beginObject();
            }
            open = section;
        }
        w.key(section.empty() ? name : name.substr(dot + 1));
        // render() spells a bool, an integer and a (finite) double as
        // JSON literals; only an enum's name needs quoting.
        const std::string v = k.render(copy);
        if (k.names)
            w.value(v);
        else
            w.rawValue(v);
    }
    if (!open.empty())
        w.endObject();
    w.endObject();
}

} // namespace esd
