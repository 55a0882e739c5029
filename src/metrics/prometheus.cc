#include "metrics/prometheus.hh"

#include <cstdio>
#include <map>
#include <utility>

#include "common/stat_registry.hh"

namespace esd
{

namespace
{

/** Prometheus sample value: %.10g matches the JSON writer so the two
 * exports agree digit-for-digit. */
std::string
sampleValue(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    return buf;
}

/** HELP text: single-line, with backslash and newline escaped per the
 * exposition format. */
std::string
escapeHelp(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '\\')
            out += "\\\\";
        else if (c == '\n')
            out += "\\n";
        else
            out += c;
    }
    return out;
}

void
writeHeader(std::ostream &os, const std::string &name,
            const std::string &desc, const char *type)
{
    if (!desc.empty())
        os << "# HELP " << name << " " << escapeHelp(desc) << "\n";
    os << "# TYPE " << name << " " << type << "\n";
}

const char *
typeName(StatRegistry::Kind kind)
{
    switch (kind) {
      case StatRegistry::Kind::Counter:
        return "counter";
      case StatRegistry::Kind::Gauge:
        return "gauge";
      case StatRegistry::Kind::Latency:
        return "summary";
    }
    return "untyped";
}

/** A sample's label set: "{a,b}" over the non-empty parts, or "". */
std::string
labels(const std::string &shard, const std::string &extra)
{
    if (shard.empty() && extra.empty())
        return "";
    return "{" + shard + (shard.empty() || extra.empty() ? "" : ",") +
           extra + "}";
}

} // namespace

std::string
prometheusName(const std::string &stat_name)
{
    std::string out = "esd_";
    out.reserve(stat_name.size() + 4);
    for (char c : stat_name) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9');
        out += ok ? c : '_';
    }
    return out;
}

void
writePrometheusText(std::ostream &os,
                    const std::vector<const StatRegistry *> &regs)
{
    // Name-sorted like the JSON report, so pages diff cleanly; each
    // name lists the (shard, entry) pairs that carry it, in shard order.
    std::map<std::string, std::vector<std::pair<std::size_t,
                                                const StatRegistry::Entry *>>>
        byName;
    for (std::size_t s = 0; s < regs.size(); ++s)
        for (const StatRegistry::Entry &e : regs[s]->entries())
            byName[e.name].emplace_back(s, &e);
    const bool sharded = regs.size() > 1;

    for (const auto &[stat, shards] : byName) {
        const std::string name = prometheusName(stat);
        const StatRegistry::Entry &first = *shards.front().second;
        writeHeader(os, name, first.desc, typeName(first.kind));
        for (const auto &[s, e] : shards) {
            const std::string shard =
                sharded ? "shard=\"" + std::to_string(s) + "\"" : "";
            switch (e->kind) {
              case StatRegistry::Kind::Counter:
                os << name << labels(shard, "") << " "
                   << sampleValue(static_cast<double>(e->counter->value()))
                   << "\n";
                break;
              case StatRegistry::Kind::Gauge:
                os << name << labels(shard, "") << " "
                   << sampleValue(e->gauge()) << "\n";
                break;
              case StatRegistry::Kind::Latency: {
                const LatencyStat &l = *e->latency;
                for (double q : {0.5, 0.9, 0.99})
                    os << name
                       << labels(shard,
                                 "quantile=\"" + sampleValue(q) + "\"")
                       << " " << sampleValue(l.percentile(q * 100.0))
                       << "\n";
                os << name << "_sum" << labels(shard, "") << " "
                   << sampleValue(l.sum()) << "\n";
                os << name << "_count" << labels(shard, "") << " "
                   << sampleValue(static_cast<double>(l.count())) << "\n";
                break;
              }
            }
        }
    }
}

} // namespace esd
