#include "exec/sweep_grid.hh"

#include <sstream>

#include "common/cli_flags.hh"
#include "common/config_io.hh"
#include "trace/workloads.hh"

namespace esd::exec
{

namespace
{

std::vector<std::string>
splitCsv(const std::string &s)
{
    std::vector<std::string> out;
    std::istringstream is(s);
    std::string item;
    while (std::getline(is, item, ','))
        out.push_back(item);
    return out;
}

/** Parse "N" or "A..B" (inclusive, ASCII digits only) into @p out;
 * false on bad syntax. */
bool
parseIntOrRange(const std::string &tok, std::vector<std::uint64_t> &out)
{
    std::size_t dots = tok.find("..");
    if (dots == std::string::npos) {
        std::uint64_t v;
        if (!tryParseDigits(tok, v))
            return false;
        out.push_back(v);
        return true;
    }
    std::uint64_t lo, hi;
    if (!tryParseDigits(tok.substr(0, dots), lo) ||
        !tryParseDigits(tok.substr(dots + 2), hi) || hi < lo ||
        hi - lo > 4096)
        return false;
    for (std::uint64_t v = lo; v <= hi; ++v)
        out.push_back(v);
    return true;
}

std::string
validAppNames()
{
    std::string names;
    for (const AppProfile &p : paperApps()) {
        if (!names.empty())
            names += ", ";
        names += p.name;
    }
    return names;
}

} // namespace

bool
parseSweepSpec(const std::string &spec, SweepGrid &grid, std::string *err)
{
    auto fail = [err](const std::string &msg) {
        if (err)
            *err = msg;
        return false;
    };

    std::string key;
    for (const std::string &tok : splitCsv(spec)) {
        std::string value = tok;
        std::size_t eq = tok.find('=');
        if (eq != std::string::npos) {
            key = tok.substr(0, eq);
            value = tok.substr(eq + 1);
            if (key != "app" && key != "scheme" && key != "channels" &&
                key != "wpq_depth") {
                return fail("unknown sweep dimension '" + key +
                            "' (valid: app, scheme, channels, "
                            "wpq_depth)");
            }
        } else if (key.empty()) {
            return fail("sweep spec must start with 'dimension=value', "
                        "got '" + tok + "'");
        }
        if (value.empty())
            return fail("empty value for sweep dimension '" + key + "'");

        if (key == "app") {
            if (!tryFindApp(value))
                return fail("unknown application '" + value +
                            "' (valid: " + validAppNames() + ")");
            grid.apps.push_back(value);
        } else if (key == "scheme") {
            // Ranges expand over ordinals; names parse directly.
            std::vector<std::uint64_t> ints;
            if (value.find("..") != std::string::npos) {
                if (!parseIntOrRange(value, ints))
                    return fail("bad range '" + value +
                                "' for sweep dimension 'scheme'");
                for (std::uint64_t v : ints) {
                    std::optional<SchemeKind> k =
                        tryParseSchemeKind(std::to_string(v));
                    if (!k)
                        return fail("scheme ordinal " +
                                    std::to_string(v) +
                                    " out of range (0..5)");
                    grid.schemes.push_back(*k);
                }
            } else {
                std::optional<SchemeKind> k = tryParseSchemeKind(value);
                if (!k)
                    return fail("unknown scheme '" + value +
                                "' (use 0..5 or a scheme name)");
                grid.schemes.push_back(*k);
            }
        } else if (key == "channels" || key == "wpq_depth") {
            std::vector<std::uint64_t> ints;
            if (!parseIntOrRange(value, ints))
                return fail("bad integer or range '" + value +
                            "' for sweep dimension '" + key + "'");
            // The config keys' own bounds.
            auto [lo, hi] = configKeyBounds(key == "channels"
                                                ? "channels.count"
                                                : "pcm.write_queue_depth");
            for (std::uint64_t v : ints) {
                if (v < lo || v > hi)
                    return fail(key + " value " + std::to_string(v) +
                                " out of range (" + std::to_string(lo) +
                                ".." + std::to_string(hi) + ")");
                if (key == "channels")
                    grid.channels.push_back(
                        static_cast<unsigned>(v));
                else
                    grid.wpqDepths.push_back(
                        static_cast<unsigned>(v));
            }
        }
    }
    return true;
}

std::vector<JobSpec>
expandGrid(const SweepGrid &grid, const JobSpec &proto)
{
    std::vector<std::string> apps = grid.apps;
    if (apps.empty())
        apps.push_back(proto.traceFile.empty() ? "mcf" : proto.traceFile);
    std::vector<SchemeKind> schemes = grid.schemes;
    if (schemes.empty())
        schemes = allSchemeKindsExtended();
    std::vector<unsigned> channels = grid.channels;
    if (channels.empty())
        channels.push_back(proto.cfg.channels.count);
    std::vector<unsigned> wpq = grid.wpqDepths;
    if (wpq.empty())
        wpq.push_back(proto.cfg.pcm.writeQueueDepth);

    std::vector<JobSpec> jobs;
    jobs.reserve(apps.size() * schemes.size() * channels.size() *
                 wpq.size());
    for (const std::string &app : apps) {
        for (SchemeKind k : schemes) {
            for (unsigned ch : channels) {
                for (unsigned d : wpq) {
                    JobSpec job = proto;
                    job.app = app;
                    job.scheme = k;
                    job.cfg.channels.count = ch;
                    job.cfg.pcm.writeQueueDepth = d;
                    jobs.push_back(std::move(job));
                }
            }
        }
    }
    return jobs;
}

} // namespace esd::exec
