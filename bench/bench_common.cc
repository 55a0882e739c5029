#include "bench_common.hh"

#include <cstdlib>

#include "common/cli_flags.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "metrics/report.hh"

namespace esd::bench
{

SimConfig
benchConfig()
{
    SimConfig cfg;
    cfg.pcm.banksPerChannel = 4;
    cfg.pcm.writeQueueDepth = 64;
    return cfg;
}

std::uint64_t
envOr(const char *name, std::uint64_t fallback)
{
    const char *v = std::getenv(name);
    if (!v)
        return fallback;
    std::uint64_t parsed = parseU64(name, v);
    if (parsed == 0)
        esd_fatal("%s: must be at least 1", name);
    return parsed;
}

namespace
{

unsigned benchJobsOverride = 0;  // set by -jobs=N

} // namespace

RunSize
runSize(std::uint64_t records, std::uint64_t warmup)
{
    const std::uint64_t r = envOr("ESD_BENCH_RECORDS", records);
    return {r, std::min(envOr("ESD_BENCH_WARMUP", warmup), r / 2)};
}

std::uint64_t
benchRecords()
{
    static const std::uint64_t v = runSize(250000, 50000).records;
    return v;
}

std::uint64_t
benchWarmup()
{
    static const std::uint64_t v = runSize(250000, 50000).warmup;
    return v;
}

unsigned
benchJobs()
{
    if (benchJobsOverride > 0)
        return benchJobsOverride;
    static const unsigned v = [] {
        const char *env = std::getenv("ESD_BENCH_JOBS");
        return env ? static_cast<unsigned>(
                         parseU64InRange("ESD_BENCH_JOBS", env, 1, 256))
                   : 1u;
    }();
    return v;
}

void
parseBenchArgs(int argc, char **argv, std::string *out_dir)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("-jobs=", 0) == 0) {
            benchJobsOverride = static_cast<unsigned>(
                parseU64InRange("-jobs", arg.substr(6), 1, 256));
        } else if (out_dir && arg.rfind("-out=", 0) == 0) {
            *out_dir = arg.substr(5);
        } else {
            esd_fatal("unknown bench argument '%s' (supported: -jobs=N%s)",
                      arg.c_str(), out_dir ? ", -out=DIR" : "");
        }
    }
}

std::vector<std::string>
appNames()
{
    std::vector<std::string> names;
    for (const AppProfile &p : paperApps())
        names.push_back(p.name);
    return names;
}

void
printHeader(const std::string &title, const std::string &what,
            std::ostream &os)
{
    os << "==== " << title << " ====\n"
       << what << "\n"
       << "records/run=" << benchRecords()
       << " warmup=" << benchWarmup() << "\n\n";
}

BandStatus
bandStatus(bool passed, bool registered)
{
    if (passed)
        return registered ? BandStatus::Stale : BandStatus::Holds;
    return registered ? BandStatus::Deviates : BandStatus::Fails;
}

bool
breaksWall(BandStatus s)
{
    return s == BandStatus::Fails || s == BandStatus::Stale;
}

Corpora
collisionCorpora(std::uint64_t lines, std::uint64_t seed)
{
    Pcg32 rng(seed);
    Corpora c{std::vector<CacheLine>(lines), std::vector<CacheLine>(lines)};
    for (CacheLine &l : c.random)
        rng.fillLine(l);
    CacheLine base;
    rng.fillLine(base);
    for (CacheLine &l : c.similar) {
        l = base;
        l.setWord(rng.below(kWordsPerLine), rng.next64());
    }
    return c;
}

std::string
Collisions::rate() const
{
    if (collisions == 0)
        return "0";
    return TablePrinter::num(
        static_cast<double>(collisions) / static_cast<double>(lines), 8);
}

} // namespace esd::bench
