/**
 * @file
 * Shared machinery for the benches: the evaluation configuration, the
 * run size, the pool width, the deviation register's rule and Fig. 8's
 * collision corpora. Record counts come from the environment:
 *
 *   ESD_BENCH_RECORDS  total trace records per run (default 250000)
 *   ESD_BENCH_WARMUP   leading records excluded from stats (default 50000)
 *
 * (esd_hostbench's rows default to their baselines' sizes instead.)
 *   ESD_BENCH_JOBS     sweep worker threads (default 1, at most 256;
 *                      -jobs=N overrides)
 *
 * A malformed or zero value is fatal and names the variable, here and
 * in every other ESD_BENCH_* knob read through envOr().
 */

#ifndef ESD_BENCH_BENCH_COMMON_HH
#define ESD_BENCH_BENCH_COMMON_HH

#include <iostream>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/simulator.hh"
#include "trace/workloads.hh"

namespace esd::bench
{

/** Environment variable @p name as a positive integer, @p fallback
 * when unset; a malformed or zero value is fatal. */
std::uint64_t envOr(const char *name, std::uint64_t fallback);

/** The evaluation configuration used by all figure benches. */
SimConfig benchConfig();

/** Records and warm-up records of one run. */
struct RunSize
{
    std::uint64_t records;
    std::uint64_t warmup;
};

/**
 * @p records and @p warmup unless ESD_BENCH_RECORDS / ESD_BENCH_WARMUP
 * override them; the warm-up is capped at half the records.
 */
RunSize runSize(std::uint64_t records, std::uint64_t warmup);

/** Records per run (env-overridable). */
std::uint64_t benchRecords();

/** Warm-up records per run (env-overridable). */
std::uint64_t benchWarmup();

/** Sweep worker threads (ESD_BENCH_JOBS / -jobs=N). */
unsigned benchJobs();

/**
 * Parse bench CLI flags: -jobs=N, plus -out=DIR when @p out_dir is
 * given (it receives the directory). Anything else is fatal.
 */
void parseBenchArgs(int argc, char **argv, std::string *out_dir = nullptr);

/** Names of all 20 paper applications, SPEC first. */
std::vector<std::string> appNames();

/** Print the standard bench header. */
void printHeader(const std::string &title, const std::string &what,
                 std::ostream &os = std::cout);

/**
 * Where a paper-shape band stands against the deviation register. A
 * registered band is one whose miss EXPERIMENTS.md explains.
 */
enum class BandStatus
{
    Holds,      ///< passed, not registered
    Deviates,   ///< failed, registered
    Fails,      ///< failed, not registered
    Stale,      ///< passed, yet registered: the entry must go
};

BandStatus bandStatus(bool passed, bool registered);

/** Fails and Stale break the wall; the other two keep it. */
bool breaksWall(BandStatus s);

/**
 * Fig. 8's two seed-pinned corpora of the same size: independent random
 * lines, and "similar" lines, each a shared base with one random word
 * re-rolled (the adversarial case for linear fingerprints).
 */
struct Corpora
{
    std::vector<CacheLine> random;
    std::vector<CacheLine> similar;
};

Corpora collisionCorpora(std::uint64_t lines, std::uint64_t seed);

/** Fingerprint collisions among the distinct contents of a corpus. */
struct Collisions
{
    std::uint64_t collisions = 0;
    std::uint64_t lines = 0;  ///< distinct contents

    /** collisions / lines to 8 places, or "0". */
    std::string rate() const;
};

/** Count collisions of @p fingerprint (CacheLine -> hashable key) over
 * @p corpus; identical contents are not collisions. */
template <typename Fingerprint>
Collisions
countCollisions(const std::vector<CacheLine> &corpus, Fingerprint fingerprint)
{
    Collisions c;
    std::unordered_set<std::uint64_t> content_seen;
    std::unordered_set<decltype(fingerprint(corpus.front()))> fp_seen;
    for (const CacheLine &l : corpus) {
        if (!content_seen.insert(l.contentHash()).second)
            continue;
        ++c.lines;
        c.collisions += !fp_seen.insert(fingerprint(l)).second;
    }
    return c;
}

} // namespace esd::bench

#endif // ESD_BENCH_BENCH_COMMON_HH
