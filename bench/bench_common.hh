/**
 * @file
 * Shared machinery for the benches: the evaluation configuration, the
 * run size, the pool width and the deviation register's rule. Record
 * counts come from the environment:
 *
 *   ESD_BENCH_RECORDS  total trace records per run (default 250000)
 *   ESD_BENCH_WARMUP   leading records excluded from stats (default 50000)
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

} // namespace esd::bench

#endif // ESD_BENCH_BENCH_COMMON_HH
