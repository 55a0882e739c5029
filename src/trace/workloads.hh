/**
 * @file
 * Synthetic application workloads.
 *
 * The paper evaluates 12 SPEC CPU 2017 and 8 PARSEC 2.1 applications
 * whose traces are partly proprietary; this module substitutes
 * parameterised generators calibrated to the paper's published
 * workload characterisation:
 *   - per-app duplicate rate (Fig. 1: 33.1%..99.9%, average 62.9%),
 *   - zero-line domination for deepsjeng/roms,
 *   - content locality (Fig. 3: a Zipf-skewed reference distribution
 *     where a tiny fraction of unique lines covers ~42.7% of the
 *     pre-dedup volume),
 *   - read/write mix and memory intensity (instructions per request).
 *
 * Generation is fully deterministic from the profile's seed.
 */

#ifndef ESD_TRACE_WORKLOADS_HH
#define ESD_TRACE_WORKLOADS_HH

#include <memory>
#include <string>
#include <vector>

#include "common/random.hh"
#include "common/types.hh"
#include "trace/trace.hh"
#include "trace/zipf.hh"

namespace esd
{

/** Tunable characteristics of one application. */
struct AppProfile
{
    std::string name;

    /** Which suite the app belongs to (reporting only). */
    enum class Suite { SpecCpu2017, Parsec } suite = Suite::SpecCpu2017;

    /** Target fraction of written lines whose content was written
     * before (Fig. 1). */
    double dupRate = 0.6;

    /** Among duplicate writes, fraction that are the all-zero line. */
    double zeroFrac = 0.2;

    /** Zipf skew of the non-zero duplicate pool: high skew = strong
     * content locality (few lines, huge reference counts). */
    double zipfS = 1.1;

    /** Number of distinct hot lines duplicates are drawn from. */
    std::uint64_t hotPoolLines = 16 * 1024;

    /** Fraction of memory requests that are writes (LLC evictions). */
    double writeFrac = 0.5;

    /** Logical working-set size in lines. */
    std::uint64_t workingSetLines = 1ull << 18;

    /** Mean instructions retired between memory requests (memory
     * intensity; low = memory bound). */
    std::uint32_t icountMean = 150;

    /** Probability that the next write continues a sequential run. */
    double seqProb = 0.5;

    /** Probability of entering a request burst (write-back storms:
     * clustered evictions with few instructions between them), the
     * main source of queueing and tail latency. */
    double burstProb = 0.25;

    /** Mean burst length in requests. */
    std::uint32_t burstLen = 64;

    /** Probability a read targets a recently written address
     * (temporal locality of miss fills). */
    double readRecency = 0.7;

    /** Generator seed (combined with the global seed). */
    std::uint64_t seed = 1;
};

/** The 20 paper applications with calibrated profiles. */
const std::vector<AppProfile> &paperApps();

/** Look up a paper app by name; fatal when unknown. */
const AppProfile &findApp(const std::string &name);

/** Look up a paper app by name; nullptr when unknown — the validating
 * form CLIs use to reject bad -apps= lists up front. */
const AppProfile *tryFindApp(const std::string &name);

/**
 * A TraceSource synthesising an endless request stream for a profile.
 */
class SyntheticWorkload : public TraceSource
{
  public:
    explicit SyntheticWorkload(const AppProfile &profile,
                               std::uint64_t global_seed = 1);

    bool next(TraceRecord &rec) override;

    void reset() override;

    /** Deterministic content of unique line @p id (id 0 = zero line). */
    CacheLine lineContent(std::uint64_t id) const;

    const AppProfile &profile() const { return profile_; }

  private:
    Addr pickWriteAddr();
    std::uint64_t pickContentId();
    void touch(std::uint64_t id);

    AppProfile profile_;
    std::uint64_t globalSeed_;
    Pcg32 rng_;
    ZipfSampler zipf_;
    std::uint64_t nextFreshId_;
    Addr lastWriteAddr_ = 0;
    std::uint32_t burstRemaining_ = 0;
    std::vector<Addr> writtenAddrs_;

    /** Circular buffer of the most recent writes (read locality). */
    std::vector<Addr> recentWrites_;
    std::size_t recentCursor_ = 0;

    /** Hot-pool ids that have been written at least once: duplicate
     * draws resolve against these so the measured duplicate rate
     * tracks the profile. */
    std::vector<std::uint64_t> touched_;
    std::vector<bool> isTouched_;
};

} // namespace esd

#endif // ESD_TRACE_WORKLOADS_HH
