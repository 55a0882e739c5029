/**
 * @file
 * Self-profiling of the simulator's own hot path.
 *
 * The simulated timing model answers "how fast is the hardware"; this
 * profiler answers "how fast is the simulator" — host wall-clock
 * attributed to the phases every write walks through:
 *
 *   fingerprint  SHA-1 / CRC / ECC fingerprint computation
 *   lookup       metadata structures (AMT, fingerprint/EFIT tables,
 *                refcounts) — the flat-map hot path
 *   compare      candidate fetch + decrypt + ECC verify + byte compare
 *   encrypt      counter-mode pad application (AES)
 *   device       PCM timing model, WPQ, wear, content-store writes
 *   persist      metadata journaling: record append, group commit,
 *                checkpoint folds (zero when [persistence] is off)
 *
 * Scopes are manual RAII markers placed in the schemes; when no
 * profiler is attached (the default) each marker is a single null
 * check, so the instrumented path stays branch-predictable and the
 * deterministic simulation results are unaffected either way.
 *
 * Enabled profiles register under "host.profile.*" in the
 * StatRegistry. They are deliberately NOT registered when profiling
 * is off: run reports stay byte-identical to unprofiled runs.
 */

#ifndef ESD_METRICS_PROFILER_HH
#define ESD_METRICS_PROFILER_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <string>

namespace esd
{

class StatRegistry;

/** Wall-clock phase accounting for one simulated system. */
class Profiler
{
  public:
    enum Phase : unsigned
    {
        Fingerprint,
        Lookup,
        Compare,
        Encrypt,
        Device,
        Persist,
        kPhaseCount
    };

    static const char *phaseName(unsigned phase);

    /** Accumulated host time and entry count of one phase. */
    struct PhaseTotals
    {
        std::uint64_t ns = 0;
        std::uint64_t calls = 0;
    };

    const PhaseTotals &
    phase(unsigned p) const
    {
        return totals_[p];
    }

    /** Host ns across all phases (phases do not nest). */
    std::uint64_t profiledNs() const;

    /** Record host wall-clock of the whole run() (set by the
     * simulator; includes un-attributed time between phases). */
    void setRunNs(std::uint64_t ns) { runNs_ = ns; }
    std::uint64_t runNs() const { return runNs_; }

    void
    add(Phase p, std::uint64_t ns)
    {
        totals_[p].ns += ns;
        ++totals_[p].calls;
    }

    void
    reset()
    {
        totals_ = {};
        runNs_ = 0;
    }

    /** Add @p other's phase totals (one table over a pipeline's
     * shards). Run times are not summed: each shard's is the whole
     * pipeline window, so the caller takes the pipeline's wall-clock. */
    void
    merge(const Profiler &other)
    {
        for (unsigned p = 0; p < kPhaseCount; ++p) {
            totals_[p].ns += other.totals_[p].ns;
            totals_[p].calls += other.totals_[p].calls;
        }
    }

    /** Register per-phase gauges under "<prefix>.<phase>_ns" /
     * "_calls" plus "<prefix>.run_ns". Call only on profiled runs —
     * registration changes the stats-JSON schema. */
    void registerStats(StatRegistry &reg,
                       const std::string &prefix) const;

    /**
     * RAII phase marker. Constructed from a possibly-null profiler:
     * the null (not-profiling) case costs one branch and never reads
     * the clock.
     */
    class Scope
    {
      public:
        Scope(Profiler *p, Phase phase) : prof_(p), phase_(phase)
        {
            if (prof_)
                start_ = std::chrono::steady_clock::now();
        }

        ~Scope()
        {
            if (prof_) {
                auto end = std::chrono::steady_clock::now();
                prof_->add(phase_,
                           static_cast<std::uint64_t>(
                               std::chrono::duration_cast<
                                   std::chrono::nanoseconds>(end - start_)
                                   .count()));
            }
        }

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Profiler *prof_;
        Phase phase_;
        std::chrono::steady_clock::time_point start_;
    };

  private:
    std::array<PhaseTotals, kPhaseCount> totals_{};
    std::uint64_t runNs_ = 0;
};

} // namespace esd

#endif // ESD_METRICS_PROFILER_HH
