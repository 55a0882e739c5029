/**
 * @file
 * The online RAS pipeline: inject -> correct -> scrub -> verify ->
 * retire.
 *
 * RasEngine sits between a scheme and the NVM content/timing pair and
 * owns everything reliability:
 *
 *   - a FaultModel corrupting stored lines on reads and writes;
 *   - demand scrubbing (corrected reads are written back clean) and a
 *     patrol scrubber sweeping resident lines on a device-write budget;
 *   - PCM write-verify: every content write is read back and retried
 *     with backoff while it fails ECC, retiring persistently failing
 *     lines to a spare region;
 *   - uncorrectable-error policy: the line is retired and poisoned,
 *     its refcount-weighted dedup *blast radius* is accounted (one
 *     corrupt unique line loses every logical line deduplicated onto
 *     it), scheme metadata is invalidated through a hook, and
 *     deduplication can be suspended once UEs cross a threshold.
 *
 * Address discipline: scheme-visible physical addresses never change.
 * Content (NvmStore) and crypto counters stay keyed by the original
 * physical address; retirement only redirects the *medium* — the slot
 * whose cells fail and whose bank services the traffic. resolve()
 * applies that redirection for timing and fault injection.
 *
 * With cfg.enabled == false every hook is a no-op and a simulation is
 * numerically identical to one without the RAS layer.
 */

#ifndef ESD_RAS_RAS_ENGINE_HH
#define ESD_RAS_RAS_ENGINE_HH

#include <functional>
#include <vector>

#include "common/config.hh"
#include "common/flat_map.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "crypto/ctr_mode.hh"
#include "ecc/ecc_engine.hh"
#include "ecc/line_ecc.hh"
#include "nvm/nvm_store.hh"
#include "nvm/pcm_device.hh"
#include "ras/fault_model.hh"

namespace esd
{

class PersistenceManager;
class StatRegistry;

/** RAS pipeline accounting. */
struct RasStats
{
    Counter demandScrubWrites;     ///< corrected reads written back clean
    Counter patrolSweeps;          ///< patrol-scrub sweeps started
    Counter patrolLineScrubs;      ///< lines examined by the patrol
    Counter patrolCorrected;       ///< patrol reads needing correction
    Counter patrolUncorrectable;   ///< UEs first seen by the patrol
    Counter writeVerifyReads;      ///< verify read-backs issued
    Counter writeVerifyRetries;    ///< failed verifies that re-wrote
    Counter writeVerifyRetirements;///< retry exhaustion -> retirement
    Counter ueEvents;              ///< uncorrectable errors, all paths
    Counter linesRetired;          ///< lines remapped into the spare region
    Counter blastRadiusRefs;       ///< logical lines lost to UEs (refcounts)
    Counter spareExhausted;        ///< retirements denied for lack of spares
};

/** The pipeline. One instance per scheme (schemes own their crypto). */
class RasEngine
{
  public:
    /** Scheme callbacks, both optional. */
    struct Hooks
    {
        /** Dedup reference count of a physical line (blast radius);
         * unset or 0 means the line carries one logical line. */
        std::function<std::uint64_t(Addr)> refCountOf;

        /** Invalidate scheme metadata (fingerprint/EFIT entries)
         * naming a retired physical line. */
        std::function<void(Addr)> onRetire;
    };

    RasEngine(const RasConfig &cfg, NvmStore &store, PcmDevice &device,
              CtrModeEngine &crypto, const EccEngine &ecc,
              std::uint64_t seed);

    void setHooks(Hooks hooks) { hooks_ = std::move(hooks); }

    /** Attach (or detach with nullptr) the crash-consistency engine:
     * retirements journal LineRetire records, and the pipeline's
     * internal content rewrites (scrubs) report their counter bumps
     * and undo state like scheme writes do. */
    void setPersistence(PersistenceManager *pm) { persist_ = pm; }

    bool enabled() const { return cfg_.enabled; }

    /** Medium slot currently backing @p phys (identity until the line
     * is retired; retired slots chain into the spare region). */
    Addr resolve(Addr phys) const;

    /** True when the content of @p phys was lost to an uncorrectable
     * error and not rewritten since. */
    bool
    isPoisoned(Addr phys) const
    {
        return !poisoned_.empty() &&
               poisoned_.count(lineAlign(phys)) != 0;
    }

    /** True once the UE count crossed cfg.dedupSuspendUes (latches). */
    bool dedupSuspended() const { return dedupSuspended_; }

    /** Latch dedup suspension from outside the engine. The sharded
     * pipeline sums UE counts across shards at epoch barriers and
     * propagates the global threshold crossing to every shard in
     * canonical order. No-op when RAS is disabled. */
    void
    forceSuspendDedup()
    {
        if (cfg_.enabled)
            dedupSuspended_ = true;
    }

    /** Read-path fault injection for @p phys (call before consuming
     * stored content). */
    void beforeRead(Addr phys);

    /**
     * The full content write pipeline: store @p cipher + @p ecc at
     * @p phys, inject write faults, issue the timed device write, and
     * run write-verify with bounded retry/backoff. Retry traffic and
     * backoff extend the returned completion time; retry exhaustion
     * retires the line to a spare slot and rewrites it there.
     */
    NvmAccessResult storeAndWrite(Addr phys, const CacheLine &cipher,
                                  LineEcc ecc, Tick arrival);

    /**
     * Demand scrub after an ECC-corrected read: re-encrypt the
     * corrected plaintext and write the clean line back (posted,
     * off the read's critical path).
     */
    void demandScrub(Addr phys, const CacheLine &plain, LineEcc ecc,
                     Tick now);

    /**
     * Uncorrectable error on a demand or compare read of @p phys: the
     * content is lost. Accounts the dedup blast radius, retires the
     * medium (committing the journal at @p now, so the retire record
     * is durable before the content goes), poisons the line,
     * invalidates scheme metadata, and latches dedup suspension when
     * the threshold is crossed.
     */
    void onUncorrectable(Addr phys, Tick now);

    /** Note one scheme-issued device write; runs a patrol-scrub sweep
     * whenever the configured write budget has elapsed. */
    void patrolTick(Tick now);

    FaultModel &faults() { return faults_; }

    const RasStats &stats() const { return stats_; }

    /** Zero statistics (after warm-up); retirement/poison/suspension
     * state is system state and survives. */
    void resetStats();

    /** Register all RAS counters under "<prefix>.*". */
    void registerStats(StatRegistry &reg, const std::string &prefix) const;

    /** Lines remapped into the spare region so far. */
    std::uint64_t retiredLines() const { return remap_.size(); }

  private:
    /** Allocate the next spare slot; kInvalidAddr when exhausted. */
    Addr allocSpare();

    /** Remap @p phys's medium into the spare region.
     * @return the new medium, or kInvalidAddr when no spare is left. */
    Addr retire(Addr phys);

    void accountBlast(Addr phys);
    void maybeSuspend();

    /** Journal the counter bump and undo state of an engine-internal
     * content rewrite (demand/patrol scrub). Call with the pre-write
     * stored state; no-op when persistence is detached. */
    void noteScrubRewrite(Addr phys, bool had_old, const StoredLine &old,
                          Tick complete);

    /** Decode the stored line at @p phys through decryption.
     * @return true when the content is (correctably) intact. */
    bool storedIntact(Addr phys);

    void scrubLine(Addr phys, Tick now);

    RasConfig cfg_;
    NvmStore &store_;
    PcmDevice &device_;
    CtrModeEngine &crypto_;
    const EccEngine &ecc_;
    FaultModel faults_;
    Hooks hooks_;
    PersistenceManager *persist_ = nullptr;

    /** phys -> spare medium redirections (chains permitted: a spare
     * can itself wear out and retire again). */
    FlatMap<Addr, Addr> remap_;
    FlatSet<Addr> poisoned_;

    Addr spareBase_ = 0;
    std::uint64_t sparesUsed_ = 0;

    std::uint64_t writesSinceSweep_ = 0;
    std::vector<Addr> patrolQueue_;
    std::size_t patrolIdx_ = 0;

    bool dedupSuspended_ = false;
    RasStats stats_;
};

} // namespace esd

#endif // ESD_RAS_RAS_ENGINE_HH
