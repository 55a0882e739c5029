/**
 * @file
 * Crash-consistency subsystem: persistence domains, epoch group-commit
 * journaling, and deterministic crash injection.
 *
 * The PersistenceManager sits beside the write pipeline:
 *
 *   - Schemes report every crash-relevant metadata mutation through
 *     note() and every content-store write through noteLineWrite();
 *     records buffer per write and flush as an atomic group when the
 *     simulator calls onWriteEnd().
 *   - Every epoch_writes writes the buffered records commit behind one
 *     persist barrier. Under ADR the barrier first waits for the WPQ
 *     to drain (committed journal records therefore only ever describe
 *     data that reached the array); under eADR the flush buffer itself
 *     is inside the persistence domain, so flushed-but-uncommitted
 *     records survive a crash too.
 *   - The commit wait, barrier cost, and per-record append cost are
 *     returned from onWriteEnd() and charged to the triggering write,
 *     so journaling overhead shows up honestly in the latency
 *     histograms and the `persist` profiler phase.
 *   - Every checkpoint_epochs commits, the committed records fold into
 *     a CheckpointState and the journal truncates.
 *
 * Crash injection: `crash_at_write` + `crash_phase` place one
 * deterministic crash (mid-journal tear points are PCG-seeded off the
 * sim seed). The crash captures a CrashImage — exactly what the
 * configured domain preserves: surviving array content (ADR reverts
 * store writes still queued at the crash tick via an undo log), the
 * durable journal, the last checkpoint, plus a ground-truth counter
 * oracle for pad-reuse auditing. The simulation continues after the
 * snapshot; recovery is run offline on the image (see recovery.hh).
 *
 * Capture state is kept only when a crash can be captured: a manager
 * configured with crash_at_write != 0, or one whose owner called
 * prepareCrashCapture() before the first write. Any other manager
 * counts its journal instead of storing it — no record bodies, no
 * checkpoint fold, no undo log — and charges exactly the same
 * overhead, so every `persist.*` counter and latency is unchanged.
 */

#ifndef ESD_PERSIST_PERSISTENCE_HH
#define ESD_PERSIST_PERSISTENCE_HH

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "crypto/ctr_mode.hh"
#include "metrics/profiler.hh"
#include "nvm/nvm_store.hh"
#include "nvm/pcm_device.hh"
#include "persist/journal.hh"

namespace esd
{

class StatRegistry;

/** Journaling / crash-injection accounting. */
struct PersistStats
{
    Counter journalRecords;   ///< records emitted (all groups)
    Counter epochCommits;     ///< group commits (persist barriers)
    Counter earlyCommits;     ///< commits forced by a full flush buffer
    Counter checkpoints;      ///< checkpoint folds
    Counter recordsFolded;    ///< records truncated into checkpoints
    Counter barrierNs;        ///< total commit overhead charged, ns
    Counter drainWaitNs;      ///< portion of barrierNs spent draining WPQs
};

/** Everything the configured persistence domain preserves at the
 * instant of an injected crash. */
struct CrashImage
{
    PersistDomain domain = PersistDomain::Adr;
    CrashPhase phase = CrashPhase::PostData;

    /** 1-based index of the write the crash struck. */
    std::uint64_t crashWriteIndex = 0;

    /** Simulated time of the power cut. */
    Tick tick = 0;

    /** The crashed scheme keeps data in place (no AMT indirection). */
    bool inPlace = false;

    /** Last durable checkpoint. */
    CheckpointState checkpoint;

    /** Durable journal records beyond the checkpoint, seq order. */
    std::vector<JournalRecord> records;

    /** Records lost to the torn flush (mid-journal crashes). */
    std::uint64_t tornRecords = 0;

    /** Surviving content: the PCM array (ADR) or array + WPQ (eADR). */
    std::vector<std::pair<Addr, StoredLine>> content;

    /** Ground-truth encryption counters at the crash instant. Not an
     * input to recovery — the oracle pad-reuse audits compare
     * against. */
    std::vector<std::pair<Addr, std::uint64_t>> trueCounters;
};

/**
 * The crash-consistency engine threaded through the write pipeline.
 */
class PersistenceManager
{
  public:
    PersistenceManager(const PersistenceConfig &cfg, PcmDevice &device,
                       NvmStore &store, std::uint64_t seed);

    /** The scheme's counter engine: the crash oracle and the recovery
     * probe both need it. */
    void attachCrypto(const CtrModeEngine *crypto) { crypto_ = crypto; }

    /** Whether the attached scheme writes data in place (baseline) or
     * through the AMT — recorded into crash images. */
    void setInPlace(bool in_place) { inPlace_ = in_place; }

    /** Called at every epoch commit — mapped schemes promote their
     * deferred line reclamations here. */
    void setEpochCommitHook(std::function<void()> fn)
    {
        epochCommitHook_ = std::move(fn);
    }

    void setProfiler(Profiler *p) { prof_ = p; }

    // ------------------------------------------------------------------
    // Simulator-side write hooks.

    /** A logical write is starting at @p now (counts every write,
     * warmup included — crash injection indexes this sequence). */
    void onWriteBegin(Tick now);

    /**
     * The write's scheme work finished at @p end_t: flush its record
     * group, commit the epoch when due, run checkpoints.
     * @return extra nanoseconds of journaling overhead to charge to
     *         this write's latency.
     */
    Tick onWriteEnd(Tick end_t);

    // ------------------------------------------------------------------
    // Scheme/RAS-side journal emission.

    /** Append one metadata mutation record to the current group. */
    void
    note(JournalOp op, Addr a, Addr b = kInvalidAddr,
         std::uint64_t value = 0)
    {
        ++seq_;
        ++groupCount_;
        if (!capture_)
            return;
        JournalRecord r;
        r.op = op;
        r.a = a;
        r.b = b;
        r.value = value;
        r.seq = seq_;
        r.epoch = epochsCommitted_;
        group_.push_back(r);
    }

    /**
     * Commit the journal ahead of the epoch boundary: every flushed
     * group and the current write's records so far become durable, as
     * an early commit whose append, drain and barrier time the next
     * onWriteEnd() charges. Before the RAS engine erases a line an
     * uncorrectable error destroyed, it commits this way, so the
     * LineRetire record that explains the missing content survives
     * any later crash.
     */
    void commitNow(Tick now);

    /**
     * A content-store line write is in flight: capture the undo state
     * (what the array held before) so an ADR crash image can revert
     * writes that had not drained by the crash tick, and trigger the
     * post-data crash point.
     *
     * @param phys     store key being (over)written
     * @param old      previous content at @p phys, nullptr when absent
     * @param complete device tick the array write retires at
     */
    void noteLineWrite(Addr phys, const StoredLine *old, Tick complete);

    // ------------------------------------------------------------------
    // Crash state.

    bool crashed() const { return crashed_; }
    const CrashImage &image() const { return image_; }

    /** Keep crash-capture state (record bodies, checkpoint fold, ADR
     * undo log) from the first write on, for an owner that will arm a
     * crash later through armCrashOnNextWrite(). Call before the first
     * write. */
    void prepareCrashCapture();

    /** Whether this manager keeps the state a crash image is built
     * from — fixed before the first write. */
    bool capturesCrash() const { return capture_; }

    /** Arm the deterministic crash to strike on the next write seen by
     * this manager. The sharded pipeline injects crashes by *global*
     * write index, which only the trace demux can count — it prepares
     * every shard up front and arms the owning shard's manager just
     * before stepping the chosen write (shard configs carry
     * crash_at_write = 0). Fatal on a manager never prepared. */
    void armCrashOnNextWrite();

    /** Counter slack with the 0=auto default resolved (ADR: one epoch
     * of un-journaled bumps, eADR: one torn group). */
    std::uint64_t effectiveCounterSlack() const;

    const PersistenceConfig &config() const { return cfg_; }

    const PersistStats &stats() const { return stats_; }
    void resetStats() { stats_ = PersistStats{}; }

    /** Register journaling counters under "<prefix>.*". Call only on
     * persistence-enabled runs — registration changes the stats-JSON
     * schema. */
    void registerStats(StatRegistry &reg,
                       const std::string &prefix) const;

  private:
    struct UndoEntry
    {
        Addr phys = kInvalidAddr;
        bool hadOld = false;
        StoredLine old;
        Tick complete = 0;
    };

    bool
    crashArmedAt(CrashPhase phase) const
    {
        return !crashed_ && cfg_.crashAtWrite != 0 &&
               writeIndex_ == cfg_.crashAtWrite &&
               cfg_.crashPhase == phase;
    }

    /** Records durable with no further barrier: the committed journal,
     * plus the flush buffer under eADR. */
    std::vector<JournalRecord> durableBase() const;

    /** Snapshot what the domain preserves at @p tick into image_. */
    void captureImage(CrashPhase phase, Tick tick,
                      std::vector<JournalRecord> records,
                      std::uint64_t torn);

    /** Drop undo entries whose writes drained at or before @p tick. */
    void pruneUndo(Tick tick);

    /** Move the current write's records into the flush buffer. */
    void flushGroup();

    /** Commit the flush buffer at @p commit_tick (the WPQ drain under
     * ADR), reached at @p at; checkpoints when due.
     * @return the drain wait plus barrier time */
    Tick commit(Tick at, Tick commit_tick, bool boundary);

    void checkpoint();

    PersistenceConfig cfg_;
    PcmDevice &device_;
    NvmStore &store_;
    const CtrModeEngine *crypto_ = nullptr;
    Profiler *prof_ = nullptr;
    std::function<void()> epochCommitHook_;
    bool inPlace_ = false;

    Pcg32 rng_;

    std::uint64_t writeIndex_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t epochsCommitted_ = 0;

    /** Time of forced commits not yet charged to a write. */
    Tick forcedExtra_ = 0;

    /** A crash image can be captured: record bodies, the checkpoint
     * fold and (ADR) the undo log are kept. Otherwise only the
     * counts below are. */
    bool capture_ = false;
    bool collectUndo_ = false;

    /** Record counts of the three journal stages; equal to the
     * vectors' sizes whenever bodies are kept. */
    std::uint64_t groupCount_ = 0;
    std::uint64_t pendingCount_ = 0;
    std::uint64_t committedCount_ = 0;

    /** Current write's record group (atomic: flushes whole). */
    std::vector<JournalRecord> group_;

    /** Flushed groups awaiting the epoch-commit barrier (the eADR
     * metadata write-back buffer). */
    std::vector<JournalRecord> pending_;

    /** Committed journal beyond the last checkpoint. */
    std::vector<JournalRecord> committed_;

    CheckpointState checkpoint_;

    /** Store-content undo log (ADR crash capture only). */
    std::vector<UndoEntry> undo_;

    bool crashed_ = false;
    CrashImage image_;

    PersistStats stats_;
};

} // namespace esd

#endif // ESD_PERSIST_PERSISTENCE_HH
