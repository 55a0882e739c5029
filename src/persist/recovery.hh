/**
 * @file
 * Post-crash recovery: replay the durable journal over the last
 * checkpoint, rebuild derived state, and repair the encryption
 * counters so a stale counter can never reuse a pad.
 *
 * Recovery consumes only what the persistence domain preserved (a
 * CrashImage) plus the AES key (which lives in the processor's secure
 * region and survives by assumption):
 *
 *   1. Replay — fold checkpoint + durable records in seq order into
 *      the AMT / refcount / fingerprint / counter / retirement images.
 *   2. Counter recovery — for every surviving line, probe candidate
 *      counters around the journaled value (decrypt with the
 *      candidate, accept when the plaintext re-encodes to the stored
 *      line ECC — the Osiris trick of using ECC as a counter oracle —
 *      or, failing any exact match, when the line code corrects the
 *      plaintext in at most two words: correctable media faults).
 *      The forward-safe counter is max(probed, journaled) + slack,
 *      where slack bounds the un-journaled bumps an epoch can hide;
 *      lines the journal never named start from the same slack floor.
 *      Monotonicity repair therefore never hands out a used pad.
 *   3. Reconciliation — drop AMT mappings to dead lines (a retired
 *      line that decrypts is live, since retirement only moves the
 *      medium; mappings to a line an uncorrectable error erased
 *      before the crash count as poisoned, not as a crash loss),
 *      re-derive refcounts from the surviving mappings (the AMT is
 *      authoritative; torn groups can leave counts skewed), and drop
 *      fingerprint entries whose physical line no longer carries a
 *      live reference so a stale entry can never fake a dedup hit.
 *
 * The result carries a machine-readable RecoverySummary (records
 * replayed, counters repaired, lines orphaned, dedup hits
 * invalidated, ...) and the pad-safety audit compares the recovered
 * counter floors against the image's ground-truth oracle.
 */

#ifndef ESD_PERSIST_RECOVERY_HH
#define ESD_PERSIST_RECOVERY_HH

#include <ostream>

#include "ecc/ecc_engine.hh"
#include "persist/persistence.hh"

namespace esd
{

/** Machine-readable recovery outcome. */
struct RecoverySummary
{
    std::uint64_t recordsReplayed = 0;   ///< durable records folded
    std::uint64_t tornRecords = 0;       ///< lost to the torn flush
    std::uint64_t countersProbed = 0;    ///< decrypt+ECC probe attempts
    std::uint64_t countersRepaired = 0;  ///< lines whose counter != journal
    std::uint64_t countersUnresolved = 0;///< lines no candidate decrypted
    std::uint64_t refcountsRepaired = 0; ///< lines re-derived from the AMT
    std::uint64_t mappingsInvalidated = 0;///< AMT entries to dead lines
    /** AMT entries to retired lines an uncorrectable error erased
     * before the crash: dropped, but lost to RAS, not to the crash. */
    std::uint64_t mappingsPoisoned = 0;
    std::uint64_t linesOrphaned = 0;     ///< live content, zero references
    std::uint64_t dedupHitsInvalidated = 0;///< fingerprint entries dropped
    std::uint64_t liveLines = 0;         ///< decryptable surviving lines
    std::uint64_t liveMappings = 0;      ///< AMT entries after repair

    /** No live state was lost: every surviving counter resolved and
     * every mapping not poisoned before the crash still points at a
     * decryptable line. */
    bool ok = true;
};

/** Rebuilt post-crash state. */
struct RecoveredState
{
    /** Logical -> physical, pruned to decryptable live lines. */
    FlatMap<Addr, Addr> amt;

    /** Physical -> refcount, re-derived from the recovered AMT. */
    FlatMap<Addr, std::uint32_t> refs;

    /** Physical -> fingerprint key, pruned to referenced lines. */
    FlatMap<Addr, std::uint64_t> fp;

    /** Counter addr -> counter that decrypts the surviving content. */
    FlatMap<Addr, std::uint64_t> ctrDecrypt;

    /** Counter addr -> forward-safe floor: the next write to the addr
     * must use a counter strictly above this. Addresses absent here
     * fall under the default floor (effective slack). */
    FlatMap<Addr, std::uint64_t> ctrNext;

    /** Default ctrNext floor for addresses the journal never named. */
    std::uint64_t ctrFloorDefault = 0;

    FlatSet<Addr> retired;

    RecoverySummary summary;
};

/**
 * Run recovery on @p img. @p crypto supplies the surviving AES key
 * (counter probes decrypt with it); @p cfg supplies slack and probe
 * bounds; @p ecc must be the engine the crashed run encoded with, or
 * every counter probe's re-encode comparison is meaningless.
 */
RecoveredState recoverFromImage(
    const CrashImage &img, const PersistenceConfig &cfg,
    const CtrModeEngine &crypto,
    const EccEngine &ecc = eccEngine(EccEngineKind::Hamming));

/** Pad-reuse audit against the image's ground-truth counter oracle. */
struct PadSafetyReport
{
    std::uint64_t countersChecked = 0;

    /** Addresses whose recovered floor is below the true counter —
     * a future write could reuse a pad. Must be zero. */
    std::uint64_t violations = 0;
};

PadSafetyReport auditPadSafety(const RecoveredState &st,
                               const CrashImage &img);

/** Serialize the machine-readable recovery summary as JSON. */
void writeRecoveryJson(std::ostream &os, const CrashImage &img,
                       const RecoveredState &st, int indent = 2);

} // namespace esd

#endif // ESD_PERSIST_RECOVERY_HH
