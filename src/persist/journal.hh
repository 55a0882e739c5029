/**
 * @file
 * The write-ahead metadata journal: record format and the shared
 * replay fold.
 *
 * Every scheme mutation that must survive a crash — an AMT update, a
 * refcount change, an EFIT/fingerprint insert or evict, a counter-mode
 * encryption counter bump, a RAS line retirement — emits one ordered
 * JournalRecord. Records buffer per write, flush as an atomic group at
 * the end of the write, and become durable at the next epoch commit
 * (one persist barrier per epoch, not per record — the group-commit
 * amortization). Checkpoints fold the committed prefix into a compact
 * CheckpointState with the exact same applyRecord() fold that recovery
 * uses, so a checkpoint is by construction equivalent to replaying the
 * truncated records.
 */

#ifndef ESD_PERSIST_JOURNAL_HH
#define ESD_PERSIST_JOURNAL_HH

#include <cstdint>

#include "common/flat_map.hh"
#include "common/types.hh"

namespace esd
{

/** What kind of metadata mutation a journal record describes. */
enum class JournalOp : std::uint8_t
{
    AmtUpdate,   ///< a = logical addr, b = new phys
    RefAdd,      ///< a = phys gaining a reference
    RefRelease,  ///< a = phys losing a reference
    EfitInsert,  ///< a = phys, value = fingerprint key (ECC/hash)
    EfitEvict,   ///< a = phys whose fingerprint entry died
    CtrBump,     ///< a = counter addr, value = new counter value
    LineRetire,  ///< a = phys retired, b = spare medium
    DataWrite,   ///< a = line written in place (no indirection)
};

/** One ordered journal record. */
struct JournalRecord
{
    JournalOp op = JournalOp::DataWrite;
    Addr a = kInvalidAddr;
    Addr b = kInvalidAddr;
    std::uint64_t value = 0;

    /** Global emission order (strictly increasing). */
    std::uint64_t seq = 0;

    /** Group-commit epoch the record was emitted in. */
    std::uint64_t epoch = 0;
};

/**
 * The durable table images a checkpoint holds — also the accumulator
 * recovery replays the journal into.
 */
struct CheckpointState
{
    /** Logical line -> physical line (AMT image). */
    FlatMap<Addr, Addr> amt;

    /** Physical line -> reference count. */
    FlatMap<Addr, std::uint32_t> refs;

    /** Physical line -> fingerprint key (surviving EFIT/FP entries). */
    FlatMap<Addr, std::uint64_t> fp;

    /** Counter addr -> last journaled encryption counter. */
    FlatMap<Addr, std::uint64_t> ctr;

    /** Physical lines retired to the spare region. */
    FlatSet<Addr> retired;

    /** All records with seq <= this are folded in. */
    std::uint64_t seq = 0;
};

/** Fold one record into @p st (checkpointing and recovery share
 * this — the single definition of what a record means). */
void applyRecord(CheckpointState &st, const JournalRecord &r);

} // namespace esd

#endif // ESD_PERSIST_JOURNAL_HH
