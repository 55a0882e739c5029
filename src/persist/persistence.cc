#include "persist/persistence.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/stat_registry.hh"

namespace esd
{

PersistenceManager::PersistenceManager(const PersistenceConfig &cfg,
                                       PcmDevice &device, NvmStore &store,
                                       std::uint64_t seed)
    : cfg_(cfg), device_(device), store_(store),
      rng_(seed, 0x7e57ab1ecab1e5ull)
{
    if (cfg_.enabled && cfg_.crashAtWrite != 0)
        prepareCrashCapture();
}

void
PersistenceManager::prepareCrashCapture()
{
    if (writeIndex_ != 0)
        esd_fatal("persistence: crash capture must be prepared before "
                  "the first write (already at write %llu)",
                  static_cast<unsigned long long>(writeIndex_));
    capture_ = true;
    // The undo log exists only to build ADR crash images; under eADR
    // queued writes survive, so it would be dead weight on every
    // content write.
    collectUndo_ = cfg_.domain == PersistDomain::Adr;
}

void
PersistenceManager::armCrashOnNextWrite()
{
    if (!capture_)
        esd_fatal("persistence: crash armed at write %llu on a manager "
                  "not prepared for crash capture",
                  static_cast<unsigned long long>(writeIndex_ + 1));
    if (!crashed_)
        cfg_.crashAtWrite = writeIndex_ + 1;
}

std::uint64_t
PersistenceManager::effectiveCounterSlack() const
{
    if (cfg_.counterSlack != 0)
        return cfg_.counterSlack;
    // Un-journaled counter bumps per line are bounded by the
    // uncommitted window: a full epoch under ADR, the one torn group
    // under eADR.
    return cfg_.domain == PersistDomain::Adr ? cfg_.epochWrites : 1;
}

void
PersistenceManager::onWriteBegin(Tick now)
{
    ++writeIndex_;
    if (crashArmedAt(CrashPhase::PreBarrier))
        captureImage(CrashPhase::PreBarrier, now, durableBase(), 0);
}

void
PersistenceManager::noteLineWrite(Addr phys, const StoredLine *old,
                                  Tick complete)
{
    if (collectUndo_ && !crashed_) {
        UndoEntry u;
        u.phys = lineAlign(phys);
        u.hadOld = old != nullptr;
        if (old)
            u.old = *old;
        u.complete = complete;
        undo_.push_back(u);
    }
    if (crashArmedAt(CrashPhase::PostData)) {
        // Data installed (queued to the array), metadata group not yet
        // flushed: snapshot at the instant this data write retires, so
        // the write itself is durable under ADR too.
        captureImage(CrashPhase::PostData, complete, durableBase(), 0);
    }
}

Tick
PersistenceManager::onWriteEnd(Tick end_t)
{
    Profiler::Scope scope(prof_, Profiler::Persist);
    Tick extra = 0;

    // Post-data crashes on writes with no data write (dedup hits)
    // degrade to "end of scheme work, group unflushed".
    if (crashArmedAt(CrashPhase::PostData))
        captureImage(CrashPhase::PostData, end_t, durableBase(), 0);

    esd_assert(!capture_ || (groupCount_ == group_.size() &&
                             pendingCount_ == pending_.size() &&
                             committedCount_ == committed_.size()),
               "journal counts out of step with the kept records");

    bool boundary = writeIndex_ % cfg_.epochWrites == 0;
    bool buffer_full =
        pendingCount_ + groupCount_ >= cfg_.metadataBufferRecords;
    bool commit_now = boundary || buffer_full;

    extra += static_cast<Tick>(groupCount_) * cfg_.journalAppendNs;
    stats_.journalRecords.inc(groupCount_);

    // A forced commit since the last write end charges its barrier
    // here.
    extra += forcedExtra_;
    forcedExtra_ = 0;

    // ADR barriers wait for the WPQ first: a committed journal record
    // must never describe data the array does not hold. Under eADR the
    // WPQ is inside the persistence domain, so commits skip the drain.
    Tick commit_tick = commit_now && cfg_.domain == PersistDomain::Adr
                           ? device_.wpqDrainTick(end_t)
                           : end_t;

    if (crashArmedAt(CrashPhase::MidJournal)) {
        std::vector<JournalRecord> durable;
        std::vector<JournalRecord> tail;
        Tick tick = end_t;
        if (cfg_.domain == PersistDomain::Eadr) {
            // The flush buffer persists; only this group can tear.
            durable = durableBase();
            tail = group_;
        } else if (commit_now) {
            // Mid-commit: the drain finished, the journal flush tore.
            durable = committed_;
            tail = pending_;
            tail.insert(tail.end(), group_.begin(), group_.end());
            tick = commit_tick;
        } else {
            // ADR off-boundary: nothing new was being persisted.
            durable = committed_;
        }
        std::uint64_t keep =
            tail.empty()
                ? 0
                : rng_.below(static_cast<std::uint32_t>(tail.size() + 1));
        durable.insert(durable.end(), tail.begin(),
                       tail.begin() + static_cast<std::ptrdiff_t>(keep));
        captureImage(CrashPhase::MidJournal, tick, std::move(durable),
                     tail.size() - keep);
    }

    flushGroup();
    if (commit_now)
        extra += commit(end_t, commit_tick, boundary);
    return extra;
}

void
PersistenceManager::commitNow(Tick now)
{
    stats_.journalRecords.inc(groupCount_);
    forcedExtra_ += static_cast<Tick>(groupCount_) * cfg_.journalAppendNs;
    flushGroup();
    Tick commit_tick = cfg_.domain == PersistDomain::Adr
                           ? device_.wpqDrainTick(now)
                           : now;
    forcedExtra_ += commit(now, commit_tick, false);
}

void
PersistenceManager::flushGroup()
{
    // Under eADR the flush buffer is inside the persistence domain.
    pendingCount_ += groupCount_;
    groupCount_ = 0;
    pending_.insert(pending_.end(), group_.begin(), group_.end());
    group_.clear();
}

Tick
PersistenceManager::commit(Tick at, Tick commit_tick, bool boundary)
{
    Tick drain_wait = commit_tick - at;
    Tick extra = drain_wait + cfg_.barrierNs;
    stats_.drainWaitNs.inc(drain_wait);
    stats_.barrierNs.inc(drain_wait + cfg_.barrierNs);

    committedCount_ += pendingCount_;
    pendingCount_ = 0;
    committed_.insert(committed_.end(), pending_.begin(), pending_.end());
    pending_.clear();
    ++epochsCommitted_;
    stats_.epochCommits.inc();
    if (!boundary)
        stats_.earlyCommits.inc();
    if (epochCommitHook_)
        epochCommitHook_();
    pruneUndo(commit_tick);

    if (epochsCommitted_ % cfg_.checkpointEpochs == 0) {
        checkpoint();
        extra += cfg_.barrierNs;
        stats_.barrierNs.inc(cfg_.barrierNs);
    }
    return extra;
}

std::vector<JournalRecord>
PersistenceManager::durableBase() const
{
    std::vector<JournalRecord> out = committed_;
    if (cfg_.domain == PersistDomain::Eadr)
        out.insert(out.end(), pending_.begin(), pending_.end());
    return out;
}

void
PersistenceManager::captureImage(CrashPhase phase, Tick tick,
                                 std::vector<JournalRecord> records,
                                 std::uint64_t torn)
{
    image_.domain = cfg_.domain;
    image_.phase = phase;
    image_.crashWriteIndex = writeIndex_;
    image_.tick = tick;
    image_.inPlace = inPlace_;
    image_.checkpoint = checkpoint_;
    image_.records = std::move(records);
    image_.tornRecords = torn;

    // Surviving content: the store as of now, with (under ADR) every
    // write that had not drained by the crash tick unwound newest-
    // first, so re-written lines fall back to their last durable
    // state.
    FlatMap<Addr, StoredLine> content;
    for (Addr a : store_.residentAddrs())
        content[a] = *store_.peek(a);
    if (cfg_.domain == PersistDomain::Adr) {
        for (auto it = undo_.rbegin(); it != undo_.rend(); ++it) {
            if (it->complete <= tick)
                continue;
            if (it->hadOld)
                content[it->phys] = it->old;
            else
                content.erase(it->phys);
        }
    }
    image_.content.clear();
    image_.content.reserve(content.size());
    for (const auto &[a, line] : content)
        image_.content.emplace_back(a, line);

    image_.trueCounters.clear();
    if (crypto_) {
        image_.trueCounters.reserve(crypto_->table().size());
        crypto_->table().forEach([&](std::uint64_t line, std::uint64_t c) {
            image_.trueCounters.emplace_back(line * kLineSize, c);
        });
    }

    crashed_ = true;
}

void
PersistenceManager::pruneUndo(Tick tick)
{
    if (undo_.empty())
        return;
    undo_.erase(std::remove_if(undo_.begin(), undo_.end(),
                               [tick](const UndoEntry &u) {
                                   return u.complete <= tick;
                               }),
                undo_.end());
}

void
PersistenceManager::checkpoint()
{
    // Without capture there are no bodies to fold: only the image
    // reads checkpoint_, so the fold is counted, not run.
    for (const JournalRecord &r : committed_)
        applyRecord(checkpoint_, r);
    stats_.recordsFolded.inc(committedCount_);
    stats_.checkpoints.inc();
    committedCount_ = 0;
    committed_.clear();
}

void
PersistenceManager::registerStats(StatRegistry &reg,
                                  const std::string &prefix) const
{
    reg.addCounter(prefix + ".journal_records", stats_.journalRecords,
                   "metadata journal records emitted");
    reg.addCounter(prefix + ".epoch_commits", stats_.epochCommits,
                   "group commits (persist barriers)");
    reg.addCounter(prefix + ".early_commits", stats_.earlyCommits,
                   "commits forced by a full flush buffer");
    reg.addCounter(prefix + ".checkpoints", stats_.checkpoints,
                   "checkpoint folds truncating the journal");
    reg.addCounter(prefix + ".records_folded", stats_.recordsFolded,
                   "journal records truncated into checkpoints");
    reg.addCounter(prefix + ".barrier_ns", stats_.barrierNs,
                   "journaling overhead charged to writes, ns");
    reg.addCounter(prefix + ".drain_wait_ns", stats_.drainWaitNs,
                   "barrier time spent draining write queues, ns");
}

} // namespace esd
