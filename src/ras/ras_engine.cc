#include "ras/ras_engine.hh"

#include <algorithm>

#include "common/stat_registry.hh"
#include "persist/persistence.hh"

namespace esd
{

RasEngine::RasEngine(const RasConfig &cfg, NvmStore &store,
                     PcmDevice &device, CtrModeEngine &crypto,
                     const EccEngine &ecc, std::uint64_t seed)
    : cfg_(cfg), store_(store), device_(device), crypto_(crypto),
      ecc_(ecc), faults_(cfg, store, seed)
{
    // Spare region: the top of the device, never handed out by normal
    // allocation (LineStore bumps from 0; metadata regions sit at fixed
    // bases well below the top).
    std::uint64_t capacity = device_.config().capacityBytes;
    std::uint64_t spare_bytes = cfg_.spareRegionLines * kLineSize;
    spareBase_ = spare_bytes >= capacity ? 0 : capacity - spare_bytes;
}

Addr
RasEngine::resolve(Addr phys) const
{
    if (remap_.empty())
        return phys;
    Addr medium = lineAlign(phys);
    for (auto it = remap_.find(medium); it != remap_.end();
         it = remap_.find(medium)) {
        medium = it->second;
    }
    return medium;
}

Addr
RasEngine::allocSpare()
{
    if (sparesUsed_ >= cfg_.spareRegionLines) {
        stats_.spareExhausted.inc();
        return kInvalidAddr;
    }
    return spareBase_ + (sparesUsed_++) * kLineSize;
}

Addr
RasEngine::retire(Addr phys)
{
    Addr medium = resolve(phys);
    Addr spare = allocSpare();
    if (spare == kInvalidAddr)
        return kInvalidAddr;
    remap_[medium] = spare;
    stats_.linesRetired.inc();
    if (persist_)
        persist_->note(JournalOp::LineRetire, lineAlign(phys), spare);
    return spare;
}

void
RasEngine::noteScrubRewrite(Addr phys, bool had_old,
                            const StoredLine &old, Tick complete)
{
    if (!persist_)
        return;
    persist_->note(JournalOp::CtrBump, lineAlign(phys), kInvalidAddr,
                   crypto_.counter(phys));
    persist_->noteLineWrite(phys, had_old ? &old : nullptr, complete);
}

void
RasEngine::accountBlast(Addr phys)
{
    std::uint64_t refs = 1;
    if (hooks_.refCountOf)
        refs = std::max<std::uint64_t>(hooks_.refCountOf(phys), 1);
    stats_.blastRadiusRefs.inc(refs);
}

void
RasEngine::maybeSuspend()
{
    if (cfg_.dedupSuspendUes != 0 &&
        stats_.ueEvents.value() >= cfg_.dedupSuspendUes) {
        dedupSuspended_ = true;
    }
}

void
RasEngine::beforeRead(Addr phys)
{
    if (cfg_.enabled)
        faults_.onRead(phys);
}

bool
RasEngine::storedIntact(Addr phys)
{
    auto stored = store_.read(phys);
    if (!stored)
        return false;
    // ECC covers the plaintext; counter-mode decryption maps each
    // flipped ciphertext bit to exactly one plaintext bit, so decoding
    // after decryption sees exactly the injected faults.
    CacheLine plain = crypto_.decrypt(phys, stored->data);
    return ecc_.decodeLine(plain, stored->ecc).status !=
           EccStatus::Uncorrectable;
}

NvmAccessResult
RasEngine::storeAndWrite(Addr phys, const CacheLine &cipher, LineEcc ecc,
                         Tick arrival)
{
    store_.write(phys, cipher, ecc);
    if (!cfg_.enabled)
        return device_.access(OpType::Write, phys, arrival);

    // A fresh write gives the line defined content again.
    poisoned_.erase(lineAlign(phys));

    Addr medium = resolve(phys);
    faults_.onWrite(phys, medium, device_.wear().lineWrites(medium));
    NvmAccessResult res = device_.access(OpType::Write, medium, arrival);
    patrolTick(res.complete);
    if (cfg_.writeVerifyRetries == 0)
        return res;

    Tick t = res.complete;
    for (std::uint64_t attempt = 0;; ++attempt) {
        stats_.writeVerifyReads.inc();
        NvmAccessResult rd = device_.access(OpType::Read, medium, t);
        t = rd.complete;
        if (storedIntact(phys)) {
            res.complete = t;
            return res;
        }
        if (attempt >= cfg_.writeVerifyRetries)
            break;
        stats_.writeVerifyRetries.inc();
        t += cfg_.writeVerifyBackoffNs;
        store_.write(phys, cipher, ecc);
        faults_.onWrite(phys, medium, device_.wear().lineWrites(medium));
        NvmAccessResult wr = device_.access(OpType::Write, medium, t);
        res.issuerStall += wr.issuerStall;
        t = wr.complete;
    }

    // Persistently failing medium: retire it and rewrite on the spare
    // slot, which carries none of the old slot's stuck cells.
    stats_.writeVerifyRetirements.inc();
    Addr spare = retire(phys);
    if (spare == kInvalidAddr) {
        // No spare left — the write is lost where it stands.
        stats_.ueEvents.inc();
        accountBlast(phys);
        store_.erase(phys);
        poisoned_.insert(lineAlign(phys));
        if (hooks_.onRetire)
            hooks_.onRetire(lineAlign(phys));
        maybeSuspend();
        res.complete = t;
        return res;
    }
    store_.write(phys, cipher, ecc);
    faults_.onWrite(phys, spare, device_.wear().lineWrites(spare));
    NvmAccessResult wr = device_.access(OpType::Write, spare, t);
    res.issuerStall += wr.issuerStall;
    res.complete = wr.complete;
    return res;
}

void
RasEngine::demandScrub(Addr phys, const CacheLine &plain, LineEcc ecc,
                       Tick now)
{
    if (!cfg_.enabled || !cfg_.demandScrub)
        return;
    const StoredLine *prev = store_.peek(phys);
    bool had_old = prev != nullptr;
    StoredLine old;
    if (had_old)
        old = *prev;
    CacheLine cipher = crypto_.encrypt(phys, plain);
    store_.write(phys, cipher, ecc);
    Addr medium = resolve(phys);
    faults_.onWrite(phys, medium, device_.wear().lineWrites(medium));
    stats_.demandScrubWrites.inc();
    // Posted write-back: charges device traffic/energy, not the read.
    NvmAccessResult wr = device_.access(OpType::Write, medium, now);
    noteScrubRewrite(phys, had_old, old, wr.complete);
}

void
RasEngine::onUncorrectable(Addr phys, Tick now)
{
    if (!cfg_.enabled)
        return;
    stats_.ueEvents.inc();
    accountBlast(phys);
    // The erase below must not outrun the retire record: a crash image
    // with the content gone but no durable LineRetire shows a mapped
    // line that is neither retired nor present.
    if (retire(phys) != kInvalidAddr && persist_)
        persist_->commitNow(now);
    store_.erase(phys);
    poisoned_.insert(lineAlign(phys));
    if (hooks_.onRetire)
        hooks_.onRetire(lineAlign(phys));
    maybeSuspend();
}

void
RasEngine::scrubLine(Addr phys, Tick now)
{
    stats_.patrolLineScrubs.inc();
    faults_.onRead(phys);
    Addr medium = resolve(phys);
    NvmAccessResult rd = device_.access(OpType::Read, medium, now);

    auto stored = store_.read(phys);
    if (!stored)
        return;
    CacheLine plain = crypto_.decrypt(phys, stored->data);
    LineDecodeResult dec = ecc_.decodeLine(plain, stored->ecc);
    if (dec.status == EccStatus::Uncorrectable) {
        stats_.patrolUncorrectable.inc();
        onUncorrectable(phys, rd.complete);
        return;
    }
    if (dec.correctedWords == 0)
        return;

    stats_.patrolCorrected.inc();
    StoredLine old = *stored;
    CacheLine cipher = crypto_.encrypt(phys, dec.line);
    store_.write(phys, cipher, dec.ecc);
    faults_.onWrite(phys, medium, device_.wear().lineWrites(medium));
    NvmAccessResult wr = device_.access(OpType::Write, medium, rd.complete);
    noteScrubRewrite(phys, true, old, wr.complete);
}

void
RasEngine::patrolTick(Tick now)
{
    if (!cfg_.enabled || cfg_.patrolIntervalWrites == 0)
        return;
    if (++writesSinceSweep_ < cfg_.patrolIntervalWrites)
        return;
    writesSinceSweep_ = 0;
    stats_.patrolSweeps.inc();

    for (std::uint64_t i = 0; i < cfg_.patrolLinesPerSweep; ++i) {
        if (patrolIdx_ >= patrolQueue_.size()) {
            patrolQueue_ = store_.residentAddrs();
            patrolIdx_ = 0;
            if (patrolQueue_.empty())
                return;
        }
        Addr phys = patrolQueue_[patrolIdx_++];
        // The snapshot may be stale: skip lines that died or were
        // poisoned since.
        if (!store_.contains(phys) || isPoisoned(phys))
            continue;
        scrubLine(phys, now);
    }
}

void
RasEngine::resetStats()
{
    // Assign in place: registered stat references stay valid.
    stats_ = RasStats{};
    faults_.resetStats();
}

void
RasEngine::registerStats(StatRegistry &reg, const std::string &prefix) const
{
    reg.addCounter(prefix + ".demand_scrub_writes",
                   stats_.demandScrubWrites,
                   "corrected reads written back clean");
    reg.addCounter(prefix + ".patrol_sweeps", stats_.patrolSweeps,
                   "patrol-scrub sweeps started");
    reg.addCounter(prefix + ".patrol_line_scrubs", stats_.patrolLineScrubs,
                   "lines examined by the patrol scrubber");
    reg.addCounter(prefix + ".patrol_corrected", stats_.patrolCorrected,
                   "patrol reads that needed correction");
    reg.addCounter(prefix + ".patrol_uncorrectable",
                   stats_.patrolUncorrectable,
                   "uncorrectable errors first seen by the patrol");
    reg.addCounter(prefix + ".write_verify_reads", stats_.writeVerifyReads,
                   "write-verify read-backs issued");
    reg.addCounter(prefix + ".write_verify_retries",
                   stats_.writeVerifyRetries,
                   "failed verifies that re-wrote the line");
    reg.addCounter(prefix + ".write_verify_retirements",
                   stats_.writeVerifyRetirements,
                   "write-verify retry exhaustions");
    reg.addCounter(prefix + ".ue_events", stats_.ueEvents,
                   "uncorrectable errors across all paths");
    reg.addCounter(prefix + ".lines_retired", stats_.linesRetired,
                   "lines remapped into the spare region");
    reg.addCounter(prefix + ".blast_radius_refs", stats_.blastRadiusRefs,
                   "logical lines lost to UEs, refcount-weighted");
    reg.addCounter(prefix + ".spare_exhausted", stats_.spareExhausted,
                   "retirements denied for lack of spare lines");
    reg.addGauge(prefix + ".dedup_suspended",
                 [this] { return dedupSuspended_ ? 1.0 : 0.0; },
                 "1 once dedup was suspended by the UE threshold");
    faults_.registerStats(reg, prefix + ".faults");
}

} // namespace esd
