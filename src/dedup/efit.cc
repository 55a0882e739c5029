#include "dedup/efit.hh"

#include "common/logging.hh"
#include "common/stat_registry.hh"

namespace esd
{

void
Efit::registerStats(StatRegistry &reg, const std::string &prefix) const
{
    auto n = [&](const char *leaf) { return prefix + "." + leaf; };

    reg.addCounter(n("lookups"), stats_.lookups);
    reg.addCounter(n("hits"), stats_.hits);
    reg.addCounter(n("misses"), stats_.misses);
    reg.addCounter(n("inserts"), stats_.inserts);
    reg.addCounter(n("evictions"), stats_.evictions);
    reg.addCounter(n("evictions_ref1"), stats_.evictionsRef1,
                   "victims whose referH was 1 (the LRCU target)");
    reg.addCounter(n("decay_rounds"), stats_.decayRounds);
    reg.addCounter(n("referh_saturations"), stats_.referHSaturations);

    reg.addGauge(n("hit_rate"), [this] { return stats_.hitRate(); });
    reg.addGauge(n("occupancy"),
                 [this] { return static_cast<double>(validEntries()); },
                 "valid entries currently cached");
    reg.addGauge(n("capacity"), [this] {
        return static_cast<double>(capacityEntries());
    });
}

Efit::Efit(const MetadataConfig &cfg, unsigned shards)
    : cfg_(cfg), shards_(shards), assoc_(cfg.efitAssoc)
{
    std::uint64_t entries = cfg.efitCacheBytes / cfg.efitEntryBytes;
    if (entries < assoc_)
        esd_fatal("EFIT cache too small for %u ways", assoc_);
    if (shards_ == 0)
        esd_fatal("EFIT needs at least one shard");
    std::uint64_t total_sets = entries / assoc_;
    if (total_sets < shards_)
        esd_fatal("EFIT cache too small for %u shards", shards_);
    // Round the capacity down to a whole number of sets per shard so
    // every channel owns an equal partition. One shard keeps the full
    // set count (unsharded behaviour unchanged).
    setsPerShard_ = total_sets / shards_;
    sets_ = setsPerShard_ * shards_;
    parts_.resize(shards_);
}

std::uint64_t
Efit::setOf(LineEcc ecc) const
{
    // Mix the 64-bit fingerprint before indexing: check bytes of
    // structured data are far from uniform.
    std::uint64_t h = ecc;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    return h % setsPerShard_;
}

Efit::Entry *
Efit::setBase(LineEcc ecc, unsigned shard)
{
    esd_assert(shard < shards_, "EFIT shard out of range");
    std::vector<Entry> &part = parts_[shard];
    return part.empty() ? nullptr : &part[setOf(ecc) * assoc_];
}

Efit::Entry *
Efit::lookup(LineEcc ecc, unsigned shard)
{
    stats_.lookups.inc();
    if (Entry *set = setBase(ecc, shard)) {
        for (unsigned w = 0; w < assoc_; ++w) {
            Entry &e = set[w];
            if (e.valid && e.ecc == ecc) {
                stats_.hits.inc();
                e.lastUse = ++useClock_;
                return &e;
            }
        }
    }
    stats_.misses.inc();
    return nullptr;
}

void
Efit::insert(LineEcc ecc, Addr phys, unsigned shard)
{
    stats_.inserts.inc();
    Entry *set = setBase(ecc, shard);
    if (!set) {
        parts_[shard].resize(setsPerShard_ * assoc_);
        set = setBase(ecc, shard);
    }

    // Reuse an invalid way when available; otherwise LRCU: evict the
    // way with the smallest referH (prioritising referH == 1), break
    // ties by least-recent use. With useLrcu disabled this degenerates
    // to plain LRU for the Fig. 18 ablation.
    Entry *victim = nullptr;
    for (unsigned w = 0; w < assoc_; ++w) {
        Entry &e = set[w];
        if (!e.valid) {
            victim = &e;
            break;
        }
        if (!victim) {
            victim = &e;
            continue;
        }
        bool better;
        if (cfg_.useLrcu) {
            better = e.referH < victim->referH ||
                     (e.referH == victim->referH &&
                      e.lastUse < victim->lastUse);
        } else {
            better = e.lastUse < victim->lastUse;
        }
        if (better)
            victim = &e;
    }

    if (victim->valid) {
        stats_.evictions.inc();
        if (victim->referH <= 1)
            stats_.evictionsRef1.inc();
    }

    victim->valid = true;
    victim->ecc = ecc;
    victim->phys = PackedPhys::fromAddr(phys);
    victim->referH = 1;
    victim->lastUse = ++useClock_;

    if (cfg_.decayPeriod > 0 &&
        ++insertsSinceDecay_ >= cfg_.decayPeriod) {
        insertsSinceDecay_ = 0;
        decayAll();
    }
}

bool
Efit::bumpRef(Entry *entry)
{
    esd_assert(entry && entry->valid, "bumpRef on invalid entry");
    if (entry->referH >= cfg_.referHMax) {
        stats_.referHSaturations.inc();
        return false;
    }
    ++entry->referH;
    return true;
}

void
Efit::erase(LineEcc ecc, Addr phys, unsigned shard)
{
    Entry *set = setBase(ecc, shard);
    if (!set)
        return;
    PackedPhys packed = PackedPhys::fromAddr(phys);
    for (unsigned w = 0; w < assoc_; ++w) {
        Entry &e = set[w];
        if (e.valid && e.ecc == ecc && e.phys == packed) {
            e.valid = false;
            return;
        }
    }
}

void
Efit::decayAll()
{
    stats_.decayRounds.inc();
    for (std::vector<Entry> &part : parts_) {
        for (Entry &e : part) {
            if (!e.valid)
                continue;
            if (e.referH > cfg_.decayDelta)
                e.referH -= cfg_.decayDelta;
            else
                e.referH = 1;
        }
    }
}

std::uint64_t
Efit::validEntries() const
{
    std::uint64_t n = 0;
    for (const std::vector<Entry> &part : parts_)
        for (const Entry &e : part)
            n += e.valid ? 1 : 0;
    return n;
}

std::vector<Efit::Entry>
Efit::snapshotValid() const
{
    std::vector<Entry> out;
    for (const std::vector<Entry> &part : parts_)
        for (const Entry &e : part)
            if (e.valid)
                out.push_back(e);
    return out;
}

} // namespace esd
