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
    : cfg_(cfg),
      cache_("EFIT cache", cfg.efitCacheBytes / cfg.efitEntryBytes,
             cfg.efitAssoc, shards, 0xff51afd7ed558ccdull),
      sinceDecay_(shards)
{
}

Efit::Entry *
Efit::lookup(LineEcc ecc, unsigned shard)
{
    stats_.lookups.inc();
    Entry *e = cache_.find(shard, ecc,
                           [ecc](const Entry &w) { return w.ecc == ecc; });
    if (e) {
        stats_.hits.inc();
        cache_.touch(*e);
        return e;
    }
    stats_.misses.inc();
    return nullptr;
}

void
Efit::insert(LineEcc ecc, Addr phys, unsigned shard)
{
    stats_.inserts.inc();

    // LRCU: evict the way with the smallest referH (prioritising
    // referH == 1), break ties by least-recent use. With useLrcu
    // disabled this degenerates to plain LRU for the Fig. 18 ablation.
    Entry &victim =
        cfg_.useLrcu
            ? cache_.victim(shard, ecc,
                            [](const Entry &a, const Entry &b) {
                                return a.referH < b.referH ||
                                       (a.referH == b.referH &&
                                        a.lastUse < b.lastUse);
                            })
            : cache_.victim(shard, ecc);

    if (victim.valid) {
        stats_.evictions.inc();
        if (victim.referH <= 1)
            stats_.evictionsRef1.inc();
    }

    victim.valid = true;
    victim.ecc = ecc;
    victim.phys = PackedPhys::fromAddr(phys);
    victim.referH = 1;
    cache_.touch(victim);

    if (cfg_.decayPeriod > 0 && ++sinceDecay_[shard] >= cfg_.decayPeriod) {
        sinceDecay_[shard] = 0;
        decay(shard);
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
    PackedPhys packed = PackedPhys::fromAddr(phys);
    if (Entry *e = cache_.find(shard, ecc, [&](const Entry &w) {
            return w.ecc == ecc && w.phys == packed;
        }))
        e->valid = false;
}

void
Efit::decay(unsigned shard)
{
    stats_.decayRounds.inc();
    cache_.forEachValid(shard, [this](Entry &e) {
        if (e.referH > cfg_.decayDelta)
            e.referH -= cfg_.decayDelta;
        else
            e.referH = 1;
    });
}

} // namespace esd
