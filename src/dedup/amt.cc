#include "dedup/amt.hh"

#include "common/logging.hh"
#include "common/stat_registry.hh"

namespace esd
{

void
Amt::registerStats(StatRegistry &reg, const std::string &prefix) const
{
    auto n = [&](const char *leaf) { return prefix + "." + leaf; };

    reg.addCounter(n("lookups"), stats_.lookups);
    reg.addCounter(n("cache_hits"), stats_.cacheHits);
    reg.addCounter(n("cache_misses"), stats_.cacheMisses);
    reg.addCounter(n("nvm_reads"), stats_.nvmReads);
    reg.addCounter(n("nvm_writebacks"), stats_.nvmWritebacks);
    reg.addCounter(n("updates"), stats_.updates);

    reg.addGauge(n("hit_rate"), [this] { return stats_.hitRate(); });
    reg.addGauge(n("mappings"), [this] {
        return static_cast<double>(mappingCount());
    });
    reg.addGauge(n("nvm_bytes"),
                 [this] { return static_cast<double>(nvmBytes()); });
}

Amt::Amt(const MetadataConfig &cfg, Addr nvm_base, unsigned shards)
    : cfg_(cfg), nvmBase_(nvm_base),
      entriesPerBlock_(kLineSize / cfg.amtEntryBytes), shards_(shards),
      assoc_(cfg.amtAssoc)
{
    esd_assert(entriesPerBlock_ > 0, "AMT entry larger than a line");
    if (shards_ == 0)
        esd_fatal("AMT needs at least one shard");
    std::uint64_t blocks = cfg.amtCacheBytes / kLineSize;
    if (blocks < assoc_)
        esd_fatal("AMT cache too small for %u ways", assoc_);
    std::uint64_t total_sets = blocks / assoc_;
    if (total_sets < shards_)
        esd_fatal("AMT cache too small for %u shards", shards_);
    setsPerShard_ = total_sets / shards_;
    sets_ = setsPerShard_ * shards_;
    ways_.resize(sets_ * assoc_);
}

Addr
Amt::entryNvmAddr(Addr logical) const
{
    // Each entry block occupies one NVMM line in the table region.
    return nvmBase_ + groupOf(lineIndex(logical)) * kLineSize;
}

Amt::Way *
Amt::findWay(std::uint64_t group)
{
    std::uint64_t base = setOf(group) * assoc_;
    for (unsigned w = 0; w < assoc_; ++w) {
        Way &way = ways_[base + w];
        if (way.valid && way.tag == group)
            return &way;
    }
    return nullptr;
}

std::optional<std::uint64_t>
Amt::fill(std::uint64_t group, bool dirty)
{
    std::optional<std::uint64_t> writeback;
    Way *way = findWay(group);
    if (!way) {
        std::uint64_t base = setOf(group) * assoc_;
        Way *lru = &ways_[base];
        for (unsigned w = 0; w < assoc_; ++w) {
            Way &cand = ways_[base + w];
            if (!cand.valid) {
                lru = &cand;
                break;
            }
            if (cand.lastUse < lru->lastUse)
                lru = &cand;
        }
        if (lru->valid && lru->dirty)
            writeback = lru->tag;
        way = lru;
        way->valid = true;
        way->tag = group;
        way->dirty = false;
    }
    way->dirty = way->dirty || dirty;
    way->lastUse = ++useClock_;
    return writeback;
}

Amt::LookupResult
Amt::lookup(Addr logical)
{
    LookupResult res;
    std::uint64_t line = lineIndex(logical);
    std::uint64_t group = groupOf(line);
    stats_.lookups.inc();

    auto resolve = [&]() {
        if (const PackedPhys *p = map_.find(line)) {
            res.found = true;
            res.phys = p->toAddr();
        }
    };

    if (Way *way = findWay(group)) {
        stats_.cacheHits.inc();
        way->lastUse = ++useClock_;
        res.cacheHit = true;
        resolve();
        return res;
    }

    stats_.cacheMisses.inc();
    // The entry block must be fetched from the NVMM-resident table.
    stats_.nvmReads.inc();
    res.effects.nvmRead = true;
    res.effects.nvmReadAddr = entryNvmAddr(logical);
    resolve();

    if (auto wb = fill(group, false)) {
        stats_.nvmWritebacks.inc();
        res.effects.nvmWriteback = true;
        res.effects.nvmWritebackAddr =
            nvmBase_ + *wb * kLineSize;
    }
    return res;
}

Amt::Slot
Amt::claim(Addr logical)
{
    Slot slot;
    slot.line = lineIndex(logical);
    auto [entry, fresh] = map_.emplace(slot.line);
    slot.entry = entry;
    slot.mapped = !fresh;
    return slot;
}

MetadataEffects
Amt::update(Addr logical, Addr phys)
{
    return update(claim(logical), phys);
}

MetadataEffects
Amt::update(const Slot &slot, Addr phys)
{
    MetadataEffects eff;
    stats_.updates.inc();

    *slot.entry = PackedPhys::fromAddr(phys);

    // Write-allocate without fetch: the controller write-combines the
    // entry into its block; only dirty evictions touch NVMM.
    if (auto wb = fill(groupOf(slot.line), true)) {
        stats_.nvmWritebacks.inc();
        eff.nvmWriteback = true;
        eff.nvmWritebackAddr = nvmBase_ + *wb * kLineSize;
    }
    return eff;
}

std::optional<Addr>
Amt::peek(Addr logical) const
{
    const PackedPhys *p = map_.find(lineIndex(logical));
    if (!p)
        return std::nullopt;
    return p->toAddr();
}

} // namespace esd
