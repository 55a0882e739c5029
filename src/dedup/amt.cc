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
      entriesPerBlock_(kLineSize / cfg.amtEntryBytes),
      cache_("AMT cache", cfg.amtCacheBytes / kLineSize, cfg.amtAssoc,
             shards)
{
    esd_assert(entriesPerBlock_ > 0, "AMT entry larger than a line");
}

Amt::Way *
Amt::findWay(const Block &b)
{
    return cache_.find(b.part, b.group,
                       [&b](const Way &w) { return w.tag == b.group; });
}

std::optional<Addr>
Amt::fill(const Block &b, bool dirty)
{
    std::optional<Addr> writeback;
    Way *way = findWay(b);
    if (!way) {
        way = &cache_.victim(b.part, b.group);
        if (way->valid && way->dirty)
            writeback = nvmAddrOf({b.part, way->tag});
        way->valid = true;
        way->tag = b.group;
        way->dirty = false;
    }
    way->dirty = way->dirty || dirty;
    cache_.touch(*way);
    return writeback;
}

Amt::LookupResult
Amt::lookup(Addr logical)
{
    LookupResult res;
    std::uint64_t line = lineIndex(logical);
    Block b = blockOf(line);
    stats_.lookups.inc();

    auto resolve = [&]() {
        if (const PackedPhys *p = map_.find(line)) {
            res.found = true;
            res.phys = p->toAddr();
        }
    };

    if (Way *way = findWay(b)) {
        stats_.cacheHits.inc();
        cache_.touch(*way);
        res.cacheHit = true;
        resolve();
        return res;
    }

    stats_.cacheMisses.inc();
    // The entry block must be fetched from the NVMM-resident table.
    stats_.nvmReads.inc();
    res.effects.nvmRead = true;
    res.effects.nvmReadAddr = nvmAddrOf(b);
    resolve();

    if (auto wb = fill(b, false)) {
        stats_.nvmWritebacks.inc();
        res.effects.nvmWriteback = true;
        res.effects.nvmWritebackAddr = *wb;
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
    if (auto wb = fill(blockOf(slot.line), true)) {
        stats_.nvmWritebacks.inc();
        eff.nvmWriteback = true;
        eff.nvmWritebackAddr = *wb;
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
