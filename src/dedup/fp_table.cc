#include "dedup/fp_table.hh"

#include "common/logging.hh"
#include "common/stat_registry.hh"

namespace esd
{

void
FpTable::registerStats(StatRegistry &reg, const std::string &prefix) const
{
    auto n = [&](const char *leaf) { return prefix + "." + leaf; };

    reg.addCounter(n("lookups"), stats_.lookups);
    reg.addCounter(n("cache_hits"), stats_.cacheHits);
    reg.addCounter(n("cache_misses"), stats_.cacheMisses);
    reg.addCounter(n("nvm_lookups"), stats_.nvmLookups);
    reg.addCounter(n("nvm_found_after_miss"), stats_.nvmFoundAfterMiss);
    reg.addCounter(n("nvm_stores"), stats_.nvmStores);
    reg.addCounter(n("erases"), stats_.erases);

    reg.addGauge(n("hit_rate"),
                 [this] { return stats_.cacheHitRate(); });
    reg.addGauge(n("nvm_entries"), [this] {
        return static_cast<double>(nvmEntries());
    });
    reg.addGauge(n("nvm_bytes"),
                 [this] { return static_cast<double>(nvmBytes()); });
}

FpTable::FpTable(std::uint64_t cache_bytes, std::uint64_t entry_bytes,
                 unsigned assoc, Addr nvm_base, unsigned shards)
    : entryBytes_(entry_bytes), nvmBase_(nvm_base),
      cache_("fingerprint cache", cache_bytes / entry_bytes, assoc, shards,
             0xc4ceb9fe1a85ec53ull),
      maps_(shards)
{
}

Addr
FpTable::entryNvmAddr(std::uint64_t fp, unsigned shard) const
{
    // Bucket the index by fingerprint hash; entries pack into lines.
    std::uint64_t bucket = cache_.setOf(fp) * cache_.assoc();
    return cache_.nvmLine(nvmBase_, shard, bucket * entryBytes_);
}

void
FpTable::fill(std::uint64_t fp, PackedPhys phys, unsigned shard)
{
    Way &way = cache_.victim(shard, fp);
    way.valid = true;
    way.fp = fp;
    way.phys = phys;
    cache_.touch(way);
}

FpTable::LookupResult
FpTable::lookup(std::uint64_t fp, unsigned shard)
{
    LookupResult res;
    stats_.lookups.inc();

    if (Way *way = findWay(fp, shard)) {
        stats_.cacheHits.inc();
        cache_.touch(*way);
        res.found = true;
        res.cacheHit = true;
        res.phys = way->phys.toAddr();
        return res;
    }

    stats_.cacheMisses.inc();
    // Full dedup must consult the NVMM-resident index before declaring
    // the line unique — this is the fingerprint NVMM_lookup.
    stats_.nvmLookups.inc();
    res.nvmLookup = true;
    res.nvmAddr = entryNvmAddr(fp, shard);

    auto &map = maps_[shard];
    auto it = map.find(fp);
    if (it == map.end())
        return res;

    stats_.nvmFoundAfterMiss.inc();
    res.found = true;
    res.phys = it->second.toAddr();
    fill(fp, it->second, shard);
    return res;
}

void
FpTable::insert(std::uint64_t fp, Addr phys, Addr &nvm_store_addr,
                unsigned shard)
{
    PackedPhys packed = PackedPhys::fromAddr(phys);
    maps_[shard][fp] = packed;
    fill(fp, packed, shard);
    stats_.nvmStores.inc();
    nvm_store_addr = entryNvmAddr(fp, shard);
}

void
FpTable::erase(std::uint64_t fp, unsigned shard)
{
    stats_.erases.inc();
    maps_[shard].erase(fp);
    if (Way *way = findWay(fp, shard))
        way->valid = false;
}

} // namespace esd
