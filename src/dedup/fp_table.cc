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
    : entryBytes_(entry_bytes), nvmBase_(nvm_base), shards_(shards),
      assoc_(assoc)
{
    esd_assert(entry_bytes > 0 && assoc > 0, "bad fp table geometry");
    std::uint64_t entries = cache_bytes / entry_bytes;
    if (entries < assoc)
        esd_fatal("fingerprint cache too small for %u ways", assoc);
    if (shards_ == 0)
        esd_fatal("fingerprint table needs at least one shard");
    std::uint64_t total_sets = entries / assoc;
    if (total_sets < shards_)
        esd_fatal("fingerprint cache too small for %u shards", shards_);
    setsPerShard_ = total_sets / shards_;
    sets_ = setsPerShard_ * shards_;
    parts_.resize(shards_);
    maps_.resize(shards_);
}

std::uint64_t
FpTable::setOf(std::uint64_t fp) const
{
    std::uint64_t h = fp;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ull;
    h ^= h >> 33;
    return h % setsPerShard_;
}

Addr
FpTable::entryNvmAddr(std::uint64_t fp, unsigned shard) const
{
    esd_assert(shard < shards_, "fp table shard out of range");
    // Bucket the index by fingerprint hash; entries pack into lines.
    std::uint64_t bucket = (shard * setsPerShard_ + setOf(fp)) * assoc_;
    return lineAlign(nvmBase_ + bucket * entryBytes_);
}

FpTable::Way *
FpTable::findWay(std::uint64_t fp, unsigned shard)
{
    esd_assert(shard < shards_, "fp table shard out of range");
    std::vector<Way> &part = parts_[shard];
    if (part.empty())
        return nullptr;
    Way *set = &part[setOf(fp) * assoc_];
    for (unsigned w = 0; w < assoc_; ++w) {
        if (set[w].valid && set[w].fp == fp)
            return &set[w];
    }
    return nullptr;
}

void
FpTable::fill(std::uint64_t fp, PackedPhys phys, unsigned shard)
{
    std::vector<Way> &part = parts_[shard];
    if (part.empty())
        part.resize(setsPerShard_ * assoc_);
    Way *set = &part[setOf(fp) * assoc_];
    Way *lru = set;
    for (unsigned w = 0; w < assoc_; ++w) {
        Way &cand = set[w];
        if (!cand.valid) {
            lru = &cand;
            break;
        }
        if (cand.lastUse < lru->lastUse)
            lru = &cand;
    }
    lru->valid = true;
    lru->fp = fp;
    lru->phys = phys;
    lru->lastUse = ++useClock_;
}

FpTable::LookupResult
FpTable::lookup(std::uint64_t fp, unsigned shard)
{
    LookupResult res;
    stats_.lookups.inc();

    if (Way *way = findWay(fp, shard)) {
        stats_.cacheHits.inc();
        way->lastUse = ++useClock_;
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
