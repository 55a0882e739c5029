#include "dedup/esd_plus.hh"

#include "common/stat_registry.hh"

namespace esd
{

EsdPlusScheme::EsdPlusScheme(const SimConfig &cfg, PcmDevice &device,
                             NvmStore &store)
    : EsdScheme(cfg, device, store),
      hotThreshold_(2),
      capacity_(64)  // 64 lines = 4 KB of SRAM
{
}

void
EsdPlusScheme::registerStats(StatRegistry &reg) const
{
    EsdScheme::registerStats(reg);
    reg.addGauge("esd.content_cache.hits",
                 [this] { return static_cast<double>(contentHits_); },
                 "compares answered on chip, no device read");
    reg.addGauge("esd.content_cache.size",
                 [this] { return static_cast<double>(lru_.size()); },
                 "resident hot lines");
    reg.addGauge("esd.content_cache.capacity",
                 [this] { return static_cast<double>(capacity_); },
                 "content-cache capacity in lines");
}

const CacheLine *
EsdPlusScheme::findContent(Addr phys)
{
    auto it = index_.find(lineAlign(phys));
    if (it == index_.end())
        return nullptr;
    lru_.splice(lru_.begin(), lru_, it->second);
    return &it->second->data;
}

void
EsdPlusScheme::installContent(Addr phys, const CacheLine &data)
{
    phys = lineAlign(phys);
    auto it = index_.find(phys);
    if (it != index_.end()) {
        it->second->data = data;
        lru_.splice(lru_.begin(), lru_, it->second);
        return;
    }
    if (lru_.size() >= capacity_) {
        index_.erase(lru_.back().phys);
        lru_.pop_back();
    }
    lru_.push_front(CachedLine{phys, data});
    index_[phys] = lru_.begin();
}

void
EsdPlusScheme::eraseContent(Addr phys)
{
    auto it = index_.find(lineAlign(phys));
    if (it != index_.end()) {
        lru_.erase(it->second);
        index_.erase(it);
    }
}

void
EsdPlusScheme::onPhysFreed(Addr phys)
{
    eraseContent(phys);
    MappedDedupScheme::onPhysFreed(phys);
}

bool
EsdPlusScheme::compareCandidate(WriteCtx &w, const Efit::Entry &entry,
                                const CacheLine &data)
{
    Addr cand = entry.phys.toAddr();

    // Fast path: hot candidate content is on chip — the compare costs
    // comparator latency only, no device read.
    if (const CacheLine *cached = findContent(cand)) {
        ++contentHits_;
        w.t += cfg_.crypto.compareLatency;
        stats_.metadataEnergy += cfg_.crypto.compareEnergy;
        return recordVerdict(w, linesEqualFast(*cached, data));
    }

    // Slow path: fetch and compare, as plain ESD, then promote
    // proven-hot lines into the content cache.
    CacheLine plain;
    bool equal = timedCompare(w, cand, data, &plain);
    if (equal && entry.referH + 1 >= hotThreshold_)
        installContent(cand, plain);
    return equal;
}

} // namespace esd
