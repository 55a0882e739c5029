#include "dedup/esd_plus.hh"

#include "common/stat_registry.hh"

namespace esd
{

namespace
{

/** Content-cache capacity: 64 lines = 4 KB of SRAM. */
constexpr unsigned kContentLines = 64;

} // namespace

EsdPlusScheme::EsdPlusScheme(const SimConfig &cfg, PcmDevice &device,
                             NvmStore &store)
    : EsdScheme(cfg, device, store),
      hotThreshold_(2),
      // One set of 64 / N ways per channel.
      content_("ESD+ content cache", kContentLines,
               kContentLines / device.channelCount(), device.channelCount())
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
                 [this] { return static_cast<double>(contentCacheSize()); },
                 "resident hot lines");
    reg.addGauge("esd.content_cache.capacity",
                 [this] { return static_cast<double>(content_.capacity()); },
                 "content-cache capacity in lines");
}

EsdPlusScheme::CachedLine *
EsdPlusScheme::findContent(Addr phys)
{
    phys = lineAlign(phys);
    return content_.find(channelOf(phys), 0, [phys](const CachedLine &c) {
        return c.phys == phys;
    });
}

void
EsdPlusScheme::installContent(Addr phys, const CacheLine &data)
{
    phys = lineAlign(phys);
    CachedLine *line = findContent(phys);
    if (!line) {
        line = &content_.victim(channelOf(phys), 0);
        line->valid = true;
        line->phys = phys;
    }
    line->data = data;
    content_.touch(*line);
}

void
EsdPlusScheme::eraseContent(Addr phys)
{
    if (CachedLine *line = findContent(phys))
        line->valid = false;
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
    if (CachedLine *cached = findContent(cand)) {
        ++contentHits_;
        content_.touch(*cached);
        w.t += cfg_.crypto.compareLatency;
        stats_.metadataEnergy += cfg_.crypto.compareEnergy;
        return recordVerdict(w, linesEqualFast(cached->data, data));
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
