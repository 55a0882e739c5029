#include "nvm/pcm_device.hh"

#include "common/logging.hh"
#include "common/stat_registry.hh"

namespace esd
{

PcmDevice::PcmDevice(const PcmConfig &cfg, const ChannelConfig &channels)
    : cfg_(cfg), chCfg_(channels)
{
    if (cfg_.banksPerChannel == 0)
        esd_fatal("PCM device needs at least one bank");
    if (chCfg_.count == 0)
        esd_fatal("PCM device needs at least one channel");
    if (cfg_.writeQueueDepth == 0)
        esd_fatal("write queue depth must be at least 1");

    unsigned total = totalBanks();
    banks_.assign(total, 0);
    bankStats_.resize(total);
    readChain_.assign(total, 0);
    openRow_.assign(total, ~std::uint64_t{0});
    channelStats_.resize(chCfg_.count);
    wpqs_.resize(chCfg_.count);
}

void
PcmDevice::registerStats(StatRegistry &reg) const
{
    reg.addCounter("pcm.reads", stats_.reads);
    reg.addCounter("pcm.writes", stats_.writes,
                   "writes issued to the array");
    reg.addCounter("pcm.writes_offered", stats_.writesOffered,
                   "write requests presented to the WPQs");
    reg.addCounter("pcm.writes_coalesced", stats_.writesCoalesced,
                   "offered writes merged into a pending WPQ entry");
    reg.addCounter("pcm.write_queue_stalls", stats_.writeQueueStalls,
                   "writes that back-pressured the issuer");
    reg.addCounter("pcm.row_hits", stats_.rowHits);
    reg.addCounter("pcm.gap_moves", stats_.gapMoves);
    reg.addGauge("pcm.energy.read_pj", [this] { return stats_.readEnergy; });
    reg.addGauge("pcm.energy.write_pj",
                 [this] { return stats_.writeEnergy; });
    reg.addGauge("pcm.write_queue.occupancy", [this] {
        std::size_t n = 0;
        for (const ChannelWpq &q : wpqs_)
            n += q.completions.size();
        return static_cast<double>(n);
    }, "outstanding writes at sampling time, all channels");

    for (std::size_t c = 0; c < channelStats_.size(); ++c) {
        std::string p = "pcm.ch" + std::to_string(c) + ".";
        const ChannelStats &s = channelStats_[c];
        reg.addCounter(p + "reads", s.reads);
        reg.addCounter(p + "writes", s.writes);
        reg.addCounter(p + "coalesced_writes", s.coalescedWrites);
        reg.addCounter(p + "wpq_stalls", s.wpqStalls);
        reg.addGauge(p + "queue_wait_ns", [&s] { return s.queueWaitNs; },
                     "accumulated bank-queue wait on this channel");
        reg.addGauge(p + "busy_ns", [&s] { return s.busyNs; },
                     "accumulated service time on this channel");
        const ChannelWpq &q = wpqs_[c];
        reg.addGauge(p + "wpq.occupancy", [&q] {
            return static_cast<double>(q.completions.size());
        }, "outstanding writes at sampling time");
    }

    for (std::size_t b = 0; b < bankStats_.size(); ++b) {
        std::string p = "pcm.bank" + std::to_string(b) + ".";
        const BankStats &s = bankStats_[b];
        reg.addCounter(p + "reads", s.reads);
        reg.addCounter(p + "writes", s.writes);
        reg.addGauge(p + "queue_wait_ns", [&s] { return s.queueWaitNs; },
                     "accumulated bank-queue wait");
        reg.addGauge(p + "busy_ns", [&s] { return s.busyNs; },
                     "accumulated service time");
    }
}

unsigned
PcmDevice::bankOf(Addr addr) const
{
    // Line-interleaved: consecutive lines rotate over the channels,
    // and within a channel over its banks, spreading streams across
    // the full channel x bank parallelism.
    std::uint64_t line = lineIndex(addr);
    unsigned ch = static_cast<unsigned>(line % chCfg_.count);
    unsigned local = static_cast<unsigned>(
        (line / chCfg_.count) % cfg_.banksPerChannel);
    return ch * cfg_.banksPerChannel + local;
}

void
PcmDevice::drainCompleted(unsigned ch, Tick now)
{
    ChannelWpq &q = wpqs_[ch];
    while (!q.completions.empty() && q.completions.top().first <= now) {
        const auto &[tick, line] = q.completions.top();
        // The map entry tracks the newest pending write to the line;
        // only remove it when this heap entry is that write.
        auto it = q.pending.find(line);
        if (it != q.pending.end() && it->second == tick)
            q.pending.erase(it);
        q.completions.pop();
    }
}

Addr
PcmDevice::wearAddrOf(Addr addr)
{
    if (!cfg_.startGapEnabled)
        return lineAlign(addr);

    std::uint64_t line = lineIndex(addr);
    std::uint64_t region = line / cfg_.startGapRegionLines;
    std::uint64_t offset = line % cfg_.startGapRegionLines;

    auto it = gapRegions_.find(region);
    if (it == gapRegions_.end()) {
        it = gapRegions_
                 .emplace(region, std::make_unique<StartGap>(
                                      cfg_.startGapRegionLines,
                                      cfg_.gapMovePeriod))
                 .first;
    }
    // Each region owns regionLines + 1 physical slots in the wear
    // index space.
    std::uint64_t slot = it->second->slotOf(offset);
    return (region * (cfg_.startGapRegionLines + 1) + slot) * kLineSize;
}

NvmAccessResult
PcmDevice::access(OpType type, Addr addr, Tick arrival)
{
    NvmAccessResult res;

    unsigned ch = channelOf(addr);
    ChannelStats &cs = channelStats_[ch];

    if (type == OpType::Write) {
        stats_.writesOffered.inc();
        ChannelWpq &q = wpqs_[ch];
        drainCompleted(ch, arrival);

        if (chCfg_.wpqCoalescing) {
            Addr line = lineAlign(addr);
            auto it = q.pending.find(line);
            if (it != q.pending.end()) {
                // Merge into the queued write: the pending array write
                // will carry the new data, so no second device write,
                // no energy and no extra wear. Data becomes durable
                // when the queued write retires.
                res.start = arrival;
                res.complete = it->second;
                res.coalesced = true;
                stats_.writesCoalesced.inc();
                cs.coalescedWrites.inc();
                if (spans_ && spans_->admitAccess()) {
                    spans_->instant(
                        SpanTrace::channelTrack(ch), "coalesced",
                        arrival,
                        {SpanTrace::hex("addr", addr),
                         SpanTrace::num("retires_at", it->second)});
                }
                return res;
            }
        }

        if (q.completions.size() >= cfg_.writeQueueDepth) {
            // The WPQ is full: the issuer stalls until the earliest
            // outstanding write on this channel retires.
            Tick free_at = q.completions.top().first;
            esd_assert(free_at > arrival, "stale completion in queue");
            res.issuerStall = free_at - arrival;
            arrival = free_at;
            drainCompleted(ch, arrival);
            stats_.writeQueueStalls.inc();
            cs.wpqStalls.inc();
        }
    }

    unsigned bank = bankOf(addr);

    Tick latency;
    if (type == OpType::Read) {
        latency = cfg_.readLatency;
        if (cfg_.rowBufferLines > 0) {
            std::uint64_t row = lineIndex(addr) / cfg_.rowBufferLines;
            if (openRow_[bank] == row) {
                latency = cfg_.rowHitReadLatency;
                stats_.rowHits.inc();
            } else {
                openRow_[bank] = row;
            }
        }
    } else {
        latency = cfg_.writeLatency;
        if (cfg_.rowBufferLines > 0)
            openRow_[bank] = lineIndex(addr) / cfg_.rowBufferLines;
    }

    if (cfg_.readPriority && type == OpType::Read) {
        // A read waits for earlier reads and for at most the write
        // currently occupying the bank — never for the queued backlog.
        Tick write_block = std::min(banks_[bank],
                                    arrival + cfg_.writeLatency);
        res.start = std::max({arrival, readChain_[bank], write_block});
        res.complete = res.start + latency;
        readChain_[bank] = res.complete;
    } else {
        res.start = std::max(arrival, banks_[bank]);
        if (cfg_.readPriority)
            res.start = std::max(res.start, readChain_[bank]);
        res.complete = res.start + latency;
        banks_[bank] = res.complete;
        if (!cfg_.readPriority)
            readChain_[bank] = res.complete;
    }
    res.queueDelay = res.start - arrival;

    if (spans_ && spans_->admitAccess()) {
        std::uint32_t track = SpanTrace::channelTrack(ch);
        if (res.queueDelay > 0) {
            spans_->span(track, "wpq_wait", arrival, res.queueDelay,
                         {SpanTrace::num("bank", bank)});
        }
        spans_->span(track,
                     type == OpType::Read ? "read" : "write",
                     res.start, latency,
                     {SpanTrace::hex("addr", addr),
                      SpanTrace::num("bank", bank),
                      SpanTrace::num("queue_ns", res.queueDelay),
                      SpanTrace::num("stall_ns", res.issuerStall)});
    }

    BankStats &bs = bankStats_[bank];
    bs.queueWaitNs += static_cast<double>(res.queueDelay);
    bs.busyNs += static_cast<double>(latency);
    cs.queueWaitNs += static_cast<double>(res.queueDelay);
    cs.busyNs += static_cast<double>(latency);

    if (type == OpType::Read) {
        stats_.reads.inc();
        stats_.readEnergy += cfg_.readEnergy;
        bs.reads.inc();
        cs.reads.inc();
    } else {
        stats_.writes.inc();
        bs.writes.inc();
        cs.writes.inc();
        stats_.writeEnergy += cfg_.writeEnergy;
        ChannelWpq &q = wpqs_[ch];
        q.completions.emplace(res.complete, lineAlign(addr));
        if (res.complete > maxQueuedComplete_)
            maxQueuedComplete_ = res.complete;
        if (chCfg_.wpqCoalescing)
            q.pending[lineAlign(addr)] = res.complete;

        wear_.recordWrite(wearAddrOf(addr));

        if (cfg_.startGapEnabled) {
            std::uint64_t region =
                lineIndex(addr) / cfg_.startGapRegionLines;
            StartGap &sg = *gapRegions_[region];
            std::uint64_t old_gap = sg.gap();
            if (sg.recordWrite()) {
                // Internal copy: one read + one write behind the
                // demand stream on this bank; the destination slot
                // (the old gap) takes the wear.
                stats_.gapMoves.inc();
                stats_.readEnergy += cfg_.readEnergy;
                stats_.writeEnergy += cfg_.writeEnergy;
                banks_[bank] += cfg_.readLatency + cfg_.writeLatency;
                // The copy lands in the slot the gap just vacated.
                Addr dest =
                    (region * (cfg_.startGapRegionLines + 1) + old_gap) *
                    kLineSize;
                wear_.recordWrite(dest);
            }
        }
    }
    return res;
}

} // namespace esd
