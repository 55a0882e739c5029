/**
 * @file
 * Timing and energy model of a multi-channel, banked PCM main memory.
 *
 * The model captures what the ESD evaluation depends on:
 *   - asymmetric read/write array latency (75 ns / 150 ns) and energy
 *     (1.49 nJ / 6.75 nJ) per 64 B line (Table I),
 *   - bank-level parallelism with in-order per-bank service, so heavy
 *     write streams delay reads on the same bank (the read/write
 *     interference that deduplication alleviates, Section IV-C),
 *   - channel-level parallelism: lines interleave across N independent
 *     channels (channelOf = lineIndex % N), each owning a full copy of
 *     the bank geometry and its own write-pending queue (WPQ),
 *   - a finite per-channel WPQ whose overflow back-pressures the core
 *     model (feeding the IPC results of Fig. 14), with optional
 *     in-queue write coalescing: a write to a line that already has a
 *     pending WPQ entry updates that entry in place instead of issuing
 *     a second device write.
 *
 * With one channel and coalescing off the device is bit-identical to
 * the single-channel model that predates the channel layer.
 *
 * Requests are issued with a nanosecond arrival time; the device
 * returns the service start and completion times. There is no global
 * event queue — per-bank busy-until bookkeeping is sufficient because
 * callers issue requests in non-decreasing arrival order.
 */

#ifndef ESD_NVM_PCM_DEVICE_HH
#define ESD_NVM_PCM_DEVICE_HH

#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "common/config.hh"
#include "common/flat_map.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "metrics/span_trace.hh"
#include "nvm/start_gap.hh"
#include "nvm/wear_tracker.hh"

namespace esd
{

class StatRegistry;

/** Timing outcome of one device access. */
struct NvmAccessResult
{
    /** When the bank began servicing the request. */
    Tick start = 0;

    /** When the data movement finished. */
    Tick complete = 0;

    /** start - arrival: time spent waiting for the bank. */
    Tick queueDelay = 0;

    /** Extra stall imposed on the *issuer* because the write queue was
     * full at arrival (0 for reads and for non-saturated writes). */
    Tick issuerStall = 0;

    /** The write merged into a pending WPQ entry: no array access was
     * issued and `complete` is the pending entry's completion time. */
    bool coalesced = false;
};

/** Aggregate device statistics. */
struct NvmStats
{
    Counter reads;
    Counter writes;            ///< writes issued to the array
    Counter writesOffered;     ///< write requests presented to the WPQs
    Counter writesCoalesced;   ///< offered writes merged into a WPQ entry
    Counter writeQueueStalls;
    Counter rowHits;
    Counter gapMoves;  ///< Start-Gap internal line copies
    Energy readEnergy = 0;
    Energy writeEnergy = 0;

    Energy totalEnergy() const { return readEnergy + writeEnergy; }
};

/** Per-bank accounting (bank utilization / queue-wait time-series). */
struct BankStats
{
    Counter reads;
    Counter writes;

    /** Accumulated time requests waited for this bank, ns. */
    double queueWaitNs = 0;

    /** Bank busy time accumulated over serviced requests, ns. */
    double busyNs = 0;
};

/** Per-channel accounting. */
struct ChannelStats
{
    Counter reads;
    Counter writes;            ///< array writes issued on this channel
    Counter coalescedWrites;   ///< offered writes merged in the WPQ
    Counter wpqStalls;         ///< writes that back-pressured the issuer

    /** Accumulated bank-queue wait of this channel's requests, ns. */
    double queueWaitNs = 0;

    /** Accumulated service time on this channel's banks, ns. */
    double busyNs = 0;
};

/**
 * The multi-channel banked PCM device.
 */
class PcmDevice
{
  public:
    /** Single-channel device (legacy shape: one channel, coalescing
     * off, WPQ depth = cfg.writeQueueDepth). */
    explicit PcmDevice(const PcmConfig &cfg)
        : PcmDevice(cfg, ChannelConfig{}) {}

    PcmDevice(const PcmConfig &cfg, const ChannelConfig &channels);

    /**
     * Issue an access.
     *
     * @param type    read (miss fill, metadata fetch) or write
     * @param addr    byte address; the containing line picks the
     *                channel and bank
     * @param arrival issue time in ns, non-decreasing across calls
     */
    NvmAccessResult access(OpType type, Addr addr, Tick arrival);

    /** Channel servicing @p addr (line-interleaved across channels). */
    unsigned
    channelOf(Addr addr) const
    {
        return static_cast<unsigned>(lineIndex(addr) % chCfg_.count);
    }

    /** Global bank id servicing @p addr: channel * banksPerChannel +
     * local bank (line-interleaved within the channel). */
    unsigned bankOf(Addr addr) const;

    /** Busy-until time of global bank @p b (for tests). */
    Tick bankBusyUntil(unsigned b) const { return banks_[b]; }

    /**
     * Earliest tick (>= @p now) by which every currently queued write
     * will have reached the array — what a persist barrier under ADR
     * waits for. Completions already at or before @p now have drained,
     * so tracking the max completion ever queued is exact.
     */
    Tick
    wpqDrainTick(Tick now) const
    {
        return maxQueuedComplete_ > now ? maxQueuedComplete_ : now;
    }

    const NvmStats &stats() const { return stats_; }

    /** Per-channel accounting for channel @p c. */
    const ChannelStats &
    channelStats(unsigned c) const
    {
        return channelStats_[c];
    }

    const PcmConfig &config() const { return cfg_; }

    unsigned channelCount() const { return chCfg_.count; }

    /** Per-channel WPQ depth (pcm.write_queue_depth). */
    unsigned wpqDepth() const { return cfg_.writeQueueDepth; }

    bool coalescingEnabled() const { return chCfg_.wpqCoalescing; }

    /** Banks owned by each channel (pcm.banks_per_channel). */
    unsigned banksPerChannel() const { return cfg_.banksPerChannel; }

    /** Total banks across all channels. */
    unsigned totalBanks() const
    {
        return cfg_.banksPerChannel * chCfg_.count;
    }

    /** Per-line endurance accounting (always on). */
    const WearTracker &wear() const { return wear_; }

    /** Register device-wide, per-channel and per-bank statistics under
     * "pcm.*" / "pcm.chN.*" / "pcm.bankN.*". */
    void registerStats(StatRegistry &reg) const;

    /** Attach (or detach with nullptr) a span sink: every admitted
     * access emits a service span on its channel's track, plus a
     * wpq_wait span when it queued and an instant when it coalesced. */
    void setSpanTrace(SpanTrace *spans) { spans_ = spans; }

    /** Zero all statistics (after warm-up); wear is cumulative and
     * reset separately via resetWear(). */
    void
    resetStats()
    {
        stats_ = NvmStats{};
        // Assign in place: registered stat references stay valid.
        for (BankStats &b : bankStats_)
            b = BankStats{};
        for (ChannelStats &c : channelStats_)
            c = ChannelStats{};
    }

    /** Clear endurance accounting. */
    void resetWear() { wear_.reset(); }

  private:
    /** One channel's write-pending queue. */
    struct ChannelWpq
    {
        /** Min-heap of (completion, line) for outstanding writes. */
        std::priority_queue<std::pair<Tick, Addr>,
                            std::vector<std::pair<Tick, Addr>>,
                            std::greater<std::pair<Tick, Addr>>>
            completions;

        /** Pending line -> completion time, maintained only when
         * coalescing is on; a hit merges the new data in place. */
        FlatMap<Addr, Tick> pending;
    };

    void drainCompleted(unsigned ch, Tick now);

    PcmConfig cfg_;
    ChannelConfig chCfg_;

    /** Max completion time among writes ever queued (wpqDrainTick). */
    Tick maxQueuedComplete_ = 0;

    std::vector<Tick> banks_;
    std::vector<BankStats> bankStats_;
    std::vector<ChannelStats> channelStats_;
    std::vector<ChannelWpq> wpqs_;

    /** Read-chain clocks per bank (used only under readPriority). */
    std::vector<Tick> readChain_;

    /** Open row per bank (row-buffer model); ~0 = closed. */
    std::vector<std::uint64_t> openRow_;

    /** Wear-index of @p addr after any Start-Gap rotation. */
    Addr wearAddrOf(Addr addr);

    WearTracker wear_;

    /** Lazily created Start-Gap remappers per rotation region. */
    FlatMap<std::uint64_t, std::unique_ptr<StartGap>> gapRegions_;

    NvmStats stats_;

    SpanTrace *spans_ = nullptr;
};

} // namespace esd

#endif // ESD_NVM_PCM_DEVICE_HH
