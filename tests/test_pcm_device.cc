/**
 * @file
 * Tests for the banked PCM timing/energy model and the content store.
 */

#include <gtest/gtest.h>

#include "common/config.hh"
#include "common/random.hh"
#include "nvm/nvm_store.hh"
#include "nvm/pcm_device.hh"

namespace esd
{
namespace
{

PcmConfig
smallConfig()
{
    PcmConfig cfg;
    cfg.banksPerChannel = 4;
    cfg.writeQueueDepth = 2;
    cfg.rowBufferLines = 0;  // timing tests use raw array latencies
    return cfg;
}

TEST(PcmDevice, IdleReadTakesArrayLatency)
{
    PcmDevice dev(smallConfig());
    NvmAccessResult r = dev.access(OpType::Read, 0, 1000);
    EXPECT_EQ(r.start, 1000u);
    EXPECT_EQ(r.complete, 1075u);
    EXPECT_EQ(r.queueDelay, 0u);
    EXPECT_EQ(r.issuerStall, 0u);
}

TEST(PcmDevice, IdleWriteTakesWriteLatency)
{
    PcmDevice dev(smallConfig());
    NvmAccessResult r = dev.access(OpType::Write, 0, 500);
    EXPECT_EQ(r.complete, 650u);
}

TEST(PcmDevice, SameBankRequestsSerialize)
{
    PcmDevice dev(smallConfig());
    // Lines 0 and 4 both map to bank 0 with 4 banks.
    NvmAccessResult r1 = dev.access(OpType::Write, 0, 0);
    NvmAccessResult r2 = dev.access(OpType::Read, 4 * kLineSize, 0);
    EXPECT_EQ(r1.complete, 150u);
    EXPECT_EQ(r2.start, 150u);  // waits for the write
    EXPECT_EQ(r2.queueDelay, 150u);
    EXPECT_EQ(r2.complete, 225u);
}

TEST(PcmDevice, DifferentBanksProceedInParallel)
{
    PcmDevice dev(smallConfig());
    NvmAccessResult r1 = dev.access(OpType::Write, 0, 0);
    NvmAccessResult r2 = dev.access(OpType::Read, kLineSize, 0);
    EXPECT_EQ(r1.complete, 150u);
    EXPECT_EQ(r2.complete, 75u);  // bank 1 was idle
}

TEST(PcmDevice, BankMappingIsLineInterleaved)
{
    PcmDevice dev(smallConfig());
    EXPECT_EQ(dev.bankOf(0), 0u);
    EXPECT_EQ(dev.bankOf(kLineSize), 1u);
    EXPECT_EQ(dev.bankOf(4 * kLineSize), 0u);
    // Sub-line offsets map with their line.
    EXPECT_EQ(dev.bankOf(kLineSize + 5), 1u);
}

TEST(PcmDevice, WriteQueueBackpressureStallsIssuer)
{
    PcmDevice dev(smallConfig());  // depth 2
    // Fill the queue with two writes to the same bank (serialized).
    dev.access(OpType::Write, 0, 0);                   // completes 150
    dev.access(OpType::Write, 4 * kLineSize, 0);       // completes 300
    // Third write arrives while both are outstanding: stall until the
    // earliest (150) retires.
    NvmAccessResult r = dev.access(OpType::Write, 8 * kLineSize, 10);
    EXPECT_EQ(r.issuerStall, 140u);
    EXPECT_EQ(dev.stats().writeQueueStalls.value(), 1u);
}

TEST(PcmDevice, NoStallAfterCompletionsDrain)
{
    PcmDevice dev(smallConfig());
    dev.access(OpType::Write, 0, 0);
    dev.access(OpType::Write, kLineSize, 0);
    // Arrives after both completed.
    NvmAccessResult r = dev.access(OpType::Write, 2 * kLineSize, 1000);
    EXPECT_EQ(r.issuerStall, 0u);
}

TEST(PcmDevice, EnergyAccounting)
{
    PcmDevice dev(smallConfig());
    dev.access(OpType::Read, 0, 0);
    dev.access(OpType::Read, kLineSize, 0);
    dev.access(OpType::Write, 2 * kLineSize, 0);
    EXPECT_DOUBLE_EQ(dev.stats().readEnergy, 2 * 1490.0);
    EXPECT_DOUBLE_EQ(dev.stats().writeEnergy, 6750.0);
    EXPECT_DOUBLE_EQ(dev.stats().totalEnergy(), 2 * 1490.0 + 6750.0);
    EXPECT_EQ(dev.stats().reads.value(), 2u);
    EXPECT_EQ(dev.stats().writes.value(), 1u);
}

TEST(PcmDevice, ResetStatsClears)
{
    PcmDevice dev(smallConfig());
    dev.access(OpType::Write, 0, 0);
    dev.resetStats();
    EXPECT_EQ(dev.stats().writes.value(), 0u);
    EXPECT_DOUBLE_EQ(dev.stats().totalEnergy(), 0.0);
}

TEST(PcmDevice, ReadPriorityBypassesQueuedWrites)
{
    PcmConfig cfg = smallConfig();
    cfg.readPriority = true;
    cfg.writeQueueDepth = 64;
    PcmDevice dev(cfg);
    // Pile writes onto bank 0.
    for (int i = 0; i < 16; ++i)
        dev.access(OpType::Write, 0, 0);
    // A read waits for at most one write service, not the backlog.
    NvmAccessResult r = dev.access(OpType::Read, 4 * kLineSize, 10);
    EXPECT_LE(r.queueDelay, cfg.writeLatency);
}

TEST(PcmDevice, ReadPriorityChainsReads)
{
    PcmConfig cfg = smallConfig();
    cfg.readPriority = true;
    PcmDevice dev(cfg);
    NvmAccessResult r1 = dev.access(OpType::Read, 0, 0);
    NvmAccessResult r2 = dev.access(OpType::Read, 4 * kLineSize, 0);
    EXPECT_EQ(r1.complete, 75u);
    EXPECT_EQ(r2.start, 75u);  // same bank: reads serialize
}

TEST(PcmDevice, HeavyWriteStreamDelaysReads)
{
    // The read/write interference Section IV-C relies on: a saturated
    // bank makes reads slow; removing writes (dedup) speeds reads.
    PcmDevice dev(smallConfig());
    Tick t = 0;
    for (int i = 0; i < 32; ++i)
        dev.access(OpType::Write, 0, t);  // all to bank 0
    NvmAccessResult r = dev.access(OpType::Read, 4 * kLineSize, 0);
    EXPECT_GT(r.queueDelay, 1000u);
}

TEST(PcmDevice, RowBufferHitIsFast)
{
    PcmConfig cfg = smallConfig();
    cfg.rowBufferLines = 64;
    PcmDevice dev(cfg);
    NvmAccessResult first = dev.access(OpType::Read, 0, 0);
    EXPECT_EQ(first.complete - first.start, cfg.readLatency);
    // Same line again: open row.
    NvmAccessResult second = dev.access(OpType::Read, 0, 1000);
    EXPECT_EQ(second.complete - second.start, cfg.rowHitReadLatency);
    EXPECT_EQ(dev.stats().rowHits.value(), 1u);
}

TEST(PcmDevice, RowBufferMissAfterConflict)
{
    PcmConfig cfg = smallConfig();
    cfg.rowBufferLines = 64;
    PcmDevice dev(cfg);
    dev.access(OpType::Read, 0, 0);
    // Line 256 maps to bank 0 (4 banks) but a different 64-line row.
    NvmAccessResult other =
        dev.access(OpType::Read, 256 * kLineSize, 1000);
    EXPECT_EQ(other.complete - other.start, cfg.readLatency);
    // Original row was closed by the conflict.
    NvmAccessResult back = dev.access(OpType::Read, 0, 2000);
    EXPECT_EQ(back.complete - back.start, cfg.readLatency);
}

TEST(PcmDevice, WriteOpensRowForSubsequentRead)
{
    PcmConfig cfg = smallConfig();
    cfg.rowBufferLines = 64;
    PcmDevice dev(cfg);
    NvmAccessResult w = dev.access(OpType::Write, 0, 0);
    EXPECT_EQ(w.complete - w.start, cfg.writeLatency);
    NvmAccessResult r = dev.access(OpType::Read, 0, 1000);
    EXPECT_EQ(r.complete - r.start, cfg.rowHitReadLatency);
}

// ------------------------------------------------- multi-channel WPQ

/** smallConfig() on @p count channels with a WPQ of @p depth each. */
PcmDevice
channelled(unsigned count, bool coalesce = false, unsigned depth = 2)
{
    PcmConfig cfg = smallConfig();
    cfg.writeQueueDepth = depth;
    ChannelConfig ch;
    ch.count = count;
    ch.wpqCoalescing = coalesce;
    return PcmDevice(cfg, ch);
}

TEST(PcmDeviceChannels, InterleaveMapsLinesModuloChannels)
{
    PcmDevice dev = channelled(4);
    EXPECT_EQ(dev.channelCount(), 4u);
    EXPECT_EQ(dev.banksPerChannel(), 4u);
    EXPECT_EQ(dev.totalBanks(), 16u);
    for (std::uint64_t line = 0; line < 32; ++line) {
        EXPECT_EQ(dev.channelOf(line * kLineSize), line % 4) << line;
        // Sub-line offsets stay with their line.
        EXPECT_EQ(dev.channelOf(line * kLineSize + 17), line % 4);
    }
    // Global bank = channel * banksPerChannel + local interleave.
    EXPECT_EQ(dev.bankOf(0), 0u);                   // ch 0, local 0
    EXPECT_EQ(dev.bankOf(kLineSize), 4u);           // ch 1, local 0
    EXPECT_EQ(dev.bankOf(4 * kLineSize), 1u);       // ch 0, local 1
    EXPECT_EQ(dev.bankOf(5 * kLineSize), 5u);       // ch 1, local 1
    EXPECT_EQ(dev.bankOf(16 * kLineSize), 0u);      // wraps
}

TEST(PcmDeviceChannels, AdjacentLinesServiceInParallel)
{
    // On one channel lines 0 and 4 share bank 0 and serialize; with
    // four channels they land on different channels' bank 0.
    PcmDevice dev = channelled(4);
    NvmAccessResult r1 = dev.access(OpType::Write, 0, 0);
    NvmAccessResult r2 = dev.access(OpType::Write, kLineSize, 0);
    EXPECT_EQ(r1.complete, 150u);
    EXPECT_EQ(r2.complete, 150u);
    EXPECT_EQ(dev.channelStats(0).writes.value(), 1u);
    EXPECT_EQ(dev.channelStats(1).writes.value(), 1u);
}

TEST(PcmDeviceChannels, CoalescingMergesIntoPendingWrite)
{
    PcmDevice dev = channelled(1, true, 8);
    NvmAccessResult first = dev.access(OpType::Write, 0, 0);
    EXPECT_FALSE(first.coalesced);
    EXPECT_EQ(first.complete, 150u);

    // Re-write while the first is still queued: merged in place.
    NvmAccessResult second = dev.access(OpType::Write, 0, 10);
    EXPECT_TRUE(second.coalesced);
    EXPECT_EQ(second.start, 10u);
    EXPECT_EQ(second.complete, 150u);  // durable with the queued write
    EXPECT_EQ(second.issuerStall, 0u);

    EXPECT_EQ(dev.stats().writes.value(), 1u);
    EXPECT_EQ(dev.stats().writesOffered.value(), 2u);
    EXPECT_EQ(dev.stats().writesCoalesced.value(), 1u);
    // No second array access: energy and wear stay flat.
    EXPECT_DOUBLE_EQ(dev.stats().writeEnergy, 6750.0);
    EXPECT_EQ(dev.wear().stats().totalWrites, 1u);
}

TEST(PcmDeviceChannels, CoalescingMissesAfterDrain)
{
    PcmDevice dev = channelled(1, true, 8);
    dev.access(OpType::Write, 0, 0);  // completes at 150
    NvmAccessResult later = dev.access(OpType::Write, 0, 200);
    EXPECT_FALSE(later.coalesced);
    EXPECT_EQ(dev.stats().writes.value(), 2u);
}

TEST(PcmDeviceChannels, CoalescingOffIssuesEveryWrite)
{
    PcmDevice dev = channelled(1, false, 8);
    dev.access(OpType::Write, 0, 0);
    NvmAccessResult second = dev.access(OpType::Write, 0, 10);
    EXPECT_FALSE(second.coalesced);
    EXPECT_EQ(second.complete, 300u);  // serializes behind the first
    EXPECT_EQ(dev.stats().writesCoalesced.value(), 0u);
}

TEST(PcmDeviceChannels, BackpressureIsPerChannel)
{
    // Depth 2 per channel; saturating channel 0 must not stall
    // channel 1.
    PcmDevice dev = channelled(2, false, 2);
    dev.access(OpType::Write, 0, 0);                 // ch 0
    dev.access(OpType::Write, 8 * kLineSize, 0);     // ch 0, same bank
    NvmAccessResult other = dev.access(OpType::Write, kLineSize, 10);
    EXPECT_EQ(other.issuerStall, 0u);                // ch 1 is empty
    NvmAccessResult full = dev.access(OpType::Write, 16 * kLineSize, 10);
    EXPECT_GT(full.issuerStall, 0u);                 // ch 0 is full
    EXPECT_EQ(dev.channelStats(0).wpqStalls.value(), 1u);
    EXPECT_EQ(dev.channelStats(1).wpqStalls.value(), 0u);
}

TEST(PcmDeviceChannels, WpqDepthOverridesPcmDefault)
{
    // pcm.write_queue_depth is each channel's WPQ depth.
    PcmDevice dev = channelled(1, false, 1);
    EXPECT_EQ(dev.wpqDepth(), 1u);
    dev.access(OpType::Write, 0, 0);
    NvmAccessResult r = dev.access(OpType::Write, kLineSize, 0);
    EXPECT_GT(r.issuerStall, 0u);  // depth 1: one outstanding write

    EXPECT_EQ(PcmDevice(PcmConfig{}).wpqDepth(), 64u);  // the default
}

TEST(PcmDeviceChannels, OfferedWritesAreConserved)
{
    PcmDevice dev = channelled(4, true, 4);
    Pcg32 rng(7);
    Tick now = 0;
    for (int i = 0; i < 2000; ++i) {
        now += rng.below(40);
        Addr addr = static_cast<Addr>(rng.below(64)) * kLineSize;
        dev.access(rng.chance(0.7) ? OpType::Write : OpType::Read, addr,
                   now);
    }
    const NvmStats &s = dev.stats();
    EXPECT_GT(s.writesCoalesced.value(), 0u);  // tight re-writes occur
    EXPECT_EQ(s.writesOffered.value(),
              s.writes.value() + s.writesCoalesced.value());
    std::uint64_t per_channel = 0;
    for (unsigned c = 0; c < 4; ++c)
        per_channel += dev.channelStats(c).writes.value() +
                       dev.channelStats(c).coalescedWrites.value();
    EXPECT_EQ(per_channel, s.writesOffered.value());
}

// ------------------------------------------------------------ NvmStore

TEST(NvmStore, ReadBackWhatWasWritten)
{
    NvmStore store(1 << 20);
    Pcg32 rng(1);
    CacheLine l;
    rng.fillLine(l);
    store.write(128, l, 0xabcd);
    auto got = store.read(128);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->data, l);
    EXPECT_EQ(got->ecc, 0xabcdu);
}

TEST(NvmStore, UnwrittenIsEmpty)
{
    NvmStore store(1 << 20);
    EXPECT_FALSE(store.read(0).has_value());
    EXPECT_FALSE(store.contains(0));
}

TEST(NvmStore, SubLineAddressesAlias)
{
    NvmStore store(1 << 20);
    CacheLine l;
    l.setWord(0, 7);
    store.write(64, l, 1);
    EXPECT_TRUE(store.contains(64 + 13));
    EXPECT_EQ(store.read(64 + 13)->data, l);
}

TEST(NvmStore, EraseRemoves)
{
    NvmStore store(1 << 20);
    store.write(0, CacheLine{}, 0);
    EXPECT_EQ(store.residentLines(), 1u);
    store.erase(0);
    EXPECT_EQ(store.residentLines(), 0u);
    EXPECT_FALSE(store.contains(0));
}

TEST(NvmStore, OverwriteReplaces)
{
    NvmStore store(1 << 20);
    CacheLine a, b;
    a.setWord(0, 1);
    b.setWord(0, 2);
    store.write(0, a, 10);
    store.write(0, b, 20);
    EXPECT_EQ(store.residentLines(), 1u);
    EXPECT_EQ(store.read(0)->data, b);
    EXPECT_EQ(store.read(0)->ecc, 20u);
}

} // namespace
} // namespace esd
