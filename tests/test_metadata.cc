/**
 * @file
 * Tests for the deduplication metadata structures: the partitioned
 * cache core, AMT, EFIT (LRCU), the full-dedup fingerprint table, the
 * line store, and the DeWrite predictor.
 */

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "common/config.hh"
#include "dedup/amt.hh"
#include "dedup/channel_cache.hh"
#include "dedup/efit.hh"
#include "dedup/fp_table.hh"
#include "dedup/line_store.hh"
#include "dedup/predictor.hh"
#include "nvm/nvm_store.hh"

namespace esd
{
namespace
{

// --------------------------------------------------------- ChannelCache

struct TestWay
{
    bool valid = false;
    std::uint64_t tag = 0;
    std::uint64_t rank = 0;
    std::uint64_t lastUse = 0;
};

/** Channel of @p addr under the device's line interleave. */
unsigned
channelOfLine(Addr addr, unsigned channels)
{
    return static_cast<unsigned>(lineIndex(addr) % channels);
}

/** A partition's table lines sit on its own channel, one per step of
 * the device interleave, for power-of-two and other channel counts and
 * for region bases on any channel. */
TEST(ChannelCache, NvmLinesSitOnTheirPartitionsChannel)
{
    for (unsigned n : {1u, 2u, 3u, 4u, 5u, 7u, 8u}) {
        ChannelCache<TestWay> cache("test cache", 64 * n, 2, n);
        for (Addr base : {Addr{8ull << 30}, Addr{13ull << 30},
                          Addr{5 * kLineSize}, Addr{kLineSize + 8}}) {
            for (unsigned p = 0; p < n; ++p) {
                Addr prev = 0;
                for (std::uint64_t k = 0; k < 40; ++k) {
                    Addr line = cache.nvmLine(base, p, k * kLineSize + 3);
                    EXPECT_EQ(channelOfLine(line, n), p)
                        << "n=" << n << " base=" << base << " k=" << k;
                    EXPECT_GE(line, lineAlign(base));
                    EXPECT_EQ(line % kLineSize, 0u);
                    if (k > 0) {
                        EXPECT_EQ(line - prev, n * kLineSize);
                    }
                    prev = line;
                }
            }
        }
    }
    // One partition: the region's lines in order.
    ChannelCache<TestWay> one("test cache", 64, 2, 1);
    EXPECT_EQ(one.nvmLine(13ull << 30, 0, 200),
              lineAlign((13ull << 30) + 200));
}

/** Partitions are disjoint, allocated by their first fill, and a
 * victim is an invalid way first, then the lowest rank. */
TEST(ChannelCache, PartitionsAreDisjointAndVictimsRanked)
{
    ChannelCache<TestWay> cache("test cache", 8, 4, 2);  // 1 set each
    EXPECT_EQ(cache.capacity(), 8u);
    auto byTag = [](std::uint64_t t) {
        return [t](const TestWay &w) { return w.tag == t; };
    };
    EXPECT_EQ(cache.find(0, 7, byTag(7)), nullptr);
    for (std::uint64_t t = 0; t < 4; ++t) {
        TestWay &w = cache.victim(0, t);
        EXPECT_FALSE(w.valid);
        w = TestWay{true, t, 10 - t, 0};
        cache.touch(w);
    }
    EXPECT_EQ(cache.find(1, 2, byTag(2)), nullptr);
    // LRU: tag 0 is the oldest, unless it is used again.
    EXPECT_EQ(cache.victim(0, 9).tag, 0u);
    cache.touch(*cache.find(0, 0, byTag(0)));
    EXPECT_EQ(cache.victim(0, 9).tag, 1u);
    // A caller's rank: the lowest wins whatever the recency.
    auto byRank = [](const TestWay &a, const TestWay &b) {
        return a.rank < b.rank;
    };
    EXPECT_EQ(cache.victim(0, 9, byRank).tag, 3u);
    cache.find(0, 2, byTag(2))->valid = false;
    EXPECT_EQ(cache.victim(0, 9, byRank).tag, 2u);  // invalid first
    std::uint64_t valid = 0;
    cache.forEachValid([&valid](const TestWay &) { ++valid; });
    EXPECT_EQ(valid, 3u);
}

// ----------------------------------------------------------- PackedPhys

TEST(PackedPhys, RoundTrip)
{
    for (Addr a : {Addr{0}, Addr{64}, Addr{1} << 20, Addr{255} * 64,
                   Addr{256} * 64, (Addr{1} << 38) + 640}) {
        PackedPhys p = PackedPhys::fromAddr(a);
        EXPECT_EQ(p.toAddr(), lineAlign(a));
    }
}

TEST(PackedPhys, FortyBitSplit)
{
    // Line index 0x1234567_89 -> base is the upper 32 bits, offset the
    // low 8 (Section III-B).
    Addr a = 0x123456789ull * kLineSize;
    PackedPhys p = PackedPhys::fromAddr(a);
    EXPECT_EQ(p.base, 0x1234567u);
    EXPECT_EQ(p.offset, 0x89u);
}

// ------------------------------------------------------------ LineStore

TEST(LineStore, AllocateDistinctAddresses)
{
    NvmStore nvm(1 << 20);
    LineStore ls(nvm);
    Addr a = ls.allocate();
    Addr b = ls.allocate();
    EXPECT_NE(a, b);
    EXPECT_EQ(ls.liveLines(), 2u);
}

TEST(LineStore, RefCountLifecycle)
{
    NvmStore nvm(1 << 20);
    LineStore ls(nvm);
    Addr a = ls.allocate();
    nvm.write(a, CacheLine{}, 0);
    ls.addRef(a);
    ls.addRef(a);
    EXPECT_EQ(ls.refCount(a), 2u);
    EXPECT_FALSE(ls.release(a));
    EXPECT_TRUE(ls.isLive(a));
    EXPECT_TRUE(ls.release(a));
    EXPECT_FALSE(ls.isLive(a));
    EXPECT_FALSE(nvm.contains(a));  // content erased with last ref
}

TEST(LineStore, FreedAddressIsReused)
{
    NvmStore nvm(1 << 20);
    LineStore ls(nvm);
    Addr a = ls.allocate();
    ls.addRef(a);
    ls.release(a);
    Addr b = ls.allocate();
    EXPECT_EQ(a, b);
}

TEST(LineStore, ShardsAllocateOnTheirOwnInterleave)
{
    constexpr unsigned kShards = 4;
    NvmStore nvm(1 << 20);
    LineStore ls(nvm, kShards);
    for (unsigned round = 0; round < 3; ++round) {
        for (unsigned s = 0; s < kShards; ++s) {
            Addr a = ls.allocate(s);
            EXPECT_EQ(lineIndex(a) % kShards, s);
            EXPECT_EQ(ls.shardOf(a), s);
            EXPECT_EQ(lineIndex(a) / kShards, round);
        }
    }
    EXPECT_EQ(ls.liveLines(), 3u * kShards);
}

TEST(LineStore, FreedLineReturnsToItsOwnShard)
{
    NvmStore nvm(1 << 20);
    LineStore ls(nvm, 4);
    Addr a = ls.allocate(1);
    Addr b = ls.allocate(2);
    ls.addRef(a);
    EXPECT_TRUE(ls.release(a));
    // Another shard never sees the freed line ...
    Addr c = ls.allocate(2);
    EXPECT_NE(c, a);
    EXPECT_NE(c, b);
    EXPECT_EQ(ls.shardOf(c), 2u);
    // ... its own shard reuses it first.
    EXPECT_EQ(ls.allocate(1), a);
}

TEST(LineStore, DeferredReclaimKeepsDeadLineUntilPromoted)
{
    NvmStore nvm(1 << 20);
    LineStore ls(nvm);
    ls.setDeferredReclaim(true);
    Addr a = ls.allocate();
    CacheLine content;
    content.setWord(0, 0xfeedfacecafef00dull);
    nvm.write(a, content, 7);
    ls.addRef(a);
    EXPECT_TRUE(ls.release(a));
    EXPECT_FALSE(ls.isLive(a));
    EXPECT_EQ(ls.refCount(a), 0u);
    EXPECT_EQ(ls.liveLines(), 0u);
    // Dead but unreclaimed: the content stays and the address is not
    // handed out again.
    ASSERT_TRUE(nvm.contains(a));
    EXPECT_TRUE(nvm.peek(a)->data == content);
    Addr b = ls.allocate();
    EXPECT_NE(b, a);
    ls.promoteFreed();
    EXPECT_FALSE(nvm.contains(a));
    EXPECT_EQ(ls.allocate(), a);
}

TEST(LineStore, UnallocatedAddressesAreNotLive)
{
    NvmStore nvm(1 << 20);
    LineStore ls(nvm, 2);
    Addr a = ls.allocate(0);
    ls.addRef(a);
    // Never allocated: the other shard's first line, and lines past
    // each shard's high-water mark, up to far beyond the device.
    for (Addr x : {Addr{1} * kLineSize, Addr{2} * kLineSize,
                   Addr{1000} * kLineSize, Addr{1} << 45,
                   lineAlign(kInvalidAddr)}) {
        EXPECT_FALSE(ls.isLive(x)) << x;
        EXPECT_EQ(ls.refCount(x), 0u) << x;
    }
    EXPECT_TRUE(ls.isLive(a + 5));  // any byte of the line
    EXPECT_EQ(ls.refCount(a), 1u);
}

TEST(LineStore, FingerprintIsTakenOnce)
{
    NvmStore nvm(1 << 20);
    LineStore ls(nvm);
    Addr a = ls.allocate();
    EXPECT_FALSE(ls.takeFingerprint(a).has_value());
    ls.setFingerprint(a, 0xabcdef);
    ls.addRef(a);
    EXPECT_TRUE(ls.release(a));
    // The dying line hands its fingerprint back exactly once.
    std::optional<std::uint64_t> fp = ls.takeFingerprint(a);
    ASSERT_TRUE(fp.has_value());
    EXPECT_EQ(*fp, 0xabcdefu);
    EXPECT_FALSE(ls.takeFingerprint(a).has_value());
    // A reused line starts without one.
    EXPECT_EQ(ls.allocate(), a);
    EXPECT_FALSE(ls.takeFingerprint(a).has_value());
    EXPECT_FALSE(ls.takeFingerprint(Addr{1} << 40).has_value());
}

TEST(LineStore, RetireDropsFingerprintButLineStaysLive)
{
    NvmStore nvm(1 << 20);
    LineStore ls(nvm);
    Addr a = ls.allocate();
    ls.setFingerprint(a, 42);
    ls.addRef(a);
    ls.addRef(a);
    // A RAS retirement takes the fingerprint while mappings remain.
    EXPECT_EQ(ls.takeFingerprint(a), std::optional<std::uint64_t>(42));
    EXPECT_TRUE(ls.isLive(a));
    EXPECT_EQ(ls.refCount(a), 2u);
    EXPECT_FALSE(ls.release(a));
    EXPECT_TRUE(ls.release(a));
    EXPECT_FALSE(ls.takeFingerprint(a).has_value());
}

TEST(LineStore, ReleaseIfLiveSkipsDeadLines)
{
    NvmStore nvm(1 << 20);
    LineStore ls(nvm);
    Addr a = ls.allocate();
    ls.addRef(a);
    ls.addRef(a);
    EXPECT_EQ(ls.releaseIfLive(a), LineStore::Released::Dropped);
    EXPECT_EQ(ls.releaseIfLive(a), LineStore::Released::Freed);
    EXPECT_EQ(ls.releaseIfLive(a), LineStore::Released::NotLive);
    EXPECT_EQ(ls.releaseIfLive(Addr{1} << 40),
              LineStore::Released::NotLive);
}

TEST(LineStore, RefTableListsLiveLines)
{
    NvmStore nvm(1 << 20);
    LineStore ls(nvm, 2);
    Addr a = ls.allocate(0);
    Addr b = ls.allocate(1);
    Addr c = ls.allocate(1);
    ls.addRef(a);
    ls.addRef(b);
    ls.addRef(b);
    ls.addRef(c);
    ls.release(c);
    std::uint64_t refs = 0;
    std::uint64_t lines = 0;
    for (const auto &[phys, n] : ls.refTable()) {
        EXPECT_TRUE(ls.isLive(phys));
        EXPECT_EQ(ls.refCount(phys), n);
        refs += n;
        ++lines;
    }
    EXPECT_EQ(refs, 3u);
    EXPECT_EQ(lines, ls.liveLines());
}

// ----------------------------------------------------------------- AMT

MetadataConfig
tinyMeta()
{
    MetadataConfig cfg;
    cfg.amtCacheBytes = 8 * kLineSize;  // 8 entry blocks (5 entries each)
    cfg.amtAssoc = 2;
    cfg.efitCacheBytes = 16 * 16;
    cfg.efitAssoc = 2;
    cfg.decayPeriod = 0;  // no decay unless a test wants it
    return cfg;
}

/** Logical address of the first line in AMT entry-block @p group. */
Addr
groupAddr(const Amt &amt, std::uint64_t group)
{
    return group * amt.entriesPerBlock() * kLineSize;
}

TEST(Amt, LookupMissesWhenEmpty)
{
    Amt amt(tinyMeta(), 1 << 30);
    Amt::LookupResult r = amt.lookup(0);
    EXPECT_FALSE(r.found);
    EXPECT_FALSE(r.cacheHit);
    EXPECT_TRUE(r.effects.nvmRead);  // had to consult NVMM
}

TEST(Amt, UpdateThenCachedLookup)
{
    Amt amt(tinyMeta(), 1 << 30);
    amt.update(640, 128);
    Amt::LookupResult r = amt.lookup(640);
    EXPECT_TRUE(r.found);
    EXPECT_TRUE(r.cacheHit);
    EXPECT_EQ(r.phys, 128u);
    EXPECT_EQ(amt.stats().cacheHits.value(), 1u);
}

TEST(Amt, EvictedDirtyBlockTriggersWriteback)
{
    MetadataConfig cfg = tinyMeta();
    cfg.amtCacheBytes = 2 * kLineSize;  // 2 blocks, 2-way: one set
    Amt amt(cfg, 1 << 30);
    // Three distinct entry blocks into a 2-way set.
    amt.update(groupAddr(amt, 0), 64);
    amt.update(groupAddr(amt, 1), 128);
    MetadataEffects eff = amt.update(groupAddr(amt, 2), 192);
    EXPECT_TRUE(eff.nvmWriteback);
    EXPECT_EQ(amt.stats().nvmWritebacks.value(), 1u);
}

TEST(Amt, UpdatesWithinOneBlockCoalesce)
{
    // Consecutive logical lines share an entry block: updating all of
    // them dirties one block and costs at most one write-back later.
    MetadataConfig cfg = tinyMeta();
    Amt amt(cfg, 1 << 30);
    for (std::uint64_t i = 0; i < amt.entriesPerBlock(); ++i)
        amt.update(i * kLineSize, 64 * (i + 1));
    EXPECT_EQ(amt.stats().nvmWritebacks.value(), 0u);
    for (std::uint64_t i = 0; i < amt.entriesPerBlock(); ++i)
        EXPECT_EQ(amt.lookup(i * kLineSize).phys, 64 * (i + 1));
}

TEST(Amt, MissFetchesFromNvmTableAndCaches)
{
    MetadataConfig cfg = tinyMeta();
    cfg.amtCacheBytes = 2 * kLineSize;
    Amt amt(cfg, 1 << 30);
    amt.update(groupAddr(amt, 0), 64);
    // Push block 0 out of the tiny cache.
    amt.update(groupAddr(amt, 1), 128);
    amt.update(groupAddr(amt, 2), 192);
    // Entry for block 0 must still resolve via the NVMM table.
    Amt::LookupResult r = amt.lookup(groupAddr(amt, 0));
    EXPECT_TRUE(r.found);
    EXPECT_FALSE(r.cacheHit);
    EXPECT_TRUE(r.effects.nvmRead);
    EXPECT_EQ(r.phys, 64u);
    // And is now cached again.
    Amt::LookupResult r2 = amt.lookup(groupAddr(amt, 0));
    EXPECT_TRUE(r2.cacheHit);
}

TEST(Amt, PeekDoesNotDisturbCache)
{
    Amt amt(tinyMeta(), 1 << 30);
    amt.update(0, 64);
    std::uint64_t hits = amt.stats().cacheHits.value();
    auto p = amt.peek(0);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(*p, 64u);
    EXPECT_EQ(amt.stats().cacheHits.value(), hits);
    EXPECT_FALSE(amt.peek(999 * kLineSize).has_value());
}

TEST(Amt, ClaimFindsTheEntryUpdateWritesThrough)
{
    Amt amt(tinyMeta(), 1 << 30);
    Amt::Slot fresh = amt.claim(640);
    EXPECT_FALSE(fresh.previous().has_value());
    amt.update(fresh, 128);
    EXPECT_EQ(amt.peek(640), std::optional<Addr>(128));
    EXPECT_EQ(amt.mappingCount(), 1u);

    Amt::Slot again = amt.claim(640 + 7);  // same line
    EXPECT_EQ(again.previous(), std::optional<Addr>(128));
    amt.update(again, 256);
    EXPECT_EQ(amt.peek(640), std::optional<Addr>(256));
    EXPECT_EQ(amt.mappingCount(), 1u);
    EXPECT_EQ(amt.stats().updates.value(), 2u);
    EXPECT_EQ(amt.stats().lookups.value(), 0u);  // claim is not a lookup
}

TEST(Amt, ManyToOneMapping)
{
    Amt amt(tinyMeta(), 1 << 30);
    amt.update(0, 4096);
    amt.update(64, 4096);
    EXPECT_EQ(amt.lookup(0).phys, 4096u);
    EXPECT_EQ(amt.lookup(64).phys, 4096u);
    EXPECT_EQ(amt.mappingCount(), 2u);
}

TEST(Amt, NvmBytesTracksEntries)
{
    MetadataConfig cfg = tinyMeta();
    Amt amt(cfg, 1 << 30);
    amt.update(0, 64);
    amt.update(64, 128);
    EXPECT_EQ(amt.nvmBytes(), 2 * cfg.amtEntryBytes);
}

// ---------------------------------------------------------------- EFIT

/** With N channels an entry block groups lines of one channel
 * (every Nth line), its partition is that channel and its NVMM line
 * sits on it. */
TEST(Amt, BlocksGroupLinesOfOneChannel)
{
    MetadataConfig cfg = tinyMeta();
    cfg.amtCacheBytes = 6 * kLineSize;  // 3 sets: 1 per channel
    Amt amt(cfg, 8ull << 30, 3);
    const std::uint64_t per = amt.entriesPerBlock();
    // Lines 0, 3, 6, ... of channel 0 share one block and one NVMM line.
    for (std::uint64_t i = 0; i < per; ++i) {
        Addr a = 3 * i * kLineSize;
        EXPECT_EQ(amt.entryNvmAddr(a), amt.entryNvmAddr(0));
        amt.update(a, 64 * (i + 1));
    }
    EXPECT_NE(amt.entryNvmAddr(3 * per * kLineSize), amt.entryNvmAddr(0));
    for (std::uint64_t line = 0; line < 60; ++line)
        EXPECT_EQ(lineIndex(amt.entryNvmAddr(line * kLineSize)) % 3,
                  line % 3);
    // The other channels' lines cannot displace channel 0's block.
    for (std::uint64_t line = 1; line < 200; line += 3)
        amt.update(line * kLineSize, 64);
    for (std::uint64_t line = 2; line < 200; line += 3)
        amt.update(line * kLineSize, 64);
    EXPECT_TRUE(amt.lookup(0).cacheHit);
    EXPECT_TRUE(amt.lookup(3 * (per - 1) * kLineSize).cacheHit);
}

TEST(Efit, InsertThenHit)
{
    Efit efit(tinyMeta());
    efit.insert(0xabc, 640);
    Efit::Entry *e = efit.lookup(0xabc);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->phys.toAddr(), 640u);
    EXPECT_EQ(e->referH, 1u);
    EXPECT_EQ(efit.stats().hits.value(), 1u);
}

TEST(Efit, MissNeverConsultsNvm)
{
    // Structural property of selective dedup: the EFIT has no NVMM
    // backing at all — a miss is just a miss.
    Efit efit(tinyMeta());
    EXPECT_EQ(efit.lookup(0x123), nullptr);
    EXPECT_EQ(efit.stats().misses.value(), 1u);
}

TEST(Efit, BumpRefSaturatesAtReferHMax)
{
    MetadataConfig cfg = tinyMeta();
    cfg.referHMax = 3;
    Efit efit(cfg);
    efit.insert(1, 0);
    Efit::Entry *e = efit.lookup(1);
    ASSERT_NE(e, nullptr);
    EXPECT_TRUE(efit.bumpRef(e));   // 2
    EXPECT_TRUE(efit.bumpRef(e));   // 3
    EXPECT_FALSE(efit.bumpRef(e));  // saturated
    EXPECT_EQ(efit.stats().referHSaturations.value(), 1u);
}

TEST(Efit, LrcuEvictsLowestRefCount)
{
    MetadataConfig cfg = tinyMeta();
    cfg.efitCacheBytes = 2 * 16;  // one 2-way set
    Efit efit(cfg);
    // Use fingerprints landing in the same (only) set.
    efit.insert(10, 0);
    efit.insert(20, 64);
    // Make fp=10 hot.
    Efit::Entry *hot = efit.lookup(10);
    efit.bumpRef(hot);
    efit.bumpRef(hot);
    // Insert a third: LRCU must evict fp=20 (referH 1), not fp=10.
    efit.insert(30, 128);
    EXPECT_NE(efit.lookup(10), nullptr);
    EXPECT_EQ(efit.lookup(20), nullptr);
    EXPECT_NE(efit.lookup(30), nullptr);
    EXPECT_EQ(efit.stats().evictionsRef1.value(), 1u);
}

TEST(Efit, LruModeIgnoresRefCounts)
{
    MetadataConfig cfg = tinyMeta();
    cfg.efitCacheBytes = 2 * 16;
    cfg.useLrcu = false;
    Efit efit(cfg);
    efit.insert(10, 0);
    efit.insert(20, 64);
    Efit::Entry *hot = efit.lookup(10);
    efit.bumpRef(hot);
    efit.bumpRef(hot);
    // lookup(10) refreshed LRU too, so 20 is LRU either way; touch 20
    // then 10 to make 10... we want to show refcounts don't protect:
    efit.lookup(20);  // now 10 is LRU despite high referH
    efit.insert(30, 128);
    EXPECT_EQ(efit.lookup(10), nullptr);  // hot entry evicted under LRU
    EXPECT_NE(efit.lookup(20), nullptr);
}

TEST(Efit, DecaySubtractsFixedValue)
{
    MetadataConfig cfg = tinyMeta();
    cfg.efitCacheBytes = 8 * 16;
    cfg.decayPeriod = 4;  // decay every 4 inserts
    cfg.decayDelta = 1;
    Efit efit(cfg);
    efit.insert(99, 0);
    Efit::Entry *e = efit.lookup(99);
    for (int i = 0; i < 5; ++i)
        efit.bumpRef(e);
    std::uint32_t before = e->referH;
    // Trigger one decay round with 4 more inserts.
    for (std::uint64_t i = 0; i < 4; ++i)
        efit.insert(1000 + i, 64 * (i + 1));
    EXPECT_EQ(efit.stats().decayRounds.value(), 1u);
    Efit::Entry *after = efit.lookup(99);
    if (after) {  // may have been evicted depending on set mapping
        EXPECT_EQ(after->referH, before - 1);
    }
}

/** Decay is per partition: inserts into one channel's partition age
 * only that partition's entries. */
TEST(Efit, DecayCountsInsertsPerPartition)
{
    MetadataConfig cfg = tinyMeta();
    cfg.efitCacheBytes = 64 * 16;
    cfg.decayPeriod = 4;
    cfg.decayDelta = 1;
    Efit efit(cfg, 2);
    efit.insert(7, 0, 1);
    Efit::Entry *e = efit.lookup(7, 1);
    ASSERT_NE(e, nullptr);
    efit.bumpRef(e);
    efit.bumpRef(e);
    for (std::uint64_t i = 0; i < 8; ++i)
        efit.insert(100 + i, 64 * (i + 1), 0);
    EXPECT_EQ(efit.stats().decayRounds.value(), 2u);
    EXPECT_EQ(efit.lookup(7, 1)->referH, 3u);
    for (std::uint64_t i = 0; i < 3; ++i)
        efit.insert(200 + i, 64 * (i + 20), 1);
    EXPECT_EQ(efit.stats().decayRounds.value(), 3u);
    EXPECT_EQ(efit.lookup(7, 1)->referH, 2u);
}

TEST(Efit, EraseRemovesMatchingEntryOnly)
{
    Efit efit(tinyMeta());
    efit.insert(5, 0);
    efit.erase(5, 64);  // wrong phys: no-op
    EXPECT_NE(efit.lookup(5), nullptr);
    efit.erase(5, 0);
    EXPECT_EQ(efit.lookup(5), nullptr);
}

TEST(Efit, CapacityMatchesPaperGeometry)
{
    // Table I: 512 KB EFIT at 16 B/entry = 32K entries.
    MetadataConfig cfg;
    Efit efit(cfg);
    EXPECT_EQ(efit.capacityEntries(), 512u * 1024 / 16);
}

// ------------------------------------------------------------- FpTable

TEST(FpTable, MissRequiresNvmLookup)
{
    FpTable t(16 * 26, 26, 2, 1 << 30);
    FpTable::LookupResult r = t.lookup(0x42);
    EXPECT_FALSE(r.found);
    EXPECT_FALSE(r.cacheHit);
    EXPECT_TRUE(r.nvmLookup);  // full dedup always checks NVMM
    EXPECT_EQ(t.stats().nvmLookups.value(), 1u);
}

TEST(FpTable, InsertThenCacheHit)
{
    FpTable t(16 * 26, 26, 2, 1 << 30);
    Addr store_addr;
    t.insert(0x42, 640, store_addr);
    EXPECT_NE(store_addr, kInvalidAddr);
    FpTable::LookupResult r = t.lookup(0x42);
    EXPECT_TRUE(r.found);
    EXPECT_TRUE(r.cacheHit);
    EXPECT_EQ(r.phys, 640u);
}

TEST(FpTable, EvictedEntryStillFoundViaNvm)
{
    FpTable t(2 * 26, 26, 2, 1 << 30);  // single 2-way set
    Addr sa;
    t.insert(1, 0, sa);
    t.insert(2, 64, sa);
    t.insert(3, 128, sa);  // evicts one of the first two from cache
    // All three remain findable (full index lives in NVMM).
    for (std::uint64_t fp : {1, 2, 3}) {
        FpTable::LookupResult r = t.lookup(fp);
        EXPECT_TRUE(r.found) << fp;
    }
    EXPECT_GT(t.stats().nvmFoundAfterMiss.value(), 0u);
}

TEST(FpTable, EraseForgetsEverywhere)
{
    FpTable t(16 * 26, 26, 2, 1 << 30);
    Addr sa;
    t.insert(7, 0, sa);
    t.erase(7);
    FpTable::LookupResult r = t.lookup(7);
    EXPECT_FALSE(r.found);
    EXPECT_TRUE(r.nvmLookup);
    EXPECT_EQ(t.nvmEntries(), 0u);
}

TEST(FpTable, NvmBytesUsesEntrySize)
{
    FpTable t(16 * 26, 26, 2, 1 << 30);
    Addr sa;
    t.insert(1, 0, sa);
    t.insert(2, 64, sa);
    EXPECT_EQ(t.nvmBytes(), 52u);
}

// ------------------------------------------------- sharded partitions

/** FNV-1a over the fields of every valid EFIT entry, in order. */
std::uint64_t
snapshotDigest(const std::vector<Efit::Entry> &entries)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&](std::uint64_t v) {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    for (const Efit::Entry &e : entries) {
        mix(e.ecc);
        mix(e.phys.toAddr());
        mix(e.referH);
        mix(e.lastUse);
    }
    return h;
}

/** A 4-shard EFIT driven through its partitions in the order 2, 0, 3
 * (shard 1 never probed): hits, LRCU victims, decay rounds and the
 * surviving entries are pinned, so allocating a partition at its first
 * probe changes nothing a caller can see. Each partition decays on its
 * own inserts, so a partition's entries age only with its own
 * traffic. */
TEST(Efit, ShardPartitionsInOrder203)
{
    MetadataConfig cfg = tinyMeta();
    cfg.efitCacheBytes = 64 * 16;  // 32 sets: 8 per shard
    cfg.efitAssoc = 2;
    cfg.decayPeriod = 16;
    Efit efit(cfg, 4);
    Addr phys = 0;
    for (unsigned shard : {2u, 0u, 3u}) {
        for (std::uint64_t i = 0; i < 300; ++i) {
            LineEcc ecc = (i * 7919 + i / 3) % 41 + shard * 1000;
            if (Efit::Entry *e = efit.lookup(ecc, shard)) {
                if (!efit.bumpRef(e))
                    efit.redirect(e, phys += kLineSize);
            } else {
                efit.insert(ecc, phys += kLineSize, shard);
            }
            if (i % 37 == 0)
                efit.erase(ecc, phys, shard);
        }
    }
    EXPECT_EQ(efit.stats().hits.value(), 302u);
    EXPECT_EQ(efit.stats().evictions.value(), 532u);
    EXPECT_EQ(efit.stats().evictionsRef1.value(), 503u);
    EXPECT_EQ(efit.stats().decayRounds.value(), 36u);
    EXPECT_EQ(efit.validEntries(), 47u);
    std::vector<Efit::Entry> snap = efit.snapshotValid();
    EXPECT_EQ(snap.size(), 47u);
    EXPECT_EQ(snapshotDigest(snap), 18070414130974978509ull);
    EXPECT_EQ(efit.capacityEntries(), 64u);
    EXPECT_EQ(efit.lookup(1002, 1), nullptr);
}

/** The same walk over a 4-shard fingerprint table: cache hits, NVMM
 * finds and the index addresses (each on its shard's own channel) are
 * pinned. */
TEST(FpTable, ShardPartitionsInOrder203)
{
    FpTable t(32 * 26, 26, 2, 1 << 30, 4);  // 16 sets: 4 per shard
    Addr phys = 0;
    std::uint64_t addr_sum = 0;
    for (unsigned shard : {2u, 0u, 3u}) {
        for (std::uint64_t i = 0; i < 300; ++i) {
            std::uint64_t fp = (i * 7919 + i / 3) % 41 + shard * 1000;
            FpTable::LookupResult r = t.lookup(fp, shard);
            addr_sum += r.nvmAddr == kInvalidAddr ? 0 : r.nvmAddr;
            if (!r.found) {
                Addr sa;
                t.insert(fp, phys += kLineSize, sa, shard);
                addr_sum += sa;
            }
            if (i % 37 == 0)
                t.erase(fp, shard);
        }
    }
    EXPECT_EQ(t.stats().cacheHits.value(), 14u);
    EXPECT_EQ(t.stats().cacheMisses.value(), 886u);
    EXPECT_EQ(t.stats().nvmFoundAfterMiss.value(), 739u);
    EXPECT_EQ(t.nvmEntries(), 120u);
    EXPECT_EQ(addr_sum, 1109175553600ull);
    EXPECT_EQ(t.cacheCapacityEntries(), 32u);
    EXPECT_FALSE(t.lookup(1002, 1).found);
}

// ------------------------------------------------------------ predictor

TEST(DupPredictor, LearnsDuplicateRegions)
{
    DupPredictor p(64);
    Addr addr = 0x1000;
    // Initially weakly not-duplicate.
    EXPECT_FALSE(p.predictDuplicate(addr));
    p.train(addr, false, true);
    p.train(addr, p.predictDuplicate(addr), true);
    EXPECT_TRUE(p.predictDuplicate(addr));
}

TEST(DupPredictor, ForgetsAfterNonDuplicates)
{
    DupPredictor p(64);
    Addr addr = 0x2000;
    for (int i = 0; i < 4; ++i)
        p.train(addr, p.predictDuplicate(addr), true);
    EXPECT_TRUE(p.predictDuplicate(addr));
    for (int i = 0; i < 4; ++i)
        p.train(addr, p.predictDuplicate(addr), false);
    EXPECT_FALSE(p.predictDuplicate(addr));
}

/** Each channel trains only its own counters: duplicate-heavy lines
 * on channel 0 never flip a prediction on channel 1. */
TEST(DupPredictor, ChannelsOwnTheirCounters)
{
    DupPredictor p(64, 4);  // 16 counters per channel
    for (std::uint64_t line = 0; line < 400; line += 4)
        for (int i = 0; i < 3; ++i)
            p.train(line * kLineSize, false, true);
    for (std::uint64_t line = 1; line < 400; line += 4)
        EXPECT_FALSE(p.predictDuplicate(line * kLineSize)) << line;
    EXPECT_TRUE(p.predictDuplicate(0));
}

TEST(DupPredictor, AccuracyTracking)
{
    DupPredictor p(64);
    p.train(0, true, true);    // T1
    p.train(64, true, false);  // F2
    p.train(128, false, false);// T3
    p.train(192, false, true); // F4
    EXPECT_EQ(p.stats().total(), 4u);
    EXPECT_DOUBLE_EQ(p.stats().accuracy(), 0.5);
    EXPECT_EQ(p.stats().predictDupActualDup.value(), 1u);
    EXPECT_EQ(p.stats().predictNewActualDup.value(), 1u);
}

} // namespace
} // namespace esd
