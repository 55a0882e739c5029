/**
 * @file
 * Tests for the ESD+ extension (hot-content compare cache).
 */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "core/simulator.hh"
#include "dedup/esd_plus.hh"
#include "trace/workloads.hh"

namespace esd
{
namespace
{

SimConfig
cfg()
{
    SimConfig c;
    c.pcm.banksPerChannel = 8;
    c.pcm.rowBufferLines = 0;
    return c;
}

struct Rig
{
    Rig() : device(config.pcm), store(config.pcm.capacityBytes),
            scheme(config, device, store)
    {
    }

    AccessResult
    write(Addr addr, const CacheLine &data)
    {
        AccessResult r = scheme.write(addr, data, now);
        now += 200;
        return r;
    }

    CacheLine
    read(Addr addr)
    {
        CacheLine out;
        scheme.read(addr, out, now);
        now += 200;
        return out;
    }

    SimConfig config = cfg();
    PcmDevice device;
    NvmStore store;
    EsdPlusScheme scheme;
    Tick now = 0;
};

CacheLine
lineWith(std::uint64_t v)
{
    CacheLine l;
    l.setWord(0, v);
    return l;
}

TEST(EsdPlus, FactoryAndName)
{
    SimConfig c = cfg();
    PcmDevice dev(c.pcm);
    NvmStore store(c.pcm.capacityBytes);
    auto s = makeScheme(SchemeKind::EsdPlus, c, dev, store);
    EXPECT_EQ(s->name(), "ESD+");
    EXPECT_EQ(parseSchemeKind("esd_plus"), SchemeKind::EsdPlus);
}

TEST(EsdPlus, HotLineComparesMoveOnChip)
{
    Rig rig;
    CacheLine data = lineWith(0xfeed);
    // First write unique; second dedup fetches + promotes (referH 2);
    // subsequent dedups hit the content cache.
    for (int i = 0; i < 12; ++i)
        rig.write(static_cast<Addr>(i) * kLineSize, data);
    EXPECT_GT(rig.scheme.contentCacheHits(), 8u);
    // Compare reads stop growing once cached: far fewer than dedups.
    EXPECT_LT(rig.scheme.stats().compareReads.value(), 4u);
    EXPECT_EQ(rig.scheme.stats().dedupHits.value(), 11u);
}

TEST(EsdPlus, ReadYourWritesWithDuplicatePressure)
{
    Rig rig;
    Pcg32 rng(3);
    std::unordered_map<Addr, CacheLine> expect;
    for (int i = 0; i < 600; ++i) {
        Addr addr = static_cast<Addr>(rng.below(64)) * kLineSize;
        CacheLine data;
        if (rng.chance(0.7))
            data = lineWith(rng.below(4));  // very hot duplicates
        else
            rng.fillLine(data);
        rig.write(addr, data);
        expect[addr] = data;
    }
    for (const auto &[addr, want] : expect)
        EXPECT_EQ(rig.read(addr), want);
}

TEST(EsdPlus, CachedContentInvalidatedWhenLineDies)
{
    Rig rig;
    CacheLine hot = lineWith(0x11);
    // Make it hot and cached.
    for (int i = 0; i < 6; ++i)
        rig.write(static_cast<Addr>(i) * kLineSize, hot);
    ASSERT_GT(rig.scheme.contentCacheSize(), 0u);
    // Kill every reference: overwrite all six addresses.
    for (int i = 0; i < 6; ++i)
        rig.write(static_cast<Addr>(i) * kLineSize, lineWith(0x22 + i));
    // Rewriting the old content must be treated as new, not matched
    // against stale cached bytes.
    AccessResult r = rig.write(100 * kLineSize, hot);
    EXPECT_FALSE(r.dedup);
    EXPECT_EQ(rig.read(100 * kLineSize), hot);
}

TEST(EsdPlus, CapacityBounded)
{
    Rig rig;
    Pcg32 rng(4);
    // Many distinct hot lines — more than the 64-line cache.
    for (std::uint64_t v = 0; v < 200; ++v) {
        CacheLine data = lineWith(v + 1000);
        for (int rep = 0; rep < 3; ++rep)
            rig.write((v * 3 + rep) * kLineSize, data);
    }
    EXPECT_LE(rig.scheme.contentCacheSize(),
              rig.scheme.contentCacheCapacity());
}

TEST(EsdPlus, SameReductionAsEsdOnSameTrace)
{
    SimConfig c = cfg();
    auto run = [&](SchemeKind kind) {
        SyntheticWorkload trace(findApp("deepsjeng"), 9);
        return runWorkload(c, kind, trace, 20000, 2000);
    };
    RunResult esd = run(SchemeKind::Esd);
    RunResult plus = run(SchemeKind::EsdPlus);
    // The content cache is a latency optimisation, not a dedup change.
    EXPECT_EQ(esd.dedupHits, plus.dedupHits);
    EXPECT_LE(plus.writeLatency.mean(), esd.writeLatency.mean() + 1.0);
    EXPECT_LE(plus.nvmReadsTotal, esd.nvmReadsTotal);
}

} // namespace
} // namespace esd
