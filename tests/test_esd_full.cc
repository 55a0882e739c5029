/**
 * @file
 * Tests for the ESD_Full ablation scheme (ECC fingerprints + full
 * NVMM-resident index) and its relationship to ESD proper.
 */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "core/simulator.hh"
#include "dedup/esd_full.hh"
#include "exec/pipeline.hh"
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

TEST(EsdFull, FactoryBuildsIt)
{
    SimConfig c = cfg();
    PcmDevice dev(c.pcm);
    NvmStore store(c.pcm.capacityBytes);
    auto s = makeScheme(SchemeKind::EsdFull, c, dev, store);
    EXPECT_EQ(s->name(), "ESD_Full");
    EXPECT_EQ(parseSchemeKind("esd_full"), SchemeKind::EsdFull);
}

TEST(EsdFull, ReadYourWrites)
{
    SimConfig c = cfg();
    PcmDevice dev(c.pcm);
    NvmStore store(c.pcm.capacityBytes);
    EsdFullScheme scheme(c, dev, store);
    Pcg32 rng(1);
    std::unordered_map<Addr, CacheLine> expect;
    Tick now = 0;
    for (int i = 0; i < 300; ++i) {
        Addr addr = static_cast<Addr>(rng.below(48)) * kLineSize;
        CacheLine data;
        if (rng.chance(0.5))
            data.setWord(0, rng.below(6));
        else
            rng.fillLine(data);
        scheme.write(addr, data, now);
        now += 200;
        expect[addr] = data;
    }
    for (const auto &[addr, want] : expect) {
        CacheLine got;
        scheme.read(addr, got, now);
        now += 200;
        EXPECT_EQ(got, want);
    }
}

TEST(EsdFull, NoHashButDoesNvmLookups)
{
    // Keeps ESD's free fingerprint but pays the full-dedup lookups.
    SimConfig c = cfg();
    PcmDevice dev(c.pcm);
    NvmStore store(c.pcm.capacityBytes);
    EsdFullScheme scheme(c, dev, store);
    Pcg32 rng(2);
    Tick now = 0;
    for (int i = 0; i < 200; ++i) {
        CacheLine data;
        rng.fillLine(data);
        scheme.write(static_cast<Addr>(i) * kLineSize, data, now);
        now += 200;
    }
    EXPECT_DOUBLE_EQ(scheme.stats().hashEnergy, 0.0);
    EXPECT_GT(scheme.stats().fpNvmLookups.value(), 0u);
    EXPECT_GT(scheme.stats().fpNvmStores.value(), 0u);
    EXPECT_GT(scheme.metadataNvmBytes(), 0u);
}

TEST(EsdFull, DedupsAcrossEfitCapacityWhereEsdCannot)
{
    // Force heavy fingerprint pressure with a tiny on-chip cache: the
    // full index still finds old duplicates; selective ESD misses
    // them once evicted.
    SimConfig c = cfg();
    c.metadata.efitCacheBytes = 64 * 16;  // 64 fingerprints on chip
    c.metadata.decayPeriod = 0;

    auto run = [&](SchemeKind kind) {
        SyntheticWorkload trace(findApp("lbm"), 5);
        return runWorkload(c, kind, trace, 30000, 3000);
    };
    RunResult esd = run(SchemeKind::Esd);
    RunResult full = run(SchemeKind::EsdFull);
    EXPECT_GT(full.writeReduction(), esd.writeReduction());
}

TEST(EsdFull, MatchesSha1ReductionOnSameTrace)
{
    // Both are full dedup; the fingerprint differs but byte-compare
    // (EsdFull) and exact-hash (SHA1) find the same duplicates.
    SimConfig c = cfg();
    auto run = [&](SchemeKind kind) {
        SyntheticWorkload trace(findApp("gcc"), 7);
        return runWorkload(c, kind, trace, 20000, 2000);
    };
    RunResult sha = run(SchemeKind::DedupSha1);
    RunResult full = run(SchemeKind::EsdFull);
    EXPECT_NEAR(sha.writeReduction(), full.writeReduction(), 0.01);
}

/** The run summary's fp_cache_hit_rate is the full index's cache hit
 * rate, in one Simulator and merged across pipeline shards alike. */
TEST(EsdFull, ReportsFpCacheHitRate)
{
    SimConfig c;
    {
        Simulator sim(c, SchemeKind::EsdFull);
        SyntheticWorkload trace(findApp("mcf"), c.seed);
        RunResult r = sim.run(trace, 20000, 4000);
        const FpTable &fps =
            static_cast<EsdFullScheme &>(sim.scheme()).fpTable();
        EXPECT_GT(r.fpCacheHitRate, 0.0);
        EXPECT_EQ(r.fpCacheHitRate, fps.stats().cacheHitRate());
    }

    c.channels.count = 2;
    SyntheticWorkload trace(findApp("mcf"), c.seed);
    exec::ShardedPipeline pipe(c, SchemeKind::EsdFull, 2);
    const RunResult &merged = pipe.run(trace, 20000, 4000);
    std::uint64_t hits = 0;
    std::uint64_t lookups = 0;
    for (unsigned s = 0; s < pipe.shardCount(); ++s) {
        const FpTable &fps =
            static_cast<EsdFullScheme &>(pipe.shard(s).scheme()).fpTable();
        EXPECT_GT(pipe.shardResult(s).fpCacheHitRate, 0.0) << "shard " << s;
        EXPECT_EQ(pipe.shardResult(s).fpCacheHitRate,
                  fps.stats().cacheHitRate())
            << "shard " << s;
        hits += fps.stats().cacheHits.value();
        lookups += fps.stats().lookups.value();
    }
    ASSERT_GT(lookups, 0u);
    EXPECT_GT(merged.fpCacheHitRate, 0.0);
    EXPECT_EQ(merged.fpCacheHitRate,
              static_cast<double>(hits) / static_cast<double>(lookups));
}

} // namespace
} // namespace esd
