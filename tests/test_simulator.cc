/**
 * @file
 * Integration tests: full trace-driven runs across schemes, checking
 * the cross-scheme invariants the paper's evaluation rests on.
 */

#include <gtest/gtest.h>

#include "core/simulator.hh"
#include "trace/workloads.hh"

namespace esd
{
namespace
{

SimConfig
fastConfig()
{
    SimConfig cfg;
    cfg.pcm.banksPerChannel = 8;
    return cfg;
}

RunResult
runApp(const char *app, SchemeKind kind, std::uint64_t records = 20000,
       std::uint64_t warmup = 2000)
{
    SyntheticWorkload trace(findApp(app), 1);
    return runWorkload(fastConfig(), kind, trace, records, warmup);
}

TEST(Simulator, ProcessesRequestedRecords)
{
    RunResult r = runApp("gcc", SchemeKind::Baseline, 5000, 500);
    EXPECT_EQ(r.records, 4500u);
    EXPECT_EQ(r.logicalReads + r.logicalWrites, 4500u);
    EXPECT_GT(r.instructions, 0u);
    EXPECT_GT(r.runtimeNs, 0.0);
}

TEST(Simulator, BaselineWritesEverything)
{
    RunResult r = runApp("gcc", SchemeKind::Baseline);
    EXPECT_EQ(r.dedupHits, 0u);
    EXPECT_EQ(r.nvmDataWrites, r.logicalWrites);
}

TEST(Simulator, DedupSchemesReduceDataWrites)
{
    for (SchemeKind k : {SchemeKind::DedupSha1, SchemeKind::DeWrite,
                         SchemeKind::Esd}) {
        RunResult r = runApp("deepsjeng", k);
        EXPECT_GT(r.writeReduction(), 0.8) << schemeName(k);
        EXPECT_EQ(r.nvmDataWrites + r.dedupHits, r.logicalWrites)
            << schemeName(k);
    }
}

TEST(Simulator, FullDedupRemovesAtLeastAsMuchAsSelective)
{
    // ESD intentionally misses low-refcount duplicates (~18% in the
    // paper); full dedup must dominate on write reduction.
    for (const char *app : {"gcc", "lbm", "x264"}) {
        RunResult sha = runApp(app, SchemeKind::DedupSha1);
        RunResult esd = runApp(app, SchemeKind::Esd);
        EXPECT_GE(sha.writeReduction() + 0.02, esd.writeReduction())
            << app;
    }
}

TEST(Simulator, EsdHasNoFingerprintComputeOrNvmLookupLatency)
{
    RunResult r = runApp("wrf", SchemeKind::Esd);
    EXPECT_DOUBLE_EQ(r.breakdown.fpCompute, 0.0);
    EXPECT_DOUBLE_EQ(r.breakdown.fpNvmLookup, 0.0);
    EXPECT_DOUBLE_EQ(r.energy.hash, 0.0);
}

TEST(Simulator, Sha1DominatedByFingerprintCompute)
{
    // Fig. 17: ~80% of Dedup_SHA1 write latency is hashing.
    RunResult r = runApp("gcc", SchemeKind::DedupSha1);
    EXPECT_GT(r.breakdown.fpCompute / r.breakdown.total(), 0.5);
}

TEST(Simulator, EsdBeatsSha1OnWriteLatency)
{
    for (const char *app : {"gcc", "leela", "bodytrack"}) {
        RunResult sha = runApp(app, SchemeKind::DedupSha1);
        RunResult esd = runApp(app, SchemeKind::Esd);
        EXPECT_LT(esd.writeLatency.mean(), sha.writeLatency.mean())
            << app;
    }
}

TEST(Simulator, EsdBeatsBaselineOnHighDupApps)
{
    for (const char *app : {"deepsjeng", "roms"}) {
        RunResult base = runApp(app, SchemeKind::Baseline);
        RunResult esd = runApp(app, SchemeKind::Esd);
        EXPECT_LT(esd.writeLatency.mean(), base.writeLatency.mean())
            << app;
    }
}

TEST(Simulator, MetadataFootprintOrdering)
{
    // Fig. 19: Dedup_SHA1 > DeWrite > ESD > Baseline(0).
    RunResult base = runApp("gcc", SchemeKind::Baseline);
    RunResult sha = runApp("gcc", SchemeKind::DedupSha1);
    RunResult dw = runApp("gcc", SchemeKind::DeWrite);
    RunResult esd = runApp("gcc", SchemeKind::Esd);
    EXPECT_EQ(base.metadataNvmBytes, 0u);
    EXPECT_GT(sha.metadataNvmBytes, dw.metadataNvmBytes);
    EXPECT_GT(dw.metadataNvmBytes, esd.metadataNvmBytes);
    EXPECT_GT(esd.metadataNvmBytes, 0u);
}

TEST(Simulator, EnergyComponentsConsistent)
{
    RunResult r = runApp("mcf", SchemeKind::DedupSha1);
    EXPECT_GT(r.energy.hash, 0.0);
    EXPECT_GT(r.energy.deviceWrite, 0.0);
    EXPECT_GT(r.energy.deviceRead, 0.0);
    EXPECT_NEAR(r.energy.total(),
                r.energy.deviceRead + r.energy.deviceWrite +
                    r.energy.hash + r.energy.crypto + r.energy.metadata,
                1e-6);
}

TEST(Simulator, LatencySamplesMatchOperationCounts)
{
    RunResult r = runApp("nab", SchemeKind::Esd, 8000, 1000);
    EXPECT_EQ(r.writeLatency.count(), r.logicalWrites);
    EXPECT_EQ(r.readLatency.count(), r.logicalReads);
}

TEST(Simulator, WarmupExcludedFromStats)
{
    SyntheticWorkload t1(findApp("gcc"), 1);
    RunResult with_warm = runWorkload(fastConfig(), SchemeKind::Esd, t1,
                                      10000, 5000);
    EXPECT_EQ(with_warm.records, 5000u);
    EXPECT_EQ(with_warm.logicalReads + with_warm.logicalWrites, 5000u);
}

TEST(Simulator, IpcIsPositiveAndBounded)
{
    for (SchemeKind k : allSchemeKinds()) {
        RunResult r = runApp("fluidanimate", k, 10000, 1000);
        EXPECT_GT(r.ipc, 0.0) << schemeName(k);
        EXPECT_LE(r.ipc, 1.01) << schemeName(k);  // in-order, CPI >= 1
    }
}

TEST(Simulator, EsdFpCacheHitRateReported)
{
    RunResult r = runApp("deepsjeng", SchemeKind::Esd);
    EXPECT_GT(r.fpCacheHitRate, 0.5);
    EXPECT_GT(r.amtCacheHitRate, 0.0);
}

TEST(Simulator, DeterministicAcrossRuns)
{
    RunResult a = runApp("leela", SchemeKind::Esd, 6000, 500);
    RunResult b = runApp("leela", SchemeKind::Esd, 6000, 500);
    EXPECT_EQ(a.dedupHits, b.dedupHits);
    EXPECT_DOUBLE_EQ(a.writeLatency.mean(), b.writeLatency.mean());
    EXPECT_DOUBLE_EQ(a.ipc, b.ipc);
}

/** Property sweep: for every app, basic conservation laws hold for
 * every scheme. */
class SimulatorConservationTest
    : public ::testing::TestWithParam<std::tuple<std::string, SchemeKind>>
{
};

TEST_P(SimulatorConservationTest, WritesConserved)
{
    auto [app, kind] = GetParam();
    SyntheticWorkload trace(findApp(app), 3);
    RunResult r = runWorkload(fastConfig(), kind, trace, 6000, 500);
    EXPECT_EQ(r.nvmDataWrites + r.dedupHits, r.logicalWrites);
    // Total device writes include metadata traffic.
    EXPECT_GE(r.nvmWritesTotal, r.nvmDataWrites);
    // No scheme may dedup more than it was asked to write.
    EXPECT_LE(r.dedupHits, r.logicalWrites);
}

INSTANTIATE_TEST_SUITE_P(
    AppsBySchemes, SimulatorConservationTest,
    ::testing::Combine(::testing::Values("gcc", "lbm", "deepsjeng",
                                         "swaptions", "dedup"),
                       ::testing::Values(SchemeKind::Baseline,
                                         SchemeKind::DedupSha1,
                                         SchemeKind::DeWrite,
                                         SchemeKind::Esd)),
    [](const auto &info) {
        return std::get<0>(info.param) + "_" +
               schemeName(std::get<1>(info.param));
    });

} // namespace
} // namespace esd
