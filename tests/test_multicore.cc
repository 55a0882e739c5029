/**
 * @file
 * Tests for multi-core runs: Simulator::run with one trace per core.
 */

#include <gtest/gtest.h>

#include <memory>

#include "core/simulator.hh"
#include "trace/workloads.hh"

namespace esd
{
namespace
{

SimConfig
cfg()
{
    SimConfig c;
    c.pcm.banksPerChannel = 4;
    return c;
}

/** One synthetic trace per core: @p apps[i] seeded @p seed_base + i. */
RunResult
runCores(SchemeKind kind, const std::vector<const char *> &apps,
         std::uint64_t records, std::uint64_t warmup,
         std::uint64_t seed_base = 10)
{
    std::vector<std::unique_ptr<SyntheticWorkload>> owned;
    std::vector<TraceSource *> traces;
    for (std::size_t i = 0; i < apps.size(); ++i) {
        owned.push_back(std::make_unique<SyntheticWorkload>(
            findApp(apps[i]), seed_base + i));
        traces.push_back(owned.back().get());
    }
    Simulator sim(cfg(), kind);
    return sim.run(traces, records, warmup);
}

TEST(MultiCore, EveryCoreProcessesItsRecords)
{
    RunResult r = runCores(SchemeKind::Esd, {"gcc", "gcc", "gcc", "gcc"},
                           3000, 500);
    EXPECT_EQ(r.records, 4u * (3000 - 500));
    EXPECT_GT(r.ipc, 0.0);
    // Shared stats reset when the LAST core leaves warm-up, so they
    // cover at most the measured records and can trail by up to the
    // other cores' warm-up progress.
    std::uint64_t counted = r.logicalReads + r.logicalWrites;
    EXPECT_LE(counted, r.records);
    EXPECT_GE(counted, r.records - 3u * 500);
}

TEST(MultiCore, SingleCoreMatchesSimulatorShape)
{
    // A one-entry trace list is the single-core run.
    SimConfig c = cfg();
    SyntheticWorkload t1(findApp("wrf"), 3);
    RunResult single = runWorkload(c, SchemeKind::Esd, t1, 5000, 1000);
    RunResult multi = runCores(SchemeKind::Esd, {"wrf"}, 5000, 1000, 3);

    EXPECT_EQ(multi.records, single.records);
    EXPECT_EQ(multi.dedupHits, single.dedupHits);
    EXPECT_EQ(multi.writeLatency.mean(), single.writeLatency.mean());
    EXPECT_EQ(multi.ipc, single.ipc);
}

TEST(MultiCore, MoreCoresMoreContention)
{
    // Same per-core workload: 8 cores sharing 4 banks must see higher
    // mean latencies than 1 core does.
    RunResult r1 = runCores(SchemeKind::Baseline, {"mcf"}, 4000, 500);
    RunResult r8 = runCores(SchemeKind::Baseline,
                            std::vector<const char *>(8, "mcf"), 4000, 500);

    EXPECT_GT(r8.writeLatency.mean(), r1.writeLatency.mean());
    EXPECT_GT(r8.readLatency.mean(), r1.readLatency.mean());
    // Aggregate throughput still grows with cores.
    EXPECT_GT(r8.ipc, r1.ipc);
}

TEST(MultiCore, CrossCoreDeduplication)
{
    // Different cores writing identical content dedup against each
    // other through the shared EFIT: same app and seed on every core.
    SyntheticWorkload a(findApp("deepsjeng"), 1);
    SyntheticWorkload b(findApp("deepsjeng"), 1);
    SyntheticWorkload c(findApp("deepsjeng"), 1);
    SyntheticWorkload d(findApp("deepsjeng"), 1);
    Simulator sim(cfg(), SchemeKind::Esd);
    RunResult r = sim.run({&a, &b, &c, &d}, 2000, 0);
    EXPECT_GT(r.writeReduction(), 0.99);
}

TEST(MultiCore, DeterministicAcrossRuns)
{
    const std::vector<const char *> apps(4, "x264");
    RunResult ra = runCores(SchemeKind::DeWrite, apps, 3000, 300);
    RunResult rb = runCores(SchemeKind::DeWrite, apps, 3000, 300);
    EXPECT_EQ(ra.dedupHits, rb.dedupHits);
    EXPECT_EQ(ra.runtimeNs, rb.runtimeNs);
    EXPECT_EQ(ra.ipc, rb.ipc);
}

/** Numbers the dedicated MultiCoreSimulator loop produced for these
 * runs before it folded into Simulator::run: the fold moves none. */
struct InterleavePin
{
    SchemeKind kind;
    unsigned cores;
    std::uint64_t dedupHits;
    double runtimeNs;
    double ipc;
    double readLatencyMean;
    double writeLatencyMean;
};

TEST(MultiCore, InterleaveMatchesPinnedNumbers)
{
    const InterleavePin pins[] = {
        {SchemeKind::Esd, 1, 721, 119150, 0.1546537977339488,
         83.865945045795172, 125.74228523769808},
        {SchemeKind::Esd, 4, 3738, 235706, 0.21461693804994358,
         198.41575246132209, 230.61562622693364},
        {SchemeKind::DeWrite, 1, 722, 178693, 0.10312099522644984,
         133.44379683597003, 206.50458715596329},
        {SchemeKind::DeWrite, 4, 3807, 411284, 0.12299651822098598,
         357.8230533072844, 420.45419329846987},
    };
    const std::vector<const char *> mix = {"gcc", "lbm", "x264", "mcf"};
    for (const InterleavePin &p : pins) {
        RunResult r = runCores(
            p.kind,
            std::vector<const char *>(mix.begin(), mix.begin() + p.cores),
            3000, 600, 100);
        SCOPED_TRACE(std::string(schemeName(p.kind)) + " x" +
                     std::to_string(p.cores));
        EXPECT_EQ(r.records, p.cores * (3000u - 600));
        EXPECT_EQ(r.dedupHits, p.dedupHits);
        EXPECT_EQ(r.runtimeNs, p.runtimeNs);
        EXPECT_EQ(r.ipc, p.ipc);
        EXPECT_EQ(r.readLatency.mean(), p.readLatencyMean);
        EXPECT_EQ(r.writeLatency.mean(), p.writeLatencyMean);
    }
}

} // namespace
} // namespace esd
