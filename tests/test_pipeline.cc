/**
 * @file
 * Test wall for the intra-simulation sharded write pipeline
 * (exec/pipeline.hh).
 *
 * The pipeline's one promise is worth a wall: the merged stats report
 * is byte-for-byte identical at any worker count. Every test here
 * compares whole serialized reports (with firstJsonDivergence as the
 * failure diagnostic), because "the counters happen to match" is a
 * much weaker statement than "not one byte moved". The jittered
 * variants re-run the same comparisons with randomized per-worker
 * barrier delays (ESD_TEST_JITTER=1) so a scheduling-dependent merge
 * cannot hide behind a lucky interleaving — under TSan this doubles
 * as a race-flushing stress. SerialPipelineTest holds the pipeline to
 * the serial simulation: the shards' summed counters equal the serial
 * run's wherever time cannot move them.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/stat_registry.hh"
#include "core/simulator.hh"
#include "exec/pipeline.hh"
#include "exec/sweep_runner.hh"
#include "trace/workloads.hh"

namespace esd
{
namespace
{

/** Eight-channel config with a barrier every 512 records: enough
 * epochs (tens) that cross-shard effects get real exercise. */
SimConfig
pipelineConfig(unsigned channels)
{
    SimConfig c;
    c.channels.count = channels;
    c.channels.wpqCoalescing = channels > 1;
    c.pipeline.epochRecords = 512;
    return c;
}

/** Run one pipeline and return the full serialized report. */
std::string
runReport(SchemeKind kind, const SimConfig &cfg, unsigned workers,
          std::uint64_t records = 12000, std::uint64_t warmup = 2000,
          const char *app = "gcc")
{
    SyntheticWorkload trace(findApp(app), cfg.seed);
    exec::ShardedPipeline pipe(cfg, kind, workers);
    pipe.run(trace, records, warmup);
    std::ostringstream os;
    pipe.writeReport(os);
    return os.str();
}

class PipelineIdentityTest : public ::testing::TestWithParam<SchemeKind>
{
};

/** The headline guarantee: workers in {1, 2, 4, 8} over eight shards
 * produce the identical report, for every scheme. */
TEST_P(PipelineIdentityTest, ReportBytesIdenticalAcrossWorkerCounts)
{
    SimConfig c = pipelineConfig(8);
    const std::string base = runReport(GetParam(), c, 1);
    for (unsigned w : {2u, 4u, 8u}) {
        const std::string other = runReport(GetParam(), c, w);
        ASSERT_EQ(base, other)
            << schemeName(GetParam()) << " workers=" << w
            << " diverges at "
            << exec::firstJsonDivergence(base, other);
    }
}

/** The worker count is an execution knob: it must never leak into the
 * serialized report (that would break identity by construction). */
TEST_P(PipelineIdentityTest, ReportNeverSerializesWorkerCount)
{
    SimConfig c = pipelineConfig(4);
    const std::string rep = runReport(GetParam(), c, 4);
    EXPECT_EQ(rep.find("\"workers\""), std::string::npos);
    EXPECT_NE(rep.find("\"shards\""), std::string::npos);
    EXPECT_NE(rep.find("\"pipeline\""), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, PipelineIdentityTest,
    ::testing::Values(SchemeKind::Baseline, SchemeKind::DedupSha1,
                      SchemeKind::DeWrite, SchemeKind::Esd,
                      SchemeKind::EsdFull, SchemeKind::EsdPlus),
    [](const auto &info) {
        std::string n = schemeName(info.param);
        for (char &ch : n)
            if (!std::isalnum(static_cast<unsigned char>(ch)))
                ch = '_';
        return n;
    });

/** Randomized barrier arrival delays must be invisible in the bytes:
 * determinism is structural, not a race won by fast hardware. */
TEST(Pipeline, JitteredBarriersDoNotChangeBytes)
{
    SimConfig c = pipelineConfig(4);
    const std::string base = runReport(SchemeKind::Esd, c, 1);
    ::setenv("ESD_TEST_JITTER", "1", 1);
    const std::string jittered = runReport(SchemeKind::Esd, c, 4);
    ::unsetenv("ESD_TEST_JITTER");
    EXPECT_EQ(base, jittered)
        << exec::firstJsonDivergence(base, jittered);
}

/** One channel degenerates to one shard and one worker — the pipeline
 * must clamp rather than spin idle threads. */
TEST(Pipeline, SingleChannelClampsToOneWorker)
{
    SimConfig c = pipelineConfig(1);
    exec::ShardedPipeline pipe(c, SchemeKind::Esd, 8);
    EXPECT_EQ(pipe.shardCount(), 1u);
    EXPECT_EQ(pipe.workers(), 1u);

    SyntheticWorkload trace(findApp("x264"), c.seed);
    const RunResult &r = pipe.run(trace, 4000, 500);
    EXPECT_EQ(r.records, 3500u);
    EXPECT_GE(pipe.epochsRun(), 1u);
}

/** The merged result must be exactly the shard-order fold of the
 * per-shard results: sums for counters, max for simulated time, and
 * exact histogram merges for latency. */
TEST(Pipeline, MergedResultIsShardOrderFold)
{
    SimConfig c = pipelineConfig(4);
    SyntheticWorkload trace(findApp("mcf"), c.seed);
    exec::ShardedPipeline pipe(c, SchemeKind::EsdPlus, 4);
    const RunResult &m = pipe.run(trace, 10000, 1000);
    EXPECT_EQ(m.records, 9000u);

    std::uint64_t records = 0, writes = 0, reads = 0, hits = 0;
    std::uint64_t nvm_w = 0, nvm_r = 0, wlat = 0, rlat = 0;
    std::uint64_t meta = 0, wear_writes = 0;
    double max_rt = 0;
    for (unsigned s = 0; s < pipe.shardCount(); ++s) {
        const RunResult &r = pipe.shardResult(s);
        records += r.records;
        writes += r.logicalWrites;
        reads += r.logicalReads;
        hits += r.dedupHits;
        nvm_w += r.nvmWritesTotal;
        nvm_r += r.nvmReadsTotal;
        wlat += r.writeLatency.count();
        rlat += r.readLatency.count();
        meta += r.metadataNvmBytes;
        wear_writes += r.wear.totalWrites;
        max_rt = std::max(max_rt, r.runtimeNs);
    }
    EXPECT_EQ(m.records, records);
    EXPECT_EQ(m.logicalWrites, writes);
    EXPECT_EQ(m.logicalReads, reads);
    EXPECT_EQ(m.dedupHits, hits);
    EXPECT_EQ(m.nvmWritesTotal, nvm_w);
    EXPECT_EQ(m.nvmReadsTotal, nvm_r);
    EXPECT_EQ(m.writeLatency.count(), wlat);
    EXPECT_EQ(m.readLatency.count(), rlat);
    EXPECT_EQ(m.metadataNvmBytes, meta);
    EXPECT_EQ(m.wear.totalWrites, wear_writes);
    EXPECT_DOUBLE_EQ(m.runtimeNs, max_rt);
    EXPECT_EQ(m.nvmDataWrites + m.dedupHits, m.logicalWrites);
}

/** Barrier-sampled interval rows: identical across worker counts,
 * cumulative counters monotone, epochs strictly increasing. */
TEST(Pipeline, IntervalRowsIdenticalAndMonotone)
{
    SimConfig c = pipelineConfig(4);
    c.pipeline.sampleEpochs = 2;

    auto runRows = [&c](unsigned workers) {
        SyntheticWorkload trace(findApp("gcc"), c.seed);
        exec::ShardedPipeline pipe(c, SchemeKind::Esd, workers);
        pipe.run(trace, 12000, 2000);
        return pipe.intervals();
    };
    const auto rows1 = runRows(1);
    const auto rows4 = runRows(4);

    ASSERT_FALSE(rows1.empty());
    ASSERT_EQ(rows1.size(), rows4.size());
    for (std::size_t i = 0; i < rows1.size(); ++i) {
        EXPECT_EQ(rows1[i].epoch, rows4[i].epoch);
        EXPECT_EQ(rows1[i].logicalWrites, rows4[i].logicalWrites);
        EXPECT_EQ(rows1[i].dedupHits, rows4[i].dedupHits);
        EXPECT_EQ(rows1[i].nvmWritesTotal, rows4[i].nvmWritesTotal);
        EXPECT_EQ(rows1[i].nvmReadsTotal, rows4[i].nvmReadsTotal);
        if (i > 0) {
            EXPECT_GT(rows1[i].epoch, rows1[i - 1].epoch);
            EXPECT_GE(rows1[i].logicalWrites, rows1[i - 1].logicalWrites);
            EXPECT_GE(rows1[i].nvmWritesTotal,
                      rows1[i - 1].nvmWritesTotal);
        }
    }
}

/** [ras] composition: the cross-shard UE sum latches dedup suspension
 * on *every* shard at the same barrier whatever the worker count. */
TEST(Pipeline, GlobalSuspensionLatchesDeterministically)
{
    SimConfig c = pipelineConfig(4);
    c.ras.enabled = true;
    c.ras.readBer = 1e-3;  // double-bit UEs within a few hundred reads
    c.ras.dedupSuspendUes = 3;

    auto runOnce = [&c](unsigned workers, std::string &rep,
                        std::uint64_t &epoch, bool &latched) {
        SyntheticWorkload trace(findApp("dedup"), c.seed);
        exec::ShardedPipeline pipe(c, SchemeKind::Esd, workers);
        pipe.run(trace, 12000, 2000);
        std::ostringstream os;
        pipe.writeReport(os);
        rep = os.str();
        latched = pipe.dedupSuspendedGlobally();
        epoch = pipe.suspendEpoch();
        if (latched) {
            for (unsigned s = 0; s < pipe.shardCount(); ++s) {
                EXPECT_TRUE(pipe.shard(s).scheme().ras().dedupSuspended())
                    << "shard " << s << " missed the global latch";
            }
        }
    };

    std::string rep1, rep4;
    std::uint64_t epoch1 = 0, epoch4 = 0;
    bool latched1 = false, latched4 = false;
    runOnce(1, rep1, epoch1, latched1);
    runOnce(4, rep4, epoch4, latched4);

    ASSERT_TRUE(latched1) << "BER too low to trip the latch";
    EXPECT_EQ(latched1, latched4);
    EXPECT_EQ(epoch1, epoch4);
    EXPECT_EQ(rep1, rep4) << exec::firstJsonDivergence(rep1, rep4);
}

/** [persistence] composition: a globally-indexed injected crash lands
 * on the same shard at the same local write whatever the worker
 * count, and recovery off the crash image converges. */
TEST(Pipeline, CrashInjectionIdenticalAcrossWorkerCounts)
{
    SimConfig c = pipelineConfig(4);
    c.persist.enabled = true;
    c.persist.domain = PersistDomain::Adr;
    c.persist.crashAtWrite = 600;

    auto runOnce = [&c](unsigned workers, std::string &rep,
                        int &shard) {
        SyntheticWorkload trace(findApp("gcc"), c.seed);
        exec::ShardedPipeline pipe(c, SchemeKind::Esd, workers);
        pipe.run(trace, 8000, 1000);
        EXPECT_EQ(pipe.checkInjectedCrash().error, "");
        shard = pipe.crashedShard();
        std::ostringstream os;
        pipe.writeReport(os);
        rep = os.str();
    };

    std::string rep1, rep4;
    int shard1 = -1, shard4 = -1;
    runOnce(1, rep1, shard1);
    runOnce(4, rep4, shard4);

    ASSERT_GE(shard1, 0) << "injected crash never fired";
    EXPECT_EQ(shard1, shard4);
    EXPECT_EQ(rep1, rep4) << exec::firstJsonDivergence(rep1, rep4);
}

/** Same key set, same value per key (slot order may differ). */
template <typename Map>
bool
sameMap(const Map &x, const Map &y)
{
    if (x.size() != y.size())
        return false;
    for (const auto &[k, v] : x) {
        auto it = y.find(k);
        if (it == y.end() || !(it->second == v))
            return false;
    }
    return true;
}

/** Field-by-field equality of two crash images. */
void
expectSameImage(const CrashImage &a, const CrashImage &b,
                const std::string &what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(a.domain, b.domain);
    EXPECT_EQ(a.phase, b.phase);
    EXPECT_EQ(a.crashWriteIndex, b.crashWriteIndex);
    EXPECT_EQ(a.tick, b.tick);
    EXPECT_EQ(a.inPlace, b.inPlace);
    EXPECT_EQ(a.tornRecords, b.tornRecords);

    ASSERT_EQ(a.content.size(), b.content.size());
    for (std::size_t i = 0; i < a.content.size(); ++i) {
        ASSERT_EQ(a.content[i].first, b.content[i].first) << "line " << i;
        EXPECT_EQ(a.content[i].second.data, b.content[i].second.data)
            << "line " << i;
        EXPECT_EQ(a.content[i].second.ecc, b.content[i].second.ecc)
            << "line " << i;
    }

    ASSERT_EQ(a.records.size(), b.records.size());
    for (std::size_t i = 0; i < a.records.size(); ++i) {
        const JournalRecord &x = a.records[i];
        const JournalRecord &y = b.records[i];
        EXPECT_TRUE(x.op == y.op && x.a == y.a && x.b == y.b &&
                    x.value == y.value && x.seq == y.seq &&
                    x.epoch == y.epoch)
            << "record " << i;
    }

    const CheckpointState &ca = a.checkpoint;
    const CheckpointState &cb = b.checkpoint;
    EXPECT_EQ(ca.seq, cb.seq);
    EXPECT_TRUE(sameMap(ca.amt, cb.amt));
    EXPECT_TRUE(sameMap(ca.refs, cb.refs));
    EXPECT_TRUE(sameMap(ca.fp, cb.fp));
    EXPECT_TRUE(sameMap(ca.ctr, cb.ctr));
    EXPECT_EQ(ca.retired.size(), cb.retired.size());
    for (Addr k : ca.retired)
        EXPECT_TRUE(cb.retired.contains(k));

    EXPECT_EQ(a.trueCounters, b.trueCounters);
}

/** A shard's crash image is exactly the image one standalone Simulator
 * builds from that shard's slice of the trace, crashed at the same
 * local write. Under ADR that includes reverting store writes still
 * queued at the crash tick, so the shard, armed only at run time,
 * must have kept its undo log from its first write. */
TEST(Pipeline, ShardCrashImageMatchesStandaloneSimulator)
{
    constexpr std::uint64_t kRecords = 8000;
    constexpr std::uint64_t kWarmup = 1000;
    for (CrashPhase phase : {CrashPhase::PreBarrier, CrashPhase::MidJournal,
                             CrashPhase::PostData}) {
        for (std::uint64_t crash_at : {600ull, 1500ull, 3000ull}) {
            SimConfig c = pipelineConfig(4);
            c.persist.enabled = true;
            c.persist.domain = PersistDomain::Adr;
            c.persist.crashPhase = phase;
            c.persist.crashAtWrite = crash_at;
            const std::string what =
                "phase " + std::to_string(static_cast<int>(phase)) +
                " crash_at_write " + std::to_string(crash_at);

            SyntheticWorkload trace(findApp("gcc"), c.seed);
            exec::ShardedPipeline pipe(c, SchemeKind::Esd, 2);
            pipe.run(trace, kRecords, kWarmup);
            const int shard = pipe.crashedShard();
            ASSERT_GE(shard, 0) << what;

            // The shard's slice, with the demux's measured flags and
            // the crash write's shard-local index.
            std::vector<std::pair<TraceRecord, bool>> slice;
            std::uint64_t writes = 0, local_writes = 0;
            SyntheticWorkload replay(findApp("gcc"), c.seed);
            TraceRecord rec;
            for (std::uint64_t i = 0; i < kRecords && replay.next(rec);
                 ++i) {
                const bool mine = lineIndex(rec.addr) % 4 ==
                                  static_cast<unsigned>(shard);
                if (rec.op == OpType::Write) {
                    ++writes;
                    if (mine && writes <= crash_at)
                        ++local_writes;
                }
                if (mine)
                    slice.emplace_back(rec, i >= kWarmup);
            }
            SimConfig solo_cfg = c;
            solo_cfg.persist.crashAtWrite = local_writes;

            Simulator solo(solo_cfg, SchemeKind::Esd);
            solo.beginRun();
            for (const auto &[r, measured] : slice)
                solo.stepRecord(r, measured);
            solo.endRun();
            ASSERT_TRUE(solo.persistence()->crashed()) << what;

            expectSameImage(
                pipe.shard(static_cast<unsigned>(shard))
                    .persistence()
                    ->image(),
                solo.persistence()->image(), what);
        }
    }
}

// ------------------------------------------------ serial == pipeline

/** The counters a run's timing cannot move: every scheme counter, the
 * metadata caches' counters, and the per-channel device access counts.
 * Gauges (hit rates, capacities) are left out, except the ESD+ content
 * cache's hit count, which is a gauge over a plain count. */
bool
timeFreeCounter(const StatRegistry::Entry &e)
{
    auto starts = [&e](const char *p) { return e.name.rfind(p, 0) == 0; };
    auto ends = [&e](const std::string &sfx) {
        return e.name.size() >= sfx.size() &&
               e.name.compare(e.name.size() - sfx.size(), sfx.size(),
                              sfx) == 0;
    };
    if (e.name == "esd.content_cache.hits")
        return true;
    if (e.kind != StatRegistry::Kind::Counter)
        return false;
    if (starts("pcm.ch"))
        return ends(".reads") || ends(".writes");
    return starts("scheme.") || starts("esd.efit.") ||
           starts("cache.amt.") || starts("cache.fp.");
}

/** Add @p reg 's time-free counters into @p sums. */
void
addTimeFreeCounters(const StatRegistry &reg,
                    std::map<std::string, double> &sums)
{
    for (const StatRegistry::Entry &e : reg.entries())
        if (timeFreeCounter(e))
            sums[e.name] += reg.scalar(e.name);
}

class SerialPipelineTest
    : public ::testing::TestWithParam<std::tuple<SchemeKind, unsigned>>
{
};

/**
 * A shard is exactly its channel's slice of the serial simulation: on
 * the default config, the serial run's time-free counters equal the
 * shards' sums, at one worker and at one worker per channel. Every
 * per-channel structure (the EFIT, the fingerprint cache and index,
 * the AMT cache and its blocks, the ESD+ content cache, the DeWrite
 * predictor, the line allocator) must partition by channel for this
 * to hold.
 */
TEST_P(SerialPipelineTest, ShardSumsEqualSerialCounters)
{
    const auto [kind, channels] = GetParam();
    SimConfig c;
    c.channels.count = channels;
    constexpr std::uint64_t kRecords = 30000;
    constexpr std::uint64_t kWarmup = 2000;

    std::map<std::string, double> serial;
    {
        SyntheticWorkload trace(findApp("gcc"), c.seed);
        Simulator sim(c, kind);
        sim.run(trace, kRecords, kWarmup);
        addTimeFreeCounters(sim.statRegistry(), serial);
    }
    ASSERT_TRUE(serial.count("scheme.logical_writes"));
    ASSERT_TRUE(serial.count("pcm.ch" + std::to_string(channels - 1) +
                             ".writes"));
    if (kind != SchemeKind::Baseline) {
        ASSERT_TRUE(serial.count("cache.amt.nvm_writebacks"));
    }

    for (unsigned workers : {1u, channels}) {
        SyntheticWorkload trace(findApp("gcc"), c.seed);
        exec::ShardedPipeline pipe(c, kind, workers);
        pipe.run(trace, kRecords, kWarmup);
        std::map<std::string, double> sums;
        for (unsigned s = 0; s < pipe.shardCount(); ++s)
            addTimeFreeCounters(pipe.shard(s).statRegistry(), sums);
        ASSERT_EQ(sums.size(), serial.size());
        for (const auto &[name, value] : serial) {
            EXPECT_EQ(sums[name], value)
                << name << " at -workers=" << workers;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SerialPipelineTest,
    ::testing::Combine(
        ::testing::Values(SchemeKind::Baseline, SchemeKind::DedupSha1,
                          SchemeKind::DeWrite, SchemeKind::Esd,
                          SchemeKind::EsdFull, SchemeKind::EsdPlus),
        ::testing::Values(3u, 4u)),
    [](const auto &info) {
        std::string n = schemeName(std::get<0>(info.param));
        for (char &ch : n)
            if (!std::isalnum(static_cast<unsigned char>(ch)))
                ch = '_';
        return n + "_ch" + std::to_string(std::get<1>(info.param));
    });

/** Sum of counter @p name over @p sims' registries. */
double
summed(const std::vector<const Simulator *> &sims, const std::string &name)
{
    double sum = 0;
    for (const Simulator *s : sims)
        sum += s->statRegistry().scalar(name);
    return sum;
}

/**
 * The metadata caches' counters restart at the warm-up boundary like
 * the scheme's own: each measured write makes one EFIT lookup and at
 * most one AMT update, so neither count may exceed the measured
 * writes — serially and at -workers=1 and -workers=4.
 */
TEST(WarmupReset, MetadataCacheCountersCountOnlyMeasuredWrites)
{
    SimConfig c;
    c.channels.count = 4;
    auto check = [](const std::vector<const Simulator *> &sims,
                    const std::string &where)
    {
        double writes = summed(sims, "scheme.logical_writes");
        ASSERT_GT(writes, 0) << where;
        EXPECT_LE(summed(sims, "esd.efit.lookups"), writes) << where;
        EXPECT_LE(summed(sims, "cache.amt.updates"), writes) << where;
    };

    SyntheticWorkload serial_trace(findApp("gcc"), c.seed);
    Simulator sim(c, SchemeKind::Esd);
    sim.run(serial_trace, 30000, 2000);
    check({&sim}, "serial");

    for (unsigned workers : {1u, 4u}) {
        SyntheticWorkload trace(findApp("gcc"), c.seed);
        exec::ShardedPipeline pipe(c, SchemeKind::Esd, workers);
        pipe.run(trace, 30000, 2000);
        std::vector<const Simulator *> shards;
        for (unsigned s = 0; s < pipe.shardCount(); ++s)
            shards.push_back(&pipe.shard(s));
        check(shards, "-workers=" + std::to_string(workers));
    }
}

} // namespace
} // namespace esd
