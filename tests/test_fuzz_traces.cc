/**
 * @file
 * Seeded trace fuzzer for the multi-channel backend: random write/read
 * soups sweep the duplication rate and the channel count, and after
 * (and during) each run the structural invariants of the machinery
 * must hold:
 *
 *   - reference counts over live physical lines sum to the AMT's
 *     mapped logical lines;
 *   - every valid EFIT entry resolves to a live physical line (the
 *     eager onPhysFreed erasure keeps the index coherent);
 *   - per-bank busy-until clocks are monotone non-decreasing — the
 *     bank model's core assumption under in-order arrival;
 *   - offered writes are conserved: coalesced + issued = offered,
 *     globally and per channel.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/random.hh"
#include "core/simulator.hh"
#include "dedup/esd.hh"
#include "dedup/mapped_scheme.hh"
#include "exec/pipeline.hh"
#include "exec/sweep_runner.hh"
#include "trace/trace.hh"

namespace esd
{
namespace
{

class FuzzTraceTest
    : public ::testing::TestWithParam<
          std::tuple<SchemeKind, unsigned, int>>
{
  public:
    /** All invariants that must hold at any quiescent point. */
    static void
    checkInvariants(const DedupScheme &scheme, const PcmDevice &dev)
    {
        if (auto *m = dynamic_cast<const MappedDedupScheme *>(&scheme)) {
            std::uint64_t refs = 0;
            for (const auto &[phys, n] : m->lineStore().refTable()) {
                EXPECT_GT(n, 0u) << "live line with zero refs";
                refs += n;
            }
            EXPECT_EQ(refs, m->amt().mappingCount())
                << "refcount sum diverged from AMT mappings";
        }

        if (auto *e = dynamic_cast<const EsdScheme *>(&scheme)) {
            for (const Efit::Entry &ent : e->efit().snapshotValid()) {
                Addr phys = ent.phys.toAddr();
                EXPECT_TRUE(e->lineStore().isLive(phys))
                    << "EFIT entry points at dead line " << phys;
                // Sharded index: the entry's line lives on the shard's
                // channel, so the erase path can find it again.
                EXPECT_LT(dev.channelOf(phys), dev.channelCount());
            }
        }

        const NvmStats &s = dev.stats();
        EXPECT_EQ(s.writesOffered.value(),
                  s.writes.value() + s.writesCoalesced.value());
        std::uint64_t per_channel = 0;
        for (unsigned c = 0; c < dev.channelCount(); ++c)
            per_channel += dev.channelStats(c).writes.value() +
                           dev.channelStats(c).coalescedWrites.value();
        EXPECT_EQ(per_channel, s.writesOffered.value());
        if (!dev.coalescingEnabled()) {
            EXPECT_EQ(s.writesCoalesced.value(), 0u);
        }
    }
};

TEST_P(FuzzTraceTest, InvariantsHoldUnderRandomTraffic)
{
    auto [kind, channels, dup_pct] = GetParam();

    SimConfig c;
    c.pcm.banksPerChannel = 4;
    c.pcm.writeQueueDepth = 4;  // shallow: stalls and drains both fire
    c.channels.count = channels;
    c.channels.wpqCoalescing = channels > 1;
    // Small caches for eviction pressure; the AMT needs >= `channels`
    // sets to shard.
    c.metadata.efitCacheBytes = 64 * 16;
    c.metadata.amtCacheBytes = 64 * kLineSize;
    c.metadata.referHMax = 15;
    c.metadata.decayPeriod = 64;

    PcmDevice dev(c.pcm, c.channels);
    NvmStore store(c.pcm.capacityBytes);
    auto scheme = makeScheme(kind, c, dev, store);

    Pcg32 rng(0xF0221u + channels * 131u +
              static_cast<std::uint64_t>(dup_pct));
    std::vector<Tick> bank_clock(dev.totalBanks(), 0);
    Tick now = 0;

    for (int op = 0; op < 2500; ++op) {
        now += 40 + rng.below(120);
        Addr addr = static_cast<Addr>(rng.below(160)) * kLineSize;

        if (rng.chance(0.65)) {
            CacheLine data;
            if (rng.below(100) < static_cast<std::uint32_t>(dup_pct)) {
                // Duplicate pool content; a handful of hot values.
                data.setWord(0, rng.below(4));
                data.setWord(1, 0xBEEF);
            } else {
                rng.fillLine(data);
            }
            scheme->write(addr, data, now);
        } else {
            CacheLine got;
            scheme->read(addr, got, now);
        }

        // Bank clocks may only move forward.
        for (unsigned b = 0; b < dev.totalBanks(); ++b) {
            ASSERT_GE(dev.bankBusyUntil(b), bank_clock[b])
                << "bank " << b << " moved backwards at op " << op;
            bank_clock[b] = dev.bankBusyUntil(b);
        }

        if (op % 250 == 249)
            checkInvariants(*scheme, dev);
    }

    checkInvariants(*scheme, dev);

    // The sweep must have produced real traffic in both directions.
    EXPECT_GT(scheme->stats().logicalWrites.value(), 0u);
    EXPECT_GT(dev.stats().reads.value(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    DupRateByChannels, FuzzTraceTest,
    ::testing::Combine(::testing::Values(SchemeKind::DedupSha1,
                                         SchemeKind::DeWrite,
                                         SchemeKind::Esd,
                                         SchemeKind::EsdFull,
                                         SchemeKind::EsdPlus),
                       ::testing::Values(1u, 2u, 4u),
                       ::testing::Values(10, 70)),
    [](const auto &info) {
        std::string n = schemeName(std::get<0>(info.param));
        for (char &ch : n)
            if (!std::isalnum(static_cast<unsigned char>(ch)))
                ch = '_';
        return n + "_ch" + std::to_string(std::get<1>(info.param)) +
               "_dup" + std::to_string(std::get<2>(info.param));
    });

// ---------------------------------------------------------------------
// Pipeline fuzz sweep: the same PCG-seeded soups through the sharded
// write pipeline with [persistence] ADR journaling live, sweeping
// worker count x duplication rate x crash injection. Per seed, the
// report must be byte-identical at every worker count, every shard's
// structural invariants must close, the per-shard bank clocks must
// land on identical final values (the timing model is part of the
// determinism contract, not just the counters), and an injected crash
// must converge through recovery whatever thread executed the write.

/** A random soup as a replayable trace, seeded like the serial fuzz. */
VectorTrace
buildFuzzTrace(int dup_pct, int ops)
{
    Pcg32 rng(0xF1BE5u + static_cast<std::uint64_t>(dup_pct));
    VectorTrace trace;
    for (int op = 0; op < ops; ++op) {
        TraceRecord rec;
        rec.addr = static_cast<Addr>(rng.below(320)) * kLineSize;
        if (rng.chance(0.65)) {
            rec.op = OpType::Write;
            if (rng.below(100) < static_cast<std::uint32_t>(dup_pct)) {
                rec.data.setWord(0, rng.below(4));
                rec.data.setWord(1, 0xBEEF);
            } else {
                rng.fillLine(rec.data);
            }
        } else {
            rec.op = OpType::Read;
        }
        trace.push(rec);
    }
    return trace;
}

class PipelineFuzzTest
    : public ::testing::TestWithParam<
          std::tuple<SchemeKind, int, bool>>
{
};

TEST_P(PipelineFuzzTest, ShardsStayCoherentAtAnyWorkerCount)
{
    auto [kind, dup_pct, crash] = GetParam();

    SimConfig c;
    c.pcm.banksPerChannel = 4;
    c.pcm.writeQueueDepth = 4;
    c.channels.count = 4;
    c.channels.wpqCoalescing = true;
    c.metadata.efitCacheBytes = 64 * 16;
    c.metadata.amtCacheBytes = 64 * kLineSize;
    c.metadata.referHMax = 15;
    c.metadata.decayPeriod = 64;
    c.pipeline.epochRecords = 256;
    c.persist.enabled = true;
    c.persist.domain = PersistDomain::Adr;
    c.persist.crashAtWrite = crash ? 400 : 0;

    std::string base_report;
    std::vector<std::vector<Tick>> base_clocks;
    for (unsigned workers : {1u, 2u, 4u}) {
        VectorTrace trace = buildFuzzTrace(dup_pct, 3000);
        exec::ShardedPipeline pipe(c, kind, workers);
        pipe.run(trace, trace.size());

        // Recovery convergence: an injected crash must have fired on
        // some shard, recovered cleanly, and passed the pad audit.
        EXPECT_EQ(pipe.checkInjectedCrash().error, "")
            << schemeName(kind) << " workers=" << workers;
        if (crash)
            EXPECT_GE(pipe.crashedShard(), 0);
        else
            EXPECT_EQ(pipe.crashedShard(), -1);

        std::ostringstream os;
        pipe.writeReport(os);

        std::vector<std::vector<Tick>> clocks(pipe.shardCount());
        for (unsigned s = 0; s < pipe.shardCount(); ++s) {
            Simulator &sim = pipe.shard(s);
            FuzzTraceTest::checkInvariants(sim.scheme(), sim.device());
            for (unsigned b = 0; b < sim.device().totalBanks(); ++b)
                clocks[s].push_back(sim.device().bankBusyUntil(b));
        }

        if (workers == 1) {
            base_report = os.str();
            base_clocks = clocks;
            EXPECT_GT(pipe.result().logicalWrites, 0u);
        } else {
            ASSERT_EQ(base_report, os.str())
                << schemeName(kind) << " dup=" << dup_pct
                << " crash=" << crash << " workers=" << workers
                << " diverges at "
                << exec::firstJsonDivergence(base_report, os.str());
            ASSERT_EQ(base_clocks, clocks)
                << "per-shard bank clocks moved with the worker count";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    DupRateByCrash, PipelineFuzzTest,
    ::testing::Combine(::testing::Values(SchemeKind::Esd,
                                         SchemeKind::EsdPlus),
                       ::testing::Values(10, 70),
                       ::testing::Bool()),
    [](const auto &info) {
        std::string n = schemeName(std::get<0>(info.param));
        for (char &ch : n)
            if (!std::isalnum(static_cast<unsigned char>(ch)))
                ch = '_';
        return n + "_dup" + std::to_string(std::get<1>(info.param)) +
               (std::get<2>(info.param) ? "_crash" : "_nocrash");
    });

} // namespace
} // namespace esd
