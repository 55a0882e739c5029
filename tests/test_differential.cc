/**
 * @file
 * Golden-model differential harness for the multi-channel backend.
 *
 * Every scheme replays one deterministic mixed-duplication trace —
 * zero floods, a small duplicate pool, unique fills, and rewrite
 * toggles, the content classes real traces mix (Fig. 3) — against a
 * plain shadow map. Each read, mid-trace and in the final sweep, must
 * return exactly the last value written, under both the legacy
 * single-channel device and four channels with WPQ coalescing on.
 * Coalescing is a pure timing optimisation, so content equivalence
 * across channel counts is precisely what this file pins down.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/simulator.hh"
#include "dedup/mapped_scheme.hh"
#include "exec/pipeline.hh"
#include "exec/sweep_runner.hh"
#include "trace/trace.hh"

namespace esd
{
namespace
{

struct Op
{
    bool write = false;
    Addr addr = 0;
    CacheLine data;
};

/** One address pool line, 128 lines wide. */
Addr
lineAddr(std::uint64_t i)
{
    return (i % 128) * kLineSize;
}

/** The deterministic mixed-duplication trace (no RNG: the sequence is
 * the spec). Writes and reads interleave so staleness shows up
 * mid-trace, not only in the final sweep. */
std::vector<Op>
buildTrace()
{
    std::vector<Op> ops;
    auto write = [&](Addr a, const CacheLine &d) {
        ops.push_back(Op{true, a, d});
    };
    auto read = [&](Addr a) { ops.push_back(Op{false, a, CacheLine{}}); };

    // Phase A — zero flood: the hottest duplicate content of all.
    for (std::uint64_t i = 0; i < 64; ++i)
        write(lineAddr(i), CacheLine{});

    // Phase B — small duplicate pool: four contents shared by many
    // addresses drives refcounts well above 1.
    for (std::uint64_t i = 0; i < 128; ++i) {
        CacheLine d;
        d.setWord(0, 0xD00D + (i % 4));
        d.setWord(5, 42);
        write(lineAddr(64 + i), d);
        if (i % 8 == 0)
            read(lineAddr(64 + i / 2));
    }

    // Phase C — unique fills: no two lines alike, every write
    // allocates.
    for (std::uint64_t i = 0; i < 96; ++i) {
        CacheLine d;
        d.setWord(0, 0x1000 + i);
        d.setWord(7, ~i);
        write(lineAddr(3 * i), d);
        if (i % 6 == 0)
            read(lineAddr(3 * i));
    }

    // Phase D — rewrite toggles: the same addresses alternate between
    // two contents, churning remaps, frees, and (with channels) the
    // per-channel free lists; tight back-to-back re-writes are what
    // WPQ coalescing merges.
    for (int round = 0; round < 6; ++round) {
        for (std::uint64_t i = 0; i < 64; ++i) {
            CacheLine d;
            d.setWord(0, round & 1 ? 0xAAAA : 0x5555);
            d.setWord(2, i % 2);
            write(lineAddr(i), d);
        }
        for (std::uint64_t i = 0; i < 64; i += 7)
            read(lineAddr(i));
    }

    // Phase E — partial overwrite of the dup pool back to zero, so
    // dead pool lines must drop their fingerprints.
    for (std::uint64_t i = 0; i < 128; i += 2)
        write(lineAddr(64 + i), CacheLine{});

    return ops;
}

class DifferentialTest
    : public ::testing::TestWithParam<std::tuple<SchemeKind, unsigned>>
{
};

TEST_P(DifferentialTest, EveryReadReturnsLastWrite)
{
    auto [kind, channels] = GetParam();

    SimConfig c;
    c.pcm.banksPerChannel = 8;
    c.channels.count = channels;
    c.channels.wpqCoalescing = channels > 1;  // exercise both paths
    // Tiny metadata caches maximise eviction/staleness pressure (the
    // AMT still needs >= `channels` sets to shard).
    c.metadata.efitCacheBytes = 64 * 16;
    c.metadata.amtCacheBytes = 64 * kLineSize;
    c.metadata.referHMax = 7;
    c.metadata.decayPeriod = 32;

    PcmDevice dev(c.pcm, c.channels);
    NvmStore store(c.pcm.capacityBytes);
    auto scheme = makeScheme(kind, c, dev, store);

    std::unordered_map<Addr, CacheLine> shadow;
    Tick now = 0;
    std::uint64_t op_no = 0;

    for (const Op &op : buildTrace()) {
        now += 97;  // tight enough that WPQ entries overlap re-writes
        if (op.write) {
            scheme->write(op.addr, op.data, now);
            shadow[op.addr] = op.data;
        } else {
            CacheLine got;
            scheme->read(op.addr, got, now);
            auto it = shadow.find(op.addr);
            CacheLine want = it == shadow.end() ? CacheLine{} : it->second;
            ASSERT_EQ(got, want)
                << scheme->name() << " ch=" << channels << " diverges at op "
                << op_no << " addr " << op.addr;
        }
        ++op_no;
    }

    // Final sweep: the scheme must agree with the shadow map on every
    // address ever written.
    for (const auto &[addr, want] : shadow) {
        CacheLine got;
        now += 97;
        scheme->read(addr, got, now);
        ASSERT_EQ(got, want)
            << scheme->name() << " ch=" << channels << " addr " << addr;
    }

    // Device-level write conservation, coalesced or not.
    const NvmStats &ds = dev.stats();
    EXPECT_EQ(ds.writesOffered.value(),
              ds.writes.value() + ds.writesCoalesced.value());
    if (!dev.coalescingEnabled()) {
        EXPECT_EQ(ds.writesCoalesced.value(), 0u);
    }

    // Scheme-level accounting closes as well.
    const SchemeStats &ss = scheme->stats();
    EXPECT_EQ(ss.nvmDataWrites.value() + ss.dedupHits.value(),
              ss.logicalWrites.value());

    // Mapped schemes: refcounts over live lines equal the AMT mappings.
    if (auto *m = dynamic_cast<const MappedDedupScheme *>(scheme.get())) {
        std::uint64_t refs = 0;
        for (const auto &[phys, n] : m->lineStore().refTable())
            refs += n;
        EXPECT_EQ(refs, m->amt().mappingCount());
    }
}

INSTANTIATE_TEST_SUITE_P(
    SchemesByChannels, DifferentialTest,
    ::testing::Combine(::testing::Values(SchemeKind::Baseline,
                                         SchemeKind::DedupSha1,
                                         SchemeKind::DeWrite,
                                         SchemeKind::Esd,
                                         SchemeKind::EsdFull,
                                         SchemeKind::EsdPlus),
                       ::testing::Values(1u, 4u)),
    [](const auto &info) {
        std::string n = schemeName(std::get<0>(info.param));
        for (char &ch : n)
            if (!std::isalnum(static_cast<unsigned char>(ch)))
                ch = '_';
        return n + "_ch" + std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------
// Sharded-pipeline differential harness: the same golden trace through
// exec::ShardedPipeline at workers {1, 2, 4}, for every scheme and
// channel count. Three independent checks per grid point: the report
// bytes never move with the worker count, every shard still agrees
// with the shadow map on the content it owns, and per-shard refcount
// conservation closes.

/** The golden Op trace as a replayable TraceSource. */
VectorTrace
buildVectorTrace()
{
    VectorTrace trace;
    for (const Op &op : buildTrace()) {
        TraceRecord rec;
        rec.op = op.write ? OpType::Write : OpType::Read;
        rec.addr = op.addr;
        rec.data = op.data;
        trace.push(rec);
    }
    return trace;
}

SimConfig
differentialPipelineConfig(unsigned channels)
{
    SimConfig c;
    c.pcm.banksPerChannel = 8;
    c.channels.count = channels;
    c.channels.wpqCoalescing = channels > 1;
    // Scaled with the shard count so per-shard eviction pressure stays
    // at the serial harness's level (the fp/EFIT caches need >=
    // `channels` sets to shard at all).
    c.metadata.efitCacheBytes = 64 * 16 * channels;
    c.metadata.amtCacheBytes = 64 * kLineSize;
    c.metadata.referHMax = 7;
    c.metadata.decayPeriod = 32;
    // Many small epochs: the golden trace is short, so a large epoch
    // would degenerate to a single barrier and test nothing.
    c.pipeline.epochRecords = 64;
    return c;
}

class PipelineDifferentialTest
    : public ::testing::TestWithParam<std::tuple<SchemeKind, unsigned>>
{
};

TEST_P(PipelineDifferentialTest, WorkerCountsAgreeWithShadow)
{
    auto [kind, channels] = GetParam();
    SimConfig c = differentialPipelineConfig(channels);

    // The shadow map is worker-independent by construction: replay the
    // Op list once.
    std::unordered_map<Addr, CacheLine> shadow;
    for (const Op &op : buildTrace())
        if (op.write)
            shadow[op.addr] = op.data;

    std::string base_report;
    for (unsigned workers : {1u, 2u, 4u}) {
        VectorTrace trace = buildVectorTrace();
        exec::ShardedPipeline pipe(c, kind, workers);
        pipe.run(trace, trace.size());

        std::ostringstream os;
        pipe.writeReport(os);
        if (workers == 1) {
            base_report = os.str();
        } else {
            ASSERT_EQ(base_report, os.str())
                << schemeName(kind) << " ch=" << channels
                << " workers=" << workers << " diverges at "
                << exec::firstJsonDivergence(base_report, os.str());
        }

        // Every shard must agree with the shadow map on the addresses
        // it owns — demux by the same channelOf(line) rule.
        Tick now = 1'000'000'000;
        for (const auto &[addr, want] : shadow) {
            unsigned s = static_cast<unsigned>(lineIndex(addr) %
                                               pipe.shardCount());
            CacheLine got;
            now += 97;
            pipe.shard(s).scheme().read(addr, got, now);
            ASSERT_EQ(got, want)
                << schemeName(kind) << " ch=" << channels << " workers="
                << workers << " shard=" << s << " addr " << addr;
        }

        for (unsigned s = 0; s < pipe.shardCount(); ++s) {
            Simulator &sim = pipe.shard(s);

            // Device-level write conservation per shard.
            const NvmStats &ds = sim.device().stats();
            EXPECT_EQ(ds.writesOffered.value(),
                      ds.writes.value() + ds.writesCoalesced.value());

            // Refcounts over live lines equal the AMT mappings, shard
            // by shard.
            if (auto *m = dynamic_cast<const MappedDedupScheme *>(
                    &sim.scheme())) {
                std::uint64_t refs = 0;
                for (const auto &[phys, n] : m->lineStore().refTable())
                    refs += n;
                EXPECT_EQ(refs, m->amt().mappingCount())
                    << schemeName(kind) << " shard " << s;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    SchemesByChannels, PipelineDifferentialTest,
    ::testing::Combine(::testing::Values(SchemeKind::Baseline,
                                         SchemeKind::DedupSha1,
                                         SchemeKind::DeWrite,
                                         SchemeKind::Esd,
                                         SchemeKind::EsdFull,
                                         SchemeKind::EsdPlus),
                       ::testing::Values(1u, 4u, 8u)),
    [](const auto &info) {
        std::string n = schemeName(std::get<0>(info.param));
        for (char &ch : n)
            if (!std::isalnum(static_cast<unsigned char>(ch)))
                ch = '_';
        return n + "_ch" + std::to_string(std::get<1>(info.param));
    });

} // namespace
} // namespace esd
