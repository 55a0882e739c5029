/**
 * @file
 * Edge cases and failure-injection tests across modules: fatal error
 * paths (death tests), degenerate traces, metadata stress, and
 * device-model properties.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "common/random.hh"
#include "core/simulator.hh"
#include "dedup/efit.hh"
#include "nvm/pcm_device.hh"
#include "trace/trace_frontend.hh"
#include "trace/workloads.hh"

namespace esd
{
namespace
{

// ------------------------------------------------------- death tests

/** Drain a trace file through the frontend. */
void
drainTrace(const std::string &path)
{
    TraceFrontend reader(path, TraceConfig{});
    TraceRecord rec;
    while (reader.next(rec)) {
    }
}

/** Write @p text to a fresh temp file and drain it; the death tests
 * expect the drain to die. */
void
drainText(const char *tag, const std::string &text)
{
    auto path = std::filesystem::temp_directory_path() /
                (tag + std::to_string(::getpid()));
    std::ofstream(path) << text;
    drainTrace(path.string());
    std::filesystem::remove(path);
}

TEST(TraceIoDeath, MissingFileIsFatal)
{
    EXPECT_EXIT(drainTrace("/nonexistent/trace.txt"),
                ::testing::ExitedWithCode(1), "cannot open");
}

TEST(TraceIoDeath, MalformedOpIsFatal)
{
    EXPECT_EXIT(drainText("esd_bad_trace_", "X 40 12\n"),
                ::testing::ExitedWithCode(1), "bad op");
}

TEST(TraceIoDeath, TruncatedWriteDataIsFatal)
{
    // A short data token reads as the icount, and the icount after it
    // is junk; a longer one must be the whole 128-hex-char line.
    EXPECT_EXIT(drainText("esd_short_trace_", "W 40 deadbeef 12\n"),
                ::testing::ExitedWithCode(1), ":1: bad icount 'deadbeef'");
    EXPECT_EXIT(drainText("esd_short_trace_",
                          "W 40 " + std::string(40, 'a') + " 12\n"),
                ::testing::ExitedWithCode(1),
                ":1: write payload must be 128 hex chars");
}

/** Bytes that are neither binary nor gzip decode as text and die on
 * the first line: a non-trace is never silently replayed. */
TEST(TraceIoDeath, NotABinaryTraceIsFatal)
{
    EXPECT_EXIT(drainText("esd_not_bin_", "plain text"),
                ::testing::ExitedWithCode(1), ":1: bad op 'plain'");
}

TEST(WorkloadsDeath, UnknownAppIsFatal)
{
    EXPECT_EXIT(findApp("no-such-app"), ::testing::ExitedWithCode(1),
                "unknown application");
}

TEST(SchemeFactoryDeath, UnknownSchemeIsFatal)
{
    EXPECT_EXIT(parseSchemeKind("quantum"), ::testing::ExitedWithCode(1),
                "unknown scheme");
}

TEST(SimulatorDeath, TraceShorterThanWarmupIsFatal)
{
    VectorTrace trace;
    TraceRecord r;
    r.op = OpType::Write;
    trace.push(r);
    SimConfig cfg;
    Simulator sim(cfg, SchemeKind::Baseline);
    EXPECT_EXIT(sim.run(trace, 0, 100), ::testing::ExitedWithCode(1),
                "warmup");
}

// ------------------------------------------------- degenerate traces

TEST(Simulator, PureWriteTrace)
{
    VectorTrace trace;
    Pcg32 rng(1);
    for (int i = 0; i < 500; ++i) {
        TraceRecord r;
        r.op = OpType::Write;
        r.addr = static_cast<Addr>(i) * kLineSize;
        rng.fillLine(r.data);
        r.icount = 50;
        trace.push(r);
    }
    SimConfig cfg;
    RunResult res = runWorkload(cfg, SchemeKind::Esd, trace, 0, 0);
    EXPECT_EQ(res.logicalWrites, 500u);
    EXPECT_EQ(res.logicalReads, 0u);
    EXPECT_GT(res.ipc, 0.0);
}

TEST(Simulator, PureReadTrace)
{
    VectorTrace trace;
    for (int i = 0; i < 500; ++i) {
        TraceRecord r;
        r.op = OpType::Read;
        r.addr = static_cast<Addr>(i % 32) * kLineSize;
        r.icount = 50;
        trace.push(r);
    }
    SimConfig cfg;
    for (SchemeKind k : allSchemeKinds()) {
        trace.reset();
        RunResult res = runWorkload(cfg, k, trace, 0, 0);
        EXPECT_EQ(res.logicalReads, 500u) << schemeName(k);
        EXPECT_EQ(res.dedupHits, 0u);
    }
}

TEST(Simulator, SingleRecordTrace)
{
    VectorTrace trace;
    TraceRecord r;
    r.op = OpType::Write;
    r.addr = 0;
    r.data.setWord(0, 1);
    r.icount = 10;
    trace.push(r);
    SimConfig cfg;
    RunResult res = runWorkload(cfg, SchemeKind::Esd, trace, 0, 0);
    EXPECT_EQ(res.records, 1u);
    EXPECT_EQ(res.writeLatency.count(), 1u);
}

TEST(Simulator, ZeroLineOnlyTraceFullyDedups)
{
    VectorTrace trace;
    for (int i = 0; i < 1000; ++i) {
        TraceRecord r;
        r.op = OpType::Write;
        r.addr = static_cast<Addr>(i) * kLineSize;
        r.icount = 20;
        trace.push(r);  // all-zero payloads
    }
    SimConfig cfg;
    RunResult res = runWorkload(cfg, SchemeKind::Esd, trace, 0, 0);
    // One unique seed write plus one saturation rewrite per 255
    // dedups (referH is 8 bits): 1000 writes -> <= 4 stored copies.
    EXPECT_GE(res.dedupHits, 995u);
    EXPECT_LE(res.nvmDataWrites, 5u);
    EXPECT_EQ(res.dedupHits + res.nvmDataWrites, 1000u);
}

// ------------------------------------------------- metadata stress

TEST(Efit, SingleSetThrashKeepsInvariant)
{
    MetadataConfig cfg;
    cfg.efitCacheBytes = 2 * 16;  // one 2-way set
    cfg.efitAssoc = 2;
    cfg.decayPeriod = 3;
    Efit efit(cfg);
    Pcg32 rng(9);
    for (int i = 0; i < 10000; ++i) {
        LineEcc ecc = rng.next64();
        if (Efit::Entry *e = efit.lookup(ecc)) {
            efit.bumpRef(e);
        } else {
            efit.insert(ecc, static_cast<Addr>(rng.below(1 << 20)) *
                                 kLineSize);
        }
    }
    EXPECT_LE(efit.validEntries(), efit.capacityEntries());
    EXPECT_EQ(efit.stats().lookups.value(), 10000u);
    EXPECT_GT(efit.stats().evictions.value(), 0u);
    EXPECT_GT(efit.stats().decayRounds.value(), 0u);
}

// ------------------------------------------- device-model properties

/** Completion times at one bank are monotone in arrival order. */
TEST(PcmDevice, PerBankCompletionMonotone)
{
    PcmConfig cfg;
    cfg.banksPerChannel = 2;
    cfg.writeQueueDepth = 1024;
    cfg.rowBufferLines = 0;
    PcmDevice dev(cfg);
    Pcg32 rng(4);
    Tick now = 0;
    Tick last_complete[2] = {0, 0};
    for (int i = 0; i < 2000; ++i) {
        now += rng.below(100);
        Addr addr = static_cast<Addr>(rng.below(64)) * kLineSize;
        OpType t = rng.chance(0.5) ? OpType::Read : OpType::Write;
        NvmAccessResult r = dev.access(t, addr, now);
        unsigned b = dev.bankOf(addr);
        EXPECT_GE(r.complete, last_complete[b]);
        EXPECT_GE(r.start, now);
        last_complete[b] = r.complete;
    }
}

/** Energy equals the per-op tariff exactly. */
TEST(PcmDevice, EnergyIsExactTariff)
{
    PcmConfig cfg;
    cfg.rowBufferLines = 64;
    PcmDevice dev(cfg);
    Pcg32 rng(5);
    std::uint64_t reads = 0, writes = 0;
    for (int i = 0; i < 1000; ++i) {
        OpType t = rng.chance(0.4) ? OpType::Read : OpType::Write;
        dev.access(t, static_cast<Addr>(rng.below(4096)) * kLineSize,
                   static_cast<Tick>(i) * 10);
        (t == OpType::Read ? reads : writes) += 1;
    }
    EXPECT_DOUBLE_EQ(dev.stats().totalEnergy(),
                     reads * cfg.readEnergy + writes * cfg.writeEnergy);
}

} // namespace
} // namespace esd
