/**
 * @file
 * PersistenceManager bookkeeping: crash-capture state is kept only
 * when a crash can be captured, and dropping it changes nothing a run
 * reports.
 *
 * A manager with no crash configured counts its journal instead of
 * storing it (no record bodies, no checkpoint fold, no undo log). Here
 * the same run is made with crash_at_write = 0 (count-only) and with
 * crash_at_write past the end of the trace (bodies kept, crash never
 * fires): every `persist.*` counter and the whole stats report, apart
 * from the config key itself, must match. Arming a crash on a manager
 * that kept no capture state is fatal.
 *
 * Recovery's counter probe is pinned on a hand-built CrashImage: a
 * journaled counter that lags the line's true counter is re-derived,
 * including through correctable media faults, and a line the code
 * cannot correct stays unresolved. The same image pins AMT
 * reconciliation around RAS retirement: mappings to a retired line
 * that decrypts survive, and mappings to a retired line an
 * uncorrectable error erased before the crash are dropped without
 * failing recovery.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/random.hh"
#include "core/run_report.hh"
#include "core/simulator.hh"
#include "persist/recovery.hh"
#include "trace/workloads.hh"

namespace esd
{
namespace
{

/** Persistence on, with a flush buffer small enough that commits come
 * early and a checkpoint after every commit. */
SimConfig
journalConfig(PersistDomain domain, std::uint64_t crash_at)
{
    SimConfig c;
    c.persist.enabled = true;
    c.persist.domain = domain;
    c.persist.metadataBufferRecords = 24;
    c.persist.checkpointEpochs = 1;
    c.persist.crashAtWrite = crash_at;
    return c;
}

/** The stats report with the `crash_at_write` config line removed. */
std::string
reportWithoutCrashKey(const SimConfig &cfg, const RunResult &r,
                      const StatRegistry &reg)
{
    std::ostringstream os;
    writeStatsReport(os, cfg, r, reg);
    std::string s = os.str();
    std::size_t at = s.find("\"crash_at_write\"");
    EXPECT_NE(at, std::string::npos);
    if (at != std::string::npos)
        s.erase(at, s.find('\n', at) - at);
    return s;
}

class CountOnlyJournalTest
    : public ::testing::TestWithParam<std::tuple<SchemeKind, PersistDomain>>
{
};

TEST_P(CountOnlyJournalTest, MatchesKeptBodies)
{
    const auto [kind, domain] = GetParam();
    constexpr std::uint64_t kRecords = 20000;
    constexpr std::uint64_t kWarmup = 2000;

    auto runOnce = [&](std::uint64_t crash_at, bool expect_capture,
                       PersistStats &stats, std::string &report) {
        SimConfig c = journalConfig(domain, crash_at);
        Simulator sim(c, kind);
        ASSERT_EQ(sim.persistence()->capturesCrash(), expect_capture);
        SyntheticWorkload trace(findApp("gcc"), c.seed);
        RunResult r = sim.run(trace, kRecords, kWarmup);
        EXPECT_FALSE(sim.persistence()->crashed());
        stats = sim.persistence()->stats();
        report = reportWithoutCrashKey(c, r, sim.statRegistry());
    };

    PersistStats counted, kept;
    std::string counted_report, kept_report;
    runOnce(0, false, counted, counted_report);
    runOnce(1ull << 40, true, kept, kept_report);

    EXPECT_GT(counted.earlyCommits.value(), 0u);
    EXPECT_GT(counted.checkpoints.value(), 0u);
    EXPECT_EQ(counted.journalRecords.value(), kept.journalRecords.value());
    EXPECT_EQ(counted.epochCommits.value(), kept.epochCommits.value());
    EXPECT_EQ(counted.earlyCommits.value(), kept.earlyCommits.value());
    EXPECT_EQ(counted.checkpoints.value(), kept.checkpoints.value());
    EXPECT_EQ(counted.recordsFolded.value(), kept.recordsFolded.value());
    EXPECT_EQ(counted.barrierNs.value(), kept.barrierNs.value());
    EXPECT_EQ(counted.drainWaitNs.value(), kept.drainWaitNs.value());
    EXPECT_EQ(counted_report, kept_report);
}

INSTANTIATE_TEST_SUITE_P(
    Persistence, CountOnlyJournalTest,
    ::testing::Combine(::testing::Values(SchemeKind::Baseline,
                                         SchemeKind::Esd),
                       ::testing::Values(PersistDomain::Adr,
                                         PersistDomain::Eadr)),
    [](const auto &info) {
        const char *scheme = std::get<0>(info.param) == SchemeKind::Baseline
                                 ? "Baseline"
                                 : "Esd";
        const char *domain =
            std::get<1>(info.param) == PersistDomain::Adr ? "Adr" : "Eadr";
        return std::string(scheme) + "_" + domain;
    });

TEST(Persistence, ArmingUnpreparedManagerIsFatal)
{
    SimConfig c = journalConfig(PersistDomain::Adr, 0);
    Simulator sim(c, SchemeKind::Esd);
    EXPECT_EXIT(sim.persistence()->armCrashOnNextWrite(),
                ::testing::ExitedWithCode(1),
                "not prepared for crash capture");
}

TEST(Persistence, PreparingAfterFirstWriteIsFatal)
{
    SimConfig c = journalConfig(PersistDomain::Adr, 0);
    Simulator sim(c, SchemeKind::Esd);
    SyntheticWorkload trace(findApp("gcc"), c.seed);
    sim.run(trace, 200, 0);
    EXPECT_EXIT(sim.persistence()->prepareCrashCapture(),
                ::testing::ExitedWithCode(1),
                "must be prepared before the first write");
}

/** A one-line CrashImage: kAddr written five times (true counter 5)
 * whose journal names counter 1, so the probe must climb the slack
 * window. @p flip_bits ciphertext bits are flipped after the write. */
struct LaggingLine
{
    static constexpr Addr kAddr = 128;

    CtrModeEngine crypto{AesKey{0x5c}};
    const EccEngine &ecc = eccEngine(EccEngineKind::Hamming);
    CrashImage img;

    explicit LaggingLine(std::initializer_list<unsigned> flip_bits)
    {
        Pcg32 rng(4);
        CacheLine plain;
        rng.fillLine(plain);
        StoredLine line;
        for (int i = 0; i < 5; ++i)
            line.data = crypto.encrypt(kAddr, plain);
        line.ecc = ecc.encodeLine(plain);
        for (unsigned bit : flip_bits)
            line.data[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        img.checkpoint.ctr[kAddr] = 1;
        img.content.emplace_back(kAddr, line);
    }

    RecoveredState
    recover() const
    {
        PersistenceConfig cfg;
        cfg.counterSlack = 8;
        return recoverFromImage(img, cfg, crypto, ecc);
    }
};

TEST(Recovery, ProbeDerivesLaggingCounter)
{
    RecoveredState st = LaggingLine({}).recover();
    EXPECT_TRUE(st.summary.ok);
    EXPECT_EQ(st.summary.countersUnresolved, 0u);
    EXPECT_EQ(st.summary.countersRepaired, 1u);
    EXPECT_EQ(st.ctrDecrypt[LaggingLine::kAddr], 5u);
    EXPECT_EQ(st.summary.countersProbed, 5u);
}

TEST(Recovery, ProbeResolvesCounterUnderCorrectableMediaFault)
{
    // One flipped ciphertext bit is one flipped plaintext bit under the
    // right counter: no candidate re-encodes exactly, but SEC-DED
    // corrects the word, so the counter still resolves. The fault
    // stays in the line for the read path to correct.
    LaggingLine faulted({100});
    RecoveredState st = faulted.recover();
    EXPECT_TRUE(st.summary.ok);
    EXPECT_EQ(st.summary.countersUnresolved, 0u);
    EXPECT_EQ(st.ctrDecrypt[LaggingLine::kAddr], 5u);
    EXPECT_EQ(st.summary.liveLines, 1u);
}

TEST(Recovery, ProbeResolvesCounterWithTwoFaultedWords)
{
    // Single-bit faults in two different 64-bit words: SEC-DED
    // corrects each word on its own.
    RecoveredState st = LaggingLine({100, 300}).recover();
    EXPECT_TRUE(st.summary.ok);
    EXPECT_EQ(st.ctrDecrypt[LaggingLine::kAddr], 5u);
}

TEST(Recovery, ProbeLeavesUncorrectableLineUnresolved)
{
    // Two flips in one 64-bit word: SEC-DED detects but cannot
    // correct, and no wrong counter may be accepted in its place.
    RecoveredState st = LaggingLine({100, 101}).recover();
    EXPECT_FALSE(st.summary.ok);
    EXPECT_EQ(st.summary.countersUnresolved, 1u);
    EXPECT_EQ(st.ctrDecrypt.count(LaggingLine::kAddr), 0u);
}

TEST(Recovery, KeepsMappingsToRetiredLinesThatDecrypt)
{
    // Retirement only moves the line's medium; the line was rewritten
    // since and its content decrypts, so both mappings stay.
    LaggingLine line({});
    line.img.checkpoint.retired.insert(LaggingLine::kAddr);
    line.img.checkpoint.amt[0x10000] = LaggingLine::kAddr;
    line.img.checkpoint.amt[0x20000] = LaggingLine::kAddr;
    line.img.checkpoint.refs[LaggingLine::kAddr] = 2;
    RecoveredState st = line.recover();
    EXPECT_TRUE(st.summary.ok);
    EXPECT_EQ(st.summary.mappingsInvalidated, 0u);
    EXPECT_EQ(st.summary.mappingsPoisoned, 0u);
    EXPECT_EQ(st.summary.liveMappings, 2u);
    EXPECT_EQ(st.amt[0x10000], LaggingLine::kAddr);
    EXPECT_EQ(st.refs[LaggingLine::kAddr], 2u);
}

TEST(Recovery, DropsMappingsToPoisonedLinesWithoutFailing)
{
    // A retired line with no content was erased by an uncorrectable
    // error before the crash: its mapping is dropped as poisoned. A
    // mapping to a line the crash lost still fails recovery.
    constexpr Addr kPoisoned = 0x4000;
    constexpr Addr kLost = 0x8000;
    LaggingLine line({});
    line.img.checkpoint.amt[0x10000] = LaggingLine::kAddr;
    line.img.checkpoint.retired.insert(kPoisoned);
    line.img.checkpoint.amt[0x20000] = kPoisoned;
    line.img.checkpoint.refs[kPoisoned] = 1;
    RecoveredState st = line.recover();
    EXPECT_TRUE(st.summary.ok);
    EXPECT_EQ(st.summary.mappingsPoisoned, 1u);
    EXPECT_EQ(st.summary.mappingsInvalidated, 0u);
    EXPECT_EQ(st.summary.liveMappings, 1u);
    EXPECT_EQ(st.amt.count(0x20000), 0u);

    line.img.checkpoint.amt[0x30000] = kLost;
    st = line.recover();
    EXPECT_FALSE(st.summary.ok);
    EXPECT_EQ(st.summary.mappingsPoisoned, 1u);
    EXPECT_EQ(st.summary.mappingsInvalidated, 1u);
}

} // namespace
} // namespace esd
