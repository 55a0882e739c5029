/**
 * @file
 * The RAS subsystem end to end: online fault injection, demand and
 * patrol scrubbing, write-verify retry/retirement, UE policy (poison,
 * blast radius, dedup suspension), and the disabled-is-inert contract.
 *
 * All campaigns run on fixed seeds: the fault process is deterministic
 * for a given (seed, access sequence), so every assertion here is
 * exact, not statistical.
 */

#include <gtest/gtest.h>

#include <unordered_map>

#include "common/logging.hh"
#include "common/random.hh"
#include "dedup/scheme_factory.hh"
#include "ecc/line_ecc.hh"
#include "nvm/nvm_store.hh"
#include "nvm/pcm_device.hh"

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

CacheLine
lineWith(std::uint64_t v)
{
    CacheLine l;
    l.setWord(0, v);
    l.setWord(5, ~v);
    return l;
}

/** Deterministic write/read mix against a shadow copy of every logical
 * line. Returns the total number of operations issued. */
struct SweepResult
{
    std::uint64_t writes = 0;
    std::uint64_t reads = 0;
};

SweepResult
runShadowSweep(DedupScheme &scheme, std::uint64_t rng_seed, int ops)
{
    std::unordered_map<Addr, CacheLine> shadow;
    Pcg32 rng(rng_seed);
    SweepResult res;
    Tick t = 0;
    for (int i = 0; i < ops; ++i) {
        Addr addr = static_cast<Addr>(rng.below(64)) * kLineSize;
        if (shadow.empty() || rng.below(100) < 60) {
            // Half the writes draw from a small duplicate pool (dedup
            // hits), half carry fresh content (real device writes that
            // keep the patrol-scrub budget ticking for every scheme).
            CacheLine d = rng.below(2)
                              ? lineWith(0x1000 + rng.below(8))
                              : lineWith(0x100000 + i);
            scheme.write(addr, d, t);
            shadow[addr] = d;
            ++res.writes;
        } else {
            CacheLine out;
            AccessResult r = scheme.read(addr, out, t);
            ++res.reads;
            switch (r.integrity) {
            case ReadIntegrity::Ok:
            case ReadIntegrity::Corrected:
                // The core RAS guarantee: data handed back as intact
                // IS the data last written — faults never leak a wrong
                // line through a dedup hit.
                if (shadow.count(addr))
                    EXPECT_EQ(out, shadow[addr]) << "op " << i;
                else
                    EXPECT_TRUE(out.isZero()) << "op " << i;
                break;
            case ReadIntegrity::Poisoned:
                // Retired lines return a defined outcome, not junk.
                EXPECT_TRUE(out.isZero()) << "op " << i;
                break;
            case ReadIntegrity::Uncorrectable:
                // Detected and counted (sdcEvents); data unusable.
                break;
            }
        }
        t += 1000;
    }
    return res;
}

class RasSweepTest : public ::testing::TestWithParam<SchemeKind>
{
};

TEST_P(RasSweepTest, FaultCampaignKeepsDataIntegrity)
{
    SimConfig c = cfg();
    c.seed = 7;
    c.ras.enabled = true;
    c.ras.readBer = 1e-4;
    c.ras.writeBer = 2e-5;
    c.ras.demandScrub = true;
    c.ras.patrolIntervalWrites = 64;
    c.ras.patrolLinesPerSweep = 4;
    c.ras.writeVerifyRetries = 1;
    c.ras.spareRegionLines = 64;
    PcmDevice dev(c.pcm);
    NvmStore store(c.pcm.capacityBytes);
    auto scheme = makeScheme(GetParam(), c, dev, store);

    runShadowSweep(*scheme, 99, 3000);

    const SchemeStats &ss = scheme->stats();
    const RasStats &rs = scheme->ras().stats();
    const FaultModelStats &fs = scheme->ras().faults().stats();

    std::uint64_t injected =
        fs.bitFlipsRead.value() + fs.bitFlipsWrite.value();
    EXPECT_GT(injected, 0u);
    // Every undetected corruption traces back to at least one injected
    // fault pair, so SDCs are strictly fewer than injected faults.
    EXPECT_LT(ss.sdcEvents.value(), injected);
    // The scrubbers saw work.
    EXPECT_GT(rs.patrolSweeps.value(), 0u);
    EXPECT_GT(rs.writeVerifyReads.value(), 0u);
    EXPECT_GT(ss.eccCorrectedReads.value() + rs.patrolCorrected.value(),
              0u);
    // Demand scrubbing mirrors corrected demand reads.
    if (c.ras.demandScrub) {
        EXPECT_EQ(rs.demandScrubWrites.value(),
                  ss.eccCorrectedReads.value());
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, RasSweepTest,
    ::testing::Values(SchemeKind::Baseline, SchemeKind::DedupSha1,
                      SchemeKind::DeWrite, SchemeKind::Esd,
                      SchemeKind::EsdFull, SchemeKind::EsdPlus),
    [](const ::testing::TestParamInfo<SchemeKind> &info) {
        std::string n = schemeName(info.param);
        for (char &ch : n)
            if (!std::isalnum(static_cast<unsigned char>(ch)))
                ch = '_';
        return n;
    });

TEST(Ras, DisabledIsInert)
{
    SimConfig c = cfg();  // ras.enabled defaults to false
    PcmDevice dev(c.pcm);
    NvmStore store(c.pcm.capacityBytes);
    auto scheme = makeScheme(SchemeKind::Esd, c, dev, store);

    runShadowSweep(*scheme, 5, 500);

    EXPECT_FALSE(scheme->ras().enabled());
    const RasStats &rs = scheme->ras().stats();
    const FaultModelStats &fs = scheme->ras().faults().stats();
    EXPECT_EQ(fs.bitFlipsRead.value() + fs.bitFlipsWrite.value(), 0u);
    EXPECT_EQ(rs.demandScrubWrites.value(), 0u);
    EXPECT_EQ(rs.patrolSweeps.value(), 0u);
    EXPECT_EQ(rs.writeVerifyReads.value(), 0u);
    EXPECT_EQ(rs.ueEvents.value(), 0u);
    EXPECT_EQ(scheme->ras().retiredLines(), 0u);
    EXPECT_EQ(scheme->ras().resolve(0x40), 0x40u);
    EXPECT_EQ(scheme->stats().sdcEvents.value(), 0u);
    EXPECT_EQ(scheme->stats().poisonedReads.value(), 0u);
}

TEST(Ras, FaultCampaignIsDeterministic)
{
    auto campaign = [] {
        SimConfig c = cfg();
        c.seed = 11;
        c.ras.enabled = true;
        c.ras.readBer = 1e-4;
        c.ras.writeBer = 2e-5;
        c.ras.patrolIntervalWrites = 64;
        c.ras.writeVerifyRetries = 1;
        PcmDevice dev(c.pcm);
        NvmStore store(c.pcm.capacityBytes);
        auto scheme = makeScheme(SchemeKind::Esd, c, dev, store);
        runShadowSweep(*scheme, 42, 2000);
        const FaultModelStats &fs = scheme->ras().faults().stats();
        const RasStats &rs = scheme->ras().stats();
        const SchemeStats &ss = scheme->stats();
        return std::vector<std::uint64_t>{
            fs.bitFlipsRead.value(),     fs.bitFlipsWrite.value(),
            rs.demandScrubWrites.value(), rs.patrolCorrected.value(),
            rs.ueEvents.value(),          rs.linesRetired.value(),
            ss.sdcEvents.value(),         ss.dedupHits.value(),
            ss.nvmDataWrites.value(),
        };
    };
    EXPECT_EQ(campaign(), campaign());
}

TEST(Ras, PatrolScrubberRepairsResidentLines)
{
    SimConfig c = cfg();
    c.ras.enabled = true;
    c.ras.patrolIntervalWrites = 4;
    c.ras.patrolLinesPerSweep = 4;
    PcmDevice dev(c.pcm);
    NvmStore store(c.pcm.capacityBytes);
    auto scheme = makeScheme(SchemeKind::Baseline, c, dev, store);

    // 16 distinct resident lines, then a single-bit fault in each.
    Tick t = 0;
    for (Addr a = 0; a < 16 * kLineSize; a += kLineSize) {
        scheme->write(a, lineWith(a + 1), t);
        t += 1000;
    }
    Pcg32 rng(3);
    for (Addr a = 0; a < 16 * kLineSize; a += kLineSize)
        ASSERT_TRUE(store.corruptBit(a, rng.below(576)));

    // Background write traffic drives the patrol until every corrupted
    // line has been swept and rewritten clean.
    Addr fresh = 1 << 20;
    int guard = 0;
    while (scheme->ras().stats().patrolCorrected.value() < 16) {
        scheme->write(fresh, lineWith(fresh), t);
        fresh += kLineSize;
        t += 1000;
        ASSERT_LT(++guard, 4000) << "patrol never converged";
    }
    EXPECT_EQ(scheme->ras().stats().patrolCorrected.value(), 16u);
    EXPECT_GT(scheme->ras().stats().patrolSweeps.value(), 0u);
    EXPECT_EQ(scheme->ras().stats().patrolUncorrectable.value(), 0u);

    // The media was actually repaired: demand reads now come back
    // clean (Ok, not Corrected) with the original data.
    for (Addr a = 0; a < 16 * kLineSize; a += kLineSize) {
        CacheLine out;
        AccessResult r = scheme->read(a, out, t);
        t += 1000;
        EXPECT_EQ(r.integrity, ReadIntegrity::Ok) << "addr " << a;
        EXPECT_EQ(out, lineWith(a + 1));
    }
    EXPECT_EQ(scheme->stats().eccCorrectedReads.value(), 0u);
}

TEST(Ras, WriteVerifyRetryExhaustionRetiresToSpare)
{
    SimConfig c = cfg();
    c.ras.enabled = true;
    c.ras.writeVerifyRetries = 2;
    c.ras.writeVerifyBackoffNs = 100;
    c.ras.spareRegionLines = 16;
    PcmDevice dev(c.pcm);
    NvmStore store(c.pcm.capacityBytes);
    auto scheme = makeScheme(SchemeKind::Baseline, c, dev, store);
    FaultModel &fm = scheme->ras().faults();

    // Two cells of medium 0 stuck at the complement of the line's ECC
    // check bits: a persistent double error in word 0's check byte
    // that every rewrite re-asserts. (The ECC word is stored in the
    // clear, so the error is deterministic; payload cells would be
    // XORed with an unknown counter-mode pad.)
    CacheLine data = lineWith(0xabcdef);
    LineEcc ecc = LineEccCodec::encode(data);
    fm.plantStuckBit(0, 512 + 0, ((ecc >> 0) & 1) == 0);
    fm.plantStuckBit(0, 512 + 1, ((ecc >> 1) & 1) == 0);
    EXPECT_EQ(fm.stuckBits(0), 2u);

    scheme->write(0, data, 0);

    const RasStats &rs = scheme->ras().stats();
    // Initial verify + one per retry, all failing on the stuck cells.
    EXPECT_EQ(rs.writeVerifyReads.value(), 3u);
    EXPECT_EQ(rs.writeVerifyRetries.value(), 2u);
    EXPECT_EQ(rs.writeVerifyRetirements.value(), 1u);
    EXPECT_EQ(rs.linesRetired.value(), 1u);
    EXPECT_EQ(scheme->ras().retiredLines(), 1u);
    // A verify-retirement saves the write: no UE, no data loss.
    EXPECT_EQ(rs.ueEvents.value(), 0u);
    EXPECT_EQ(rs.spareExhausted.value(), 0u);

    // The medium moved to the first spare slot; the physical address
    // the scheme uses did not.
    Addr spare_base =
        c.pcm.capacityBytes - c.ras.spareRegionLines * kLineSize;
    EXPECT_EQ(scheme->ras().resolve(0), spare_base);
    EXPECT_EQ(fm.stuckBits(spare_base), 0u);

    CacheLine out;
    AccessResult r = scheme->read(0, out, 100000);
    EXPECT_EQ(r.integrity, ReadIntegrity::Ok);
    EXPECT_EQ(out, data);

    // Rewrites land on the healthy spare: verify passes first try.
    CacheLine data2 = lineWith(0x5555);
    scheme->write(0, data2, 200000);
    EXPECT_EQ(rs.writeVerifyReads.value(), 4u);
    EXPECT_EQ(rs.writeVerifyRetirements.value(), 1u);
    scheme->read(0, out, 300000);
    EXPECT_EQ(out, data2);
}

TEST(Ras, SpareExhaustionLosesTheWrite)
{
    SimConfig c = cfg();
    c.ras.enabled = true;
    c.ras.writeVerifyRetries = 1;
    c.ras.spareRegionLines = 1;
    PcmDevice dev(c.pcm);
    NvmStore store(c.pcm.capacityBytes);
    auto scheme = makeScheme(SchemeKind::Baseline, c, dev, store);
    FaultModel &fm = scheme->ras().faults();
    Addr spare = c.pcm.capacityBytes - kLineSize;

    // First write: medium 0 is bad, retire to the only spare slot.
    CacheLine d1 = lineWith(1);
    LineEcc e1 = LineEccCodec::encode(d1);
    fm.plantStuckBit(0, 512 + 0, ((e1 >> 0) & 1) == 0);
    fm.plantStuckBit(0, 512 + 1, ((e1 >> 1) & 1) == 0);
    scheme->write(0, d1, 0);
    EXPECT_EQ(scheme->ras().resolve(0), spare);
    EXPECT_EQ(scheme->ras().stats().ueEvents.value(), 0u);

    // Second write: the spare is bad too and no spare remains.
    CacheLine d2 = lineWith(2);
    LineEcc e2 = LineEccCodec::encode(d2);
    fm.plantStuckBit(spare, 512 + 0, ((e2 >> 0) & 1) == 0);
    fm.plantStuckBit(spare, 512 + 1, ((e2 >> 1) & 1) == 0);
    scheme->write(0, d2, 100000);

    const RasStats &rs = scheme->ras().stats();
    EXPECT_EQ(rs.writeVerifyRetirements.value(), 2u);
    EXPECT_EQ(rs.spareExhausted.value(), 1u);
    EXPECT_EQ(rs.linesRetired.value(), 1u);
    EXPECT_EQ(rs.ueEvents.value(), 1u);

    // The line is poisoned: reads return the defined zero line.
    CacheLine out = lineWith(0xdead);
    AccessResult r = scheme->read(0, out, 200000);
    EXPECT_EQ(r.integrity, ReadIntegrity::Poisoned);
    EXPECT_TRUE(out.isZero());
    EXPECT_EQ(scheme->stats().poisonedReads.value(), 1u);
    EXPECT_EQ(scheme->stats().sdcEvents.value(), 0u);
}

TEST(Ras, UncorrectableReadRetiresPoisonsAndRevives)
{
    SimConfig c = cfg();
    c.ras.enabled = true;
    c.ras.spareRegionLines = 16;
    PcmDevice dev(c.pcm);
    NvmStore store(c.pcm.capacityBytes);
    auto scheme = makeScheme(SchemeKind::Baseline, c, dev, store);

    CacheLine data = lineWith(0x1234);
    scheme->write(0, data, 0);
    // Double fault in payload word 0: uncorrectable on the next read.
    ASSERT_TRUE(store.corruptBit(0, 3));
    ASSERT_TRUE(store.corruptBit(0, 17));

    CacheLine out;
    AccessResult r = scheme->read(0, out, 100000);
    EXPECT_EQ(r.integrity, ReadIntegrity::Uncorrectable);
    EXPECT_EQ(scheme->stats().sdcEvents.value(), 1u);
    const RasStats &rs = scheme->ras().stats();
    EXPECT_EQ(rs.ueEvents.value(), 1u);
    EXPECT_EQ(rs.linesRetired.value(), 1u);
    // Baseline has no dedup: the blast radius is exactly one line.
    EXPECT_EQ(rs.blastRadiusRefs.value(), 1u);
    EXPECT_NE(scheme->ras().resolve(0), 0u);

    // Poisoned until rewritten.
    r = scheme->read(0, out, 200000);
    EXPECT_EQ(r.integrity, ReadIntegrity::Poisoned);
    EXPECT_TRUE(out.isZero());

    CacheLine data2 = lineWith(0x9999);
    scheme->write(0, data2, 300000);
    r = scheme->read(0, out, 400000);
    EXPECT_EQ(r.integrity, ReadIntegrity::Ok);
    EXPECT_EQ(out, data2);
    EXPECT_EQ(scheme->stats().sdcEvents.value(), 1u);
}

TEST(Ras, BlastRadiusIsRefcountWeighted)
{
    SimConfig c = cfg();
    c.ras.enabled = true;
    c.ras.spareRegionLines = 16;
    PcmDevice dev(c.pcm);
    NvmStore store(c.pcm.capacityBytes);
    auto scheme = makeScheme(SchemeKind::Esd, c, dev, store);

    // Five logical lines deduplicated onto one physical line.
    CacheLine data = lineWith(0x777);
    Tick t = 0;
    for (Addr a = 0; a < 5 * kLineSize; a += kLineSize) {
        scheme->write(a, data, t);
        t += 1000;
    }
    EXPECT_EQ(scheme->stats().dedupHits.value(), 4u);
    ASSERT_EQ(store.residentLines(), 1u);
    Addr phys = store.residentAddrs()[0];

    // Kill the shared line and read one sharer.
    ASSERT_TRUE(store.corruptBit(phys, 3));
    ASSERT_TRUE(store.corruptBit(phys, 17));
    CacheLine out;
    AccessResult r = scheme->read(0, out, t);
    t += 1000;
    EXPECT_EQ(r.integrity, ReadIntegrity::Uncorrectable);

    const RasStats &rs = scheme->ras().stats();
    EXPECT_EQ(rs.ueEvents.value(), 1u);
    // One corrupt unique line lost all five deduplicated sharers.
    EXPECT_EQ(rs.blastRadiusRefs.value(), 5u);
    EXPECT_EQ(scheme->stats().sdcEvents.value(), 1u);

    // Every other sharer sees the poison, not stale or wrong data.
    for (Addr a = kLineSize; a < 5 * kLineSize; a += kLineSize) {
        r = scheme->read(a, out, t);
        t += 1000;
        EXPECT_EQ(r.integrity, ReadIntegrity::Poisoned) << "addr " << a;
        EXPECT_TRUE(out.isZero());
    }
    EXPECT_EQ(scheme->stats().poisonedReads.value(), 4u);

    // The stale fingerprint was invalidated: the same content written
    // again becomes a fresh unique line (no hit on the dead phys) and
    // dedup works against the new copy.
    scheme->write(5 * kLineSize, data, t);
    t += 1000;
    EXPECT_EQ(scheme->stats().dedupHits.value(), 4u);
    scheme->write(6 * kLineSize, data, t);
    t += 1000;
    EXPECT_EQ(scheme->stats().dedupHits.value(), 5u);
    r = scheme->read(6 * kLineSize, out, t);
    EXPECT_EQ(r.integrity, ReadIntegrity::Ok);
    EXPECT_EQ(out, data);
}

TEST(Ras, CorruptCandidateNeverProducesWrongDedup)
{
    SimConfig c = cfg();
    c.ras.enabled = true;
    c.ras.spareRegionLines = 16;
    PcmDevice dev(c.pcm);
    NvmStore store(c.pcm.capacityBytes);
    auto scheme = makeScheme(SchemeKind::Esd, c, dev, store);

    CacheLine data = lineWith(0x42);
    scheme->write(0, data, 0);
    ASSERT_EQ(store.residentLines(), 1u);
    Addr phys = store.residentAddrs()[0];

    // Single-bit fault: the compare corrects (and scrubs) before
    // matching, so dedup still succeeds.
    ASSERT_TRUE(store.corruptBit(phys, 9));
    scheme->write(kLineSize, data, 1000);
    EXPECT_EQ(scheme->stats().dedupHits.value(), 1u);
    EXPECT_EQ(scheme->stats().eccCorrectedReads.value(), 1u);
    EXPECT_EQ(scheme->ras().stats().demandScrubWrites.value(), 1u);

    // Double fault: the compare detects the UE, never matches, and the
    // write proceeds as a new unique line. A compare-path UE is a
    // detected failure, not an SDC.
    ASSERT_TRUE(store.corruptBit(phys, 3));
    ASSERT_TRUE(store.corruptBit(phys, 17));
    scheme->write(2 * kLineSize, data, 2000);
    EXPECT_EQ(scheme->stats().dedupHits.value(), 1u);
    EXPECT_EQ(scheme->ras().stats().ueEvents.value(), 1u);
    EXPECT_EQ(scheme->stats().sdcEvents.value(), 0u);

    CacheLine out;
    AccessResult r = scheme->read(2 * kLineSize, out, 3000);
    EXPECT_EQ(r.integrity, ReadIntegrity::Ok);
    EXPECT_EQ(out, data);
}

TEST(Ras, DedupSuspensionLatchesPastUeThreshold)
{
    SimConfig c = cfg();
    c.ras.enabled = true;
    c.ras.spareRegionLines = 16;
    c.ras.dedupSuspendUes = 1;
    PcmDevice dev(c.pcm);
    NvmStore store(c.pcm.capacityBytes);
    auto scheme = makeScheme(SchemeKind::Esd, c, dev, store);

    CacheLine data = lineWith(0xaa);
    scheme->write(0, data, 0);
    scheme->write(kLineSize, data, 1000);
    EXPECT_FALSE(scheme->ras().dedupSuspended());

    ASSERT_EQ(store.residentLines(), 1u);
    Addr phys = store.residentAddrs()[0];
    ASSERT_TRUE(store.corruptBit(phys, 3));
    ASSERT_TRUE(store.corruptBit(phys, 17));
    CacheLine out;
    scheme->read(0, out, 2000);
    EXPECT_TRUE(scheme->ras().dedupSuspended());

    // Suspended: identical content stops deduplicating.
    scheme->write(2 * kLineSize, data, 3000);
    scheme->write(3 * kLineSize, data, 4000);
    EXPECT_EQ(scheme->stats().dedupHits.value(), 1u);
    EXPECT_EQ(scheme->stats().dedupSuspendedWrites.value(), 2u);
    EXPECT_EQ(store.residentLines(), 2u);

    // Suspension is system state: it survives a stats reset.
    scheme->resetStats();
    EXPECT_TRUE(scheme->ras().dedupSuspended());
    EXPECT_EQ(scheme->stats().dedupSuspendedWrites.value(), 0u);
    scheme->write(4 * kLineSize, data, 5000);
    EXPECT_EQ(scheme->stats().dedupSuspendedWrites.value(), 1u);
    EXPECT_EQ(scheme->stats().dedupHits.value(), 0u);
}

} // namespace
} // namespace esd
