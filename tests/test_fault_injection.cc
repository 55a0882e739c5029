/**
 * @file
 * End-to-end fault-injection campaign: media bit flips on stored
 * (encrypted) lines must be transparently corrected by the per-word
 * SEC-DED on the read path — through decryption — and double faults
 * must be detected, never silently miscorrected. Exercises the full
 * store -> encrypt -> corrupt -> decrypt -> scrub pipeline for every
 * scheme.
 */

#include <gtest/gtest.h>

#include <optional>

#include "common/logging.hh"
#include "common/random.hh"
#include "core/simulator.hh"
#include "nvm/nvm_store.hh"
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

CacheLine
lineWith(std::uint64_t v)
{
    CacheLine l;
    l.setWord(0, v);
    l.setWord(5, ~v);
    return l;
}

/** Find the physical line backing logical addr 0 by scanning the
 * store (schemes remap; tests shouldn't reach into their tables). */
std::optional<Addr>
onlyResidentLine(const NvmStore &store, Addr max_scan)
{
    std::optional<Addr> found;
    for (Addr a = 0; a < max_scan; a += kLineSize) {
        if (store.contains(a)) {
            if (found)
                return std::nullopt;  // ambiguous
            found = a;
        }
    }
    return found;
}

class FaultInjectionTest : public ::testing::TestWithParam<SchemeKind>
{
};

TEST_P(FaultInjectionTest, SingleBitFaultCorrectedThroughDecryption)
{
    SimConfig c = cfg();
    PcmDevice dev(c.pcm);
    NvmStore store(c.pcm.capacityBytes);
    auto scheme = makeScheme(GetParam(), c, dev, store);

    CacheLine data = lineWith(0xfeedface);
    scheme->write(0, data, 0);
    auto phys = onlyResidentLine(store, 1 << 20);
    ASSERT_TRUE(phys.has_value());

    Pcg32 rng(1);
    setQuiet(true);
    for (int trial = 0; trial < 64; ++trial) {
        // Flip one random stored bit (payload or ECC), read, verify.
        unsigned bit = rng.below(576);
        ASSERT_TRUE(store.corruptBit(*phys, bit));
        CacheLine out;
        scheme->read(0, out, 100000 + trial * 1000);
        EXPECT_EQ(out, data) << "bit " << bit;
        // Repair the stored copy for the next trial (the scheme
        // corrects the returned data, not the media).
        store.corruptBit(*phys, bit);
    }
    setQuiet(false);
    EXPECT_EQ(scheme->stats().eccCorrectedReads.value(), 64u);
    EXPECT_EQ(scheme->stats().eccUncorrectableReads.value(), 0u);
}

TEST_P(FaultInjectionTest, DoubleBitFaultDetectedNotMiscorrected)
{
    SimConfig c = cfg();
    PcmDevice dev(c.pcm);
    NvmStore store(c.pcm.capacityBytes);
    auto scheme = makeScheme(GetParam(), c, dev, store);

    CacheLine data = lineWith(0x1234);
    scheme->write(0, data, 0);
    auto phys = onlyResidentLine(store, 1 << 20);
    ASSERT_TRUE(phys.has_value());

    // Two flips within word 0 of the payload.
    ASSERT_TRUE(store.corruptBit(*phys, 3));
    ASSERT_TRUE(store.corruptBit(*phys, 17));

    setQuiet(true);
    CacheLine out;
    scheme->read(0, out, 100000);
    setQuiet(false);
    EXPECT_EQ(scheme->stats().eccUncorrectableReads.value(), 1u);
    EXPECT_EQ(scheme->stats().eccCorrectedReads.value(), 0u);
    // The fault is reported, not silently "fixed" into wrong data:
    // the returned line differs from the original in word 0 only.
    EXPECT_NE(out, data);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, FaultInjectionTest,
    ::testing::Values(SchemeKind::Baseline, SchemeKind::DedupSha1,
                      SchemeKind::DeWrite, SchemeKind::Esd,
                      SchemeKind::EsdPlus),
    [](const ::testing::TestParamInfo<SchemeKind> &info) {
        std::string n = schemeName(info.param);
        for (char &ch : n)
            if (!std::isalnum(static_cast<unsigned char>(ch)))
                ch = '_';
        return n;
    });

TEST(FaultInjection, CorruptBitOnEmptyLineFails)
{
    NvmStore store(1 << 20);
    EXPECT_FALSE(store.corruptBit(0, 3));
}

TEST(FaultInjection, CleanRunHasNoEccEvents)
{
    SimConfig c = cfg();
    SyntheticWorkload trace(findApp("gcc"), 1);
    Simulator sim(c, SchemeKind::Esd);
    sim.run(trace, 10000, 1000);
    EXPECT_EQ(sim.scheme().stats().eccCorrectedReads.value(), 0u);
    EXPECT_EQ(sim.scheme().stats().eccUncorrectableReads.value(), 0u);
}

} // namespace
} // namespace esd
