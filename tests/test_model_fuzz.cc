/**
 * @file
 * Differential model checking: every scheme, under long randomized
 * write/read soups drawn from adversarial content distributions
 * (zero lines, tiny duplicate pools, random uniques, value toggling),
 * must agree with a trivial reference memory at every read. This is
 * the strongest correctness net over the dedup machinery: any
 * refcount, remap, EFIT-staleness, or encryption bug surfaces as a
 * mismatch.
 */

#include <gtest/gtest.h>

#include <unordered_map>

#include "common/random.hh"
#include "core/simulator.hh"

namespace esd
{
namespace
{

SimConfig
cfg()
{
    SimConfig c;
    c.pcm.banksPerChannel = 8;
    // Tiny metadata caches maximise eviction/staleness pressure.
    c.metadata.efitCacheBytes = 64 * 16;
    c.metadata.amtCacheBytes = 8 * kLineSize;
    c.metadata.referHMax = 7;  // force frequent saturation rewrites
    c.metadata.decayPeriod = 32;
    return c;
}

class ModelFuzzTest
    : public ::testing::TestWithParam<std::tuple<SchemeKind, int>>
{
};

TEST_P(ModelFuzzTest, SchemeAgreesWithReferenceMemory)
{
    auto [kind, seed] = GetParam();
    SimConfig c = cfg();
    PcmDevice dev(c.pcm);
    NvmStore store(c.pcm.capacityBytes);
    auto scheme = makeScheme(kind, c, dev, store);

    Pcg32 rng(9000 + seed);
    std::unordered_map<Addr, CacheLine> model;
    Tick now = 0;

    for (int op = 0; op < 4000; ++op) {
        now += 120;
        Addr addr = static_cast<Addr>(rng.below(96)) * kLineSize;

        bool do_write = model.empty() || rng.chance(0.6);
        if (do_write) {
            CacheLine data;
            switch (rng.below(5)) {
              case 0:
                // zero line (the hottest duplicate in real traces)
                break;
              case 1:
                // tiny duplicate pool: heavy cross-address dedup
                data.setWord(0, rng.below(3));
                break;
              case 2:
                // toggle pattern: same address alternating contents
                data.setWord(0, op & 1);
                data.setWord(3, 0x7777);
                break;
              case 3:
                // sparse content: one nonzero byte
                data[rng.below(kLineSize)] =
                    static_cast<std::uint8_t>(1 + rng.below(255));
                break;
              default:
                rng.fillLine(data);
                break;
            }
            scheme->write(addr, data, now);
            model[addr] = data;
        } else {
            CacheLine got;
            scheme->read(addr, got, now);
            auto it = model.find(addr);
            CacheLine want =
                it == model.end() ? CacheLine{} : it->second;
            ASSERT_EQ(got, want)
                << scheme->name() << " divergence at op " << op
                << " addr " << addr;
        }
    }

    // Final sweep: every modelled address must read back exactly.
    for (const auto &[addr, want] : model) {
        CacheLine got;
        now += 120;
        scheme->read(addr, got, now);
        ASSERT_EQ(got, want) << scheme->name() << " addr " << addr;
    }

    // Dedup bookkeeping conservation.
    const SchemeStats &s = scheme->stats();
    EXPECT_EQ(s.nvmDataWrites.value() + s.dedupHits.value(),
              s.logicalWrites.value());
}

INSTANTIATE_TEST_SUITE_P(
    SchemesBySeeds, ModelFuzzTest,
    ::testing::Combine(::testing::Values(SchemeKind::Baseline,
                                         SchemeKind::DedupSha1,
                                         SchemeKind::DeWrite,
                                         SchemeKind::Esd,
                                         SchemeKind::EsdFull,
                                         SchemeKind::EsdPlus),
                       ::testing::Range(0, 4)),
    [](const auto &info) {
        std::string n = schemeName(std::get<0>(info.param));
        for (char &ch : n)
            if (!std::isalnum(static_cast<unsigned char>(ch)))
                ch = '_';
        return n + "_s" + std::to_string(std::get<1>(info.param));
    });

} // namespace
} // namespace esd
