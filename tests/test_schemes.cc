/**
 * @file
 * Functional tests for the four schemes: read-your-writes correctness,
 * deduplication behaviour, latency composition, and metadata
 * footprints.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <string>

#include "common/random.hh"
#include "dedup/baseline.hh"
#include "dedup/dedup_sha1.hh"
#include "dedup/dewrite.hh"
#include "dedup/esd.hh"
#include "dedup/scheme_factory.hh"
#include "nvm/nvm_store.hh"
#include "nvm/pcm_device.hh"

namespace esd
{
namespace
{

SimConfig
testConfig()
{
    SimConfig cfg;
    cfg.pcm.banksPerChannel = 8;
    cfg.pcm.writeQueueDepth = 64;
    cfg.pcm.rowBufferLines = 0;  // exact array latencies in assertions
    return cfg;
}

struct Harness
{
    explicit Harness(SchemeKind kind, SimConfig cfg = testConfig())
        : config(cfg), device(cfg.pcm), store(cfg.pcm.capacityBytes),
          scheme(makeScheme(kind, cfg, device, store))
    {
    }

    AccessResult
    write(Addr addr, const CacheLine &data)
    {
        AccessResult r = scheme->write(addr, data, now);
        now += 200;
        return r;
    }

    CacheLine
    read(Addr addr)
    {
        CacheLine out;
        scheme->read(addr, out, now);
        now += 200;
        return out;
    }

    SimConfig config;
    PcmDevice device;
    NvmStore store;
    std::unique_ptr<DedupScheme> scheme;
    Tick now = 0;
};

CacheLine
lineWith(std::uint64_t v)
{
    CacheLine l;
    l.setWord(0, v);
    l.setWord(7, ~v);
    return l;
}

// ------------------------------------------------- read-your-writes

class SchemeRywTest : public ::testing::TestWithParam<SchemeKind>
{
};

TEST_P(SchemeRywTest, ReadReturnsLastWrite)
{
    Harness h(GetParam());
    Pcg32 rng(1);
    std::unordered_map<Addr, CacheLine> expect;
    for (int i = 0; i < 400; ++i) {
        Addr addr = static_cast<Addr>(rng.below(64)) * kLineSize;
        CacheLine data;
        // Mix unique and duplicate contents, including zero lines.
        switch (rng.below(3)) {
          case 0:
            data = CacheLine{};
            break;
          case 1:
            data = lineWith(rng.below(8));  // small duplicate pool
            break;
          default:
            rng.fillLine(data);
            break;
        }
        h.write(addr, data);
        expect[addr] = data;
    }
    for (const auto &[addr, want] : expect)
        EXPECT_EQ(h.read(addr), want) << "addr " << addr;
}

TEST_P(SchemeRywTest, UnwrittenAddressReadsZero)
{
    Harness h(GetParam());
    EXPECT_TRUE(h.read(0x100000).isZero());
}

TEST_P(SchemeRywTest, OverwriteSameAddressKeepsLatest)
{
    Harness h(GetParam());
    h.write(0, lineWith(1));
    h.write(0, lineWith(2));
    h.write(0, lineWith(1));  // back to earlier content (dedup case)
    EXPECT_EQ(h.read(0), lineWith(1));
}

TEST_P(SchemeRywTest, CiphertextAtRestDiffersFromPlaintext)
{
    // Data on the device must be encrypted: the stored bytes may not
    // equal the plaintext line.
    Harness h(GetParam());
    CacheLine plain = lineWith(0x1234);
    h.write(0, plain);
    bool found_plain = false;
    // Scan all resident lines (phys unknown to the test).
    for (std::uint64_t li = 0; li < 256; ++li) {
        auto s = h.store.read(li * kLineSize);
        if (s && s->data == plain)
            found_plain = true;
    }
    EXPECT_FALSE(found_plain);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SchemeRywTest,
    ::testing::Values(SchemeKind::Baseline, SchemeKind::DedupSha1,
                      SchemeKind::DeWrite, SchemeKind::Esd),
    [](const ::testing::TestParamInfo<SchemeKind> &info) {
        return std::string(schemeName(info.param));
    });

// ---------------------------------------------------------- Baseline

TEST(BaselineScheme, NeverDeduplicates)
{
    Harness h(SchemeKind::Baseline);
    for (int i = 0; i < 50; ++i)
        h.write(static_cast<Addr>(i) * kLineSize, CacheLine{});
    EXPECT_EQ(h.scheme->stats().dedupHits.value(), 0u);
    EXPECT_EQ(h.scheme->stats().nvmDataWrites.value(), 50u);
    EXPECT_EQ(h.scheme->metadataNvmBytes(), 0u);
}

TEST(BaselineScheme, WriteLatencyIsEncryptPlusDevice)
{
    Harness h(SchemeKind::Baseline);
    AccessResult r = h.write(0, lineWith(1));
    EXPECT_EQ(r.latency, h.config.crypto.encryptLatency +
                             h.config.pcm.writeLatency);
}

TEST(BaselineScheme, ReadLatencyIsDeviceRead)
{
    Harness h(SchemeKind::Baseline);
    h.write(0, lineWith(1));
    CacheLine out;
    AccessResult r = h.scheme->read(0, out, h.now + 10000);
    EXPECT_EQ(r.latency, h.config.pcm.readLatency);
}

// --------------------------------------------------------- Dedup_SHA1

TEST(DedupSha1, DetectsDuplicatesAcrossAddresses)
{
    Harness h(SchemeKind::DedupSha1);
    CacheLine data = lineWith(0xfeed);
    h.write(0, data);
    AccessResult r = h.write(kLineSize, data);
    EXPECT_TRUE(r.dedup);
    EXPECT_EQ(h.scheme->stats().dedupHits.value(), 1u);
    EXPECT_EQ(h.scheme->stats().nvmDataWrites.value(), 1u);
    EXPECT_EQ(h.store.residentLines(), 1u);
}

TEST(DedupSha1, WritePathAlwaysPaysHashLatency)
{
    Harness h(SchemeKind::DedupSha1);
    AccessResult r = h.write(0, lineWith(1));
    EXPECT_GE(r.latency, h.config.crypto.sha1Latency);
    // A duplicate write also pays it.
    AccessResult r2 = h.write(kLineSize, lineWith(1));
    EXPECT_TRUE(r2.dedup);
    EXPECT_GE(r2.latency, h.config.crypto.sha1Latency);
}

TEST(DedupSha1, DeadLineFingerprintIsForgotten)
{
    Harness h(SchemeKind::DedupSha1);
    h.write(0, lineWith(0xaa));      // phys P holds 0xaa, ref 1
    h.write(0, lineWith(0xbb));      // remap: P dies
    // Writing 0xaa again must be a fresh write, not a stale dedup.
    AccessResult r = h.write(kLineSize, lineWith(0xaa));
    EXPECT_FALSE(r.dedup);
    EXPECT_EQ(h.read(kLineSize), lineWith(0xaa));
    EXPECT_EQ(h.read(0), lineWith(0xbb));
}

TEST(DedupSha1, MetadataIncludesFingerprintsAndAmt)
{
    Harness h(SchemeKind::DedupSha1);
    Pcg32 rng(2);
    for (int i = 0; i < 20; ++i) {
        CacheLine l;
        rng.fillLine(l);
        h.write(static_cast<Addr>(i) * kLineSize, l);
    }
    // 20 unique fingerprints @26 B + 20 AMT entries @12 B.
    EXPECT_EQ(h.scheme->metadataNvmBytes(), 20u * 26 + 20u * 12);
}

// ------------------------------------------------------------ DeWrite

TEST(DeWrite, DeduplicatesWithByteVerify)
{
    Harness h(SchemeKind::DeWrite);
    CacheLine data = lineWith(0xbeef);
    h.write(0, data);
    // Warm the predictor toward "duplicate" for this address region.
    AccessResult r;
    for (int i = 1; i <= 4; ++i)
        r = h.write(0, data);
    EXPECT_TRUE(r.dedup);
    EXPECT_GT(h.scheme->stats().compareReads.value(), 0u);
}

TEST(DeWrite, TracksPredictionOutcomes)
{
    Harness h(SchemeKind::DeWrite);
    Pcg32 rng(3);
    for (int i = 0; i < 200; ++i) {
        CacheLine l;
        if (rng.chance(0.5))
            l = lineWith(rng.below(4));
        else
            rng.fillLine(l);
        h.write(static_cast<Addr>(rng.below(32)) * kLineSize, l);
    }
    auto *dw = dynamic_cast<DeWriteScheme *>(h.scheme.get());
    ASSERT_NE(dw, nullptr);
    EXPECT_EQ(dw->predictor().stats().total(), 200u);
}

TEST(DeWrite, CrcChargedForEveryWrite)
{
    Harness h(SchemeKind::DeWrite);
    for (int i = 0; i < 10; ++i)
        h.write(static_cast<Addr>(i) * kLineSize, lineWith(7));
    EXPECT_DOUBLE_EQ(h.scheme->stats().hashEnergy,
                     10 * h.config.crypto.crcEnergy);
}

// ---------------------------------------------------------------- ESD

TEST(Esd, DeduplicatesViaEccAndCompare)
{
    Harness h(SchemeKind::Esd);
    CacheLine data = lineWith(0xcafe);
    AccessResult w1 = h.write(0, data);
    EXPECT_FALSE(w1.dedup);
    AccessResult w2 = h.write(kLineSize, data);
    EXPECT_TRUE(w2.dedup);
    EXPECT_EQ(h.scheme->stats().compareReads.value(), 1u);
    EXPECT_EQ(h.store.residentLines(), 1u);
}

TEST(Esd, NoHashEnergyEver)
{
    Harness h(SchemeKind::Esd);
    Pcg32 rng(4);
    for (int i = 0; i < 100; ++i) {
        CacheLine l;
        rng.fillLine(l);
        h.write(static_cast<Addr>(i) * kLineSize, l);
    }
    EXPECT_DOUBLE_EQ(h.scheme->stats().hashEnergy, 0.0);
    EXPECT_DOUBLE_EQ(h.scheme->stats().breakdown.fpCompute, 0.0);
}

TEST(Esd, NoFingerprintNvmTrafficEver)
{
    // Selective dedup: no fingerprint lookups or stores in NVMM.
    Harness h(SchemeKind::Esd);
    Pcg32 rng(5);
    for (int i = 0; i < 300; ++i) {
        CacheLine l;
        if (rng.chance(0.6))
            l = lineWith(rng.below(8));
        else
            rng.fillLine(l);
        h.write(static_cast<Addr>(rng.below(64)) * kLineSize, l);
    }
    EXPECT_EQ(h.scheme->stats().fpNvmLookups.value(), 0u);
    EXPECT_EQ(h.scheme->stats().fpNvmStores.value(), 0u);
    EXPECT_DOUBLE_EQ(h.scheme->stats().breakdown.fpNvmLookup, 0.0);
}

TEST(Esd, MetadataIsAmtOnly)
{
    Harness h(SchemeKind::Esd);
    for (int i = 0; i < 10; ++i)
        h.write(static_cast<Addr>(i) * kLineSize, lineWith(i));
    EXPECT_EQ(h.scheme->metadataNvmBytes(),
              10u * h.config.metadata.amtEntryBytes);
}

TEST(Esd, EccCollisionCaughtByCompare)
{
    // Construct two different lines with identical line ECC (swap one
    // word for a check-colliding word) and prove no false dedup.
    Harness h(SchemeKind::Esd);
    Pcg32 rng(6);
    CacheLine a;
    rng.fillLine(a);
    std::uint64_t w1 = a.word(0), w2 = 0;
    bool found = false;
    for (int i = 0; i < 300000 && !found; ++i) {
        w2 = rng.next64();
        found = w2 != w1 &&
                Hamming72::encode(w1) == Hamming72::encode(w2);
    }
    ASSERT_TRUE(found);
    CacheLine b = a;
    b.setWord(0, w2);
    ASSERT_EQ(LineEccCodec::encode(a), LineEccCodec::encode(b));

    h.write(0, a);
    AccessResult r = h.write(kLineSize, b);
    EXPECT_FALSE(r.dedup);
    EXPECT_EQ(h.scheme->stats().compareMismatches.value(), 1u);
    // Both contents must be independently readable.
    EXPECT_EQ(h.read(0), a);
    EXPECT_EQ(h.read(kLineSize), b);
}

TEST(Esd, ReferHSaturationRewritesAsNewLine)
{
    SimConfig cfg = testConfig();
    cfg.metadata.referHMax = 3;
    cfg.metadata.decayPeriod = 0;
    Harness h(SchemeKind::Esd, cfg);
    CacheLine data = lineWith(0x5a5a);
    int rewrites_before =
        static_cast<int>(h.scheme->stats().refHOverflowRewrites.value());
    for (int i = 0; i < 10; ++i)
        h.write(static_cast<Addr>(i) * kLineSize, data);
    EXPECT_GT(
        static_cast<int>(h.scheme->stats().refHOverflowRewrites.value()),
        rewrites_before);
    // Correctness preserved throughout.
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(h.read(static_cast<Addr>(i) * kLineSize), data);
}

TEST(Esd, StaleEfitEntryAfterLineDeathIsHandled)
{
    Harness h(SchemeKind::Esd);
    CacheLine data = lineWith(0x77);
    h.write(0, data);              // phys P, EFIT entry -> P
    h.write(0, lineWith(0x88));    // P dies, entry erased
    AccessResult r = h.write(kLineSize, data);
    EXPECT_FALSE(r.dedup);  // must not dedup against a dead line
    EXPECT_EQ(h.read(kLineSize), data);
}

/** Every ECC-fingerprinting scheme charges the fingerprint's latency
 * to the write breakdown and its energy to the hash energy. */
class EccFingerprintCost : public ::testing::TestWithParam<SchemeKind>
{
};

TEST_P(EccFingerprintCost, ChargedOncePerWrite)
{
    SimConfig cfg = testConfig();
    cfg.crypto.eccLatency = 4;
    cfg.crypto.eccEnergy = 3;
    Harness h(GetParam(), cfg);
    Pcg32 rng(11);
    for (int i = 0; i < 64; ++i) {
        CacheLine data;
        if (i % 3 == 0)
            data.setWord(0, rng.below(4));  // some duplicates
        else
            rng.fillLine(data);
        h.write(static_cast<Addr>(rng.below(32)) * kLineSize, data);
    }
    const SchemeStats &st = h.scheme->stats();
    ASSERT_EQ(st.logicalWrites.value(), 64u);
    EXPECT_GT(st.dedupHits.value(), 0u);
    EXPECT_DOUBLE_EQ(st.breakdown.fpCompute, 4.0 * 64);
    EXPECT_DOUBLE_EQ(st.hashEnergy, 3.0 * 64);
}

INSTANTIATE_TEST_SUITE_P(
    EccSchemes, EccFingerprintCost,
    ::testing::Values(SchemeKind::Esd, SchemeKind::EsdFull,
                      SchemeKind::EsdPlus),
    [](const ::testing::TestParamInfo<SchemeKind> &info) {
        std::string n = schemeName(info.param);
        for (char &ch : n)
            if (!std::isalnum(static_cast<unsigned char>(ch)))
                ch = '_';
        return n;
    });

// ------------------------------------------------------------ factory

TEST(SchemeFactory, NamesAndParsing)
{
    EXPECT_STREQ(schemeName(SchemeKind::Esd), "ESD");
    EXPECT_EQ(parseSchemeKind("0"), SchemeKind::Baseline);
    EXPECT_EQ(parseSchemeKind("ESD"), SchemeKind::Esd);
    EXPECT_EQ(parseSchemeKind("dewrite"), SchemeKind::DeWrite);
    EXPECT_EQ(parseSchemeKind("Tra_sha1"), SchemeKind::DedupSha1);
    EXPECT_EQ(allSchemeKinds().size(), 4u);
}

TEST(SchemeFactory, BuildsMatchingInstances)
{
    SimConfig cfg = testConfig();
    PcmDevice dev(cfg.pcm);
    NvmStore store(cfg.pcm.capacityBytes);
    for (SchemeKind k : allSchemeKinds()) {
        auto s = makeScheme(k, cfg, dev, store);
        EXPECT_EQ(s->name(), schemeName(k));
    }
}

} // namespace
} // namespace esd
