/**
 * @file
 * Tests for the common substrate: types, RNG, statistics, config.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <fstream>
#include <sstream>

#include "common/atomic_file.hh"
#include "common/config.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace esd
{
namespace
{

// --------------------------------------------------------------- types

TEST(CacheLineType, DefaultIsZero)
{
    CacheLine l;
    EXPECT_TRUE(l.isZero());
    for (std::size_t i = 0; i < kLineSize; ++i)
        EXPECT_EQ(l[i], 0);
}

TEST(CacheLineType, WordRoundTrip)
{
    CacheLine l;
    for (std::size_t i = 0; i < kWordsPerLine; ++i)
        l.setWord(i, 0x1111111111111111ull * (i + 1));
    for (std::size_t i = 0; i < kWordsPerLine; ++i)
        EXPECT_EQ(l.word(i), 0x1111111111111111ull * (i + 1));
    EXPECT_FALSE(l.isZero());
}

TEST(CacheLineType, EqualityIsContentBased)
{
    CacheLine a, b;
    a.setWord(3, 42);
    EXPECT_NE(a, b);
    b.setWord(3, 42);
    EXPECT_EQ(a, b);
}

TEST(CacheLineType, ContentHashDistinguishes)
{
    CacheLine a, b;
    a.setWord(0, 1);
    b.setWord(0, 2);
    EXPECT_NE(a.contentHash(), b.contentHash());
    EXPECT_EQ(a.contentHash(), a.contentHash());
}

TEST(CacheLineType, ConstructFromBytes)
{
    std::uint8_t raw[kLineSize];
    for (std::size_t i = 0; i < kLineSize; ++i)
        raw[i] = static_cast<std::uint8_t>(i);
    CacheLine l(raw);
    for (std::size_t i = 0; i < kLineSize; ++i)
        EXPECT_EQ(l[i], i);
}

TEST(AddressHelpers, LineAlignAndIndex)
{
    EXPECT_EQ(lineAlign(0), 0u);
    EXPECT_EQ(lineAlign(63), 0u);
    EXPECT_EQ(lineAlign(64), 64u);
    EXPECT_EQ(lineAlign(129), 128u);
    EXPECT_EQ(lineIndex(129), 2u);
}

// ----------------------------------------------------------------- rng

TEST(Pcg32, Deterministic)
{
    Pcg32 a(7), b(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Pcg32, DifferentSeedsDiffer)
{
    Pcg32 a(7), b(8);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 5);
}

TEST(Pcg32, BelowRespectsBound)
{
    Pcg32 rng(9);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Pcg32, UniformInUnitInterval)
{
    Pcg32 rng(10);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Pcg32, ChanceFrequency)
{
    Pcg32 rng(11);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += rng.chance(0.3);
    EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

// --------------------------------------------------------------- stats

TEST(LatencyStat, MeanMinMax)
{
    LatencyStat s;
    s.sample(10);
    s.sample(20);
    s.sample(30);
    EXPECT_DOUBLE_EQ(s.mean(), 20.0);
    EXPECT_DOUBLE_EQ(s.min(), 10.0);
    EXPECT_DOUBLE_EQ(s.max(), 30.0);
    EXPECT_EQ(s.count(), 3u);
}

TEST(LatencyStat, EmptyIsZero)
{
    LatencyStat s;
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.percentile(99), 0.0);
    EXPECT_TRUE(s.cdf(10).empty());
}

TEST(LatencyStat, PercentileNearestRank)
{
    LatencyStat s;
    for (int i = 1; i <= 100; ++i)
        s.sample(i);
    EXPECT_DOUBLE_EQ(s.percentile(50), 50.0);
    EXPECT_DOUBLE_EQ(s.percentile(99), 99.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
    EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
}

TEST(LatencyStat, PercentileMonotone)
{
    LatencyStat s;
    Pcg32 rng(12);
    for (int i = 0; i < 5000; ++i)
        s.sample(rng.uniform() * 1000);
    double last = 0;
    for (double p : {10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9}) {
        double v = s.percentile(p);
        EXPECT_GE(v, last);
        last = v;
    }
}

TEST(LatencyStat, CdfIsMonotoneAndComplete)
{
    LatencyStat s;
    Pcg32 rng(13);
    for (int i = 0; i < 1000; ++i)
        s.sample(rng.uniform() * 100);
    auto cdf = s.cdf(20);
    ASSERT_EQ(cdf.size(), 20u);
    for (std::size_t i = 1; i < cdf.size(); ++i) {
        EXPECT_GE(cdf[i].first, cdf[i - 1].first);
        EXPECT_GT(cdf[i].second, cdf[i - 1].second);
    }
    EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
}

TEST(RefCountBuckets, BucketBoundaries)
{
    EXPECT_EQ(RefCountBuckets::bucketOf(1), 0u);
    EXPECT_EQ(RefCountBuckets::bucketOf(2), 1u);
    EXPECT_EQ(RefCountBuckets::bucketOf(10), 1u);
    EXPECT_EQ(RefCountBuckets::bucketOf(11), 2u);
    EXPECT_EQ(RefCountBuckets::bucketOf(100), 2u);
    EXPECT_EQ(RefCountBuckets::bucketOf(1000), 3u);
    EXPECT_EQ(RefCountBuckets::bucketOf(1001), 4u);
}

TEST(RefCountBuckets, VolumeAccounting)
{
    RefCountBuckets b;
    b.add(1);     // num1: 1 line, 1 write
    b.add(5);     // num10: 1 line, 5 writes
    b.add(2000);  // num1000+: 1 line, 2000 writes
    EXPECT_EQ(b.totalLines(), 3u);
    EXPECT_EQ(b.totalVolume(), 2006u);
    EXPECT_EQ(b.lines(0), 1u);
    EXPECT_EQ(b.volume(4), 2000u);
}

// --------------------------------------------------------------- config

TEST(SimConfig, DefaultsMatchTableI)
{
    SimConfig cfg;
    EXPECT_EQ(cfg.pcm.readLatency, 75u);
    EXPECT_EQ(cfg.pcm.writeLatency, 150u);
    EXPECT_DOUBLE_EQ(cfg.pcm.readEnergy, 1490.0);
    EXPECT_DOUBLE_EQ(cfg.pcm.writeEnergy, 6750.0);
    EXPECT_EQ(cfg.pcm.capacityBytes, 16ull << 30);
    EXPECT_EQ(cfg.metadata.efitCacheBytes, 512u * 1024);
    EXPECT_EQ(cfg.metadata.amtCacheBytes, 512u * 1024);
    EXPECT_EQ(cfg.crypto.sha1Latency, 321u);
}

TEST(SimConfig, SummaryMentionsKeyParameters)
{
    SimConfig cfg;
    std::string s = cfg.summary();
    EXPECT_NE(s.find("16 GB"), std::string::npos);
    EXPECT_NE(s.find("75 ns"), std::string::npos);
    EXPECT_NE(s.find("LRCU"), std::string::npos);
    EXPECT_NE(s.find("512 KB"), std::string::npos);
    EXPECT_NE(s.find("16 per channel"), std::string::npos);
}

TEST(Logging, WarnCountsAndQuiet)
{
    setQuiet(true);
    std::uint64_t before = warnCount();
    esd_warn("test warning %d", 1);
    EXPECT_EQ(warnCount(), before + 1);
    setQuiet(false);
}

TEST(Logging, FormatProducesPrintfOutput)
{
    EXPECT_EQ(detail::format("x=%d s=%s", 5, "abc"), "x=5 s=abc");
}

/** A fresh private directory under the test temp dir. */
std::string
makeTempDir()
{
    std::string dir = ::testing::TempDir() + "esd_atomic_XXXXXX";
    EXPECT_NE(::mkdtemp(dir.data()), nullptr);
    return dir;
}

TEST(AtomicFile, RegularTargetIsReplacedWhole)
{
    const std::string dir = makeTempDir();
    const std::string path = dir + "/report.json";
    ASSERT_TRUE(writeFileAtomic(path, "first, and longer\n"));
    ASSERT_TRUE(writeFileAtomic(path, "second\n"));

    std::ifstream in(path, std::ios::binary);
    std::ostringstream got;
    got << in.rdbuf();
    EXPECT_EQ(got.str(), "second\n");
    EXPECT_NE(::access((path + ".tmp").c_str(), F_OK), 0);
    ::unlink(path.c_str());
    ::rmdir(dir.c_str());
}

TEST(AtomicFile, FifoTargetIsWrittenInPlace)
{
    const std::string dir = makeTempDir();
    const std::string fifo = dir + "/report.fifo";
    ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
    // An open reader lets the writer's open() return at once.
    int rd = ::open(fifo.c_str(), O_RDONLY | O_NONBLOCK);
    ASSERT_GE(rd, 0);

    const std::string body = "{\"ok\": true}\n";
    EXPECT_TRUE(writeFileAtomic(fifo, body));

    struct stat st;
    ASSERT_EQ(::stat(fifo.c_str(), &st), 0);
    EXPECT_TRUE(S_ISFIFO(st.st_mode));
    std::string got(256, '\0');
    ssize_t n = ::read(rd, got.data(), got.size());
    ASSERT_GT(n, 0);
    got.resize(static_cast<std::size_t>(n));
    EXPECT_EQ(got, body);

    ::close(rd);
    ::unlink(fifo.c_str());
    ::rmdir(dir.c_str());
}

} // namespace
} // namespace esd
