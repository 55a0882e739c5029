/**
 * @file
 * Tests for the trace substrate: Zipf sampling, synthetic workload
 * calibration against the paper's characterisation, and trace IO.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <unordered_set>

#include "dedup/analyzer.hh"
#include "trace/trace.hh"
#include "trace/trace_capture.hh"
#include "trace/trace_frontend.hh"
#include "trace/workloads.hh"
#include "trace/zipf.hh"

namespace esd
{
namespace
{

// ----------------------------------------------------------------- zipf

TEST(Zipf, UniformWhenSkewZero)
{
    ZipfSampler z(10, 0.0);
    for (std::uint64_t k = 0; k < 10; ++k)
        EXPECT_NEAR(z.probability(k), 0.1, 1e-12);
}

TEST(Zipf, ProbabilitiesSumToOne)
{
    ZipfSampler z(1000, 1.1);
    double sum = 0;
    for (std::uint64_t k = 0; k < 1000; ++k)
        sum += z.probability(k);
    EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Zipf, SkewConcentratesOnLowRanks)
{
    ZipfSampler z(10000, 1.2);
    EXPECT_GT(z.probability(0), 100 * z.probability(999));
    Pcg32 rng(1);
    std::uint64_t low = 0;
    for (int i = 0; i < 10000; ++i)
        low += (z.sample(rng) < 100);
    // With s=1.2 the top-100 ranks should receive a large share.
    EXPECT_GT(low, 5000u);
}

TEST(Zipf, SampleWithinPopulation)
{
    ZipfSampler z(37, 0.8);
    Pcg32 rng(2);
    for (int i = 0; i < 5000; ++i)
        EXPECT_LT(z.sample(rng), 37u);
}

/** The guide-table draw equals a plain lower_bound over a rebuilt CDF
 * for PCG draws and at (and just around) every guide-bucket edge. */
TEST(Zipf, GuidedDrawMatchesReferenceLowerBound)
{
    for (std::uint64_t n : {1ull, 2ull, 8192ull, 32768ull, 100003ull}) {
        for (double s : {0.0, 0.95, 1.15, 2.0}) {
            SCOPED_TRACE("n=" + std::to_string(n) +
                         " s=" + std::to_string(s));
            ZipfSampler z(n, s);
            std::vector<double> cdf;
            double acc = 0;
            for (std::uint64_t k = 0; k < n; ++k) {
                acc += 1.0 / std::pow(static_cast<double>(k + 1), s);
                cdf.push_back(acc);
            }
            auto reference = [&](double r) {
                auto it = std::lower_bound(cdf.begin(), cdf.end(), r * acc);
                return std::min<std::uint64_t>(
                    static_cast<std::uint64_t>(it - cdf.begin()), n - 1);
            };

            Pcg32 rng(7, n), twin(7, n);
            for (int i = 0; i < 100000; ++i) {
                std::uint64_t got = z.sample(rng);
                ASSERT_EQ(got, reference(twin.uniform())) << "draw " << i;
            }

            std::uint64_t buckets = 1;
            while (buckets < n)
                buckets *= 2;
            for (std::uint64_t b = 0; b < buckets; ++b) {
                double edge = static_cast<double>(b) /
                              static_cast<double>(buckets);
                ASSERT_EQ(z.rankAt(edge), reference(edge)) << "b=" << b;
                double above = std::nextafter(edge, 1.0);
                ASSERT_EQ(z.rankAt(above), reference(above)) << "b=" << b;
                if (b > 0) {
                    double below = std::nextafter(edge, 0.0);
                    ASSERT_EQ(z.rankAt(below), reference(below))
                        << "b=" << b;
                }
            }
            double top = std::nextafter(1.0, 0.0);
            ASSERT_EQ(z.rankAt(top), reference(top));
        }
    }
}

// ------------------------------------------------------------ profiles

TEST(Workloads, TwentyPaperApps)
{
    EXPECT_EQ(paperApps().size(), 20u);
    unsigned spec = 0, parsec = 0;
    for (const AppProfile &p : paperApps()) {
        if (p.suite == AppProfile::Suite::SpecCpu2017)
            ++spec;
        else
            ++parsec;
    }
    EXPECT_EQ(spec, 12u);
    EXPECT_EQ(parsec, 8u);
}

TEST(Workloads, FindAppByName)
{
    EXPECT_EQ(findApp("lbm").name, "lbm");
    EXPECT_EQ(findApp("deepsjeng").dupRate, 0.999);
}

TEST(Workloads, AverageDupRateNearPaper)
{
    // Fig. 1: average 62.9%, range 33.1%..99.9%.
    double sum = 0, lo = 1, hi = 0;
    for (const AppProfile &p : paperApps()) {
        sum += p.dupRate;
        lo = std::min(lo, p.dupRate);
        hi = std::max(hi, p.dupRate);
    }
    EXPECT_NEAR(sum / paperApps().size(), 0.629, 0.05);
    EXPECT_NEAR(lo, 0.331, 1e-9);
    EXPECT_NEAR(hi, 0.999, 1e-9);
}

// ----------------------------------------------------------- generator

TEST(SyntheticWorkload, Deterministic)
{
    SyntheticWorkload a(findApp("gcc"), 7);
    SyntheticWorkload b(findApp("gcc"), 7);
    TraceRecord ra, rb;
    for (int i = 0; i < 1000; ++i) {
        ASSERT_TRUE(a.next(ra));
        ASSERT_TRUE(b.next(rb));
        EXPECT_EQ(ra.op, rb.op);
        EXPECT_EQ(ra.addr, rb.addr);
        EXPECT_EQ(ra.icount, rb.icount);
        EXPECT_EQ(ra.data, rb.data);
    }
}

TEST(SyntheticWorkload, ResetReplays)
{
    SyntheticWorkload w(findApp("mcf"), 3);
    TraceRecord first;
    ASSERT_TRUE(w.next(first));
    for (int i = 0; i < 100; ++i)
        w.next(first);
    w.reset();
    TraceRecord again;
    ASSERT_TRUE(w.next(again));
    SyntheticWorkload fresh(findApp("mcf"), 3);
    TraceRecord expect;
    ASSERT_TRUE(fresh.next(expect));
    EXPECT_EQ(again.addr, expect.addr);
    EXPECT_EQ(again.data, expect.data);
}

TEST(SyntheticWorkload, MeasuredDupRateTracksProfile)
{
    for (const char *name : {"gcc", "leela", "deepsjeng", "lbm"}) {
        SyntheticWorkload w(findApp(name), 1);
        DedupAnalyzer an;
        TraceRecord rec;
        std::uint64_t writes = 0;
        while (writes < 30000) {
            ASSERT_TRUE(w.next(rec));
            if (rec.op != OpType::Write)
                continue;
            an.addWrite(rec.data);
            ++writes;
        }
        EXPECT_NEAR(an.duplicateRate(), w.profile().dupRate, 0.06)
            << name;
    }
}

TEST(SyntheticWorkload, ZeroLinesDominateDeepsjeng)
{
    SyntheticWorkload w(findApp("deepsjeng"), 1);
    TraceRecord rec;
    std::uint64_t writes = 0, zeros = 0;
    while (writes < 10000) {
        ASSERT_TRUE(w.next(rec));
        if (rec.op != OpType::Write)
            continue;
        ++writes;
        zeros += rec.data.isZero();
    }
    EXPECT_GT(static_cast<double>(zeros) / writes, 0.7);
}

TEST(SyntheticWorkload, ContentLocalityIsSkewed)
{
    // Fig. 3 shape: few unique lines cover a large write volume.
    SyntheticWorkload w(findApp("dedup"), 1);
    DedupAnalyzer an;
    TraceRecord rec;
    std::uint64_t writes = 0;
    while (writes < 60000) {
        ASSERT_TRUE(w.next(rec));
        if (rec.op != OpType::Write)
            continue;
        an.addWrite(rec.data);
        ++writes;
    }
    RefCountBuckets b = an.buckets();
    // The >100-ref buckets hold a tiny fraction of unique lines but a
    // disproportionate share of total writes.
    double line_frac =
        static_cast<double>(b.lines(3) + b.lines(4)) / b.totalLines();
    double vol_frac =
        static_cast<double>(b.volume(3) + b.volume(4)) / b.totalVolume();
    EXPECT_LT(line_frac, 0.02);
    EXPECT_GT(vol_frac, 0.15);
}

TEST(SyntheticWorkload, ReadsTargetWrittenAddresses)
{
    SyntheticWorkload w(findApp("x264"), 5);
    std::unordered_set<Addr> written;
    TraceRecord rec;
    for (int i = 0; i < 20000; ++i) {
        ASSERT_TRUE(w.next(rec));
        if (rec.op == OpType::Write)
            written.insert(rec.addr);
        else
            EXPECT_TRUE(written.count(rec.addr)) << "read before write";
    }
}

TEST(SyntheticWorkload, WriteFractionTracksProfile)
{
    SyntheticWorkload w(findApp("namd"), 2);
    TraceRecord rec;
    std::uint64_t writes = 0, total = 40000;
    for (std::uint64_t i = 0; i < total; ++i) {
        ASSERT_TRUE(w.next(rec));
        writes += (rec.op == OpType::Write);
    }
    EXPECT_NEAR(static_cast<double>(writes) / total,
                w.profile().writeFrac, 0.03);
}

// ------------------------------------------------------------ trace IO
//
// Round trips and malformed-input diagnostics through the repo's one
// trace codec: TraceCaptureWriter encodes, TraceFrontend decodes.

class TraceIoTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = std::filesystem::temp_directory_path() /
                ("esd_trace_test_" + std::to_string(::getpid()));
    }

    void TearDown() override { std::filesystem::remove(path_); }

    /** Encode @p recs to path_ through the capture writer. */
    void
    capture(const std::vector<TraceRecord> &recs, TraceFormat format)
    {
        TraceConfig tc;
        tc.format = format;
        TraceCaptureWriter writer(path_.string(), tc);
        for (const TraceRecord &r : recs)
            writer.write(r);
        EXPECT_EQ(writer.count(), recs.size());
    }

    /** Write @p recs as a legacy headerless v1 binary trace: the
     * magic, then [u8 op][u64 addr][u32 icount][64 B payload, writes
     * only] records, little-endian. */
    void
    writeV1(const std::vector<TraceRecord> &recs)
    {
        std::string bytes = "ESDT";
        for (const TraceRecord &r : recs) {
            bytes += static_cast<char>(r.op == OpType::Write);
            for (int i = 0; i < 8; ++i)
                bytes += static_cast<char>(r.addr >> (8 * i));
            for (int i = 0; i < 4; ++i)
                bytes += static_cast<char>(r.icount >> (8 * i));
            if (r.op == OpType::Write)
                bytes.append(reinterpret_cast<const char *>(r.data.data()),
                             kLineSize);
        }
        std::ofstream(path_, std::ios::binary) << bytes;
    }

    void
    writeText(const std::string &text)
    {
        std::ofstream(path_) << text;
    }

    /** Every record of path_, through the frontend. */
    std::vector<TraceRecord>
    drain() const
    {
        TraceFrontend reader(path_.string(), TraceConfig{});
        std::vector<TraceRecord> out;
        TraceRecord rec;
        while (reader.next(rec))
            out.push_back(rec);
        return out;
    }

    static void
    expectSame(const std::vector<TraceRecord> &want,
               const std::vector<TraceRecord> &got)
    {
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(got[i].op, want[i].op) << "record " << i;
            EXPECT_EQ(got[i].addr, want[i].addr) << "record " << i;
            EXPECT_EQ(got[i].icount, want[i].icount) << "record " << i;
            if (want[i].op == OpType::Write) {
                EXPECT_EQ(got[i].data, want[i].data) << "record " << i;
            }
        }
    }

    static std::vector<TraceRecord>
    synthesize(const char *app, std::uint64_t seed, std::size_t n)
    {
        SyntheticWorkload w(findApp(app), seed);
        std::vector<TraceRecord> recs(n);
        for (TraceRecord &r : recs)
            EXPECT_TRUE(w.next(r));
        return recs;
    }

    std::filesystem::path path_;
};

TEST_F(TraceIoTest, TextRoundTrip)
{
    std::vector<TraceRecord> recs = synthesize("wrf", 9, 200);
    capture(recs, TraceFormat::Text);
    expectSame(recs, drain());
}

TEST_F(TraceIoTest, BinaryRoundTrip)
{
    std::vector<TraceRecord> recs = synthesize("facesim", 10, 500);
    capture(recs, TraceFormat::Binary);
    expectSame(recs, drain());
    // The legacy v1 stream decodes to the same records.
    writeV1(recs);
    expectSame(recs, drain());
}

TEST_F(TraceIoTest, ReaderResetRestarts)
{
    TraceRecord r;
    r.op = OpType::Write;
    r.addr = 0x1240;
    r.icount = 5;
    r.data.setWord(0, 77);
    writeV1({r});
    TraceFrontend reader(path_.string(), TraceConfig{});
    TraceRecord got;
    ASSERT_TRUE(reader.next(got));
    EXPECT_FALSE(reader.next(got));
    reader.reset();
    ASSERT_TRUE(reader.next(got));
    EXPECT_EQ(got.addr, 0x1240u);
    EXPECT_EQ(got.data.word(0), 77u);
}

TEST_F(TraceIoTest, TextBadHexAddressIsFatal)
{
    writeText("W zzzz " + std::string(kLineSize * 2, '0') + " 10\n");
    EXPECT_EXIT(drain(), ::testing::ExitedWithCode(1),
                ":1: bad hex address 'zzzz'");
}

TEST_F(TraceIoTest, TextTrailingGarbageAddressIsFatal)
{
    writeText("R 12g4 10\n");
    EXPECT_EXIT(drain(), ::testing::ExitedWithCode(1),
                ":1: bad hex address '12g4'");
}

TEST_F(TraceIoTest, TextBadOpIsFatal)
{
    writeText("X 40 10\n");
    EXPECT_EXIT(drain(), ::testing::ExitedWithCode(1), ":1: bad op 'X'");
    // A leading hex address is Ramulator order: the op slot is blamed.
    writeText("40 X 10\n");
    EXPECT_EXIT(drain(), ::testing::ExitedWithCode(1), ":1: bad op 'X'");
}

/** Content that is neither binary nor gzip is decoded as text, so a
 * file without the magic dies on its first line, not silently. */
TEST_F(TraceIoTest, BinaryBadMagicIsFatal)
{
    std::ofstream(path_, std::ios::binary) << "NOPE";
    EXPECT_EXIT(drain(), ::testing::ExitedWithCode(1),
                ":1: malformed record");
}

TEST_F(TraceIoTest, BinaryTruncatedRecordIsFatal)
{
    TraceRecord r;
    r.op = OpType::Read;
    r.addr = 0x40;
    writeV1({r});
    // Chop the last record short.
    std::filesystem::resize_file(path_,
                                 std::filesystem::file_size(path_) - 2);
    EXPECT_EXIT(drain(), ::testing::ExitedWithCode(1), "truncated record");
}

TEST_F(TraceIoTest, BinaryTruncatedPayloadIsFatal)
{
    TraceRecord r;
    r.op = OpType::Write;
    r.addr = 0x80;
    r.data.setWord(0, 42);
    writeV1({r});
    std::filesystem::resize_file(path_,
                                 std::filesystem::file_size(path_) - 8);
    EXPECT_EXIT(drain(), ::testing::ExitedWithCode(1),
                "truncated write payload");
}

TEST_F(TraceIoTest, BinaryBadOpByteIsFatal)
{
    TraceRecord r;
    r.op = OpType::Read;
    r.addr = 0x40;
    writeV1({r, r});
    // Corrupt the second record's op byte (after the 4-byte magic and
    // one 13-byte read record; the first post-magic byte is the
    // version sniff, so it would read as a version, not an op).
    {
        std::fstream f(path_, std::ios::binary | std::ios::in |
                                  std::ios::out);
        f.seekp(4 + 13);
        char bad = 7;
        f.write(&bad, 1);
    }
    EXPECT_EXIT(drain(), ::testing::ExitedWithCode(1), "bad op byte 7");
}

TEST(VectorTrace, PushAndReplay)
{
    VectorTrace t;
    TraceRecord r;
    r.addr = 640;
    t.push(r);
    r.addr = 1280;
    t.push(r);
    TraceRecord got;
    ASSERT_TRUE(t.next(got));
    EXPECT_EQ(got.addr, 640u);
    ASSERT_TRUE(t.next(got));
    EXPECT_EQ(got.addr, 1280u);
    EXPECT_FALSE(t.next(got));
    t.reset();
    ASSERT_TRUE(t.next(got));
    EXPECT_EQ(got.addr, 640u);
}

} // namespace
} // namespace esd
