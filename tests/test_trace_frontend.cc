/**
 * @file
 * Streaming trace frontend: capture/replay bit-identity and format
 * equivalence.
 *
 * The headline guarantee of trace/trace_frontend.hh is that a captured
 * synthetic run replays bit-identically: the stats-JSON document of
 * the replay equals the original byte for byte, for every scheme, in
 * every on-disk format, at any pipeline worker count, and composed
 * with crash injection. These tests pin each leg of that claim, plus
 * the batch contract (any nextBatch size yields next()'s stream and
 * writes only the slots it is given) and the deterministic content
 * synthesis for payload-less traces.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/random.hh"
#include "core/run_report.hh"
#include "core/simulator.hh"
#include "exec/pipeline.hh"
#include "trace/trace_capture.hh"
#include "trace/trace_frontend.hh"
#include "trace/workloads.hh"

namespace esd
{
namespace
{

constexpr std::uint64_t kRecords = 8000;
constexpr std::uint64_t kWarmup = 1500;
constexpr std::uint64_t kSeed = 7;

class TraceFrontendTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = std::filesystem::temp_directory_path() /
               ("esd_frontend_" + std::to_string(::getpid()));
        std::filesystem::create_directories(dir_);
    }

    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::string
    file(const char *name) const
    {
        return (dir_ / name).string();
    }

    std::filesystem::path dir_;
};

/** The exact esd_sim single-run report for @p trace. */
std::string
renderRun(const SimConfig &cfg, SchemeKind kind, TraceSource &trace,
          std::uint64_t records, std::uint64_t warmup)
{
    Simulator sim(cfg, kind);
    RunResult r = sim.run(trace, records, warmup);
    std::ostringstream os;
    writeStatsReport(os, cfg, r, sim.statRegistry(), nullptr);
    return os.str();
}

/** Capture a synthetic run to @p path and return its report. */
std::string
captureRun(const SimConfig &cfg, SchemeKind kind,
           const std::string &path, TraceFormat format)
{
    TraceConfig tc = cfg.trace;
    tc.format = format;
    TraceCaptureWriter writer(path, tc);
    SyntheticWorkload synth(findApp("mcf"), kSeed);
    CapturingSource tee(synth, writer);
    std::string rep = renderRun(cfg, kind, tee, kRecords, kWarmup);
    writer.close();
    EXPECT_EQ(writer.count(), kRecords);
    return rep;
}

/** Drain a frontend into a vector through @p batch-record nextBatch
 * calls (payload compare helper). */
std::vector<TraceRecord>
drain(const std::string &path, std::size_t batch = 1024)
{
    TraceFrontend f(path, TraceConfig{});
    std::vector<TraceRecord> out;
    std::vector<TraceRecord> chunk(batch);
    while (std::size_t n = f.nextBatch(chunk.data(), batch))
        out.insert(out.end(), chunk.begin(),
                   chunk.begin() + static_cast<long>(n));
    return out;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void
putLe(std::string &out, std::uint64_t v, int bytes)
{
    for (int i = 0; i < bytes; ++i)
        out += static_cast<char>((v >> (8 * i)) & 0xff);
}

void
writeGzip(const std::string &path, const std::string &bytes)
{
    detail::GzipByteSink sink(std::make_unique<detail::FileByteSink>(path));
    sink.write(reinterpret_cast<const std::uint8_t *>(bytes.data()),
               bytes.size());
    sink.finish();
}

/** Field-wise record compare; reads' payloads only when
 * @p readPayloads (expected streams leave them unset). */
void
expectSameRecords(const std::vector<TraceRecord> &a,
                  const std::vector<TraceRecord> &b,
                  bool readPayloads = false)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].op, b[i].op) << "record " << i;
        EXPECT_EQ(a[i].addr, b[i].addr) << "record " << i;
        EXPECT_EQ(a[i].icount, b[i].icount) << "record " << i;
        if (a[i].op == OpType::Write || readPayloads) {
            EXPECT_EQ(a[i].data, b[i].data) << "record " << i;
        }
    }
}

// ---------------------------------------------- capture -> replay

class CaptureReplayIdentity : public TraceFrontendTest,
                              public ::testing::WithParamInterface<int>
{
};

/** Capture -> replay must reproduce the stats JSON byte for byte, per
 * scheme. Schemes read different amounts of state (dedup tables, AMT,
 * counters), so identity per scheme pins the whole record stream —
 * ops, addresses, payloads, and icounts. */
TEST_P(CaptureReplayIdentity, StatsJsonByteIdentical)
{
    SchemeKind kind = allSchemeKindsExtended()[GetParam()];
    SimConfig cfg;
    cfg.seed = kSeed;
    std::string path = file("cap.trace");
    std::string original =
        captureRun(cfg, kind, path, TraceFormat::Text);

    TraceFrontend replay(path, cfg.trace);
    EXPECT_EQ(replay.format(), TraceFormat::Text);
    std::string replayed =
        renderRun(cfg, kind, replay, kRecords, kWarmup);
    EXPECT_EQ(original, replayed);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, CaptureReplayIdentity,
                         ::testing::Range(0, 6));

/** The same identity through each on-disk encoding: the format is a
 * transport, never a semantic. */
TEST_F(TraceFrontendTest, ReplayIdenticalInEveryFormat)
{
    SimConfig cfg;
    cfg.seed = kSeed;
    struct Case
    {
        TraceFormat format;
        const char *name;
    } cases[] = {{TraceFormat::Text, "t.trace"},
                 {TraceFormat::Gzip, "t.gz"},
                 {TraceFormat::Binary, "t.bin"}};

    std::string original;
    for (const Case &c : cases) {
        std::string path = file(c.name);
        std::string rep =
            captureRun(cfg, SchemeKind::Esd, path, c.format);
        if (original.empty())
            original = rep;
        else
            EXPECT_EQ(original, rep);

        TraceFrontend replay(path, cfg.trace);
        EXPECT_EQ(replay.format(), c.format);
        EXPECT_EQ(original, renderRun(cfg, SchemeKind::Esd, replay,
                                      kRecords, kWarmup));
    }
}

// ---------------------------------------------- format round trips

TEST_F(TraceFrontendTest, ConvertRoundTripPreservesRecords)
{
    SimConfig cfg;
    cfg.seed = kSeed;
    std::string text1 = file("a.trace");
    captureRun(cfg, SchemeKind::Baseline, text1, TraceFormat::Text);
    std::vector<TraceRecord> want = drain(text1);
    ASSERT_EQ(want.size(), kRecords);

    // text -> binary -> gzip -> text: every hop preserves the stream.
    std::string bin = file("a.bin");
    std::string gz = file("a.gz");
    std::string text2 = file("a2.trace");
    EXPECT_EQ(convertTrace(text1, bin, TraceFormat::Binary, true),
              kRecords);
    EXPECT_EQ(convertTrace(bin, gz, TraceFormat::Gzip, true), kRecords);
    EXPECT_EQ(convertTrace(gz, text2, TraceFormat::Text, true),
              kRecords);

    expectSameRecords(want, drain(bin));
    expectSameRecords(want, drain(gz));
    expectSameRecords(want, drain(text2));

    // The final text re-encoding is byte-identical to the first: the
    // writer is canonical, so text -> ... -> text is a fixed point.
    std::ifstream f1(text1, std::ios::binary), f2(text2,
                                                  std::ios::binary);
    std::ostringstream b1, b2;
    b1 << f1.rdbuf();
    b2 << f2.rdbuf();
    EXPECT_EQ(b1.str(), b2.str());

    EXPECT_EQ(detectTraceFormat(text1), TraceFormat::Text);
    EXPECT_EQ(detectTraceFormat(bin), TraceFormat::Binary);
    EXPECT_EQ(detectTraceFormat(gz), TraceFormat::Gzip);
}

/** Gzip'd *binary* also replays: the sniffer runs again inside the
 * inflated stream. Composed manually — the capture writer's Gzip mode
 * compresses text. */
TEST_F(TraceFrontendTest, GzippedBinaryReplays)
{
    SimConfig cfg;
    cfg.seed = kSeed;
    std::string bin = file("b.bin");
    captureRun(cfg, SchemeKind::DeWrite, bin, TraceFormat::Binary);
    std::vector<TraceRecord> want = drain(bin);

    std::string gz = file("b.bin.gz");
    writeGzip(gz, slurp(bin));

    EXPECT_EQ(detectTraceFormat(gz), TraceFormat::Gzip);
    expectSameRecords(want, drain(gz));
}

// ---------------------------------------------- pipeline composition

/** Replay through the sharded pipeline: the pipeline report is
 * byte-identical at 1, 2, and 8 workers when fed from a file. */
TEST_F(TraceFrontendTest, ReplayUnderPipelineWorkersIsIdentical)
{
    SimConfig cfg;
    cfg.seed = kSeed;
    cfg.channels.count = 8;
    std::string path = file("p.trace");
    captureRun(cfg, SchemeKind::Esd, path, TraceFormat::Text);

    std::string first;
    for (unsigned workers : {1u, 2u, 8u}) {
        TraceFrontend replay(path, cfg.trace);
        exec::ShardedPipeline sharded(cfg, SchemeKind::Esd, workers);
        sharded.run(replay, kRecords, kWarmup);
        std::ostringstream os;
        sharded.writeReport(os);
        if (first.empty())
            first = os.str();
        else
            EXPECT_EQ(first, os.str())
                << "pipeline report diverged at " << workers
                << " workers";
    }
}

/** Replay composes with [persistence] crash injection: the injected
 * crash fires at the configured write index and recovery off the
 * crashed image passes the pipeline's own self-check. */
TEST_F(TraceFrontendTest, ReplayWithCrashInjectionRecovers)
{
    SimConfig cfg;
    cfg.seed = kSeed;
    std::string path = file("c.trace");
    captureRun(cfg, SchemeKind::Esd, path, TraceFormat::Binary);

    cfg.persist.enabled = true;
    cfg.persist.crashAtWrite = 400;
    TraceFrontend replay(path, cfg.trace);
    exec::ShardedPipeline sharded(cfg, SchemeKind::Esd, 2);
    sharded.run(replay, kRecords, kWarmup);
    EXPECT_EQ(sharded.checkInjectedCrash().error, "");
}

// ---------------------------------------------- streaming properties

TEST_F(TraceFrontendTest, BoundedBatchOnLargeTrace)
{
    // 200k records through 64-record batches: the caller's batch is
    // the only record buffer, and no call overfills it whatever the
    // trace length.
    std::string path = file("big.bin");
    TraceConfig wc;
    wc.format = TraceFormat::Binary;
    {
        TraceCaptureWriter writer(path, wc);
        SyntheticWorkload synth(findApp("lbm"), 3);
        TraceRecord rec;
        for (int i = 0; i < 200000; ++i) {
            ASSERT_TRUE(synth.next(rec));
            writer.write(rec);
        }
    }
    TraceFrontend f(path, TraceConfig{});
    std::vector<TraceRecord> batch(64);
    std::uint64_t n = 0;
    while (std::size_t got = f.nextBatch(batch.data(), 64)) {
        ASSERT_LE(got, 64u);
        n += got;
    }
    EXPECT_EQ(n, 200000u);
    EXPECT_EQ(f.recordsDecoded(), 200000u);
}

TEST_F(TraceFrontendTest, ResetRestartsIncludingSynthesisState)
{
    // An address-only trace synthesizes write content from the global
    // write index; reset() must rewind that index too, or the second
    // pass would see different data.
    std::string path = file("r.trace");
    {
        std::ofstream out(path);
        out << "W 1000 5\nW 2000 5\nR 1000 5\nW 1000 5\n";
    }
    TraceConfig tc;
    TraceFrontend f(path, tc);
    std::vector<TraceRecord> pass1, pass2;
    TraceRecord rec;
    while (f.next(rec))
        pass1.push_back(rec);
    f.reset();
    while (f.next(rec))
        pass2.push_back(rec);
    expectSameRecords(pass1, pass2);
    ASSERT_EQ(pass1.size(), 4u);
    // Same address written twice gets different synthesized content
    // (the write index advances), so replay is not trivially all-dups.
    EXPECT_FALSE(pass1[0].data == pass1[3].data);
    EXPECT_EQ(f.recordsDecoded(), 8u);  // monotonic across reset
}

TEST_F(TraceFrontendTest, SynthesizedContentIsPureInAddrAndIndex)
{
    CacheLine a = synthesizeLineContent(0x1000, 0);
    CacheLine b = synthesizeLineContent(0x1000, 0);
    EXPECT_TRUE(a == b);
    EXPECT_FALSE(a == synthesizeLineContent(0x1000, 1));
    EXPECT_FALSE(a == synthesizeLineContent(0x1040, 0));
}

// ---------------------------------------------- format tolerance

TEST_F(TraceFrontendTest, RamulatorTokenOrderAndDefaults)
{
    std::string path = file("ram.trace");
    {
        std::ofstream out(path);
        out << "# a ramulator-style fragment\n"
            << "46b100 W\n"          // icount defaults to 100
            << "deadbeef R 40\n"     // explicit icount
            << "\r\n"                // blank CRLF line
            << "R cafe0 7\r\n"       // canonical order, CRLF
            << "0x46b100 W\n"        // Ramulator's 0x-prefixed form
            << "0XaBc r 4294967295\n"; // upper prefix, max icount
    }
    std::vector<TraceRecord> recs = drain(path);
    ASSERT_EQ(recs.size(), 5u);
    EXPECT_EQ(recs[0].op, OpType::Write);
    EXPECT_EQ(recs[0].addr, 0x46b100u);
    EXPECT_EQ(recs[0].icount, 100u);
    EXPECT_EQ(recs[1].op, OpType::Read);
    EXPECT_EQ(recs[1].addr, 0xdeadbeefu);
    EXPECT_EQ(recs[1].icount, 40u);
    EXPECT_EQ(recs[2].addr, 0xcafe0u);
    EXPECT_EQ(recs[2].icount, 7u);
    EXPECT_EQ(recs[3].op, OpType::Write);
    EXPECT_EQ(recs[3].addr, 0x46b100u);
    EXPECT_EQ(recs[3].icount, 100u);
    EXPECT_EQ(recs[4].op, OpType::Read);
    EXPECT_EQ(recs[4].addr, 0xabcu);
    EXPECT_EQ(recs[4].icount, 4294967295u);
}

/** Addresses and icounts are unsigned digit strings: a sign, an empty
 * prefix, or too many digits is a bad token, never a wrapped value. */
TEST_F(TraceFrontendTest, SignedAndOverlongNumbersAreRejected)
{
    struct Case
    {
        const char *line;
        const char *msg;
    } cases[] = {
        {"W -40 5\n", "bad hex address '-40'"},
        {"W +40 5\n", "bad hex address '\\+40'"},
        {"-40 W\n", "bad hex address '-40'"},
        {"W 0x 5\n", "bad hex address '0x'"},
        {"W 0x-40 5\n", "bad hex address '0x-40'"},
        {"W 10000000000000000 5\n", "bad hex address"},
        {"W 40 +7\n", "bad icount '\\+7'"},
        {"W 40 -7\n", "bad icount '-7'"},
        {"W 40 4294967296\n", "bad icount '4294967296'"},
        {"W 40 00000000007\n", "bad icount '00000000007'"},
    };
    int i = 0;
    for (const Case &c : cases) {
        std::string path = file(("signed" + std::to_string(i++)).c_str());
        {
            std::ofstream out(path);
            out << "W 1000 5\n" << c.line;
        }
        EXPECT_EXIT(drain(path), ::testing::ExitedWithCode(1),
                    std::string(":2: ") + c.msg)
            << c.line;
    }
}

TEST_F(TraceFrontendTest, LegacyV1BinaryStillDecodes)
{
    // A v1 stream built byte by byte: the magic, then headerless
    // [u8 op][u64 addr][u32 icount][64 B payload, writes only].
    std::vector<TraceRecord> want(64);
    std::string bytes = "ESDT";
    SyntheticWorkload synth(findApp("mcf"), 11);
    for (TraceRecord &r : want) {
        ASSERT_TRUE(synth.next(r));
        bytes += static_cast<char>(r.op == OpType::Write);
        putLe(bytes, r.addr, 8);
        putLe(bytes, r.icount, 4);
        if (r.op == OpType::Write)
            bytes.append(reinterpret_cast<const char *>(r.data.data()),
                         kLineSize);
    }
    std::string path = file("v1.bin");
    writeFile(path, bytes);
    TraceConfig tc;
    TraceFrontend f(path, tc);
    EXPECT_EQ(f.format(), TraceFormat::Binary);
    std::vector<TraceRecord> got;
    TraceRecord rec;
    while (f.next(rec))
        got.push_back(rec);
    expectSameRecords(want, got);
}

/** Stripped traces (-payload=false) replay deterministically: two
 * replays agree, and re-capturing a replay reproduces the stripped
 * file byte for byte. */
TEST_F(TraceFrontendTest, PayloadlessCaptureReplaysDeterministically)
{
    SimConfig cfg;
    cfg.seed = kSeed;
    std::string full = file("f.trace");
    captureRun(cfg, SchemeKind::Baseline, full, TraceFormat::Text);
    std::string stripped = file("s.trace");
    EXPECT_EQ(convertTrace(full, stripped, TraceFormat::Text, false),
              kRecords);

    std::vector<TraceRecord> pass1 = drain(stripped);
    std::vector<TraceRecord> pass2 = drain(stripped);
    expectSameRecords(pass1, pass2);

    // Round-trip the stripped stream through capture again: identical
    // bytes, so stripped traces are stable archival artifacts.
    std::string again = file("s2.trace");
    EXPECT_EQ(convertTrace(stripped, again, TraceFormat::Text, false),
              kRecords);
    std::ifstream f1(stripped, std::ios::binary),
        f2(again, std::ios::binary);
    std::ostringstream b1, b2;
    b1 << f1.rdbuf();
    b2 << f2.rdbuf();
    EXPECT_EQ(b1.str(), b2.str());
}

// ---------------------------------------------- window boundaries

/**
 * Where the decoder's byte-window ends fall in a (possibly inflated)
 * stream. The open-time sniff leaves the first @p peeked bytes in the
 * window. After that, each decoder request for bytes [off, off + n)
 * that runs past the window end refills. A file window compacts the
 * unconsumed tail to the front and refills, so the next window is
 * [off, off + kTraceWindow). A gzip window swaps in the next inflated
 * chunk, so its ends sit at fixed @p stride steps after the sniff.
 * Generators use this to put chosen bytes exactly on a window end.
 */
struct WindowModel
{
    std::size_t end;
    std::size_t stride;
    std::size_t straddles = 0;

    explicit WindowModel(std::size_t peeked, std::size_t stride = 0)
        : end(peeked), stride(stride)
    {
    }

    void
    need(std::size_t off, std::size_t n)
    {
        if (off + n <= end)
            return;
        if (off < end)
            ++straddles;
        end = stride ? end + stride : off + kTraceWindow;
    }
};

/** The window model of a gzip'd text trace: the sniff inflates 4
 * bytes, then every refill swaps in one kInflateChunk chunk. */
WindowModel
inflateWindows()
{
    return WindowModel(4, kInflateChunk);
}

std::string
hexDigits(Pcg32 &rng, std::size_t n)
{
    const char *digits =
        rng.chance(0.5) ? "0123456789abcdef" : "0123456789ABCDEF";
    std::string s;
    for (std::size_t i = 0; i < n; ++i)
        s += digits[rng.below(16)];
    return s;
}

/** One to three spaces and tabs. */
std::string
blanks(Pcg32 &rng)
{
    std::string s;
    for (std::uint32_t i = 0, n = 1 + rng.below(3); i < n; ++i)
        s += rng.chance(0.7) ? ' ' : '\t';
    return s;
}

/** One generated text line; for a record line, what it decodes to. */
struct TextLine
{
    std::string bytes;  ///< including the terminator
    bool record = false;
    bool payload = false;
    TraceRecord rec;

    /** Pad with trailing blanks to @p content bytes before '\n' (a
     * CRLF line's '\r' counts, as in the decoder's line limit). */
    void
    padTo(std::size_t content)
    {
        bool crlf = bytes.size() >= 2 && bytes[bytes.size() - 2] == '\r';
        std::size_t pad = content + 1 - bytes.size();
        bytes.insert(bytes.size() - (crlf ? 2 : 1), pad, ' ');
    }
};

/** A comment or blank line. */
TextLine
nonRecordLine(std::string bytes)
{
    TextLine l;
    l.bytes = std::move(bytes);
    return l;
}

/** A record line in either token order, mixing 0x prefixes, case,
 * payload-less writes, omitted icounts, and blank runs. */
TextLine
randomRecordLine(Pcg32 &rng, bool crlf)
{
    TextLine l;
    l.record = true;
    TraceRecord &rec = l.rec;
    rec.op = rng.chance(0.6) ? OpType::Write : OpType::Read;
    std::string addr = hexDigits(rng, 1 + rng.below(16));
    rec.addr = std::stoull(addr, nullptr, 16);
    if (rng.chance(0.3))
        addr = (rng.chance(0.5) ? "0x" : "0X") + addr;
    l.payload = rng.chance(0.5);
    std::string data;
    if (l.payload) {
        data = hexDigits(rng, kLineSize * 2);
        for (std::size_t b = 0; b < kLineSize; ++b)
            rec.data[b] = static_cast<std::uint8_t>(
                std::stoul(data.substr(b * 2, 2), nullptr, 16));
    }
    bool ramulator = rng.chance(0.4);
    bool icount = !ramulator || rng.chance(0.7);
    rec.icount = icount ? rng.next() : 100;
    std::string op = rec.op == OpType::Write
                         ? (rng.chance(0.5) ? "W" : "w")
                         : (rng.chance(0.5) ? "R" : "r");

    std::string &b = l.bytes;
    b = rng.chance(0.2) ? blanks(rng) : "";
    b += ramulator ? addr + blanks(rng) + op
                   : op + blanks(rng) + addr;
    if (l.payload)
        b += blanks(rng) + data;
    if (icount)
        b += blanks(rng) + std::to_string(rec.icount);
    if (rng.chance(0.2))
        b += blanks(rng);
    b += crlf ? "\r\n" : "\n";
    return l;
}

/** A PCG-generated text trace, the records it must decode to, and
 * its window ends. */
class TextTraceGen
{
  public:
    explicit TextTraceGen(std::uint64_t seed,
                          WindowModel windows = WindowModel(4))
        : model(windows), rng_(seed)
    {
        // Longer than the sniff's 4-byte peek, so the first window
        // is [0, kTraceWindow).
        emit(nonRecordLine("# window-boundary trace\n"));
    }

    std::string text;
    std::vector<TraceRecord> want;
    std::vector<std::size_t> ends;  ///< text offset past each record
    WindowModel model;  // the sniff peeks at most 4 bytes

    /** Random lines: records, comments, blank and CRLF lines, each
     * far shorter than the gap to the next window end. */
    void
    randomLines(std::size_t upTo)
    {
        while (model.end - text.size() > upTo) {
            std::uint32_t kind = rng_.below(20);
            if (kind == 0)
                filler(1 + rng_.below(80));
            else if (kind == 1)
                emit(nonRecordLine(rng_.chance(0.5) ? "\n" : "\r\n"));
            else
                emit(randomRecordLine(rng_, rng_.chance(0.3)));
        }
    }

    /** Emit @p l so that exactly @p at of its bytes precede the next
     * window end; returns its 1-based line number. */
    std::size_t
    placeAcrossEnd(const TextLine &l, std::size_t at)
    {
        randomLines(kMaxTraceLine + 600);
        std::size_t gap = model.end - text.size();
        if (gap < at || gap > kTraceWindow) {
            ADD_FAILURE() << "generator lost the window end";
            return 0;
        }
        filler(gap - at);
        emit(l);
        return lines_;
    }

    /** @p windows windows of text whose every window end falls inside
     * a chosen kind of line at a chosen offset. */
    void
    build(std::size_t windows)
    {
        for (std::size_t k = 0; text.size() < windows * kTraceWindow;
             ++k) {
            TextLine l = randomRecordLine(rng_, k % 6 == 0);
            std::size_t at;
            switch (k % 6) {
            case 0:  // '\r' | '\n'
                at = l.bytes.size() - 1;
                break;
            case 1:  // a 512-byte line, cut anywhere
                l.padTo(kMaxTraceLine);
                at = 1 + rng_.below(kMaxTraceLine);
                break;
            case 2:  // a 512-byte line whose '\n' alone is past it
                l.padTo(kMaxTraceLine);
                at = kMaxTraceLine;
                break;
            case 3:  // the line starts exactly on the window end
                at = 0;
                break;
            case 4:  // only its first byte before the end
                at = 1;
                break;
            default:
                at = rng_.below(
                    static_cast<std::uint32_t>(l.bytes.size()));
                break;
            }
            placeAcrossEnd(l, at);
        }
        randomLines(kTraceWindow / 2);
    }

  private:
    void
    emit(const TextLine &l)
    {
        model.need(text.size(), l.bytes.size());
        text += l.bytes;
        ++lines_;
        if (!l.record)
            return;
        want.push_back(l.rec);
        ends.push_back(text.size());
        if (l.rec.op == OpType::Write) {
            if (!l.payload)
                want.back().data =
                    synthesizeLineContent(l.rec.addr, writes_);
            ++writes_;
        }
    }

    /** Comment and blank lines totalling exactly @p n bytes. */
    void
    filler(std::size_t n)
    {
        while (n > 0) {
            std::size_t len = std::min<std::size_t>(n, 1 + rng_.below(300));
            if (len == 1) {
                emit(nonRecordLine("\n"));
            } else {
                std::size_t lead = std::min<std::size_t>(rng_.below(3),
                                                         len - 2);
                emit(nonRecordLine(std::string(lead, '\t') + "#" +
                                   std::string(len - 2 - lead, 'c') +
                                   "\n"));
            }
            n -= len;
        }
    }

    Pcg32 rng_;
    std::uint64_t writes_ = 0;
    std::size_t lines_ = 0;
};

/** Every window end of a 16-window text trace cuts a line somewhere:
 * between '\r' and '\n', through a 512-byte line, on its first byte,
 * at random offsets. Plain and gzip'd, the decoded stream must equal
 * the generated records one for one. */
TEST_F(TraceFrontendTest, TextLinesStraddlingWindowEndsDecodeExactly)
{
    TextTraceGen gen(0x5eed);
    gen.build(16);
    ASSERT_GT(gen.text.size(), 16 * kTraceWindow);
    EXPECT_GE(gen.model.straddles, 12u);

    std::string plain = file("w.trace");
    writeFile(plain, gen.text);
    expectSameRecords(gen.want, drain(plain));

    std::string gz = file("w.trace.gz");
    writeGzip(gz, gen.text);
    EXPECT_EQ(detectTraceFormat(gz), TraceFormat::Gzip);
    expectSameRecords(gen.want, drain(gz, 7));
}

/** The same cuts on the inflate-ahead chunk ends of a gzip'd trace:
 * each line that straddles two inflated chunks decodes whole. */
TEST_F(TraceFrontendTest, TextLinesStraddlingInflateChunksDecodeExactly)
{
    TextTraceGen gen(0x1f8b, inflateWindows());
    gen.build(8);
    EXPECT_GE(gen.model.straddles, 6u);

    std::string gz = file("chunks.gz");
    writeGzip(gz, gen.text);
    expectSameRecords(gen.want, drain(gz));
    expectSameRecords(gen.want, drain(gz, 3));
}

/** Live threads in this process. */
std::size_t
threadCount()
{
    std::size_t n = 0;
    for (const auto &task :
         std::filesystem::directory_iterator("/proc/self/task")) {
        (void)task;
        ++n;
    }
    return n;
}

/** Opening a gzip trace starts no thread; the first window load
 * starts the inflate helper; a consumer that stops after 10 records
 * of a multi-window trace still joins it on destruction. */
TEST_F(TraceFrontendTest, GzipEarlyStopJoinsInflateHelper)
{
    TextTraceGen gen(0xea71, inflateWindows());
    gen.build(8);
    std::string gz = file("early.gz");
    writeGzip(gz, gen.text);

    const std::size_t before = threadCount();
    std::size_t during = 0;
    {
        TraceFrontend f(gz, TraceConfig{});
        EXPECT_EQ(threadCount(), before);
        std::vector<TraceRecord> got(10);
        for (TraceRecord &rec : got)
            ASSERT_TRUE(f.next(rec));
        during = threadCount();
        EXPECT_GT(during, before);
        expectSameRecords({gen.want.begin(), gen.want.begin() + 10}, got);
    }
    // One thread fewer once the helper is joined (a sanitizer runtime
    // may have started a thread of its own alongside it). The kernel
    // can drop a joined thread's task a moment after the join returns.
    for (int i = 0; i < 200 && threadCount() >= during; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_EQ(threadCount(), during - 1);
}

/** reset() halfway through a gzip trace stops the helper and replays
 * the identical record stream from the top. */
TEST_F(TraceFrontendTest, GzipResetMidStreamReplaysIdentically)
{
    TextTraceGen gen(0x5e7, inflateWindows());
    gen.build(6);
    std::string gz = file("reset.gz");
    writeGzip(gz, gen.text);

    TraceFrontend f(gz, TraceConfig{});
    std::vector<TraceRecord> head(gen.want.size() / 2);
    for (TraceRecord &rec : head)
        ASSERT_TRUE(f.next(rec));
    expectSameRecords({gen.want.begin(), gen.want.begin() + head.size()},
                      head);

    f.reset();
    std::vector<TraceRecord> all;
    TraceRecord rec;
    while (f.next(rec))
        all.push_back(rec);
    expectSameRecords(gen.want, all);
}

/** Gzip traces shorter than one inflate chunk, down to ones the
 * 4-byte sniff inflates completely, decode like their plain text. */
TEST_F(TraceFrontendTest, GzipSmallerThanOneWindowDecodes)
{
    Pcg32 rng(0x5a11);
    std::string text;
    for (int i = 0; i < 40; ++i)
        text += randomRecordLine(rng, i % 7 == 0).bytes;
    ASSERT_LT(text.size(), kInflateChunk);
    for (const std::string &bytes :
         {text, std::string("R 1"), std::string("# c\n"),
          std::string()}) {
        std::string plain = file("small.trace");
        std::string gz = file("small.gz");
        writeFile(plain, bytes);
        writeGzip(gz, bytes);
        EXPECT_EQ(detectTraceFormat(gz), TraceFormat::Gzip);
        expectSameRecords(drain(plain), drain(gz));
    }
}

/** RFC 1952 multi-member files (cat a.gz b.gz, bgzip and its empty
 * EOF block) decode as the concatenation of their members, with the
 * member boundary mid-line and mid-chunk. */
TEST_F(TraceFrontendTest, ConcatenatedGzipMembersDecode)
{
    TextTraceGen gen(0xc0ca7, inflateWindows());
    gen.build(3);
    const std::size_t cut = gen.ends[gen.ends.size() / 3] - 7;
    std::string parts[2] = {gen.text.substr(0, cut), gen.text.substr(cut)};
    std::string members;
    for (const std::string &part : parts) {
        std::string one = file("member.gz");
        writeGzip(one, part);
        members += slurp(one);
    }
    // bgzip's 28-byte EOF marker: an empty member with an extra field.
    const std::string bgzfEof(
        "\x1f\x8b\x08\x04\x00\x00\x00\x00\x00\xff\x06\x00\x42\x43"
        "\x02\x00\x1b\x00\x03\x00\x00\x00\x00\x00\x00\x00\x00\x00",
        28);
    std::string gz = file("members.gz");
    writeFile(gz, members + bgzfEof);
    expectSameRecords(gen.want, drain(gz));
    writeFile(gz, bgzfEof + members + bgzfEof + bgzfEof);
    expectSameRecords(gen.want, drain(gz));
}

/** A corrupt gzip stream found mid-trace: the decoder first delivers,
 * intact, every record of the chunks inflated before the failing one
 * (everything ending a chunk before the break), then dies with the
 * zlib diagnostic. The helper holds the error; it never exits itself.
 * The death test forks after other gzip tests may have run threads,
 * hence the threadsafe style. */
TEST_F(TraceFrontendTest, MidStreamGzipCorruptionDeliversEarlierRecords)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    TextTraceGen gen(0xbad, inflateWindows());
    gen.build(4);
    std::string good = file("good.gz");
    writeGzip(good, gen.text);
    // A second member whose deflate data opens with the invalid block
    // type 3: inflate fails right where member one's text ends.
    std::string path = file("bad.gz");
    writeFile(path, slurp(good) +
                        std::string("\x1f\x8b\x08\x00\x00\x00\x00\x00"
                                    "\x00\xff\xff\xff", 12));
    const std::size_t must = static_cast<std::size_t>(
        std::upper_bound(gen.ends.begin(), gen.ends.end(),
                         gen.text.size() - kInflateChunk) -
        gen.ends.begin());
    ASSERT_GT(must, gen.want.size() / 2);

    auto consume = [&] {
        // next() hands each record out as it decodes.
        TraceFrontend f(path, TraceConfig{});
        TraceRecord rec;
        std::size_t n = 0;
        while (f.next(rec)) {
            const TraceRecord &w = gen.want.at(n);
            if (rec.op != w.op || rec.addr != w.addr ||
                rec.icount != w.icount ||
                (rec.op == OpType::Write && !(rec.data == w.data))) {
                std::fprintf(stderr, "record %zu differs\n", n);
                std::exit(2);
            }
            if (++n == must)
                std::fprintf(stderr, "delivered %zu records\n", n);
        }
    };
    EXPECT_EXIT(consume(), ::testing::ExitedWithCode(1),
                "delivered [0-9]+ records.*bad\\.gz': corrupt gzip "
                "stream \\(invalid block type\\)");
}

/** An over-long line cut by a window end still dies naming its own
 * line number, wherever the cut falls. */
TEST_F(TraceFrontendTest, OverlongLineAcrossWindowEndNamesItsLine)
{
    for (std::size_t at : {std::size_t{1}, std::size_t{200},
                           kMaxTraceLine}) {
        TextTraceGen gen(at);
        gen.build(1);
        Pcg32 rng(at);
        TextLine l = randomRecordLine(rng, false);
        l.padTo(kMaxTraceLine + 1);
        std::size_t lineNo = gen.placeAcrossEnd(l, at);
        std::string path = file("long.trace");
        writeFile(path, gen.text + "W 40 5\n");
        EXPECT_EXIT(drain(path), ::testing::ExitedWithCode(1),
                    "long.trace:" + std::to_string(lineNo) +
                        ": line exceeds 512 bytes")
            << "cut at " << at;
    }
}

/** A PCG-generated binary trace (legacy v1 or length-prefixed v2)
 * spanning @p windows windows; v2 mixes payload and payload-less
 * writes. */
struct BinaryTraceGen
{
    std::string bytes{"ESDT"};
    std::vector<TraceRecord> want;
    WindowModel model;

    BinaryTraceGen(std::uint64_t seed, int version, std::size_t windows)
        : model(version == 1 ? 5 : 8)  // sniffed magic + version peek
    {
        if (version == 2)
            bytes += std::string("\x02\x01\x00\x00", 4);
        Pcg32 rng(seed);
        std::uint64_t writes = 0;
        while (bytes.size() < windows * kTraceWindow) {
            TraceRecord rec;
            rec.op = rng.chance(0.5) ? OpType::Write : OpType::Read;
            rec.addr = rng.next64();
            rec.icount = rng.next();
            bool payload =
                rec.op == OpType::Write && (version == 1 || rng.chance(0.7));
            if (payload)
                for (std::size_t w = 0; w < kWordsPerLine; ++w)
                    rec.data.setWord(w, rng.next64());

            std::size_t s = bytes.size();
            std::size_t len = payload ? kBinaryRecordPayload
                                      : kBinaryRecordNoPayload;
            if (version == 2) {
                model.need(s, 1);  // length prefix
                model.need(s + 1, len);
                bytes += static_cast<char>(len);
            } else {
                model.need(s, 1);  // op
                model.need(s + 1, 12);
                if (payload)
                    model.need(s + 13, kLineSize);
            }
            bytes += static_cast<char>(rec.op == OpType::Write);
            putLe(bytes, rec.addr, 8);
            putLe(bytes, rec.icount, 4);
            if (payload)
                bytes.append(reinterpret_cast<const char *>(
                                 rec.data.data()),
                             kLineSize);
            if (rec.op == OpType::Write) {
                if (!payload)
                    rec.data = synthesizeLineContent(rec.addr, writes);
                ++writes;
            }
            want.push_back(rec);
        }
    }
};

/** Binary v1, v2, and gzip'd v2 records cut by window ends decode
 * exactly (record sizes 13 and 77 put the cuts at many offsets). */
TEST_F(TraceFrontendTest, BinaryRecordsStraddlingWindowEndsDecodeExactly)
{
    for (int version : {1, 2}) {
        BinaryTraceGen gen(version * 101, version, 6);
        EXPECT_GE(gen.model.straddles, 4u) << "v" << version;
        std::string path = file("w.bin");
        writeFile(path, gen.bytes);
        expectSameRecords(gen.want, drain(path));

        if (version == 2) {
            std::string gz = file("w.bin.gz");
            writeGzip(gz, gen.bytes);
            TraceFrontend f(gz, TraceConfig{});
            EXPECT_EQ(f.format(), TraceFormat::Gzip);
            expectSameRecords(gen.want, drain(gz, 5));
        }
    }
}

/** The batch size is invisible: in every format, next() and
 * nextBatch(max) at any max yield the same records, every field
 * included, count each one decoded once, and never write past
 * out[max - 1]. */
TEST_F(TraceFrontendTest, BatchSizeDoesNotChangeTheStream)
{
    TextTraceGen text(0xba7c, inflateWindows());
    text.build(3);
    BinaryTraceGen v1(0xba71, 1, 2);
    BinaryTraceGen v2(0xba72, 2, 2);
    writeFile(file("b.trace"), text.text);
    writeGzip(file("b.trace.gz"), text.text);
    writeFile(file("b1.bin"), v1.bytes);
    writeFile(file("b2.bin"), v2.bytes);
    struct Case
    {
        const char *name;
        const std::vector<TraceRecord> &want;
    } cases[] = {{"b.trace", text.want},
                 {"b.trace.gz", text.want},
                 {"b1.bin", v1.want},
                 {"b2.bin", v2.want}};

    TraceRecord canary;
    canary.op = OpType::Read;
    canary.addr = 0xca1a7;
    canary.icount = 0xca1a7;
    for (std::size_t w = 0; w < kWordsPerLine; ++w)
        canary.data.setWord(w, 0xca1a7ca1a7ca1a7ull);

    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        std::vector<TraceRecord> one;
        {
            TraceFrontend f(file(c.name), TraceConfig{});
            TraceRecord rec;
            while (f.next(rec))
                one.push_back(rec);
            EXPECT_EQ(f.recordsDecoded(), one.size());
        }
        expectSameRecords(c.want, one);
        for (const TraceRecord &r : one) {
            if (r.op == OpType::Read) {
                EXPECT_EQ(r.data, CacheLine{});
            }
        }

        for (std::size_t max : {1, 3, 1024, 5000}) {
            SCOPED_TRACE(max);
            TraceFrontend f(file(c.name), TraceConfig{});
            std::vector<TraceRecord> batch(max + 1);
            batch[max] = canary;
            std::vector<TraceRecord> got;
            while (std::size_t n = f.nextBatch(batch.data(), max)) {
                ASSERT_LE(n, max);
                got.insert(got.end(), batch.begin(),
                           batch.begin() + static_cast<long>(n));
            }
            EXPECT_EQ(batch[max].op, canary.op);
            EXPECT_EQ(batch[max].addr, canary.addr);
            EXPECT_EQ(batch[max].icount, canary.icount);
            EXPECT_EQ(batch[max].data, canary.data);
            EXPECT_EQ(f.recordsDecoded(), got.size());
            expectSameRecords(one, got, /*readPayloads=*/true);
        }
    }
}

} // namespace
} // namespace esd
