/**
 * @file
 * Format-fuzz wall for the streaming trace frontend.
 *
 * Every malformed input must die through esd_fatal — a clean exit(1)
 * with the offending file named — never a crash, hang, or silent
 * misparse. The wall has two layers:
 *
 *   - targeted negatives: one EXPECT_EXIT per distinct corruption
 *     class, pinned to its diagnostic message;
 *   - a seeded fuzzer: valid traces in all three formats are randomly
 *     truncated, bit-flipped, and spliced, and each mutant is consumed
 *     in a forked child that must terminate by exit (any code), never
 *     by signal. Under the ASan/UBSan CI jobs this turns memory errors
 *     in the decoders into failures here.
 *
 * The fuzz seed derives from ESD_FUZZ_SEED when set (the nightly
 * sweep passes the CI run id), else a fixed default so local runs
 * reproduce.
 */

#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/random.hh"
#include "trace/trace_capture.hh"
#include "trace/trace_frontend.hh"
#include "trace/workloads.hh"

namespace esd
{
namespace
{

class TraceFuzzTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = std::filesystem::temp_directory_path() /
               ("esd_tracefuzz_" + std::to_string(::getpid()));
        std::filesystem::create_directories(dir_);
    }

    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::string
    file(const char *name) const
    {
        return (dir_ / name).string();
    }

    std::string
    writeBytes(const char *name, const std::string &bytes) const
    {
        std::string path = file(name);
        std::ofstream out(path, std::ios::binary);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
        return path;
    }

    std::filesystem::path dir_;
};

/** Drain @p path through a frontend (the EXPECT_EXIT statement). */
void
consume(const std::string &path)
{
    TraceConfig tc;
    TraceFrontend f(path, tc);
    TraceRecord rec;
    while (f.next(rec)) {
    }
}

/** A small valid capture in @p format. */
std::string
makeValid(const std::filesystem::path &dir, const char *name,
          TraceFormat format, int records = 64)
{
    std::string path = (dir / name).string();
    TraceConfig tc;
    tc.format = format;
    TraceCaptureWriter writer(path, tc);
    SyntheticWorkload synth(findApp("mcf"), 5);
    TraceRecord rec;
    for (int i = 0; i < records; ++i) {
        synth.next(rec);
        writer.write(rec);
    }
    writer.close();
    return path;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** Gzip input runs an inflate helper thread, so gzip death tests
 * re-exec rather than fork a process that may hold threads. */
void
threadsafeDeathTests()
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
}

// ---------------------------------------------- targeted negatives
// Each corruption class dies with its own diagnostic. The same
// messages are pinned again at the CLI level by the WILL_FAIL ctests
// over the committed fixtures in tests/traces/.

TEST_F(TraceFuzzTest, VersionSkewIsFatal)
{
    std::string p =
        writeBytes("skew.bin",
                   std::string("ESDT") + '\x09' +
                       std::string("\x00\x00\x00", 3));
    EXPECT_EXIT(consume(p), ::testing::ExitedWithCode(1),
                "unsupported trace version 9");
}

TEST_F(TraceFuzzTest, UnknownHeaderFlagsAreFatal)
{
    std::string p =
        writeBytes("flags.bin", std::string("ESDT") + '\x02' + '\xfe' +
                                    std::string("\x00\x00", 2));
    EXPECT_EXIT(consume(p), ::testing::ExitedWithCode(1),
                "unknown trace flags 0xfe");
}

TEST_F(TraceFuzzTest, ReservedHeaderBytesAreFatal)
{
    std::string p =
        writeBytes("resv.bin", std::string("ESDT") + '\x02' + '\x01' +
                                   '\x07' + '\x00');
    EXPECT_EXIT(consume(p), ::testing::ExitedWithCode(1),
                "reserved bytes set");
}

TEST_F(TraceFuzzTest, OversizedLengthPrefixIsFatal)
{
    // Valid v2 header, then a record claiming 200 payload bytes.
    std::string bytes = std::string("ESDT") + '\x02' + '\x01' +
                        std::string("\x00\x00", 2) + '\xc8';
    bytes += std::string(200, 'x');
    std::string p = writeBytes("len.bin", bytes);
    EXPECT_EXIT(consume(p), ::testing::ExitedWithCode(1),
                "bad record length 200");
}

TEST_F(TraceFuzzTest, TruncatedRecordIsFatal)
{
    std::string whole = slurp(makeValid(dir_, "whole.bin",
                                        TraceFormat::Binary));
    // Cut mid-record: somewhere past the header, not on a boundary.
    std::string p =
        writeBytes("trunc.bin", whole.substr(0, whole.size() - 17));
    EXPECT_EXIT(consume(p), ::testing::ExitedWithCode(1), "truncated");
}

TEST_F(TraceFuzzTest, NonHexPayloadIsFatal)
{
    std::string line = "W 1000 " + std::string(127, 'a') + "g 10\n";
    std::string p = writeBytes("hex.trace", line);
    EXPECT_EXIT(consume(p), ::testing::ExitedWithCode(1),
                "bad hex data");
}

TEST_F(TraceFuzzTest, ShortPayloadIsFatal)
{
    std::string line = "W 1000 " + std::string(40, 'a') + " 10\n";
    std::string p = writeBytes("short.trace", line);
    EXPECT_EXIT(consume(p), ::testing::ExitedWithCode(1),
                "write payload must be 128 hex chars");
}

TEST_F(TraceFuzzTest, OverlongLineIsFatal)
{
    std::string p =
        writeBytes("long.trace", "W " + std::string(600, '1') + "\n");
    EXPECT_EXIT(consume(p), ::testing::ExitedWithCode(1),
                "line exceeds 512 bytes");
}

TEST_F(TraceFuzzTest, TrailingJunkIsFatal)
{
    std::string p =
        writeBytes("junk.trace", "W 1000 10 extra stuff here\n");
    EXPECT_EXIT(consume(p), ::testing::ExitedWithCode(1),
                "trailing junk");
}

TEST_F(TraceFuzzTest, BadOpByteIsFatal)
{
    // Legacy v1 framing: first post-magic byte is the op; 7 is not an
    // op and not a known version either.
    std::string p = writeBytes("op.bin", std::string("ESDT") + '\x07');
    EXPECT_EXIT(consume(p), ::testing::ExitedWithCode(1),
                "unsupported trace version 7");
}

TEST_F(TraceFuzzTest, MidStreamGzipCorruptionIsFatal)
{
    threadsafeDeathTests();
    std::string whole =
        slurp(makeValid(dir_, "ok.gz", TraceFormat::Gzip, 512));
    ASSERT_GT(whole.size(), 200u);
    // Flip a byte in the deflate body (past the 10-byte gzip header):
    // either inflate chokes or the trailing CRC check does.
    whole[whole.size() / 2] ^= 0x40;
    std::string p = writeBytes("bad.gz", whole);
    EXPECT_EXIT(consume(p), ::testing::ExitedWithCode(1),
                "gzip");
}

TEST_F(TraceFuzzTest, TruncatedGzipIsFatal)
{
    threadsafeDeathTests();
    std::string whole =
        slurp(makeValid(dir_, "ok2.gz", TraceFormat::Gzip, 512));
    std::string p =
        writeBytes("cut.gz", whole.substr(0, whole.size() / 2));
    EXPECT_EXIT(consume(p), ::testing::ExitedWithCode(1),
                "gzip");
}

TEST_F(TraceFuzzTest, TrailingGarbageAfterGzipIsFatal)
{
    threadsafeDeathTests();
    std::string whole =
        slurp(makeValid(dir_, "ok3.gz", TraceFormat::Gzip));
    std::string p = writeBytes("tail.gz", whole + "garbage");
    EXPECT_EXIT(consume(p), ::testing::ExitedWithCode(1),
                "trailing bytes after gzip stream");
}

TEST_F(TraceFuzzTest, MissingFileIsFatal)
{
    EXPECT_EXIT(consume(file("nonexistent.trace")),
                ::testing::ExitedWithCode(1), "cannot open trace file");
}

TEST_F(TraceFuzzTest, EmptyFileIsValidAndEmpty)
{
    std::string p = writeBytes("empty.trace", "");
    TraceConfig tc;
    TraceFrontend f(p, tc);
    TraceRecord rec;
    EXPECT_FALSE(f.next(rec));
    EXPECT_EQ(f.recordsDecoded(), 0u);
}

// ---------------------------------------------- seeded fuzz sweep

/** Consume @p path in a forked child; the child must terminate by
 * exit(0) (parsed fine) or exit(1) (esd_fatal), never by signal and
 * never by hanging. @return true when termination was clean. */
bool
consumesCleanly(const std::string &path, std::string &why)
{
    pid_t pid = ::fork();
    if (pid < 0) {
        why = "fork failed";
        return false;
    }
    if (pid == 0) {
        // Child: parse to exhaustion. esd_fatal exits 1 on malformed
        // input; anything else lands at _exit(0).
        TraceFrontend f(path, TraceConfig{});
        TraceRecord batch[32];
        while (f.nextBatch(batch, 32) != 0) {
        }
        ::_exit(0);
    }
    int status = 0;
    ::waitpid(pid, &status, 0);
    if (WIFSIGNALED(status)) {
        why = "killed by signal " + std::to_string(WTERMSIG(status));
        return false;
    }
    if (!WIFEXITED(status)) {
        why = "did not exit";
        return false;
    }
    int code = WEXITSTATUS(status);
    if (code != 0 && code != 1) {
        why = "exit code " + std::to_string(code);
        return false;
    }
    return true;
}

std::uint64_t
fuzzSeed()
{
    if (const char *env = std::getenv("ESD_FUZZ_SEED"))
        return std::strtoull(env, nullptr, 10);
    return 0xe5d0f022u;  // fixed default: local runs reproduce
}

TEST_F(TraceFuzzTest, CorruptedTracesNeverCrashTheDecoder)
{
    const TraceFormat formats[] = {TraceFormat::Text,
                                   TraceFormat::Gzip,
                                   TraceFormat::Binary};
    std::string base[3];
    base[0] = slurp(makeValid(dir_, "base.trace", TraceFormat::Text));
    base[1] = slurp(makeValid(dir_, "base.gz", TraceFormat::Gzip));
    base[2] = slurp(makeValid(dir_, "base.bin", TraceFormat::Binary));

    Pcg32 rng(fuzzSeed());
    constexpr int kIters = 120;
    for (int i = 0; i < kIters; ++i) {
        std::string bytes = base[i % 3];
        switch (rng.below(4)) {
          case 0:  // truncate anywhere, header included
            bytes.resize(rng.below(
                static_cast<std::uint32_t>(bytes.size() + 1)));
            break;
          case 1: {  // flip 1..8 random bits
            unsigned flips = 1 + rng.below(8);
            for (unsigned f = 0; f < flips && !bytes.empty(); ++f) {
                std::size_t at = rng.below(
                    static_cast<std::uint32_t>(bytes.size()));
                bytes[at] ^= static_cast<char>(1u << rng.below(8));
            }
            break;
          }
          case 2: {  // splice a random garbage run into the middle
            std::size_t at = bytes.empty()
                                 ? 0
                                 : rng.below(static_cast<std::uint32_t>(
                                       bytes.size()));
            std::string junk(1 + rng.below(64), '\0');
            for (char &c : junk)
                c = static_cast<char>(rng.below(256));
            bytes.insert(at, junk);
            break;
          }
          default:  // swap two halves (desynchronizes framing)
            if (bytes.size() > 2) {
                std::size_t cut = 1 + rng.below(static_cast<
                                                std::uint32_t>(
                    bytes.size() - 1));
                bytes = bytes.substr(cut) + bytes.substr(0, cut);
            }
            break;
        }
        std::string p = writeBytes("mutant", bytes);
        std::string why;
        EXPECT_TRUE(consumesCleanly(p, why))
            << "iteration " << i << " (seed " << fuzzSeed()
            << ", format "
            << static_cast<int>(formats[i % 3]) << "): " << why;
    }
}

} // namespace
} // namespace esd
