/**
 * @file
 * Bit-identity regression against committed golden run reports.
 *
 * tests/golden/stats_scheme<K>.json are the full stats-JSON documents
 * of a fixed pinned run (mcf, 20000 records, 4000 warmup, seed 1,
 * 5000-write interval sampling) for all six schemes, generated before
 * the flat-map metadata migration. Simulated results are pure model
 * outputs — no host timing leaks into the report — so any hot-path
 * "optimisation" that perturbs a single byte of them is a functional
 * change, and this test names the first divergent byte. The report's
 * "config" is every config key that can move a simulated result (all
 * but the telemetry, trace and pipeline sections), so two runs whose
 * reports match were configured alike.
 *
 * Regenerating after an *intentional* model change:
 *   for s in 0 1 2 3 4 5; do
 *     build/tools/esd_sim -scheme=$s -app=mcf -records=20000 \
 *       -warmup=4000 -stats-interval=5000 \
 *       -stats-json=tests/golden/stats_scheme$s.json
 *   done
 *
 * The goldens run a fault-free default config, so they never reach
 * RAS uncorrectable errors, dedup suspension, the crash journal or the
 * write-event trace. BitIdentityFaultPath pins those paths with one
 * FNV-1a-64 digest per scheme over the stats JSON, the write-event
 * JSONL and the recovery report of the run
 *   esd_sim -scheme=K -app=mcf -records=12000 -warmup=0 \
 *     -stats-interval=5000 -ras.enabled=1 -ras.read_ber=1.2e-4 \
 *     -ras.write_ber=1e-6 -ras.dedup_suspend_ues=1 -persist=1 \
 *     -persist-crash-at=100 -stats-json=s.json -trace-out=t.jsonl \
 *     -recovery-json=r.json
 * (digest of the three files' bytes concatenated in that order, less
 * the stats JSON's fp_cache_hit_rate line: that summary ratio is
 * pinned by the goldens above and by EsdFull.ReportsFpCacheHitRate).
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "common/write_trace.hh"
#include "core/run_report.hh"
#include "core/simulator.hh"
#include "exec/job.hh"
#include "persist/recovery.hh"
#include "trace/workloads.hh"

namespace esd
{
namespace
{

constexpr std::uint64_t kRecords = 20000;
constexpr std::uint64_t kWarmup = 4000;
constexpr std::uint64_t kInterval = 5000;
constexpr std::uint64_t kSeed = 1;

std::string
goldenPath(int scheme)
{
    return std::string(ESD_SOURCE_DIR) + "/tests/golden/stats_scheme" +
           std::to_string(scheme) + ".json";
}

std::string
loadGolden(int scheme)
{
    std::ifstream in(goldenPath(scheme), std::ios::binary);
    EXPECT_TRUE(in) << "missing golden " << goldenPath(scheme);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** The run `esd_sim -scheme=K -app=mcf -records=20000 -warmup=4000
 * -stats-interval=5000 -stats-json=...` makes: the same JobSpec, the
 * interval sampler esd_sim attaches, and the report exec::Job writes. */
std::string
renderReport(SchemeKind kind)
{
    exec::JobSpec spec;
    spec.app = "mcf";
    spec.scheme = kind;
    spec.cfg.seed = kSeed;
    spec.records = kRecords;
    spec.warmup = kWarmup;
    exec::Job job(spec);
    job.simulators().front()->enableIntervalSampling(kInterval);
    job.run(*exec::openSource(spec));
    std::ostringstream os;
    job.writeReport(os, /*indent=*/2);
    return os.str();
}

void
expectIdentical(const std::string &golden, const std::string &fresh,
                const std::string &label)
{
    if (golden == fresh)
        return;
    std::size_t at = 0;
    std::size_t n = std::min(golden.size(), fresh.size());
    while (at < n && golden[at] == fresh[at])
        ++at;
    std::size_t from = at > 60 ? at - 60 : 0;
    FAIL() << label << ": report diverges from golden at byte " << at
           << "\n  golden: ..."
           << golden.substr(from, std::min<std::size_t>(120,
                                                        golden.size() -
                                                            from))
           << "\n  fresh:  ..."
           << fresh.substr(from, std::min<std::size_t>(120,
                                                       fresh.size() -
                                                           from));
}

class BitIdentity : public ::testing::TestWithParam<int>
{
};

TEST_P(BitIdentity, StatsReportMatchesGolden)
{
    int scheme = GetParam();
    SchemeKind kind = allSchemeKindsExtended()[scheme];
    expectIdentical(loadGolden(scheme), renderReport(kind),
                    schemeName(kind));
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, BitIdentity,
                         ::testing::Range(0, 6));

/** Profiling must not perturb the unprofiled report schema: a profiled
 * run's simulated results match the same golden except for the added
 * host.profile.* stats — which are gauges on *host* time, so the test
 * only asserts the simulated sections stay unchanged by re-rendering
 * without profiling after a profiled run in the same process. */
TEST(BitIdentityProfiling, ProfiledRunKeepsSimulatedResults)
{
    SimConfig cfg;
    cfg.seed = kSeed;
    Simulator sim(cfg, SchemeKind::Esd);
    sim.enableIntervalSampling(kInterval);
    sim.enableProfiling();
    SyntheticWorkload trace(findApp("mcf"), kSeed);
    RunResult r = sim.run(trace, kRecords, kWarmup);

    // Host-side accounting exists...
    EXPECT_GT(r.hostNs, 0u);
    EXPECT_GT(sim.profiler().phase(Profiler::Lookup).calls, 0u);

    // ...but the simulated summary equals the unprofiled golden run's.
    // (The profiled report's stats section gains host.profile.* gauges
    // whose values are host time; the "config" section carries every
    // key that moves a simulated outcome and "result" the outcomes, so
    // both must be untouched.)
    std::string golden = loadGolden(3);
    std::ostringstream os;
    writeStatsReport(os, cfg, r, sim.statRegistry(), &sim.sampler());
    std::string fresh = os.str();
    auto section = [](const std::string &doc) {
        std::size_t b = doc.find("\"stats\":");
        EXPECT_NE(b, std::string::npos);
        return doc.substr(0, b);
    };
    EXPECT_EQ(section(golden), section(fresh));
    EXPECT_NE(fresh.find("\"host.profile.lookup_ns\""),
              std::string::npos);
    EXPECT_EQ(golden.find("\"host.profile.lookup_ns\""),
              std::string::npos);
}

/** FNV-1a, 64-bit. */
std::uint64_t
fnv1a64(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** What the fault-path run exercised, beside its digest. */
struct FaultPathRun
{
    std::uint64_t digest = 0;
    std::uint64_t dedupHits = 0;
    std::uint64_t suspendedWrites = 0;
    std::uint64_t compareReads = 0;
    std::uint64_t journalRecords = 0;
    std::string crashError;
};

/** @p doc without its lines containing @p key. */
std::string
dropLines(const std::string &doc, const std::string &key)
{
    std::istringstream in(doc);
    std::string out;
    for (std::string line; std::getline(in, line);)
        if (line.find(key) == std::string::npos)
            out += line + "\n";
    return out;
}

/** The fault-path run in the file header, rendered as esd_sim writes
 * its three outputs. */
FaultPathRun
runFaultPath(SchemeKind kind)
{
    exec::JobSpec spec;
    spec.app = "mcf";
    spec.scheme = kind;
    spec.cfg.seed = kSeed;
    spec.cfg.ras.enabled = true;
    spec.cfg.ras.readBer = 1.2e-4;
    spec.cfg.ras.writeBer = 1e-6;
    spec.cfg.ras.dedupSuspendUes = 1;
    spec.cfg.persist.enabled = true;
    spec.cfg.persist.domain = PersistDomain::Adr;
    spec.cfg.persist.crashAtWrite = 100;
    spec.records = 12000;
    spec.warmup = 0;
    exec::Job job(spec);
    Simulator &sim = *job.simulators().front();
    WriteEventTrace events(spec.cfg.telemetry.traceRingCapacity);
    sim.setEventTrace(&events);
    sim.enableIntervalSampling(kInterval);
    job.run(*exec::openSource(spec));

    std::ostringstream report;
    job.writeReport(report, /*indent=*/2);
    std::ostringstream os;
    os << dropLines(report.str(), "\"fp_cache_hit_rate\":");
    events.writeJsonl(os);
    const CrashCheck check = job.checkInjectedCrash();
    if (check.image)
        writeRecoveryJson(os, *check.image, check.recovered);

    FaultPathRun out;
    out.digest = fnv1a64(os.str());
    const SchemeStats &ss = sim.scheme().stats();
    out.dedupHits = ss.dedupHits.value();
    out.suspendedWrites = ss.dedupSuspendedWrites.value();
    out.compareReads = ss.compareReads.value();
    out.journalRecords =
        sim.persistence()->stats().journalRecords.value();
    out.crashError = check.image ? check.error : "crash never fired";
    return out;
}

/** Digests of runFaultPath for schemes 0-5. Each uncorrectable error
 * commits the journal before its line is erased (an early commit). */
constexpr std::uint64_t kFaultPathDigest[6] = {
    0x0dbe3d217b7b2dd8ull, 0x3f70f6913dc871a9ull, 0x57d81a97d79b8e13ull,
    0x7f513d6d3cfdd94cull, 0xa4cc03f13792e176ull, 0x22c4fd0cb99b4022ull,
};

class BitIdentityFaultPath : public ::testing::TestWithParam<int>
{
};

TEST_P(BitIdentityFaultPath, DigestMatchesPin)
{
    int scheme = GetParam();
    SchemeKind kind = allSchemeKindsExtended()[scheme];
    FaultPathRun r = runFaultPath(kind);

    EXPECT_EQ(r.crashError, "");
    EXPECT_GT(r.journalRecords, 0u);
    if (kind != SchemeKind::Baseline) {
        EXPECT_GT(r.dedupHits, 0u);
        EXPECT_GT(r.suspendedWrites, 0u) << "BER too low to latch";
    }
    // Dedup_SHA1 trusts its fingerprint; the others verify by compare.
    if (kind != SchemeKind::Baseline && kind != SchemeKind::DedupSha1) {
        EXPECT_GT(r.compareReads, 0u);
    }
    EXPECT_EQ(r.digest, kFaultPathDigest[scheme])
        << schemeName(kind) << std::hex << ": digest 0x" << r.digest;
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, BitIdentityFaultPath,
                         ::testing::Range(0, 6));

} // namespace
} // namespace esd
