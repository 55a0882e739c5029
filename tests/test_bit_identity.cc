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
 * change, and this test names the first divergent byte.
 *
 * Regenerating after an *intentional* model change:
 *   for s in 0 1 2 3 4 5; do
 *     build/tools/esd_sim -scheme=$s -app=mcf -records=20000 \
 *       -warmup=4000 -stats-interval=5000 \
 *       -stats-json=tests/golden/stats_scheme$s.json
 *   done
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "core/run_report.hh"
#include "core/simulator.hh"
#include "exec/job.hh"
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
    // whose values are host time; the "config" and "result" sections
    // carry every simulated outcome and must be untouched.)
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

} // namespace
} // namespace esd
