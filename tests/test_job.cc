/**
 * @file
 * The one run path (exec/job.hh): a JobSpec picks its engine — one
 * Simulator over one trace per core, or a ShardedPipeline of
 * per-channel shards — and the Job
 * reports in that engine's schema; JobFlags holds the run-shape flag
 * rules every front end shares, on the strict integer parsers of
 * common/cli_flags.hh.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/cli_flags.hh"
#include "exec/job.hh"
#include "exec/sweep_runner.hh"
#include "trace/workloads.hh"

namespace esd
{
namespace
{

exec::JobSpec
smallSpec(unsigned workers)
{
    exec::JobSpec spec;
    spec.app = "mcf";
    spec.scheme = SchemeKind::Esd;
    spec.cfg.channels.count = 4;
    spec.records = 2000;
    spec.warmup = 200;
    spec.workers = workers;
    return spec;
}

std::string
runAndReport(const exec::JobSpec &spec)
{
    exec::Job job(spec);
    job.run(*exec::openSource(spec));
    EXPECT_TRUE(job.checkInjectedCrash().error.empty());
    std::ostringstream os;
    job.writeReport(os, /*indent=*/0);
    return os.str();
}

TEST(Job, ZeroWorkersRunsOneSimulator)
{
    exec::Job job(smallSpec(0));
    EXPECT_EQ(job.simulators().size(), 1u);
    EXPECT_EQ(job.pipeline(), nullptr);
    std::string report = runAndReport(smallSpec(0));
    EXPECT_EQ(report.find("\"shards\""), std::string::npos);
    EXPECT_NE(report.find("\"stats\""), std::string::npos);
}

TEST(Job, WorkersRunOneShardPerChannel)
{
    exec::Job job(smallSpec(2));
    ASSERT_NE(job.pipeline(), nullptr);
    EXPECT_EQ(job.simulators().size(), 4u);
    EXPECT_EQ(job.pipeline()->shardCount(), 4u);
    EXPECT_NE(runAndReport(smallSpec(2)).find("\"shards\""),
              std::string::npos);
}

exec::JobSpec
fourCoreSpec()
{
    exec::JobSpec spec;
    spec.app = "gcc";
    spec.coreApps = {"lbm", "x264", "mcf"};
    spec.scheme = SchemeKind::Esd;
    spec.cfg.seed = 7;
    spec.records = 3000;
    spec.warmup = 500;
    return spec;
}

TEST(Job, MultiCoreIsSimulatorRunOverOneSourcePerCore)
{
    exec::JobSpec spec = fourCoreSpec();
    exec::Job job(spec);
    RunResult via_job = job.run(*exec::openSource(spec));
    std::ostringstream job_report;
    job.writeReport(job_report, /*indent=*/0);

    // Core i replays its app seeded cfg.seed + i.
    Simulator sim(spec.cfg, spec.scheme);
    std::vector<std::unique_ptr<SyntheticWorkload>> apps;
    std::vector<TraceSource *> traces;
    const char *names[] = {"gcc", "lbm", "x264", "mcf"};
    for (unsigned i = 0; i < 4; ++i) {
        apps.push_back(std::make_unique<SyntheticWorkload>(
            findApp(names[i]), spec.cfg.seed + i));
        traces.push_back(apps.back().get());
    }
    RunResult by_hand = sim.run(traces, spec.records, spec.warmup);
    std::ostringstream hand_report;
    writeStatsReport(hand_report, spec.cfg, by_hand, sim.statRegistry(),
                     &sim.sampler(), /*indent=*/0);

    EXPECT_EQ(via_job.logicalWrites, by_hand.logicalWrites);
    EXPECT_EQ(via_job.ipc, by_hand.ipc);
    EXPECT_EQ(via_job.writeLatency.mean(), by_hand.writeLatency.mean());
    EXPECT_EQ(job_report.str(), hand_report.str());
    // Four cores' records, not one core's.
    exec::JobSpec one = spec;
    one.coreApps.clear();
    exec::Job single(one);
    EXPECT_LT(single.run(*exec::openSource(one)).logicalWrites,
              via_job.logicalWrites);
}

TEST(JobDeath, MultiCoreNeedsOneSimulator)
{
    // Pipeline shards step only core 0 (Simulator::stepRecord).
    exec::JobSpec spec = fourCoreSpec();
    spec.workers = 1;
    EXPECT_EXIT(exec::Job job(spec), ::testing::ExitedWithCode(1),
                "a 4-core job needs workers == 0: pipeline shards step "
                "only core 0");
}

TEST(Job, SweepFragmentListsCoreAppsOnlyForMultiCoreJobs)
{
    exec::JobSpec multi = fourCoreSpec();
    exec::JobSpec single = multi;
    single.coreApps.clear();
    std::vector<exec::SweepOutcome> out =
        exec::SweepRunner(1).run({single, multi});
    ASSERT_TRUE(out[0].ok && out[1].ok);
    EXPECT_EQ(out[0].reportJson.find("core_apps"), std::string::npos);
    EXPECT_NE(out[1].reportJson.find(
                  "\"core_apps\":[\"lbm\",\"x264\",\"mcf\"]"),
              std::string::npos);
}

TEST(JobFlags, SyntheticRunsTakeTheToolDefaults)
{
    exec::JobFlags flags(200000, 40000);
    exec::JobSpec spec;
    spec.app = "mcf";
    flags.applyTo(spec);
    EXPECT_EQ(spec.records, 200000u);
    EXPECT_EQ(spec.warmup, 40000u);
    EXPECT_EQ(spec.workers, 0u);
}

TEST(JobFlags, TraceFileReplaysWholeUnlessGiven)
{
    exec::JobFlags flags(200000, 40000);
    exec::JobSpec spec;
    spec.traceFile = "run.trace";
    flags.applyTo(spec);
    EXPECT_EQ(spec.records, 0u);
    EXPECT_EQ(spec.warmup, 0u);

    EXPECT_TRUE(flags.take("-warmup=4000"));
    flags.applyTo(spec);
    EXPECT_EQ(spec.records, 0u);
    EXPECT_EQ(spec.warmup, 4000u);

    EXPECT_TRUE(flags.take("-records=20000"));
    EXPECT_TRUE(flags.take("-workers=3"));
    flags.applyTo(spec);
    EXPECT_EQ(spec.records, 20000u);
    EXPECT_EQ(spec.workers, 3u);
    EXPECT_EQ(flags.workers(), 3u);
}

TEST(JobFlags, OtherFlagsAreNotTaken)
{
    exec::JobFlags flags(1, 1);
    EXPECT_FALSE(flags.take("-jobs=4"));
    EXPECT_FALSE(flags.take("-records"));
    EXPECT_FALSE(flags.take("-channels=2"));
}

TEST(CliFlagsDeath, ParseU64TakesAsciiDigitsOnly)
{
    EXPECT_EQ(100u, parseU64("-records", "100"));
    EXPECT_EQ(0u, parseU64("-records", "0"));
    EXPECT_EQ(18446744073709551615ull,
              parseU64("-records", "18446744073709551615"));
    // std::stoull would take the sign, the leading space and the hex
    // prefix's 0, or throw on overflow.
    for (const char *bad : {"+100", " 100", "100 ", "-5", "", "0x10",
                            "1e3", "18446744073709551616"}) {
        EXPECT_EXIT(parseU64("-records", bad),
                    ::testing::ExitedWithCode(1),
                    "-records: '.*' is not an unsigned integer")
            << "'" << bad << "'";
    }
}

TEST(CliFlagsDeath, ParseU64InRangeNamesTheBounds)
{
    EXPECT_EQ(256u, parseU64InRange("-jobs", "256", 1, 256));
    EXPECT_EXIT(parseU64InRange("-jobs", "0", 1, 256),
                ::testing::ExitedWithCode(1),
                "-jobs: 0 out of range \\[1, 256\\]");
    EXPECT_EXIT(parseU64InRange("-jobs", "4294967297", 1, 256),
                ::testing::ExitedWithCode(1),
                "-jobs: 4294967297 out of range");
}

} // namespace
} // namespace esd
