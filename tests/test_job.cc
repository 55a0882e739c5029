/**
 * @file
 * The one run path (exec/job.hh): a JobSpec picks its engine — one
 * Simulator or a ShardedPipeline of per-channel shards — and the Job
 * reports in that engine's schema; JobFlags holds the run-shape flag
 * rules every front end shares.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "exec/job.hh"

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

} // namespace
} // namespace esd
