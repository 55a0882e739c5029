/**
 * @file
 * Determinism golden tests for the parallel sweep engine: the merged
 * sweep report must be byte-identical whatever the worker count and
 * across repeated runs at the same seed. Failures print the first
 * diverging JSON path. Also covers the SweepRunner contract (stable
 * outcome ordering, serialized progress), grid expansion and its one
 * seed rule, and the non-fatal CLI validators.
 */

#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "common/json.hh"
#include "exec/sweep_grid.hh"
#include "exec/sweep_runner.hh"
#include "trace/workloads.hh"

namespace esd
{
namespace
{

using exec::SweepGrid;
using exec::JobSpec;
using exec::SweepOutcome;
using exec::SweepRunner;

/** All six schemes over one app — small enough for TSan, rich enough
 * that every scheme's write/verify/metadata machinery runs. */
std::vector<JobSpec>
goldenJobs()
{
    std::vector<JobSpec> jobs;
    for (SchemeKind k : allSchemeKindsExtended()) {
        JobSpec job;
        job.app = "mcf";
        job.scheme = k;
        job.cfg = SimConfig{};
        job.cfg.channels.count = 2;
        job.cfg.pcm.writeQueueDepth = 16;
        job.cfg.seed = 42;
        job.records = 3000;
        job.warmup = 500;
        jobs.push_back(std::move(job));
    }
    return jobs;
}

std::string
mergedReport(const std::vector<JobSpec> &jobs, unsigned workers)
{
    SweepRunner runner(workers);
    std::vector<SweepOutcome> outcomes = runner.run(jobs);
    std::ostringstream os;
    exec::writeSweepReport(os, outcomes);
    return os.str();
}

TEST(SweepDeterminism, ParallelByteIdenticalToSerial)
{
    std::vector<JobSpec> jobs = goldenJobs();
    std::string serial = mergedReport(jobs, 1);
    std::string parallel = mergedReport(jobs, 8);
    ASSERT_EQ(serial, parallel)
        << "first divergence: "
        << exec::firstJsonDivergence(serial, parallel);
}

TEST(SweepDeterminism, RepeatedRunsByteIdentical)
{
    std::vector<JobSpec> jobs = goldenJobs();
    std::string first = mergedReport(jobs, 8);
    for (int repeat = 0; repeat < 3; ++repeat) {
        std::string again = mergedReport(jobs, 8);
        ASSERT_EQ(first, again)
            << "repeat " << repeat << ", first divergence: "
            << exec::firstJsonDivergence(first, again);
    }
}

TEST(SweepDeterminism, ReportIndependentOfOddWorkerCounts)
{
    std::vector<JobSpec> jobs = goldenJobs();
    std::string serial = mergedReport(jobs, 1);
    for (unsigned workers : {2u, 3u, 5u}) {
        std::string other = mergedReport(jobs, workers);
        ASSERT_EQ(serial, other)
            << "workers=" << workers << ", first divergence: "
            << exec::firstJsonDivergence(serial, other);
    }
}

TEST(SweepDeterminism, DivergenceDiagnosticPinpointsPath)
{
    std::string a = R"({"jobs": [{"x": 1, "y": {"z": 2}}]})";
    std::string b = R"({"jobs": [{"x": 1, "y": {"z": 3}}]})";
    EXPECT_EQ("jobs[0].y.z", exec::firstJsonDivergence(a, b));
    EXPECT_EQ("", exec::firstJsonDivergence(a, a));
}

TEST(SweepRunner, OutcomesInJobOrderRegardlessOfCompletion)
{
    // Front-load a long job so short jobs finish first under any
    // scheduling; outcome slots must still match job slots.
    std::vector<JobSpec> jobs;
    for (unsigned i = 0; i < 6; ++i) {
        JobSpec job;
        job.app = "mcf";
        job.scheme = i == 0 ? SchemeKind::Esd : SchemeKind::Baseline;
        job.cfg = SimConfig{};
        job.cfg.seed = 7;
        job.records = i == 0 ? 6000 : 400;
        job.warmup = 0;
        jobs.push_back(std::move(job));
    }
    SweepRunner runner(4);
    std::vector<SweepOutcome> outcomes = runner.run(jobs);
    ASSERT_EQ(jobs.size(), outcomes.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(schemeName(jobs[i].scheme),
                  outcomes[i].result.schemeName);
        EXPECT_EQ(jobs[i].records, outcomes[i].result.records);
    }
}

TEST(SweepRunner, FailedJobKeepsSlotAndSurfacesInReport)
{
    // Job 1 injects a crash but forbids counter probing, so recovery
    // must fail; the slot keeps its position, carries the error, and
    // the merged report names the failure instead of dropping it.
    std::vector<JobSpec> jobs;
    for (unsigned i = 0; i < 3; ++i) {
        JobSpec job;
        job.app = "mcf";
        job.scheme = SchemeKind::Esd;
        job.cfg = SimConfig{};
        job.cfg.seed = 11;
        if (i == 1) {
            job.cfg.persist.enabled = true;
            job.cfg.persist.crashAtWrite = 500;
            job.cfg.persist.counterProbeMax = 0;
        }
        job.records = 2000;
        job.warmup = 0;
        jobs.push_back(std::move(job));
    }
    SweepRunner runner(3);
    std::vector<SweepOutcome> outcomes = runner.run(jobs);
    ASSERT_EQ(outcomes.size(), 3u);
    EXPECT_TRUE(outcomes[0].ok);
    EXPECT_TRUE(outcomes[2].ok);
    EXPECT_FALSE(outcomes[1].ok);
    EXPECT_NE(outcomes[1].error.find("crash recovery failed"),
              std::string::npos)
        << outcomes[1].error;

    std::ostringstream os;
    exec::writeSweepReport(os, outcomes);
    const std::string doc = os.str();
    EXPECT_NE(doc.find("\"failed_jobs\": 1"), std::string::npos);
    EXPECT_NE(doc.find("crash recovery failed"), std::string::npos);

    // A healthy grid's report must not even mention the failure key —
    // all-green documents stay byte-identical to pre-failure-handling
    // output.
    std::ostringstream green;
    exec::writeSweepReport(
        green, {outcomes[0], outcomes[2]});
    EXPECT_EQ(green.str().find("failed_jobs"), std::string::npos);
}

TEST(SweepRunner, HistogramBucketsReachTheFragmentInBothModes)
{
    // telemetry.histogram_buckets (-hist-buckets) widens a sweep job's
    // report exactly as it widens esd_sim's, single or pipelined.
    for (unsigned workers : {0u, 2u}) {
        for (bool buckets : {false, true}) {
            JobSpec job = goldenJobs()[0];
            job.workers = workers;
            job.cfg.telemetry.histogramBuckets = buckets;
            std::vector<SweepOutcome> out = SweepRunner(1).run({job});
            ASSERT_TRUE(out[0].ok) << out[0].error;
            JsonValue frag;
            ASSERT_TRUE(tryParseJson(out[0].reportJson, frag));
            const JsonValue *lat = frag.find("report")
                                       ->find("result")
                                       ->find("write_latency");
            ASSERT_NE(lat, nullptr);
            EXPECT_EQ(buckets, lat->find("buckets") != nullptr)
                << "workers=" << workers;
        }
    }
}

TEST(SweepRunner, ProgressFiresOncePerJobWithMatchingIndex)
{
    std::vector<JobSpec> jobs = goldenJobs();
    std::set<std::size_t> seen;
    SweepRunner runner(8);
    runner.run(jobs, [&](std::size_t index, const JobSpec &job,
                         const RunResult &r) {
        // Callback runs under the runner's mutex: plain set insert.
        EXPECT_TRUE(seen.insert(index).second)
            << "index " << index << " reported twice";
        EXPECT_EQ(schemeName(job.scheme), r.schemeName);
    });
    EXPECT_EQ(jobs.size(), seen.size());
}

TEST(SweepGridSpec, ParsesDimensionsRangesAndLists)
{
    SweepGrid grid;
    std::string err;
    ASSERT_TRUE(exec::parseSweepSpec("scheme=0..5,channels=1,2,8",
                                     grid, &err))
        << err;
    EXPECT_EQ(6u, grid.schemes.size());
    ASSERT_EQ(3u, grid.channels.size());
    EXPECT_EQ(1u, grid.channels[0]);
    EXPECT_EQ(2u, grid.channels[1]);
    EXPECT_EQ(8u, grid.channels[2]);

    SweepGrid named;
    ASSERT_TRUE(exec::parseSweepSpec("app=mcf,lbm,scheme=esd,wpq_depth=4",
                                     named, &err))
        << err;
    EXPECT_EQ(2u, named.apps.size());
    ASSERT_EQ(1u, named.schemes.size());
    EXPECT_EQ(SchemeKind::Esd, named.schemes[0]);
    ASSERT_EQ(1u, named.wpqDepths.size());
    EXPECT_EQ(4u, named.wpqDepths[0]);
}

TEST(SweepGridSpec, RejectsBadInputWithMessage)
{
    SweepGrid grid;
    std::string err;
    EXPECT_FALSE(exec::parseSweepSpec("scheme=7", grid, &err));
    EXPECT_NE(std::string::npos, err.find("0..5"));

    err.clear();
    EXPECT_FALSE(exec::parseSweepSpec("app=nosuchapp", grid, &err));
    EXPECT_NE(std::string::npos, err.find("nosuchapp"));

    err.clear();
    EXPECT_FALSE(exec::parseSweepSpec("flux=1", grid, &err));
    EXPECT_NE(std::string::npos, err.find("flux"));

    err.clear();
    EXPECT_FALSE(exec::parseSweepSpec("1,2,3", grid, &err));
    EXPECT_FALSE(err.empty());

    err.clear();
    EXPECT_FALSE(exec::parseSweepSpec("channels=0", grid, &err));
    EXPECT_FALSE(err.empty());

    // Integer dimensions take their config key's bounds:
    // channels.count is [1, 64] ...
    err.clear();
    EXPECT_FALSE(exec::parseSweepSpec("channels=65", grid, &err));
    EXPECT_NE(std::string::npos, err.find("1..64")) << err;

    // ... and wpq_depth is pcm.write_queue_depth, [1, 2^20].
    SweepGrid wpq;
    EXPECT_FALSE(exec::parseSweepSpec("wpq_depth=0", wpq, &err));
    EXPECT_NE(std::string::npos, err.find("1..1048576")) << err;
    EXPECT_TRUE(exec::parseSweepSpec("wpq_depth=1048576", wpq, &err))
        << err;
    EXPECT_EQ((std::vector<unsigned>{1048576}), wpq.wpqDepths);
    EXPECT_FALSE(exec::parseSweepSpec("wpq_depth=1048577", wpq, &err));

    // Integers are ASCII digits only: no sign, no space, no wrap. The
    // message names the value and the dimension.
    const std::pair<const char *, const char *> bad_ints[] = {
        {"channels=+2", "bad integer or range '+2' for sweep dimension "
                        "'channels'"},
        {"channels= 2", "' 2' for sweep dimension 'channels'"},
        {"channels=-1", "'-1' for sweep dimension 'channels'"},
        {"channels=2 ", "'2 ' for sweep dimension 'channels'"},
        {"channels=1..+3", "'1..+3' for sweep dimension 'channels'"},
        {"wpq_depth=18446744073709551617",
         "'18446744073709551617' for sweep dimension 'wpq_depth'"},
        {"scheme=-0..1", "bad range '-0..1' for sweep dimension 'scheme'"},
        {"scheme=+0..1", "'+0..1' for sweep dimension 'scheme'"},
    };
    for (const auto &[spec, message] : bad_ints) {
        SweepGrid g;
        err.clear();
        EXPECT_FALSE(exec::parseSweepSpec(spec, g, &err)) << spec;
        EXPECT_NE(std::string::npos, err.find(message))
            << spec << ": " << err;
    }
}

TEST(SweepGridSpec, ExpansionOrderAndSeedsAreStable)
{
    SweepGrid grid;
    std::string err;
    ASSERT_TRUE(exec::parseSweepSpec("app=mcf,lbm,scheme=0,3,channels=1,2",
                                     grid, &err))
        << err;
    JobSpec proto;
    proto.cfg.seed = 42;
    proto.records = 1000;
    proto.warmup = 100;
    proto.workers = 2;
    std::vector<JobSpec> jobs = exec::expandGrid(grid, proto);
    ASSERT_EQ(8u, jobs.size());
    // app-major, then scheme, then channels.
    EXPECT_EQ("mcf", jobs[0].app);
    EXPECT_EQ(SchemeKind::Baseline, jobs[0].scheme);
    EXPECT_EQ(1u, jobs[0].cfg.channels.count);
    EXPECT_EQ(2u, jobs[1].cfg.channels.count);
    EXPECT_EQ(SchemeKind::Esd, jobs[2].scheme);
    EXPECT_EQ("lbm", jobs[4].app);
    // One seed rule: every point runs on the prototype's cfg.seed, so
    // each app's points replay one trace; the run shape reaches every
    // job through the prototype.
    for (const JobSpec &job : jobs) {
        EXPECT_EQ(42u, job.cfg.seed);
        EXPECT_EQ(1000u, job.records);
        EXPECT_EQ(100u, job.warmup);
        EXPECT_EQ(2u, job.workers);
        EXPECT_TRUE(job.traceFile.empty());
    }
}

TEST(CliValidation, TryParseSchemeKindRejectsUnknown)
{
    EXPECT_FALSE(tryParseSchemeKind("banana").has_value());
    EXPECT_FALSE(tryParseSchemeKind("6").has_value());
    EXPECT_FALSE(tryParseSchemeKind("").has_value());
    ASSERT_TRUE(tryParseSchemeKind("esd").has_value());
    EXPECT_EQ(SchemeKind::Esd, *tryParseSchemeKind("3"));
    EXPECT_EQ(SchemeKind::EsdPlus, *tryParseSchemeKind("esd+"));
}

TEST(CliValidation, TryFindAppRejectsUnknown)
{
    EXPECT_EQ(nullptr, tryFindApp("nosuchapp"));
    EXPECT_EQ(nullptr, tryFindApp(""));
    const AppProfile *p = tryFindApp("mcf");
    ASSERT_NE(nullptr, p);
    EXPECT_EQ("mcf", p->name);
}

} // namespace
} // namespace esd
