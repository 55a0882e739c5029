#include "exec/job.hh"

#include "common/cli_flags.hh"
#include "common/logging.hh"
#include "trace/trace_frontend.hh"
#include "trace/workloads.hh"

namespace esd::exec
{

std::unique_ptr<TraceSource>
openSource(const JobSpec &spec)
{
    if (!spec.traceFile.empty())
        return std::make_unique<TraceFrontend>(spec.traceFile,
                                               spec.cfg.trace);
    return std::make_unique<SyntheticWorkload>(findApp(spec.app),
                                               spec.cfg.seed);
}

bool
JobFlags::take(const std::string &arg)
{
    auto value = [&arg] { return arg.substr(arg.find('=') + 1); };
    if (arg.rfind("-records=", 0) == 0) {
        records_ = parseU64("-records", value());
        recordsGiven_ = true;
    } else if (arg.rfind("-warmup=", 0) == 0) {
        warmup_ = parseU64("-warmup", value());
        warmupGiven_ = true;
    } else if (arg.rfind("-workers=", 0) == 0) {
        workers_ = static_cast<unsigned>(
            parseU64InRange("-workers", value(), 1, 256));
    } else {
        return false;
    }
    return true;
}

void
JobFlags::applyTo(JobSpec &spec) const
{
    // Replaying a captured run passes the original -warmup= to
    // reproduce its stats byte-for-byte.
    bool file_input = !spec.traceFile.empty();
    spec.records = !file_input || recordsGiven_ ? records_ : 0;
    spec.warmup = !file_input || warmupGiven_ ? warmup_ : 0;
    spec.workers = workers_;
}

Job::Job(const JobSpec &spec) : spec_(spec)
{
    if (!spec_.coreApps.empty() && spec_.workers >= 1)
        esd_fatal("a %zu-core job needs workers == 0: pipeline shards "
                  "step only core 0",
                  spec_.coreApps.size() + 1);
    if (spec_.workers >= 1) {
        pipe_ = std::make_unique<ShardedPipeline>(spec_.cfg, spec_.scheme,
                                                  spec_.workers);
        for (unsigned s = 0; s < pipe_->shardCount(); ++s)
            sims_.push_back(&pipe_->shard(s));
    } else {
        sim_ = std::make_unique<Simulator>(spec_.cfg, spec_.scheme);
        sims_.push_back(sim_.get());
    }
}

const RunResult &
Job::run(TraceSource &trace)
{
    if (pipe_)
        return pipe_->run(trace, spec_.records, spec_.warmup);
    std::vector<std::unique_ptr<TraceSource>> cores;
    std::vector<TraceSource *> traces{&trace};
    for (std::size_t i = 0; i < spec_.coreApps.size(); ++i) {
        cores.push_back(std::make_unique<SyntheticWorkload>(
            findApp(spec_.coreApps[i]), spec_.cfg.seed + i + 1));
        traces.push_back(cores.back().get());
    }
    result_ = sim_->run(traces, spec_.records, spec_.warmup);
    return result_;
}

CrashCheck
Job::checkInjectedCrash() const
{
    return pipe_ ? pipe_->checkInjectedCrash()
                 : esd::checkInjectedCrash(*sim_, spec_.cfg);
}

void
Job::writeReport(std::ostream &os, int indent) const
{
    const bool buckets = spec_.cfg.telemetry.histogramBuckets;
    if (pipe_)
        pipe_->writeReport(os, indent, buckets);
    else
        writeStatsReport(os, spec_.cfg, result_, sim_->statRegistry(),
                         &sim_->sampler(), indent, buckets);
}

} // namespace esd::exec
