#include "exec/sweep_runner.hh"

#include <atomic>
#include <chrono>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/json.hh"
#include "common/logging.hh"

namespace esd::exec
{

namespace
{

/** Job-identity preamble shared by report and error fragments. */
void
writeJobIdentity(JsonWriter &w, const JobSpec &job, std::size_t index)
{
    w.kv("index", static_cast<std::uint64_t>(index));
    w.kv("app", job.app);
    // Only trace-replay jobs carry the key: synthetic sweeps keep
    // their pre-frontend report schema byte-for-byte.
    if (!job.traceFile.empty())
        w.kv("trace", job.traceFile);
    // Likewise only multi-core jobs list their other cores' apps.
    if (!job.coreApps.empty()) {
        w.key("core_apps");
        w.beginArray();
        for (const std::string &app : job.coreApps)
            w.value(app);
        w.endArray();
    }
    w.kv("scheme", schemeName(job.scheme));
    w.kv("scheme_kind", static_cast<int>(job.scheme));
    w.kv("records", job.records);
    w.kv("warmup", job.warmup);
    w.kv("seed", job.cfg.seed);
}

/** Run one grid point start to finish on the calling thread. */
SweepOutcome
runOneJob(const JobSpec &spec, std::size_t index)
{
    auto t0 = std::chrono::steady_clock::now();

    SweepOutcome out;
    std::string report;
    try {
        std::unique_ptr<TraceSource> trace = openSource(spec);
        Job job(spec);
        out.result = job.run(*trace);
        // A crash-injected job whose self-check fails is a job
        // failure, not a quiet row of crash-tainted numbers.
        out.error = job.checkInjectedCrash().error;
        out.ok = out.error.empty();
        if (out.ok) {
            // Serialized here while the job's registries are alive.
            // Compact (indent 0) so the merged document stays one line
            // per job.
            std::ostringstream rep;
            job.writeReport(rep, /*indent=*/0);
            report = rep.str();
            while (!report.empty() && report.back() == '\n')
                report.pop_back();
        }
    } catch (const std::exception &e) {
        out.ok = false;
        out.error = e.what();
    }

    // Failed slots keep their grid position with an error fragment
    // instead of a report — the merged document stays valid JSON and
    // the failure is machine-readable in place.
    std::ostringstream frag;
    JsonWriter w(frag, /*indent=*/0);
    w.beginObject();
    writeJobIdentity(w, spec, index);
    if (out.ok) {
        w.key("report");
        w.rawValue(report);
    } else {
        w.kv("error", out.error);
    }
    w.endObject();
    out.reportJson = frag.str();

    out.hostSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    return out;
}

} // namespace

SweepRunner::SweepRunner(unsigned jobs) : jobs_(jobs)
{
    esd_assert(jobs_ >= 1, "a sweep needs at least one worker thread");
}

std::vector<SweepOutcome>
SweepRunner::run(const std::vector<JobSpec> &jobs,
                 const SweepProgressFn &progress) const
{
    std::vector<SweepOutcome> out(jobs.size());
    const unsigned workers = static_cast<unsigned>(
        std::min<std::size_t>(jobs_, jobs.size()));

    if (workers <= 1) {
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            out[i] = runOneJob(jobs[i], i);
            if (progress)
                progress(i, jobs[i], out[i].result);
        }
        return out;
    }

    std::atomic<std::size_t> cursor{0};
    std::mutex progress_mu;
    auto worker = [&]() {
        for (;;) {
            std::size_t i = cursor.fetch_add(1);
            if (i >= jobs.size())
                return;
            out[i] = runOneJob(jobs[i], i);
            if (progress) {
                std::lock_guard<std::mutex> lock(progress_mu);
                progress(i, jobs[i], out[i].result);
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned t = 0; t < workers; ++t)
        pool.emplace_back(worker);
    for (std::thread &t : pool)
        t.join();
    return out;
}

void
writeSweepReport(std::ostream &os,
                 const std::vector<SweepOutcome> &outcomes)
{
    std::uint64_t failed = 0;
    for (const SweepOutcome &o : outcomes)
        if (!o.ok)
            ++failed;

    JsonWriter w(os);
    w.beginObject();
    w.kv("job_count", static_cast<std::uint64_t>(outcomes.size()));
    // Emitted only when jobs failed: all-green sweep documents stay
    // byte-identical to releases that predate failure propagation.
    if (failed)
        w.kv("failed_jobs", failed);
    w.key("jobs");
    w.beginArray();
    for (const SweepOutcome &o : outcomes)
        w.rawValue(o.reportJson);
    w.endArray();

    // Sweep-wide latency aggregate: LatencyStat::merge combines the
    // exact histograms, and merge order never changes the counts, so
    // this section is worker-count independent like the fragments.
    // Failed jobs contribute nothing — their partial numbers would
    // taint the sweep-wide percentiles.
    LatencyStat read_all;
    LatencyStat write_all;
    for (const SweepOutcome &o : outcomes) {
        if (!o.ok)
            continue;
        read_all.merge(o.result.readLatency);
        write_all.merge(o.result.writeLatency);
    }
    w.key("aggregate");
    w.beginObject();
    w.key("read_latency");
    writeLatencyJson(w, read_all, /*buckets=*/true);
    w.key("write_latency");
    writeLatencyJson(w, write_all, /*buckets=*/true);
    w.endObject();

    w.endObject();
    os << "\n";
}

namespace
{

std::string
divergeWalk(const JsonValue &a, const JsonValue &b,
            const std::string &path)
{
    auto here = [&path]() {
        return path.empty() ? std::string("$") : path;
    };
    if (a.type != b.type)
        return here() + " (type)";
    switch (a.type) {
      case JsonValue::Type::Null:
        return "";
      case JsonValue::Type::Bool:
        return a.boolean == b.boolean ? "" : here();
      case JsonValue::Type::Number:
        return a.number == b.number ? "" : here();
      case JsonValue::Type::String:
        return a.str == b.str ? "" : here();
      case JsonValue::Type::Array: {
        if (a.array.size() != b.array.size())
            return here() + " (array length)";
        for (std::size_t i = 0; i < a.array.size(); ++i) {
            std::string p = divergeWalk(a.array[i], b.array[i],
                                        path + "[" +
                                            std::to_string(i) + "]");
            if (!p.empty())
                return p;
        }
        return "";
      }
      case JsonValue::Type::Object: {
        if (a.object.size() != b.object.size())
            return here() + " (member count)";
        for (std::size_t i = 0; i < a.object.size(); ++i) {
            const auto &[ka, va] = a.object[i];
            const auto &[kb, vb] = b.object[i];
            std::string child =
                path.empty() ? ka : path + "." + ka;
            if (ka != kb)
                return child + " (key vs '" + kb + "')";
            std::string p = divergeWalk(va, vb, child);
            if (!p.empty())
                return p;
        }
        return "";
      }
    }
    return "";
}

} // namespace

std::string
firstJsonDivergence(const std::string &a, const std::string &b)
{
    if (a == b)
        return "";
    JsonValue va, vb;
    std::string err;
    if (!tryParseJson(a, va, &err))
        return "<left unparseable: " + err + ">";
    if (!tryParseJson(b, vb, &err))
        return "<right unparseable: " + err + ">";
    std::string p = divergeWalk(va, vb, "");
    if (!p.empty())
        return p;
    // Bytes differ but structure matches: formatting-level divergence.
    std::size_t i = 0;
    while (i < a.size() && i < b.size() && a[i] == b[i])
        ++i;
    return "<byte " + std::to_string(i) +
           " differs with no structural divergence>";
}

} // namespace esd::exec
