/**
 * @file
 * Benchmark replayer: one replay of one workload along the path esd_sim
 * takes — open the trace source, construct a Simulator (or a
 * ShardedPipeline under -workers=N), run, render the stats report and
 * publish it with writeFileAtomic — timed with this program's own clocks.
 *
 *   esd_perfbench run (-app=NAME | -trace-in=PATH)
 *                     [-records=N] [-warmup=N] [-seed=N] [-workers=N]
 *                     [-channels=N] [-persist-domain=D]
 *                     -stats-json=PATH [-traced -spans-out=PATH]
 *   esd_perfbench gen -app=NAME -seed=N -records=N
 *                     -format=gzip|binary -payload=B -out=PATH
 *
 * `run` always replays the ESD scheme (esd_sim's default) and accepts
 * the subset of esd_sim flags the workloads use with esd_sim's meaning:
 * -persist-domain turns persistence on, as it does there. So the same
 * flag list replayed through esd_sim must write a byte-identical stats
 * report (run.py checks this). It prints one JSON line: records
 * consumed, host wall from workload start to the report on disk, and
 * set-up time (workload start to the first nextBatch). With -traced it
 * also enables the Profiler on every simulator (its host.profile.*
 * gauges land in the report) and writes the run's spans (run / open /
 * construct / execute / ingest_batch / warmup_batch / step_batch /
 * report) as a JSON array to -spans-out. A single Simulator's
 * step_batch spans cover only measured records, the window its
 * Profiler totals cover too. Spans wrap only calls into public
 * functions; nothing inside src/ is instrumented.
 *
 * `gen` renders a synthetic application's record stream into a trace
 * file through the capture writer, so replay inputs come from the seed.
 */

#include <chrono>
#include <cstdint>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/atomic_file.hh"
#include "common/config_io.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "core/run_report.hh"
#include "core/simulator.hh"
#include "exec/pipeline.hh"
#include "trace/trace_capture.hh"
#include "trace/trace_frontend.hh"
#include "trace/workloads.hh"

namespace
{

using namespace esd;
using Clock = std::chrono::steady_clock;

/** esd_sim's -stats-interval default: the interval sampler it enables
 * whenever -stats-json is given shapes the report, so match it. */
constexpr std::uint64_t kStatsInterval = 10000;

/** Simulator::run's pull size, so traced batches match untraced ones. */
constexpr std::size_t kRunChunk = 1024;

/** Spans of one run, kept in memory and written when the run ends. */
class SpanLog
{
  public:
    struct Span
    {
        std::uint32_t parent;
        const char *name;
        std::int64_t startNs;
        std::int64_t endNs;
    };

    explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

    std::int64_t
    now() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_)
            .count();
    }

    /** Record a closed span; returns its id (ids start at 1, 0 is
     * "no parent"). */
    std::uint32_t
    add(const char *name, std::uint32_t parent, std::int64_t start,
        std::int64_t end)
    {
        spans_.push_back({parent, name, start, end});
        return static_cast<std::uint32_t>(spans_.size());
    }

    /** Open a span whose end is filled in by close(). */
    std::uint32_t
    open(const char *name, std::uint32_t parent)
    {
        return add(name, parent, now(), -1);
    }

    void close(std::uint32_t id) { spans_[id - 1].endNs = now(); }

    const Span &span(std::uint32_t id) const { return spans_[id - 1]; }

    void
    writeJson(std::ostream &os) const
    {
        JsonWriter w(os, 0);
        w.beginArray();
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            w.beginArray();
            w.value(static_cast<std::uint64_t>(i + 1));
            w.value(static_cast<std::uint64_t>(s.parent));
            w.value(s.name);
            w.value(s.startNs);
            w.value(s.endNs);
            w.endArray();
        }
        w.endArray();
        os << "\n";
    }

  private:
    Clock::time_point origin_;
    std::vector<Span> spans_;
};

/**
 * Timing decorator around the workload's trace source: notes when the
 * first batch is pulled (the end of set-up) and counts the records
 * consumed; when @p spans is given, also records one ingest_batch span
 * per nextBatch call.
 */
class ClockedSource : public TraceSource
{
  public:
    ClockedSource(TraceSource &inner, SpanLog &log, SpanLog *spans,
                  std::uint32_t parent)
        : inner_(inner), log_(log), spans_(spans), parent_(parent)
    {
    }

    bool
    next(TraceRecord &rec) override
    {
        return nextBatch(&rec, 1) == 1;
    }

    std::size_t
    nextBatch(TraceRecord *out, std::size_t max) override
    {
        std::int64_t start = log_.now();
        if (firstBatchNs_ < 0)
            firstBatchNs_ = start;
        std::size_t n = inner_.nextBatch(out, max);
        if (spans_)
            spans_->add("ingest_batch", parent_, start, log_.now());
        records_ += n;
        return n;
    }

    void reset() override { inner_.reset(); }

    std::uint64_t records() const { return records_; }
    std::int64_t firstBatchNs() const { return firstBatchNs_; }

  private:
    TraceSource &inner_;
    SpanLog &log_;
    SpanLog *spans_;
    std::uint32_t parent_;
    std::uint64_t records_ = 0;
    std::int64_t firstBatchNs_ = -1;
};

struct Options
{
    std::string app;
    std::string traceIn;
    std::string statsJson;
    std::string spansOut;
    std::uint64_t records = 200000;  // esd_sim's defaults
    std::uint64_t warmup = 40000;
    bool recordsGiven = false;
    bool warmupGiven = false;
    std::uint64_t seed = 1;
    std::uint64_t workers = 0;  // 0 = single Simulator
    std::uint64_t channels = 0;  // 0 = config default
    std::string persistDomain;
    bool traced = false;

    // gen mode
    std::string out;
    std::string format;
    bool payload = true;
};

std::uint64_t
parseU64(const std::string &flag, const std::string &v)
{
    std::size_t used = 0;
    std::uint64_t out = 0;
    try {
        out = std::stoull(v, &used);
    } catch (const std::exception &) {
        used = 0;
    }
    if (v.empty() || v[0] == '-' || used != v.size())
        esd_fatal("%s: '%s' is not an unsigned integer", flag.c_str(),
                  v.c_str());
    return out;
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        std::size_t eq = arg.find('=');
        std::string flag = arg.substr(0, eq);
        std::string v = eq == std::string::npos ? "" : arg.substr(eq + 1);
        if (flag == "-app")
            opt.app = v;
        else if (flag == "-trace-in")
            opt.traceIn = v;
        else if (flag == "-stats-json")
            opt.statsJson = v;
        else if (flag == "-spans-out")
            opt.spansOut = v;
        else if (flag == "-records") {
            opt.records = parseU64(flag, v);
            opt.recordsGiven = true;
        } else if (flag == "-warmup") {
            opt.warmup = parseU64(flag, v);
            opt.warmupGiven = true;
        } else if (flag == "-seed")
            opt.seed = parseU64(flag, v);
        else if (flag == "-workers") {
            opt.workers = parseU64(flag, v);
            if (opt.workers < 1 || opt.workers > 256)
                esd_fatal("-workers: %s out of range [1, 256]", v.c_str());
        } else if (flag == "-channels") {
            opt.channels = parseU64(flag, v);
            if (opt.channels < 1 || opt.channels > 64)
                esd_fatal("-channels: %s out of range [1, 64]", v.c_str());
        } else if (flag == "-persist-domain") {
            opt.persistDomain = v;
            parsePersistDomain(flag, v);
        } else if (arg == "-traced")
            opt.traced = true;
        else if (flag == "-out")
            opt.out = v;
        else if (flag == "-format")
            opt.format = v;
        else if (flag == "-payload")
            opt.payload = parseU64(flag, v) != 0;
        else
            esd_fatal("unknown argument '%s'", arg.c_str());
    }
    return opt;
}

/** The SimConfig esd_sim builds from the same flags. */
SimConfig
makeConfig(const Options &opt)
{
    SimConfig cfg;
    cfg.seed = opt.seed;
    if (opt.channels)
        cfg.channels.count = static_cast<unsigned>(opt.channels);
    if (!opt.persistDomain.empty()) {
        cfg.persist.enabled = true;
        cfg.persist.domain =
            parsePersistDomain("-persist-domain", opt.persistDomain);
    }
    return cfg;
}

int
runWorkload(const Options &opt)
{
    const Clock::time_point origin = Clock::now();
    SpanLog log(origin);
    SpanLog *spans = opt.traced ? &log : nullptr;

    if (opt.statsJson.empty())
        esd_fatal("need -stats-json=");
    if (opt.app.empty() == opt.traceIn.empty())
        esd_fatal("need exactly one of -app= and -trace-in=");
    if (opt.traced && opt.spansOut.empty())
        esd_fatal("-traced needs -spans-out=");

    const std::uint32_t run_span = log.open("run", 0);
    SimConfig cfg = makeConfig(opt);

    // esd_sim: file input replays to exhaustion with no warmup unless
    // -records / -warmup are given.
    const bool file_input = !opt.traceIn.empty();
    const std::uint64_t records =
        !file_input || opt.recordsGiven ? opt.records : 0;
    const std::uint64_t warmup =
        !file_input || opt.warmupGiven ? opt.warmup : 0;

    std::uint32_t span = log.open("open", run_span);
    std::unique_ptr<TraceSource> inner;
    if (file_input)
        inner = std::make_unique<TraceFrontend>(opt.traceIn, cfg.trace);
    else
        inner = std::make_unique<SyntheticWorkload>(findApp(opt.app),
                                                    opt.seed);
    log.close(span);

    std::ostringstream report;
    std::uint64_t consumed = 0;
    std::int64_t first_batch_ns = -1;

    if (opt.workers != 0) {
        span = log.open("construct", run_span);
        exec::ShardedPipeline pipe(cfg, SchemeKind::Esd,
                                   static_cast<unsigned>(opt.workers));
        if (opt.traced)
            for (unsigned s = 0; s < pipe.shardCount(); ++s)
                pipe.shard(s).enableProfiling();
        log.close(span);

        const std::uint32_t exec_span = log.open("execute", run_span);
        ClockedSource src(*inner, log, spans, exec_span);
        pipe.run(src, records, warmup);
        log.close(exec_span);
        consumed = src.records();
        first_batch_ns = src.firstBatchNs();

        span = log.open("report", run_span);
        pipe.writeReport(report, /*indent=*/2,
                         cfg.telemetry.histogramBuckets);
        if (!writeFileAtomic(opt.statsJson, report.str()))
            esd_fatal("cannot write '%s'", opt.statsJson.c_str());
        log.close(span);
        log.close(run_span);  // the report is on disk; teardown is untimed
    } else {
        span = log.open("construct", run_span);
        Simulator sim(cfg, SchemeKind::Esd);
        sim.enableIntervalSampling(kStatsInterval);
        if (opt.traced)
            sim.enableProfiling();
        log.close(span);

        const std::uint32_t exec_span = log.open("execute", run_span);
        ClockedSource src(*inner, log, spans, exec_span);
        RunResult r;
        if (!opt.traced) {
            r = sim.run(src, records, warmup);
        } else {
            // Simulator::run() unrolled through its incremental API so
            // each batch of stepRecord calls gets its own span. Warm-up
            // and measured records get separate spans: the first
            // measured record resets the Profiler, so step_batch must
            // cover the measured window alone to compare with it.
            sim.beginRun();
            std::vector<TraceRecord> chunk(kRunChunk);
            std::uint64_t processed = 0;
            while (records == 0 || processed < records) {
                std::size_t want = kRunChunk;
                if (records != 0 && records - processed < want)
                    want = static_cast<std::size_t>(records - processed);
                std::size_t got = src.nextBatch(chunk.data(), want);
                if (got == 0)
                    break;
                std::size_t i = 0;
                std::int64_t start = log.now();
                for (; i < got && processed < warmup; ++i, ++processed)
                    sim.stepRecord(chunk[i], false);
                if (i > 0)
                    log.add("warmup_batch", exec_span, start, log.now());
                if (i == got)
                    continue;
                start = log.now();
                for (; i < got; ++i, ++processed)
                    sim.stepRecord(chunk[i], true);
                log.add("step_batch", exec_span, start, log.now());
            }
            if (warmup > 0 && !sim.measuring())
                esd_fatal("trace shorter than the %llu-record warmup",
                          static_cast<unsigned long long>(warmup));
            r = sim.endRun();
        }
        log.close(exec_span);
        consumed = src.records();
        first_batch_ns = src.firstBatchNs();

        span = log.open("report", run_span);
        writeStatsReport(report, cfg, r, sim.statRegistry(),
                         &sim.sampler(), /*indent=*/2,
                         cfg.telemetry.histogramBuckets);
        if (!writeFileAtomic(opt.statsJson, report.str()))
            esd_fatal("cannot write '%s'", opt.statsJson.c_str());
        log.close(span);
        log.close(run_span);  // the report is on disk; teardown is untimed
    }

    if (opt.traced) {
        std::ostringstream os;
        log.writeJson(os);
        if (!writeFileAtomic(opt.spansOut, os.str()))
            esd_fatal("cannot write '%s'", opt.spansOut.c_str());
    }

    JsonWriter w(std::cout, 0);
    w.beginObject();
    w.kv("records", consumed);
    w.kv("wall_ns", log.span(run_span).endNs);
    w.kv("setup_ns", first_batch_ns);
    w.kv("report_bytes", static_cast<std::uint64_t>(report.str().size()));
    w.endObject();
    std::cout << std::endl;
    return 0;
}

int
generateTrace(const Options &opt)
{
    if (opt.app.empty() || opt.out.empty() || !opt.recordsGiven)
        esd_fatal("gen needs -app=, -records= and -out=");
    TraceConfig tc;
    tc.format = parseTraceFormat("-format", opt.format);
    tc.linePayload = opt.payload;
    SyntheticWorkload src(findApp(opt.app), opt.seed);
    TraceCaptureWriter writer(opt.out, tc);
    TraceRecord rec;
    for (std::uint64_t i = 0; i < opt.records && src.next(rec); ++i)
        writer.write(rec);
    writer.close();
    std::cout << "generated " << writer.count() << " records to "
              << opt.out << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string mode = argc > 1 ? argv[1] : "";
    if (mode != "run" && mode != "gen")
        esd_fatal("usage: esd_perfbench run|gen -flag=value ...");
    Options opt = parseArgs(argc, argv);
    return mode == "run" ? runWorkload(opt) : generateTrace(opt);
}
