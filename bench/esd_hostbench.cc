/**
 * @file
 * The host-speed driver: how fast the simulator itself runs, as rows of
 * one table. It is the before/after yardstick for host-side work and
 * the input of the CI perf gate (scripts/check_perf.py against
 * bench/baselines/<row>.json).
 *
 *   esd_hostbench [-jobs=N] [-out=DIR]
 *
 * Rows, each with the check that a faster simulator changed nothing:
 *   hotpath           simulated writes per host second for every
 *                     scheme over the 20 apps, plus ESD with the ADR
 *                     journal on (outside the aggregate); simulated
 *                     results must match across reps
 *   sweep_scaling     wall-clock of a 24-point grid (4 apps x 6
 *                     schemes) at jobs 1/2/4/8; merged reports must be
 *                     byte-identical at every job count
 *   pipeline_scaling  one 8-channel gcc run per scheme sharded over
 *                     1/2/4/8 workers; reports must be byte-identical
 *                     at every worker count
 *   trace_ingest      decoded records per host second per on-disk
 *                     format; streams must match across reps and
 *                     formats, with no record lost
 *   ecc_codecs        encode/decode lines per second and fingerprint
 *                     collisions per ECC engine; every clean line must
 *                     decode as Ok
 * A failed check exits 1.
 *
 * Each row runs at the size its committed baseline was measured at.
 * ESD_BENCH_RECORDS and ESD_BENCH_WARMUP override every row's size,
 * ESD_BENCH_REPS its best-of count (default 3: host noise only ever
 * slows a run) and ESD_BENCH_SEED the codec corpus seed (default
 * 2024). -jobs=N replaces the scaling rows' levels with {1, N}.
 * -out=DIR writes DIR/<row>.json; every document records the host's
 * hardware thread count, and check_perf.py gates a scaling level only
 * when both hosts can run it in parallel.
 */

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <functional>
#include <sstream>
#include <thread>
#include <variant>

#include "bench_common.hh"
#include "common/atomic_file.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "ecc/ecc_engine.hh"
#include "exec/pipeline.hh"
#include "exec/sweep_grid.hh"
#include "exec/sweep_runner.hh"
#include "metrics/report.hh"
#include "trace/trace_capture.hh"
#include "trace/trace_frontend.hh"

namespace
{

using namespace esd;

using Value = std::variant<std::uint64_t, double, std::string>;
using Fields = std::vector<std::pair<std::string, Value>>;

/** What a row measured, in the order of its JSON document. */
struct Measured
{
    Fields size;                ///< top-level integers: what was run
    std::string listKey;        ///< the per-item array's name
    std::vector<Fields> items;  ///< one per scheme, level, format, codec
    Fields totals = {};         ///< top-level members after the array
};

/** A failed identity check; main() reports it and exits 1. */
struct CheckFailed
{
    std::string what;
};

[[noreturn]] void
fail(std::string what)
{
    throw CheckFailed{std::move(what)};
}

std::uint64_t
reps()
{
    return bench::envOr("ESD_BENCH_REPS", 3);
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/** The scaling rows' worker or job counts. */
std::vector<unsigned>
levels()
{
    if (bench::benchJobs() > 1)
        return {1, bench::benchJobs()};
    return {1, 2, 4, 8};
}

/** Order-stable digest of the simulated (host-independent) results. */
std::string
resultDigest(const RunResult &r)
{
    std::ostringstream os;
    os << r.schemeName << ':' << r.records << ':' << r.logicalWrites << ':'
       << r.dedupHits << ':' << r.nvmDataWrites << ':' << r.nvmWritesTotal
       << ':' << r.nvmReadsTotal << ':' << r.runtimeNs;
    return os.str();
}

Measured
hotpath()
{
    const bench::RunSize size = bench::runSize(60000, 30000);
    const std::vector<std::string> apps = bench::appNames();
    Measured m{{{"records_per_run", size.records},
                {"warmup", size.warmup},
                {"reps", reps()},
                {"apps", static_cast<std::uint64_t>(apps.size())}},
               "schemes",
               {}};

    // Best-of-reps host time over every app, with the writes of that
    // rep; simulated results must not change across reps.
    auto measure = [&](SchemeKind kind, const std::string &name,
                       bool persist) {
        std::string digest;
        std::uint64_t writes = 0;
        double best = 0;
        for (std::uint64_t rep = 0; rep < reps(); ++rep) {
            std::uint64_t rep_writes = 0, host_ns = 0;
            std::ostringstream rep_digest;
            for (const std::string &app : apps) {
                SimConfig cfg = bench::benchConfig();
                cfg.seed = 1;
                cfg.persist.enabled = persist;
                Simulator sim(cfg, kind);
                SyntheticWorkload trace(findApp(app), cfg.seed);
                RunResult r = sim.run(trace, size.records, size.warmup);
                rep_writes += r.logicalWrites;
                host_ns += r.hostNs;
                rep_digest << resultDigest(r) << '\n';
            }
            if (digest.empty())
                digest = rep_digest.str();
            else if (rep_digest.str() != digest)
                fail(name + " rep " + std::to_string(rep) +
                     " changed simulated results");
            double host_s = static_cast<double>(host_ns) / 1e9;
            if (best == 0 || host_s < best) {
                best = host_s;
                writes = rep_writes;
            }
        }
        m.items.push_back({{"scheme", name},
                           {"writes", writes},
                           {"host_s", best},
                           {"writes_per_s",
                            best > 0 ? static_cast<double>(writes) / best
                                     : 0}});
        return std::pair{writes, best};
    };

    double agg_writes = 0, agg_host = 0;
    for (SchemeKind kind : allSchemeKindsExtended()) {
        auto [writes, host_s] = measure(kind, schemeName(kind), false);
        agg_writes += static_cast<double>(writes);
        agg_host += host_s;
    }
    // Outside the aggregate: the persistence path's host cost on every
    // write, ESD with the ADR journal on and no crash configured.
    measure(SchemeKind::Esd, "ESD/persist_adr", true);
    m.totals = {{"aggregate_writes_per_s",
                 agg_host > 0 ? agg_writes / agg_host : 0}};
    return m;
}

Measured
sweepScaling()
{
    const bench::RunSize size = bench::runSize(20000, 10000);
    exec::SweepGrid sweep;
    sweep.apps = {"mcf", "lbm", "gcc", "deepsjeng"};
    exec::JobSpec proto;
    proto.cfg = bench::benchConfig();
    proto.records = size.records;
    proto.warmup = size.warmup;
    const std::vector<exec::JobSpec> grid = expandGrid(sweep, proto);
    Measured m{{{"records_per_run", size.records},
                {"warmup", size.warmup},
                {"grid_jobs", static_cast<std::uint64_t>(grid.size())}},
               "scaling",
               {}};

    double base_wall = 0;
    std::string base_report;
    for (unsigned jobs : levels()) {
        exec::SweepRunner runner(jobs);
        auto t0 = std::chrono::steady_clock::now();
        std::vector<exec::SweepOutcome> outcomes = runner.run(grid);
        double wall = secondsSince(t0);
        if (base_wall == 0)
            base_wall = wall;

        double total_writes = 0, mean_wps = 0;
        for (const exec::SweepOutcome &o : outcomes) {
            total_writes += static_cast<double>(o.result.logicalWrites);
            if (o.hostSeconds > 0)
                mean_wps += static_cast<double>(o.result.logicalWrites) /
                            o.hostSeconds;
        }
        mean_wps /=
            static_cast<double>(std::max<std::size_t>(outcomes.size(), 1));

        std::ostringstream doc;
        exec::writeSweepReport(doc, outcomes);
        if (base_report.empty())
            base_report = doc.str();
        else if (doc.str() != base_report)
            fail("merged report at jobs=" + std::to_string(jobs) +
                 " differs from jobs=1: " +
                 exec::firstJsonDivergence(base_report, doc.str()));

        m.items.push_back(
            {{"jobs", static_cast<std::uint64_t>(jobs)},
             {"wall_s", wall},
             {"speedup", base_wall / wall},
             {"agg_writes_per_s", wall > 0 ? total_writes / wall : 0},
             {"mean_job_writes_per_s", mean_wps}});
    }
    return m;
}

Measured
pipelineScaling()
{
    const bench::RunSize size = bench::runSize(20000, 4000);
    SimConfig cfg = bench::benchConfig();
    cfg.channels.count = 8;
    cfg.channels.wpqCoalescing = true;
    const std::vector<SchemeKind> kinds = allSchemeKindsExtended();
    Measured m{{{"records_per_run", size.records},
                {"warmup", size.warmup},
                {"channels", static_cast<std::uint64_t>(cfg.channels.count)},
                {"schemes_per_level",
                 static_cast<std::uint64_t>(kinds.size())}},
               "scaling",
               {}};

    double base_wall = 0;
    std::vector<std::string> base_reports;
    for (unsigned workers : levels()) {
        auto t0 = std::chrono::steady_clock::now();
        double total_writes = 0;
        std::vector<std::string> reports;
        for (SchemeKind kind : kinds) {
            SyntheticWorkload trace(findApp("gcc"), cfg.seed);
            exec::ShardedPipeline pipe(cfg, kind, workers);
            const RunResult &r = pipe.run(trace, size.records, size.warmup);
            total_writes += static_cast<double>(r.logicalWrites);
            std::ostringstream doc;
            pipe.writeReport(doc, /*indent=*/0);
            reports.push_back(doc.str());
        }
        double wall = secondsSince(t0);
        if (base_wall == 0)
            base_wall = wall;

        if (base_reports.empty())
            base_reports = reports;
        for (std::size_t k = 0; k < kinds.size(); ++k)
            if (reports[k] != base_reports[k])
                fail(std::string(schemeName(kinds[k])) + " report at "
                     "workers=" + std::to_string(workers) +
                     " differs from workers=1: " +
                     exec::firstJsonDivergence(base_reports[k],
                                               reports[k]));

        m.items.push_back({{"workers", static_cast<std::uint64_t>(workers)},
                           {"wall_s", wall},
                           {"speedup", base_wall / wall},
                           {"writes_per_s",
                            wall > 0 ? total_writes / wall : 0}});
    }
    return m;
}

/** Order-sensitive digest of a decoded stream (FNV-1a over fields). */
struct StreamDigest
{
    std::uint64_t records = 0;
    std::uint64_t hash = 1469598103934665603ull;

    void
    add(const TraceRecord &rec)
    {
        ++records;
        mix(static_cast<std::uint64_t>(rec.op));
        mix(rec.addr);
        mix(rec.icount);
        if (rec.op == OpType::Write)
            for (std::size_t w = 0; w < kLineSize / 8; ++w)
                mix(rec.data.word(w));
    }

    void
    mix(std::uint64_t v)
    {
        hash = (hash ^ v) * 1099511628211ull;
    }

    bool operator==(const StreamDigest &) const = default;
};

/** A temporary directory, removed with its contents on every way out
 * of its scope. */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &stem)
        : path_(std::filesystem::temp_directory_path() /
                (stem + std::to_string(::getpid())))
    {
        std::filesystem::create_directories(path_);
    }

    ~ScratchDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }

    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;

    std::string
    file(const std::string &name) const
    {
        return (path_ / name).string();
    }

  private:
    std::filesystem::path path_;
};

Measured
traceIngest()
{
    const std::uint64_t records = bench::envOr("ESD_BENCH_RECORDS", 250000);
    Measured m{{{"records", records}, {"reps", reps()}}, "formats", {}};
    ScratchDir dir("esd_ingest_");

    // One captured trace re-encoded into each format: every decoder
    // reads the identical record stream.
    const std::string base = dir.file("base.trace");
    {
        TraceCaptureWriter writer(base, TraceConfig{});
        SyntheticWorkload synth(findApp("mcf"), 1);
        TraceRecord rec;
        for (std::uint64_t i = 0; i < records; ++i) {
            synth.next(rec);
            writer.write(rec);
        }
        writer.close();
    }

    // Gzip decode is two threads: the frontend's helper inflates ahead
    // while this thread parses, so the gzip row measures the overlap.
    const std::pair<TraceFormat, const char *> formats[] = {
        {TraceFormat::Text, "text"},
        {TraceFormat::Gzip, "gzip"},
        {TraceFormat::Binary, "binary"}};
    auto path_of = [&](const char *name)
    { return dir.file("ingest." + std::string(name)); };
    for (auto [format, name] : formats)
        convertTrace(base, path_of(name), format, true);
    StreamDigest want;
    for (auto [format, name] : formats) {
        const std::string path = path_of(name);
        StreamDigest digest;
        double best = 0;
        for (std::uint64_t rep = 0; rep < reps(); ++rep) {
            StreamDigest d;
            TraceFrontend frontend(path, TraceConfig{});
            TraceRecord rec;
            auto t0 = std::chrono::steady_clock::now();
            while (frontend.next(rec))
                d.add(rec);
            double host_s = secondsSince(t0);
            if (rep == 0)
                digest = d;
            else if (d != digest)
                fail(std::string(name) + " rep " + std::to_string(rep) +
                     " decoded a different stream");
            if (best == 0 || host_s < best)
                best = host_s;
        }
        if (digest.records != records)
            fail(std::string(name) + " decoded " +
                 std::to_string(digest.records) + " of " +
                 std::to_string(records) + " records");
        if (want.records == 0)
            want = digest;
        else if (digest != want)
            fail(std::string(name) + " decoded a different stream than " +
                 formats[0].second);
        m.items.push_back(
            {{"format", std::string(name)},
             {"bytes", static_cast<double>(std::filesystem::file_size(path))},
             {"host_s", best},
             {"records_per_s",
              best > 0 ? static_cast<double>(records) / best : 0}});
    }
    return m;
}

Measured
eccCodecs()
{
    const std::uint64_t lines = bench::envOr("ESD_BENCH_RECORDS", 400000);
    const std::uint64_t seed = bench::envOr("ESD_BENCH_SEED", 2024);
    const bench::Corpora corpora = bench::collisionCorpora(lines, seed);
    const std::vector<CacheLine> &corpus = corpora.random;
    Measured m{{{"lines", lines}, {"seed", seed}}, "codecs", {}};

    // Best-of-reps lines per second of @p pass over the random corpus.
    auto rate = [&](const std::function<void()> &pass) {
        double best = 1e300;
        for (std::uint64_t rep = 0; rep < reps(); ++rep) {
            auto t0 = std::chrono::steady_clock::now();
            pass();
            best = std::min(best, secondsSince(t0));
        }
        return static_cast<double>(corpus.size()) / best;
    };

    for (EccEngineKind kind :
         {EccEngineKind::Hamming, EccEngineKind::Bch, EccEngineKind::Rs}) {
        const EccEngine &ecc = eccEngine(kind);
        LineEcc sink = 0;
        const double encode = rate([&] {
            for (const CacheLine &l : corpus)
                sink ^= ecc.encodeLine(l);
        });
        if (sink == 0x5a5a5a5a5a5a5a5aULL)
            std::cerr << "";  // keep the accumulator observable

        // The scrub/verify fast path: every clean line decodes as Ok.
        std::vector<LineEcc> codes(corpus.size());
        for (std::size_t i = 0; i < corpus.size(); ++i)
            codes[i] = ecc.encodeLine(corpus[i]);
        const double decode = rate([&] {
            std::uint64_t ok = 0;
            for (std::size_t i = 0; i < corpus.size(); ++i)
                ok += ecc.decodeLine(corpus[i], codes[i]).status ==
                      EccStatus::Ok;
            if (ok != corpus.size())
                fail(std::string(ecc.name()) + ": " +
                     std::to_string(corpus.size() - ok) + " of " +
                     std::to_string(corpus.size()) +
                     " clean lines did not decode Ok");
        });

        auto fingerprint = [&](const CacheLine &l) {
            return ecc.fingerprint(l);
        };
        m.items.push_back(
            {{"codec", std::string(ecc.name())},
             {"encode_lines_per_s", encode},
             {"decode_lines_per_s", decode},
             {"random_collisions",
              bench::countCollisions(corpora.random, fingerprint).collisions},
             {"similar_collisions",
              bench::countCollisions(corpora.similar, fingerprint)
                  .collisions}});
    }
    return m;
}

struct Row
{
    const char *name;  ///< -out=DIR writes <name>.json
    const char *title;
    Measured (*run)();
};

// sweep_scaling runs first, as its baseline did, in a fresh process:
// its speedups divide by the jobs=1 pass, which measured faster after
// the other rows had run (a mean 0.31 s against 0.40 s at 20 000
// records on a 4-thread host) while the parallel levels did not.
const Row kRows[] = {
    {"sweep_scaling", "Sweep scaling: 4 apps x 6 schemes, by jobs",
     sweepScaling},
    {"hotpath", "Hot-path throughput: simulated writes per host second, "
                "20 apps; ESD/persist_adr is outside the aggregate",
     hotpath},
    {"pipeline_scaling",
     "Pipeline scaling: 8-channel gcc, 6 schemes, by workers",
     pipelineScaling},
    {"trace_ingest", "Trace ingest: decoded records per host second",
     traceIngest},
    {"ecc_codecs",
     "ECC codecs: lines per second and 64-bit fingerprint collisions",
     eccCodecs},
};

std::string
cell(const Value &v)
{
    if (const auto *s = std::get_if<std::string>(&v))
        return *s;
    if (const auto *u = std::get_if<std::uint64_t>(&v))
        return std::to_string(*u);
    double d = std::get<double>(v);
    return TablePrinter::num(d, d >= 1000 ? 0 : 4);
}

void
put(JsonWriter &w, const std::pair<std::string, Value> &field)
{
    w.key(field.first);
    std::visit([&](const auto &v) { w.value(v); }, field.second);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_dir;
    bench::parseBenchArgs(argc, argv, &out_dir);
    if (!out_dir.empty())
        std::filesystem::create_directories(out_dir);
    const auto threads =
        static_cast<std::uint64_t>(std::thread::hardware_concurrency());

    for (const Row &row : kRows) {
        Measured m;
        try {
            m = row.run();
        } catch (const CheckFailed &e) {
            std::cerr << "esd_hostbench: " << row.name << ": " << e.what
                      << "\n";
            return 1;
        }

        std::cout << "==== " << row.name << " ====\n" << row.title << "\n";
        for (const auto &[key, v] : m.size)
            std::cout << key << '=' << cell(v) << ' ';
        std::cout << "host_threads=" << threads << "\n\n";
        std::vector<std::string> headers;
        for (const auto &field : m.items.front())
            headers.push_back(field.first);
        TablePrinter table(headers);
        for (const Fields &item : m.items) {
            std::vector<std::string> cells;
            for (const auto &field : item)
                cells.push_back(cell(field.second));
            table.addRow(cells);
        }
        table.print();
        for (const auto &[key, v] : m.totals)
            std::cout << key << " = " << cell(v) << "\n";
        std::cout << "\n";

        if (out_dir.empty())
            continue;
        std::ostringstream doc;
        JsonWriter w(doc);
        w.beginObject();
        for (const auto &field : m.size)
            put(w, field);
        w.kv("host_threads", threads);
        w.key(m.listKey);
        w.beginArray();
        for (const Fields &item : m.items) {
            w.beginObject();
            for (const auto &field : item)
                put(w, field);
            w.endObject();
        }
        w.endArray();
        for (const auto &field : m.totals)
            put(w, field);
        w.endObject();
        doc << "\n";
        const std::string path = out_dir + "/" + row.name + ".json";
        if (!writeFileAtomic(path, doc.str()))
            esd_fatal("cannot write %s", path.c_str());
    }
    return 0;
}
