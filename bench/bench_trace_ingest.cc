/**
 * @file
 * Trace-frontend ingest throughput: decoded records per host second
 * for each on-disk format (text, gzip, binary). Like bench_hotpath
 * this measures the *simulator's* speed — it is the before/after
 * yardstick for decoder work and an input to the CI perf gate
 * (scripts/check_perf.py vs bench/baselines/trace_ingest.json).
 *
 * Usage: bench_trace_ingest [-jobs=N]     (-jobs accepted, unused)
 *   ESD_BENCH_RECORDS  trace length in records (default 60000)
 *   ESD_BENCH_REPS     timing repetitions; best rep is reported
 *                      (default 3 — host noise only ever slows a run)
 *   ESD_BENCH_JSON     path: machine-readable {formats} dump (with
 *                      the host's hardware thread count)
 *
 * The decoded stream is digested (record count + an order-sensitive
 * checksum) and cross-checked across reps and formats: a "faster"
 * decoder that drops or reorders records fails loudly.
 *
 * Gzip decode is two threads: the frontend's helper inflates ahead
 * while this thread parses, so the gzip row measures the overlap.
 */

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "common/json.hh"
#include "metrics/report.hh"
#include "trace/trace_capture.hh"
#include "trace/trace_frontend.hh"

namespace
{

using namespace esd;

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

    bool
    operator==(const StreamDigest &o) const
    {
        return records == o.records && hash == o.hash;
    }
};

} // namespace

int
main(int argc, char **argv)
{
    using namespace esd;

    bench::parseBenchArgs(argc, argv);
    bench::printHeader("Trace ingest throughput",
                       "Decoded records per host second, per on-disk "
                       "format");

    const std::uint64_t records = bench::benchRecords();
    const std::uint64_t reps = bench::envOr("ESD_BENCH_REPS", 3);

    std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("esd_ingest_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir);

    // One captured trace re-encoded into each format: every decoder
    // reads the identical record stream.
    struct Fmt
    {
        TraceFormat format;
        const char *name;
        std::string path;
        double bytes = 0;
        double bestS = 0;
        double rps = 0;
    };
    std::vector<Fmt> fmts = {{TraceFormat::Text, "text", {}},
                             {TraceFormat::Gzip, "gzip", {}},
                             {TraceFormat::Binary, "binary", {}}};
    {
        TraceConfig tc;
        std::string base = (dir / "base.trace").string();
        TraceCaptureWriter writer(base, tc);
        SyntheticWorkload synth(findApp("mcf"), 1);
        TraceRecord rec;
        for (std::uint64_t i = 0; i < records; ++i) {
            synth.next(rec);
            writer.write(rec);
        }
        writer.close();
        for (Fmt &f : fmts) {
            f.path = (dir / ("ingest." + std::string(f.name))).string();
            convertTrace(base, f.path, f.format, true);
            f.bytes = static_cast<double>(
                std::filesystem::file_size(f.path));
        }
    }

    StreamDigest want;
    for (Fmt &f : fmts) {
        StreamDigest digest;
        for (std::uint64_t rep = 0; rep < reps; ++rep) {
            StreamDigest d;
            TraceConfig tc;
            TraceFrontend frontend(f.path, tc);
            TraceRecord rec;
            auto t0 = std::chrono::steady_clock::now();
            while (frontend.next(rec))
                d.add(rec);
            double host_s =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
            if (rep == 0) {
                digest = d;
            } else if (!(d == digest)) {
                std::cout << "DETERMINISM VIOLATION: " << f.name
                          << " rep " << rep
                          << " decoded a different stream\n";
                return 1;
            }
            if (f.bestS == 0 || host_s < f.bestS)
                f.bestS = host_s;
        }
        if (digest.records != records) {
            std::cout << "RECORD LOSS: " << f.name << " decoded "
                      << digest.records << " of " << records << "\n";
            return 1;
        }
        // Formats must agree with each other, not just across reps.
        if (want.records == 0) {
            want = digest;
        } else if (!(digest == want)) {
            std::cout << "FORMAT DIVERGENCE: " << f.name
                      << " decoded a different stream than "
                      << fmts[0].name << "\n";
            return 1;
        }
        f.rps = f.bestS > 0 ? static_cast<double>(records) / f.bestS
                            : 0;
    }

    TablePrinter table({"format", "bytes", "best_s", "records/s"});
    for (const Fmt &f : fmts)
        table.addRow({f.name,
                      std::to_string(static_cast<std::uint64_t>(
                          f.bytes)),
                      TablePrinter::num(f.bestS, 4),
                      TablePrinter::num(f.rps, 0)});
    table.print();
    std::cout << "\nbest of " << reps << " reps per format; decoded "
              << "streams cross-checked identical across reps and "
              << "formats\n";

    if (const char *path = std::getenv("ESD_BENCH_JSON");
        path && *path) {
        std::ofstream out(path);
        if (out) {
            JsonWriter w(out);
            w.beginObject();
            w.kv("records", records);
            w.kv("reps", reps);
            w.kv("host_threads", static_cast<std::uint64_t>(
                                     std::thread::hardware_concurrency()));
            w.key("formats");
            w.beginArray();
            for (const Fmt &f : fmts) {
                w.beginObject();
                w.kv("format", f.name);
                w.kv("bytes", f.bytes);
                w.kv("host_s", f.bestS);
                w.kv("records_per_s", f.rps);
                w.endObject();
            }
            w.endArray();
            w.endObject();
            out << "\n";
            std::cerr << "bench: wrote ingest throughput to " << path
                      << "\n";
        }
    }

    std::filesystem::remove_all(dir);
    return 0;
}
