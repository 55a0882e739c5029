/**
 * @file
 * Bring-your-own-trace workflow, mirroring the artifact appendix:
 * generate a trace file in the documented text format with the capture
 * writer, stream it back through the trace frontend (which also reads
 * gzip'd and binary traces), and replay it through a selected scheme.
 *
 *   ./custom_trace [scheme 0..3|name] [trace-path]
 *
 * When the trace file does not exist it is first synthesised from the
 * "wrf" profile so the example is self-contained.
 */

#include <cstdlib>
#include <filesystem>
#include <iostream>

#include "core/simulator.hh"
#include "metrics/report.hh"
#include "trace/trace_capture.hh"
#include "trace/trace_frontend.hh"
#include "trace/workloads.hh"

int
main(int argc, char **argv)
{
    using namespace esd;

    SchemeKind kind =
        argc > 1 ? parseSchemeKind(argv[1]) : SchemeKind::Esd;
    std::string path = argc > 2 ? argv[2] : "esd_example_trace.txt";

    if (!std::filesystem::exists(path)) {
        std::cout << "synthesising " << path << " from the wrf profile\n";
        SyntheticWorkload w(findApp("wrf"), 42);
        TraceCaptureWriter writer(path, TraceConfig{});
        TraceRecord rec;
        for (int i = 0; i < 20000; ++i) {
            w.next(rec);
            writer.write(rec);
        }
    }

    std::cout << "replaying " << path << " under " << schemeName(kind)
              << "\n";
    SimConfig cfg;
    TraceFrontend reader(path, cfg.trace);
    RunResult r = runWorkload(cfg, kind, reader, /*records=*/0,
                              /*warmup=*/0);

    TablePrinter t({"metric", "value"});
    t.addRow({"records", std::to_string(r.records)});
    t.addRow({"writes / reads", std::to_string(r.logicalWrites) + " / " +
                                    std::to_string(r.logicalReads)});
    t.addRow({"write reduction", TablePrinter::pct(r.writeReduction())});
    t.addRow({"mean write latency",
              TablePrinter::num(r.writeLatency.mean(), 1) + " ns"});
    t.addRow({"mean read latency",
              TablePrinter::num(r.readLatency.mean(), 1) + " ns"});
    t.addRow({"energy", TablePrinter::num(r.energy.total() / 1e6, 2) +
                            " uJ"});
    t.print();

    std::cout << "\ntrace format: '<W|R> <hex addr> [<128 hex data>] "
                 "<icount>' per line; '#' comments\n";
    return 0;
}
