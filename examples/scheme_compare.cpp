/**
 * @file
 * Side-by-side comparison of the four schemes on one application —
 * the interactive equivalent of the artifact's run.sh (0: Baseline,
 * 1: Tra_sha1, 2: DeWrite, 3: ESD).
 *
 *   ./scheme_compare [app] [records]
 */

#include <cstdlib>
#include <iostream>

#include "core/simulator.hh"
#include "metrics/report.hh"
#include "trace/workloads.hh"

int
main(int argc, char **argv)
{
    using namespace esd;

    std::string app = argc > 1 ? argv[1] : "deepsjeng";
    std::uint64_t records =
        argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 100000;

    SimConfig cfg;
    cfg.pcm.banksPerChannel = 4;

    std::cout << "app: " << app << "  records: " << records << "\n\n";

    TablePrinter t({"scheme", "write-red", "wlat(ns)", "p99-w(ns)",
                    "rlat(ns)", "IPC", "energy(uJ)", "meta(KB)"});

    double base_wlat = 0, base_rlat = 0, base_ipc = 0;
    for (SchemeKind k : allSchemeKinds()) {
        SyntheticWorkload trace(findApp(app), 1);
        RunResult r = runWorkload(cfg, k, trace, records, records / 5);
        if (k == SchemeKind::Baseline) {
            base_wlat = r.writeLatency.mean();
            base_rlat = r.readLatency.mean();
            base_ipc = r.ipc;
        }
        t.addRow({r.schemeName, TablePrinter::pct(r.writeReduction()),
                  TablePrinter::num(r.writeLatency.mean(), 1),
                  TablePrinter::num(r.writeLatency.percentile(99), 0),
                  TablePrinter::num(r.readLatency.mean(), 1),
                  TablePrinter::num(r.ipc, 3),
                  TablePrinter::num(r.energy.total() / 1e6, 1),
                  TablePrinter::num(r.metadataNvmBytes / 1024.0, 1)});
        if (k != SchemeKind::Baseline && base_wlat > 0) {
            std::cout << "  " << r.schemeName << " vs Baseline:  write "
                      << TablePrinter::num(
                             base_wlat / r.writeLatency.mean(), 2)
                      << "x  read "
                      << TablePrinter::num(
                             base_rlat / r.readLatency.mean(), 2)
                      << "x  IPC "
                      << TablePrinter::num(r.ipc / base_ipc, 2) << "x\n";
        }
    }
    std::cout << "\n";
    t.print();
    return 0;
}
