/**
 * @file
 * Table I — the system configuration used by every experiment.
 */

#include <iostream>

#include "bench_common.hh"

int
main()
{
    using namespace esd;
    bench::printHeader("Table I", "System configuration parameters");
    std::cout << bench::benchConfig().summary() << "\n";
    std::cout << "Crypto cost model\n"
              << "  SHA-1:          "
              << bench::benchConfig().crypto.sha1Latency << " ns / line\n"
              << "  CRC (DeWrite):  "
              << bench::benchConfig().crypto.crcLatency << " ns / line\n"
              << "  CME apply:      "
              << bench::benchConfig().crypto.encryptLatency
              << " ns / line\n"
              << "  ECC intercept:  "
              << bench::benchConfig().crypto.eccLatency << " ns / line\n";
    return 0;
}
