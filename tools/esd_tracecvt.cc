/**
 * @file
 * Trace format converter: re-encode an on-disk request trace between
 * the three streaming-frontend formats, or render one of the 20
 * calibrated application profiles into a trace file that
 * `esd_sim -trace-in=` (alias `-InputFile=`) — or any external tool —
 * can replay.
 *
 *   esd_tracecvt -in=trace -out=converted -format=text|gzip|binary
 *                [-payload=B]
 *   esd_tracecvt -app=<name> [-seed=N] [-records=N] -out=trace
 *                -format=text|gzip|binary [-payload=B]
 *
 * The input format is sniffed from content (never the extension), the
 * output format is whatever -format= says, and the conversion streams
 * record by record in constant memory — a multi-gigabyte trace never
 * materializes in RAM. -payload=false strips line payloads from write
 * records; replay re-synthesizes content deterministically from
 * (address, write index), so a stripped trace still replays
 * bit-identically against a capture that was stripped the same way.
 */

#include <cstdio>

#include "common/cli_flags.hh"
#include "common/config_io.hh"
#include "common/logging.hh"
#include "trace/trace_capture.hh"
#include "trace/trace_frontend.hh"
#include "trace/workloads.hh"

namespace
{

using namespace esd;

void
usage()
{
    std::fprintf(
        stderr,
        "usage: esd_tracecvt -in=trace -out=converted\n"
        "                    -format=text|gzip|binary [-payload=B]\n"
        "       esd_tracecvt -app=name [-seed=N] [-records=N] -out=trace\n"
        "                    -format=text|gzip|binary [-payload=B]\n"
        "\n"
        "  -in=path      input trace (text, gzip, or binary; format\n"
        "                sniffed from content)\n"
        "  -app=name     input: the synthetic profile of a paper app\n"
        "  -seed=N       its generator seed (default 1)\n"
        "  -records=N    records to generate (default 100000)\n"
        "  -out=path     output trace, re-encoded\n"
        "  -format=F     output encoding (required)\n"
        "  -payload=B    keep write-line payloads (default true);\n"
        "                false emits address-only records\n");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string in_path;
    std::string app;
    std::uint64_t seed = 1;
    std::uint64_t records = 100000;
    std::string out_path;
    std::string format_str;
    bool payload = true;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("-in=", 0) == 0) {
            in_path = arg.substr(4);
        } else if (arg.rfind("-app=", 0) == 0) {
            app = arg.substr(5);
        } else if (arg.rfind("-seed=", 0) == 0) {
            seed = parseU64("-seed", arg.substr(6));
        } else if (arg.rfind("-records=", 0) == 0) {
            records = parseU64("-records", arg.substr(9));
        } else if (arg.rfind("-out=", 0) == 0) {
            out_path = arg.substr(5);
        } else if (arg.rfind("-format=", 0) == 0) {
            format_str = arg.substr(8);
        } else if (arg.rfind("-payload=", 0) == 0) {
            payload = parseBool("-payload", arg.substr(9));
        } else if (arg == "-h" || arg == "-help" || arg == "--help") {
            usage();
            return 0;
        } else {
            usage();
            esd_fatal("unknown argument '%s'", arg.c_str());
        }
    }
    if ((in_path.empty() && app.empty()) || out_path.empty() ||
        format_str.empty()) {
        usage();
        esd_fatal("need -in=, -out=, and -format= (-app= may replace -in=)");
    }
    if (!in_path.empty() && !app.empty())
        esd_fatal("-in= and -app= are exclusive");
    TraceFormat out_format = parseTraceFormat("-format", format_str);
    if (out_format == TraceFormat::Auto)
        esd_fatal("-format: pick an explicit encoding "
                  "(text, gzip, or binary)");

    if (!app.empty()) {
        SyntheticWorkload w(findApp(app), seed);
        TraceConfig tc;
        tc.format = out_format;
        tc.linePayload = payload;
        TraceCaptureWriter writer(out_path, tc);
        TraceRecord rec;
        for (std::uint64_t i = 0; i < records; ++i) {
            w.next(rec);
            writer.write(rec);
        }
        writer.close();
        std::printf("wrote %llu records of '%s' (seed %llu) to %s (%s)\n",
                    static_cast<unsigned long long>(records), app.c_str(),
                    static_cast<unsigned long long>(seed), out_path.c_str(),
                    traceFormatName(out_format));
        return 0;
    }

    TraceFormat in_format = detectTraceFormat(in_path);
    std::uint64_t n = convertTrace(in_path, out_path, out_format,
                                   payload);
    std::printf("converted %llu records: %s (%s) -> %s (%s)\n",
                static_cast<unsigned long long>(n), in_path.c_str(),
                traceFormatName(in_format), out_path.c_str(),
                traceFormatName(out_format));
    return 0;
}
