/**
 * @file
 * Trace format converter: re-encode an on-disk request trace between
 * the three streaming-frontend formats.
 *
 *   esd_tracecvt -in=trace -out=converted -format=text|gzip|binary
 *                [-payload=B]
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
        "\n"
        "  -in=path      input trace (text, gzip, or binary; format\n"
        "                sniffed from content)\n"
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
    std::string out_path;
    std::string format_str;
    bool payload = true;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("-in=", 0) == 0) {
            in_path = arg.substr(4);
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
    if (in_path.empty() || out_path.empty() || format_str.empty()) {
        usage();
        esd_fatal("need -in=, -out=, and -format=");
    }
    TraceFormat out_format = parseTraceFormat("-format", format_str);
    if (out_format == TraceFormat::Auto)
        esd_fatal("-format: pick an explicit encoding "
                  "(text, gzip, or binary)");

    TraceFormat in_format = detectTraceFormat(in_path);
    std::uint64_t n = convertTrace(in_path, out_path, out_format,
                                   payload);
    std::printf("converted %llu records: %s (%s) -> %s (%s)\n",
                static_cast<unsigned long long>(n), in_path.c_str(),
                traceFormatName(in_format), out_path.c_str(),
                traceFormatName(out_format));
    return 0;
}
