#include "metrics/span_trace.hh"

#include <algorithm>
#include <cstdio>

#include "common/json.hh"

namespace esd
{

namespace
{

/** Track display name: tid 0 is the write pipeline, tid 1+c is
 * memory channel c. */
std::string
trackName(std::uint32_t track)
{
    if (track == SpanTrace::kPipelineTrack)
        return "write-pipeline";
    return "ch" + std::to_string(track - 1);
}

void
writeEventCommon(JsonWriter &w, const char *name, const char *ph,
                 std::uint64_t pid, std::uint32_t tid, Tick ts_ns)
{
    w.kv("name", name);
    w.kv("cat", "sim");
    w.kv("ph", ph);
    // Trace-event timestamps are microseconds; simulated ns / 1000
    // keeps sub-microsecond spans visible as fractions.
    w.kv("ts", static_cast<double>(ts_ns) / 1000.0);
    w.kv("pid", pid);
    w.kv("tid", static_cast<std::uint64_t>(tid));
}

} // namespace

void
SpanTrace::writeChromeJson(std::ostream &os,
                           const std::vector<const SpanTrace *> &traces)
{
    std::uint64_t recorded = 0, dropped = 0;
    for (const SpanTrace *t : traces) {
        recorded += t->totalRecorded();
        dropped += t->dropped_;
    }

    JsonWriter w(os, /*indent=*/0);
    w.beginObject();
    w.kv("displayTimeUnit", "ns");
    w.key("otherData");
    w.beginObject();
    w.kv("generator", "esd_sim");
    w.kv("clock", "simulated-ns");
    w.kv("spans_recorded", recorded);
    w.kv("spans_dropped", dropped);
    w.kv("sample_every",
         traces.empty() ? std::uint64_t{1} : traces.front()->sampleEvery_);
    w.endObject();

    w.key("traceEvents");
    w.beginArray();
    for (std::size_t s = 0; s < traces.size(); ++s)
        traces[s]->writeProcess(w, 1 + s,
                                traces.size() == 1
                                    ? "esd_sim"
                                    : "shard " + std::to_string(s));
    w.endArray();
    w.endObject();
    os << "\n";
}

void
SpanTrace::writeProcess(JsonWriter &w, std::uint64_t pid,
                        const std::string &name) const
{
    // Tracks actually used, ascending, for thread_name metadata.
    std::vector<std::uint32_t> tracks;
    for (const Span &s : spans_)
        tracks.push_back(s.track);
    std::sort(tracks.begin(), tracks.end());
    tracks.erase(std::unique(tracks.begin(), tracks.end()),
                 tracks.end());

    w.beginObject();
    w.kv("name", "process_name");
    w.kv("ph", "M");
    w.kv("pid", pid);
    w.key("args");
    w.beginObject();
    w.kv("name", name);
    w.endObject();
    w.endObject();

    for (std::uint32_t t : tracks) {
        w.beginObject();
        w.kv("name", "thread_name");
        w.kv("ph", "M");
        w.kv("pid", pid);
        w.kv("tid", static_cast<std::uint64_t>(t));
        w.key("args");
        w.beginObject();
        w.kv("name", trackName(t));
        w.endObject();
        w.endObject();
    }

    for (const Span &s : spans_) {
        w.beginObject();
        if (s.instant) {
            writeEventCommon(w, s.name, "i", pid, s.track, s.ts);
            w.kv("s", "t");  // thread-scoped instant
        } else {
            writeEventCommon(w, s.name, "X", pid, s.track, s.ts);
            w.kv("dur", static_cast<double>(s.dur) / 1000.0);
        }
        if (!s.args.empty()) {
            w.key("args");
            w.beginObject();
            for (const Arg &a : s.args) {
                w.key(a.key);
                if (a.quoted)
                    w.value(a.value);
                else
                    w.rawValue(a.value);
            }
            w.endObject();
        }
        w.endObject();
    }
}

} // namespace esd
