/**
 * @file
 * Causal span tracing of the write pipeline and the PCM device.
 *
 * Where the phase profiler answers "how much host time went into each
 * phase overall", the span trace answers "where did *this* write's
 * simulated nanoseconds go": every admitted logical write emits a
 * parent span on the write-pipeline track with child slices for the
 * Fig. 17 phases (fingerprint, metadata, fp NVMM lookup,
 * read-for-compare, encrypt, line write), carrying the fp/EFIT/compare
 * verdicts as args so a dedup miss can be chased visually; every
 * admitted device access emits a span on its memory channel's track
 * (service window, preceded by a wpq_wait span when the bank queued
 * it, or an instant marker when the WPQ coalesced it away).
 *
 * Timestamps are simulated ns, so traces are deterministic. The
 * buffer is bounded (spans past the cap are counted, not stored) and
 * admission is sampled ([telemetry] span_sample_every), making
 * full-rate tracing an explicit opt-in. Detached — the default — every
 * instrumentation site is a single null-pointer test.
 *
 * writeChromeJson() emits the Chrome trace-event JSON flavor that
 * chrome://tracing and Perfetto load directly: one process per
 * simulator, one thread ("track") per lane, "X" complete events with
 * microsecond timestamps.
 */

#ifndef ESD_METRICS_SPAN_TRACE_HH
#define ESD_METRICS_SPAN_TRACE_HH

#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace esd
{

class JsonWriter;

/** Bounded, sampled collector of simulated-time spans. */
class SpanTrace
{
  public:
    /** Track (Chrome "tid") of the logical write pipeline. */
    static constexpr std::uint32_t kPipelineTrack = 0;

    /** Track of memory channel @p ch. */
    static std::uint32_t
    channelTrack(unsigned ch)
    {
        return 1 + ch;
    }

    /** One span argument; @p quoted selects JSON string vs number. */
    struct Arg
    {
        std::string key;
        std::string value;
        bool quoted = false;
    };

    static Arg
    num(const std::string &key, std::uint64_t v)
    {
        return Arg{key, std::to_string(v), false};
    }

    static Arg
    str(const std::string &key, std::string v)
    {
        return Arg{key, std::move(v), true};
    }

    /** Hex-rendered numeric arg (addresses, fingerprints). */
    static Arg
    hex(const std::string &key, std::uint64_t v)
    {
        char buf[24];
        std::snprintf(buf, sizeof(buf), "0x%llx",
                      static_cast<unsigned long long>(v));
        return Arg{key, buf, true};
    }

    /** Retained spans per simulator in esd_sim exports. */
    static constexpr std::size_t kExportCapacity = 1u << 20;

    /**
     * @param capacity     max retained spans; excess is dropped (and
     *                     counted) rather than wrapped, keeping the
     *                     run's leading window
     * @param sample_every admit every Nth write / device access
     *                     (1 = everything)
     */
    SpanTrace(std::size_t capacity, std::uint64_t sample_every)
        : capacity_(capacity),
          sampleEvery_(sample_every ? sample_every : 1)
    {
    }

    /** Admission test for the next logical write (own sample stream). */
    bool
    admitWrite()
    {
        return (writeSeq_++ % sampleEvery_) == 0;
    }

    /** Admission test for the next device access (own stream, so
     * channel tracks stay populated at the same sampling rate). */
    bool
    admitAccess()
    {
        return (accessSeq_++ % sampleEvery_) == 0;
    }

    /** Record a complete span of @p dur ns starting at @p ts. */
    void
    span(std::uint32_t track, const char *name, Tick ts, Tick dur,
         std::vector<Arg> args = {})
    {
        push(track, name, ts, dur, false, std::move(args));
    }

    /** Record an instant marker at @p ts. */
    void
    instant(std::uint32_t track, const char *name, Tick ts,
            std::vector<Arg> args = {})
    {
        push(track, name, ts, 0, true, std::move(args));
    }

    std::size_t capacity() const { return capacity_; }

    /** Spans retained. */
    std::size_t size() const { return spans_.size(); }

    /** Spans lost to the capacity bound. */
    std::uint64_t dropped() const { return dropped_; }

    /** Spans ever offered (retained + dropped). */
    std::uint64_t totalRecorded() const
    {
        return spans_.size() + dropped_;
    }

    void
    clear()
    {
        spans_.clear();
        dropped_ = 0;
        writeSeq_ = 0;
        accessSeq_ = 0;
    }

    /**
     * Emit the Chrome trace-event / Perfetto JSON document of
     * @p traces, one per simulator in shard order. One trace is
     * process 1, named "esd_sim"; several are processes 1 + s, named
     * "shard s", each with its own tracks. otherData sums the recorded
     * and dropped counts.
     */
    static void writeChromeJson(std::ostream &os,
                                const std::vector<const SpanTrace *> &traces);

  private:
    struct Span
    {
        const char *name;
        std::uint32_t track;
        Tick ts;
        Tick dur;
        bool instant;
        std::vector<Arg> args;
    };

    /** This trace's events as Chrome process @p pid named @p name. */
    void writeProcess(JsonWriter &w, std::uint64_t pid,
                      const std::string &name) const;

    void
    push(std::uint32_t track, const char *name, Tick ts, Tick dur,
         bool instant, std::vector<Arg> args)
    {
        if (spans_.size() >= capacity_) {
            ++dropped_;
            return;
        }
        spans_.push_back(
            Span{name, track, ts, dur, instant, std::move(args)});
    }

    std::size_t capacity_;
    std::uint64_t sampleEvery_;
    std::uint64_t writeSeq_ = 0;
    std::uint64_t accessSeq_ = 0;
    std::uint64_t dropped_ = 0;
    std::vector<Span> spans_;
};

} // namespace esd

#endif // ESD_METRICS_SPAN_TRACE_HH
