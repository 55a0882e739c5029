/**
 * @file
 * End-to-end observability tests: a real simulated run must produce a
 * parseable stats-JSON report with entries from every layer (scheme,
 * EFIT, metadata caches, PCM banks), interval snapshots, and a JSONL
 * event trace whose records carry the EFIT outcome and bank queue
 * wait — the `esd_sim -stats-json= -trace-out=` contract.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/json.hh"
#include "common/write_trace.hh"
#include "core/run_report.hh"
#include "core/simulator.hh"
#include "metrics/prometheus.hh"
#include "metrics/span_trace.hh"
#include "trace/workloads.hh"

namespace esd
{
namespace
{

SimConfig
fastConfig()
{
    SimConfig cfg;
    cfg.pcm.banksPerChannel = 4;
    return cfg;
}

TEST(Observability, StatsReportCoversEveryLayer)
{
    SimConfig cfg = fastConfig();
    Simulator sim(cfg, SchemeKind::Esd);
    sim.enableIntervalSampling(1000);

    SyntheticWorkload trace(findApp("gcc"), 1);
    RunResult r = sim.run(trace, 20000, 2000);

    std::ostringstream os;
    writeStatsReport(os, cfg, r, sim.statRegistry(), &sim.sampler());

    JsonValue doc;
    std::string err;
    ASSERT_TRUE(tryParseJson(os.str(), doc, &err)) << err;

    // Top-level sections.
    for (const char *k : {"config", "result", "stats", "intervals"})
        ASSERT_NE(doc.find(k), nullptr) << k;

    // Config round-trips key parameters.
    const JsonValue *pcm = doc.find("config")->find("pcm");
    ASSERT_NE(pcm, nullptr);
    EXPECT_EQ(pcm->find("write_latency")->number, 150.0);

    // Result mirrors the RunResult.
    const JsonValue *res = doc.find("result");
    EXPECT_EQ(res->find("scheme")->str, "ESD");
    EXPECT_EQ(res->find("records")->number,
              static_cast<double>(r.records));
    EXPECT_GT(res->find("write_latency")->find("count")->number, 0.0);

    // Stats carry hierarchically named entries from every layer.
    const JsonValue *stats = doc.find("stats");
    ASSERT_TRUE(stats->isObject());
    for (const char *name :
         {"scheme.logical_writes", "scheme.dedup_hits",
          "scheme.write_latency", "esd.efit.hits", "esd.efit.occupancy",
          "cache.amt.hit_rate", "pcm.writes", "pcm.bank0.writes",
          "pcm.bank3.queue_wait_ns"})
        ASSERT_NE(stats->find(name), nullptr) << name;

    EXPECT_EQ(stats->find("scheme.logical_writes")->number,
              static_cast<double>(r.logicalWrites));

    // Interval snapshots: rows sampled every 1000 measured writes.
    const JsonValue *iv = doc.find("intervals");
    EXPECT_EQ(iv->find("every_writes")->number, 1000.0);
    ASSERT_GT(iv->find("rows")->array.size(), 0u);
    EXPECT_EQ(iv->find("columns")->array.size(),
              iv->find("rows")->array[0].array.size());
}

TEST(Observability, EventTraceRecordsCarryEfitOutcomeAndQueueWait)
{
    SimConfig cfg = fastConfig();
    Simulator sim(cfg, SchemeKind::Esd);
    WriteEventTrace events(4096);
    sim.setEventTrace(&events);

    SyntheticWorkload trace(findApp("deepsjeng"), 1);
    RunResult r = sim.run(trace, 10000, 0);

    // Every logical write produced exactly one event.
    EXPECT_EQ(events.totalRecorded(), r.logicalWrites);
    ASSERT_GT(events.size(), 0u);

    std::ostringstream os;
    events.writeJsonl(os);
    std::istringstream is(os.str());
    std::string line;
    bool saw_hit = false, saw_dedup = false, saw_queue_wait = false;
    while (std::getline(is, line)) {
        JsonValue v;
        std::string err;
        ASSERT_TRUE(tryParseJson(line, v, &err)) << err;
        ASSERT_NE(v.find("efit"), nullptr);
        ASSERT_NE(v.find("queue_ns"), nullptr);
        ASSERT_NE(v.find("bank"), nullptr);
        EXPECT_LT(v.find("bank")->number,
                  cfg.pcm.banksPerChannel * cfg.channels.count);
        saw_hit |= v.find("efit")->str == "hit";
        saw_dedup |= v.find("outcome")->str == "dedup";
        saw_queue_wait |= v.find("queue_ns")->number > 0;
    }
    // A dedup-heavy workload must show EFIT hits and dedup outcomes,
    // and a single-channel config must queue at banks.
    EXPECT_TRUE(saw_hit);
    EXPECT_TRUE(saw_dedup);
    EXPECT_TRUE(saw_queue_wait);
}

TEST(Observability, DetachedTraceRecordsNothing)
{
    SimConfig cfg = fastConfig();
    Simulator sim(cfg, SchemeKind::Esd);
    WriteEventTrace events(64);
    sim.setEventTrace(&events);
    sim.setEventTrace(nullptr);

    SyntheticWorkload trace(findApp("gcc"), 1);
    sim.run(trace, 2000, 0);
    EXPECT_EQ(events.totalRecorded(), 0u);
}

TEST(Observability, EverySchemeEmitsOneEventPerWrite)
{
    for (SchemeKind k :
         {SchemeKind::Baseline, SchemeKind::DedupSha1, SchemeKind::DeWrite,
          SchemeKind::Esd, SchemeKind::EsdFull, SchemeKind::EsdPlus}) {
        SimConfig cfg = fastConfig();
        Simulator sim(cfg, k);
        WriteEventTrace events(1 << 14);
        sim.setEventTrace(&events);
        SyntheticWorkload trace(findApp("gcc"), 1);
        RunResult r = sim.run(trace, 5000, 0);
        EXPECT_EQ(events.totalRecorded(), r.logicalWrites)
            << schemeName(k);
    }
}

TEST(Observability, RegistryNamesAreUniquePerScheme)
{
    // Constructing a Simulator registers every component; a duplicate
    // name would panic in the constructor.
    for (SchemeKind k :
         {SchemeKind::Baseline, SchemeKind::DedupSha1, SchemeKind::DeWrite,
          SchemeKind::Esd, SchemeKind::EsdFull, SchemeKind::EsdPlus}) {
        Simulator sim(fastConfig(), k);
        EXPECT_GT(sim.statRegistry().size(), 0u) << schemeName(k);
    }
}

TEST(Observability, StatsStayLiveAcrossMeasurementReset)
{
    // The registry holds references; resetStats() assigns in place, so
    // a warmed-up run's registry must match the RunResult, not the
    // pre-warmup totals.
    SimConfig cfg = fastConfig();
    Simulator sim(cfg, SchemeKind::Esd);
    SyntheticWorkload trace(findApp("gcc"), 1);
    RunResult r = sim.run(trace, 20000, 10000);

    const StatRegistry &reg = sim.statRegistry();
    EXPECT_EQ(reg.scalar("scheme.logical_writes"),
              static_cast<double>(r.logicalWrites));
    EXPECT_EQ(reg.scalar("scheme.dedup_hits"),
              static_cast<double>(r.dedupHits));
    EXPECT_EQ(reg.scalar("pcm.writes"),
              static_cast<double>(r.nvmWritesTotal));
}

TEST(SpanTrace, CapacityBoundsAndSamplingStreams)
{
    SpanTrace spans(/*capacity=*/2, /*sample_every=*/2);
    // Independent admission streams: writes and accesses each admit
    // their own every-2nd event.
    EXPECT_TRUE(spans.admitWrite());
    EXPECT_FALSE(spans.admitWrite());
    EXPECT_TRUE(spans.admitAccess());
    EXPECT_FALSE(spans.admitAccess());
    EXPECT_TRUE(spans.admitWrite());

    spans.span(SpanTrace::kPipelineTrack, "a", 0, 10);
    spans.span(SpanTrace::kPipelineTrack, "b", 10, 10);
    spans.span(SpanTrace::kPipelineTrack, "c", 20, 10);  // over cap
    EXPECT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans.dropped(), 1u);
    EXPECT_EQ(spans.totalRecorded(), 3u);

    spans.clear();
    EXPECT_EQ(spans.size(), 0u);
    EXPECT_EQ(spans.dropped(), 0u);
    EXPECT_TRUE(spans.admitWrite());  // streams restart after clear
}

TEST(SpanTrace, ChromeJsonIsValidTraceEventFormat)
{
    SpanTrace spans(64, 1);
    spans.span(SpanTrace::kPipelineTrack, "write", 100, 250,
               {SpanTrace::str("outcome", "dedup"),
                SpanTrace::hex("fp", 0xabcd),
                SpanTrace::num("bank", 3)});
    spans.span(SpanTrace::channelTrack(0), "read", 120, 75);
    spans.instant(SpanTrace::channelTrack(1), "coalesced", 130);

    std::ostringstream os;
    SpanTrace::writeChromeJson(os, {&spans});

    JsonValue doc;
    std::string err;
    ASSERT_TRUE(tryParseJson(os.str(), doc, &err)) << err;

    const JsonValue *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());

    // Metadata: process name + one thread_name per used track.
    std::size_t meta = 0, complete = 0, instants = 0;
    for (const JsonValue &e : events->array) {
        const std::string &ph = e.find("ph")->str;
        if (ph == "M") {
            ++meta;
        } else if (ph == "X") {
            ++complete;
            ASSERT_NE(e.find("dur"), nullptr);
        } else if (ph == "i") {
            ++instants;
        }
    }
    EXPECT_EQ(meta, 4u);  // process_name + 3 thread_names
    EXPECT_EQ(complete, 2u);
    EXPECT_EQ(instants, 1u);

    // The parent span round-trips its args; ts is us (ns / 1000).
    const JsonValue *write = nullptr;
    for (const JsonValue &e : events->array)
        if (e.find("name")->str == "write")
            write = &e;
    ASSERT_NE(write, nullptr);
    EXPECT_DOUBLE_EQ(write->find("ts")->number, 0.1);
    EXPECT_DOUBLE_EQ(write->find("dur")->number, 0.25);
    const JsonValue *args = write->find("args");
    ASSERT_NE(args, nullptr);
    EXPECT_EQ(args->find("outcome")->str, "dedup");
    EXPECT_EQ(args->find("fp")->str, "0xabcd");
    EXPECT_DOUBLE_EQ(args->find("bank")->number, 3.0);
}

TEST(SpanTrace, SimulatorRunEmitsPipelineAndChannelSpans)
{
    SimConfig cfg = fastConfig();
    cfg.channels.count = 2;
    // ECC fingerprints are free by default (the paper's Section III-C
    // assumption); give them a visible cost so the "fingerprint"
    // child slice is emitted deterministically.
    cfg.crypto.eccLatency = 4;
    Simulator sim(cfg, SchemeKind::Esd);

    SpanTrace spans(1u << 16, 1);
    sim.setSpanTrace(&spans);

    SyntheticWorkload trace(findApp("lbm"), 1);
    sim.run(trace, 5000, 500);
    ASSERT_GT(spans.size(), 0u);

    std::ostringstream os;
    SpanTrace::writeChromeJson(os, {&spans});
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(tryParseJson(os.str(), doc, &err)) << err;

    // Both the pipeline track and at least one channel track emitted,
    // and the pipeline carries the phase child slices.
    bool pipeline = false, channel = false, slice = false;
    for (const JsonValue &e : doc.find("traceEvents")->array) {
        if (e.find("ph")->str != "X")
            continue;
        double tid = e.find("tid")->number;
        if (tid == 0.0)
            pipeline = true;
        else
            channel = true;
        if (e.find("name")->str == "fingerprint")
            slice = true;
    }
    EXPECT_TRUE(pipeline);
    EXPECT_TRUE(channel);
    EXPECT_TRUE(slice);
}

TEST(Prometheus, NameSanitization)
{
    EXPECT_EQ(prometheusName("pcm.ch0.reads"), "esd_pcm_ch0_reads");
    EXPECT_EQ(prometheusName("scheme.write_latency"),
              "esd_scheme_write_latency");
    EXPECT_EQ(prometheusName("weird-name+x"), "esd_weird_name_x");
}

TEST(Prometheus, TextExpositionCoversEveryKind)
{
    StatRegistry reg;
    Counter hits;
    hits.inc(42);
    reg.addCounter("scheme.dedup_hits", hits, "writes eliminated");
    reg.addGauge("scheme.dedup_rate", [] { return 0.5; });
    LatencyStat lat;
    for (int i = 1; i <= 100; ++i)
        lat.sample(i);
    reg.addLatency("scheme.write_latency", lat);

    std::ostringstream os;
    writePrometheusText(os, {&reg});
    std::string text = os.str();

    EXPECT_NE(text.find("# TYPE esd_scheme_dedup_hits counter"),
              std::string::npos);
    EXPECT_NE(text.find("# HELP esd_scheme_dedup_hits "
                        "writes eliminated"),
              std::string::npos);
    EXPECT_NE(text.find("esd_scheme_dedup_hits 42"), std::string::npos);
    EXPECT_NE(text.find("# TYPE esd_scheme_dedup_rate gauge"),
              std::string::npos);
    EXPECT_NE(text.find("esd_scheme_dedup_rate 0.5"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE esd_scheme_write_latency summary"),
              std::string::npos);
    // Exact-histogram quantiles: p50 of 1..100 is exactly 50.
    EXPECT_NE(text.find("esd_scheme_write_latency{quantile=\"0.5\"} 50"),
              std::string::npos);
    EXPECT_NE(text.find("esd_scheme_write_latency_count 100"),
              std::string::npos);
    EXPECT_NE(text.find("esd_scheme_write_latency_sum 5050"),
              std::string::npos);
}

TEST(Prometheus, OneRegistryPageIsExact)
{
    StatRegistry reg;
    Counter writes;
    writes.inc(7);
    reg.addCounter("pcm.writes", writes, "device writes");
    reg.addGauge("esd.rate", [] { return 0.25; });
    LatencyStat lat;
    for (int i = 1; i <= 4; ++i)
        lat.sample(10 * i);
    reg.addLatency("scheme.write_latency", lat, "write\nlatency");

    std::ostringstream os;
    writePrometheusText(os, {&reg});
    EXPECT_EQ(os.str(),
              "# TYPE esd_esd_rate gauge\n"
              "esd_esd_rate 0.25\n"
              "# HELP esd_pcm_writes device writes\n"
              "# TYPE esd_pcm_writes counter\n"
              "esd_pcm_writes 7\n"
              "# HELP esd_scheme_write_latency write\\nlatency\n"
              "# TYPE esd_scheme_write_latency summary\n"
              "esd_scheme_write_latency{quantile=\"0.5\"} 20\n"
              "esd_scheme_write_latency{quantile=\"0.9\"} 40\n"
              "esd_scheme_write_latency{quantile=\"0.99\"} 40\n"
              "esd_scheme_write_latency_sum 100\n"
              "esd_scheme_write_latency_count 4\n");
}

TEST(Prometheus, ShardedPageLabelsSamplesInShardOrder)
{
    // Shard 1 carries an extra stat, so the page is the union of the
    // registries' names with each sample labelled by its shard.
    StatRegistry reg0, reg1;
    Counter w0, w1, extra;
    w0.inc(3);
    w1.inc(5);
    extra.inc(9);
    reg0.addCounter("pcm.writes", w0, "device writes");
    reg1.addCounter("pcm.writes", w1, "device writes");
    reg1.addCounter("pcm.retries", extra);
    LatencyStat l0, l1;
    l0.sample(8);
    l1.sample(16);
    l1.sample(16);
    reg0.addLatency("scheme.write_latency", l0);
    reg1.addLatency("scheme.write_latency", l1);

    std::ostringstream os;
    writePrometheusText(os, {&reg0, &reg1});
    EXPECT_EQ(os.str(),
              "# TYPE esd_pcm_retries counter\n"
              "esd_pcm_retries{shard=\"1\"} 9\n"
              "# HELP esd_pcm_writes device writes\n"
              "# TYPE esd_pcm_writes counter\n"
              "esd_pcm_writes{shard=\"0\"} 3\n"
              "esd_pcm_writes{shard=\"1\"} 5\n"
              "# TYPE esd_scheme_write_latency summary\n"
              "esd_scheme_write_latency{shard=\"0\",quantile=\"0.5\"} 8\n"
              "esd_scheme_write_latency{shard=\"0\",quantile=\"0.9\"} 8\n"
              "esd_scheme_write_latency{shard=\"0\",quantile=\"0.99\"} 8\n"
              "esd_scheme_write_latency_sum{shard=\"0\"} 8\n"
              "esd_scheme_write_latency_count{shard=\"0\"} 1\n"
              "esd_scheme_write_latency{shard=\"1\",quantile=\"0.5\"} 16\n"
              "esd_scheme_write_latency{shard=\"1\",quantile=\"0.9\"} 16\n"
              "esd_scheme_write_latency{shard=\"1\",quantile=\"0.99\"} 16\n"
              "esd_scheme_write_latency_sum{shard=\"1\"} 32\n"
              "esd_scheme_write_latency_count{shard=\"1\"} 2\n");
}

TEST(SpanTrace, ShardedChromeJsonHasOneProcessPerShard)
{
    SpanTrace a(1, 1), b(8, 1);
    a.span(SpanTrace::kPipelineTrack, "write", 0, 10);
    a.span(SpanTrace::kPipelineTrack, "write", 10, 10);  // dropped
    b.span(SpanTrace::channelTrack(1), "read", 5, 10);

    std::ostringstream os;
    SpanTrace::writeChromeJson(os, {&a, &b});
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(tryParseJson(os.str(), doc, &err)) << err;
    const JsonValue *other = doc.find("otherData");
    EXPECT_EQ(other->find("spans_recorded")->number, 3.0);
    EXPECT_EQ(other->find("spans_dropped")->number, 1.0);

    // Shard s is process 1 + s, named, with its own tracks, in order.
    std::vector<std::string> seen;
    for (const JsonValue &e : doc.find("traceEvents")->array) {
        std::string tag = std::to_string(
                              static_cast<int>(e.find("pid")->number)) +
                          ":" + e.find("name")->str;
        if (const JsonValue *args = e.find("args"))
            tag += ":" + args->find("name")->str;
        seen.push_back(tag);
    }
    EXPECT_EQ(seen, (std::vector<std::string>{
                        "1:process_name:shard 0",
                        "1:thread_name:write-pipeline", "1:write",
                        "2:process_name:shard 1", "2:thread_name:ch1",
                        "2:read"}));
}

} // namespace
} // namespace esd
