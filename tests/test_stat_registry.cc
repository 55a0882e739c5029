/**
 * @file
 * Tests for the observability primitives in common/: the JSON
 * writer/parser, the stat registry, and LatencyStat.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/json.hh"
#include "common/stat_registry.hh"
#include "common/stats.hh"

namespace esd
{
namespace
{

// ---------------------------------------------------------------- JSON

TEST(JsonWriter, NestedStructure)
{
    std::ostringstream os;
    JsonWriter w(os, /*indent=*/0);
    w.beginObject();
    w.kv("a", 1);
    w.key("b");
    w.beginArray();
    w.value(1.5);
    w.value("x");
    w.nullValue();
    w.endArray();
    w.endObject();
    EXPECT_EQ(os.str(), "{\"a\":1,\"b\":[1.5,\"x\",null]}");
}

TEST(JsonWriter, EscapesControlAndQuotes)
{
    std::ostringstream os;
    JsonWriter w(os, 0);
    w.beginObject();
    w.kv("k", std::string("a\"b\\c\n\t"));
    w.endObject();
    EXPECT_EQ(os.str(), "{\"k\":\"a\\\"b\\\\c\\n\\t\"}");
}

TEST(JsonWriter, NonFiniteBecomesNull)
{
    std::ostringstream os;
    JsonWriter w(os, 0);
    w.beginObject();
    w.kv("inf", std::numeric_limits<double>::infinity());
    w.endObject();
    EXPECT_EQ(os.str(), "{\"inf\":null}");
}

TEST(JsonParser, ParsesWriterOutput)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.kv("n", 42);
    w.kv("s", "hi");
    w.kv("f", true);
    w.key("arr");
    w.beginArray();
    w.value(1);
    w.value(2);
    w.endArray();
    w.endObject();

    JsonValue v;
    std::string err;
    ASSERT_TRUE(tryParseJson(os.str(), v, &err)) << err;
    ASSERT_TRUE(v.isObject());
    EXPECT_EQ(v.find("n")->number, 42);
    EXPECT_EQ(v.find("s")->str, "hi");
    EXPECT_TRUE(v.find("f")->boolean);
    ASSERT_TRUE(v.find("arr")->isArray());
    EXPECT_EQ(v.find("arr")->array.size(), 2u);
}

TEST(JsonParser, RejectsMalformedInput)
{
    JsonValue v;
    std::string err;
    EXPECT_FALSE(tryParseJson("{\"a\": }", v, &err));
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(tryParseJson("[1, 2", v));
    EXPECT_FALSE(tryParseJson("{\"a\":1} trailing", v));
    EXPECT_FALSE(tryParseJson("", v));
}

// -------------------------------------------------------- StatRegistry

TEST(StatRegistry, ReadsLiveCounterAndGaugeValues)
{
    Counter c;
    double g = 1.0;
    StatRegistry reg;
    reg.addCounter("scheme.writes", c, "logical writes");
    reg.addGauge("scheme.rate", [&g] { return g; });

    EXPECT_EQ(reg.scalar("scheme.writes"), 0.0);
    c.inc(3);
    g = 0.5;
    EXPECT_EQ(reg.scalar("scheme.writes"), 3.0);
    EXPECT_EQ(reg.scalar("scheme.rate"), 0.5);

    ASSERT_NE(reg.find("scheme.writes"), nullptr);
    EXPECT_EQ(reg.find("scheme.writes")->desc, "logical writes");
    EXPECT_EQ(reg.find("missing"), nullptr);
    EXPECT_TRUE(reg.has("scheme.rate"));
}

TEST(StatRegistry, ScalarNamesExcludeLatencyStats)
{
    Counter c;
    LatencyStat lat;
    StatRegistry reg;
    reg.addCounter("a.count", c);
    reg.addLatency("a.latency", lat);
    reg.addGauge("a.gauge", [] { return 1.0; });

    auto names = reg.scalarNames();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "a.count");
    EXPECT_EQ(names[1], "a.gauge");
    EXPECT_EQ(reg.scalarValues().size(), 2u);
}

TEST(StatRegistryDeathTest, DuplicateNamePanics)
{
    Counter c;
    StatRegistry reg;
    reg.addCounter("dup.name", c);
    EXPECT_DEATH(reg.addCounter("dup.name", c),
                 "duplicate stat registration");
}

TEST(StatRegistry, JsonRoundTrip)
{
    Counter c;
    c.inc(7);
    LatencyStat lat;
    for (double v : {10.0, 20.0, 30.0, 40.0})
        lat.sample(v);

    StatRegistry reg;
    reg.addCounter("z.counter", c);
    reg.addGauge("a.gauge", [] { return 2.5; });
    reg.addLatency("m.latency", lat);

    std::ostringstream os;
    JsonWriter w(os);
    reg.writeJson(w);

    JsonValue v;
    std::string err;
    ASSERT_TRUE(tryParseJson(os.str(), v, &err)) << err;
    ASSERT_TRUE(v.isObject());

    // Name-sorted output.
    ASSERT_EQ(v.object.size(), 3u);
    EXPECT_EQ(v.object[0].first, "a.gauge");
    EXPECT_EQ(v.object[1].first, "m.latency");
    EXPECT_EQ(v.object[2].first, "z.counter");

    EXPECT_EQ(v.find("z.counter")->number, 7.0);
    EXPECT_EQ(v.find("a.gauge")->number, 2.5);

    const JsonValue *l = v.find("m.latency");
    ASSERT_TRUE(l->isObject());
    EXPECT_EQ(l->find("count")->number, 4.0);
    EXPECT_EQ(l->find("mean")->number, 25.0);
    EXPECT_EQ(l->find("min")->number, 10.0);
    EXPECT_EQ(l->find("max")->number, 40.0);
    ASSERT_NE(l->find("p50"), nullptr);
    ASSERT_NE(l->find("p99"), nullptr);
}

// --------------------------------------------------- LatencyStat extras

TEST(LatencyStat, MinMaxAreExactAfterManySamples)
{
    LatencyStat s;
    for (int i = 1; i <= 1000; ++i)
        s.sample(i);
    EXPECT_EQ(s.min(), 1.0);
    EXPECT_EQ(s.max(), 1000.0);
    EXPECT_EQ(s.count(), 1000u);
    EXPECT_DOUBLE_EQ(s.mean(), 500.5);
    s.reset();
    EXPECT_EQ(s.min(), 0.0);
    EXPECT_EQ(s.max(), 0.0);
    EXPECT_EQ(s.count(), 0u);
}

TEST(LatencyStat, UncappedKeepsEverySampleWhenOptedIn)
{
    LatencyStat s;
    s.enableRawSamples();
    for (int i = 0; i < 5000; ++i)
        s.sample(i);
    EXPECT_EQ(s.samples().size(), 5000u);
}

TEST(LatencyStat, RawSamplesAreOffByDefault)
{
    LatencyStat s;
    EXPECT_FALSE(s.rawSamplesEnabled());
    for (int i = 1; i <= 100; ++i)
        s.sample(i);
    // No raw storage, yet the summary and percentiles stay exact.
    EXPECT_TRUE(s.samples().empty());
    EXPECT_EQ(s.count(), 100u);
    EXPECT_DOUBLE_EQ(s.percentile(50), 50.0);
    EXPECT_DOUBLE_EQ(s.percentile(99), 99.0);
}

TEST(LatencyStatDeathTest, CapAfterSamplesPanics)
{
    LatencyStat s;
    s.sample(1.0);
    EXPECT_DEATH(s.enableRawSamples(), "assertion failed");
}

} // namespace
} // namespace esd
