/**
 * @file
 * Tests for the key=value configuration parser and renderer.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/config_io.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/stat_registry.hh"
#include "core/run_report.hh"

namespace esd
{
namespace
{

TEST(ConfigIo, ApplyKnownKeys)
{
    SimConfig cfg;
    EXPECT_TRUE(applyConfigKey(cfg, "pcm.read_latency", "99"));
    EXPECT_EQ(cfg.pcm.readLatency, 99u);
    EXPECT_TRUE(applyConfigKey(cfg, "pcm.capacity_gb", "32"));
    EXPECT_EQ(cfg.pcm.capacityBytes, 32ull << 30);
    EXPECT_TRUE(applyConfigKey(cfg, "metadata.use_lrcu", "false"));
    EXPECT_FALSE(cfg.metadata.useLrcu);
    EXPECT_TRUE(applyConfigKey(cfg, "core.clock_ghz", "3.5"));
    EXPECT_DOUBLE_EQ(cfg.core.clockGhz, 3.5);
    EXPECT_TRUE(applyConfigKey(cfg, "metadata.amt_kb", "8192"));
    EXPECT_EQ(cfg.metadata.amtCacheBytes, 8192u << 10);
    EXPECT_TRUE(applyConfigKey(cfg, "seed", "42"));
    EXPECT_EQ(cfg.seed, 42u);
}

TEST(ConfigIo, UnknownKeyRejected)
{
    SimConfig cfg;
    EXPECT_FALSE(applyConfigKey(cfg, "nonsense.key", "1"));
}

TEST(ConfigIo, BooleanSpellings)
{
    SimConfig cfg;
    for (const char *t : {"true", "1", "yes", "on"}) {
        cfg.pcm.readPriority = false;
        EXPECT_TRUE(applyConfigKey(cfg, "pcm.read_priority", t));
        EXPECT_TRUE(cfg.pcm.readPriority) << t;
    }
    for (const char *f : {"false", "0", "no", "off"}) {
        cfg.pcm.readPriority = true;
        EXPECT_TRUE(applyConfigKey(cfg, "pcm.read_priority", f));
        EXPECT_FALSE(cfg.pcm.readPriority) << f;
    }
}

class ConfigFileTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = std::filesystem::temp_directory_path() /
                ("esd_cfg_" + std::to_string(::getpid()) + ".cfg");
    }

    void TearDown() override { std::filesystem::remove(path_); }

    std::filesystem::path path_;
};

TEST_F(ConfigFileTest, LoadOverridesDefaults)
{
    {
        std::ofstream out(path_);
        out << "# a comment\n"
               "\n"
               "pcm.write_latency = 300\n"
               "metadata.efit_kb = 256\n"
               "  crypto.sha1_latency =  500  \n";
    }
    SimConfig cfg;
    loadConfigFile(cfg, path_.string());
    EXPECT_EQ(cfg.pcm.writeLatency, 300u);
    EXPECT_EQ(cfg.metadata.efitCacheBytes, 256u << 10);
    EXPECT_EQ(cfg.crypto.sha1Latency, 500u);
    // Untouched keys keep their Table I defaults.
    EXPECT_EQ(cfg.pcm.readLatency, 75u);
}

TEST_F(ConfigFileTest, RemovedKeysWarnOncePerKey)
{
    // Removed keys are unknown, so an old config file still loads, with
    // one warning per key: no model reads a CPU cache size or an MD5
    // latency, the bank multipliers became pcm.banks_per_channel and
    // the second WPQ depth is pcm.write_queue_depth.
    const char *keys[] = {"cache.l1_kb",        "cache.l2_kb",
                          "cache.l3_kb",        "cache.l1_assoc",
                          "cache.l2_assoc",     "cache.l3_assoc",
                          "pcm.channels",       "pcm.ranks",
                          "pcm.banks",          "channels.wpq_depth",
                          "crypto.md5_latency"};
    {
        std::ofstream out(path_);
        for (const char *k : keys)
            out << k << " = 8\n";
        out << "pcm.read_latency = 80\n";
    }
    SimConfig probe;
    for (const char *k : keys)
        EXPECT_FALSE(applyConfigKey(probe, k, "8")) << k;
    setQuiet(true);
    std::uint64_t warns = warnCount();
    SimConfig cfg;
    loadConfigFile(cfg, path_.string());
    setQuiet(false);
    EXPECT_EQ(warnCount(), warns + std::size(keys));
    EXPECT_EQ(cfg.pcm.readLatency, 80u);
    const std::string rendered = renderConfig(cfg);
    for (const char *k : keys)
        EXPECT_EQ(rendered.find(std::string("\n") + k + " = "),
                  std::string::npos)
            << k;
}

TEST_F(ConfigFileTest, UnknownKeyWarnsButContinues)
{
    {
        std::ofstream out(path_);
        out << "bogus.key = 5\npcm.read_latency = 80\n";
    }
    setQuiet(true);
    std::uint64_t warns = warnCount();
    SimConfig cfg;
    loadConfigFile(cfg, path_.string());
    setQuiet(false);
    EXPECT_EQ(warnCount(), warns + 1);
    EXPECT_EQ(cfg.pcm.readLatency, 80u);
}

TEST_F(ConfigFileTest, EveryKeyRoundTrips)
{
    // One non-default sample per key, spelled as renderConfig() spells
    // it; the size check makes a new key fail here until it gets one.
    // The doubles need more than six significant digits.
    const std::map<std::string, std::string> sample = {
        {"pcm.capacity_gb", "32"},
        {"pcm.read_latency", "80"},
        {"pcm.write_latency", "222"},
        {"pcm.read_energy_pj", "1490.125"},
        {"pcm.write_energy_pj", "6750.0625"},
        {"pcm.banks_per_channel", "32"},
        {"pcm.write_queue_depth", "32"},
        {"pcm.row_buffer_lines", "128"},
        {"pcm.row_hit_read_latency", "20"},
        {"pcm.read_priority", "true"},
        {"pcm.start_gap", "true"},
        {"pcm.gap_move_period", "50"},
        {"pcm.start_gap_region_lines", "4096"},
        {"channels.count", "8"},
        {"channels.wpq_coalescing", "true"},
        {"crypto.sha1_latency", "500"},
        {"crypto.crc_latency", "30"},
        {"crypto.encrypt_latency", "20"},
        {"crypto.compare_latency", "3"},
        {"metadata.efit_kb", "256"},
        {"metadata.amt_kb", "8192"},
        {"metadata.refer_h_max", "77"},
        {"metadata.decay_period", "1024"},
        {"metadata.decay_delta", "2"},
        {"metadata.use_lrcu", "false"},
        {"ras.enabled", "true"},
        {"ras.read_ber", "1.23456789e-07"},
        {"ras.write_ber", "0.5"},
        {"ras.stuck_at_onset_writes", "100"},
        {"ras.stuck_at_per_write", "0.001"},
        {"ras.demand_scrub", "false"},
        {"ras.patrol_interval_writes", "256"},
        {"ras.patrol_lines_per_sweep", "16"},
        {"ras.write_verify_retries", "2"},
        {"ras.write_verify_backoff_ns", "10"},
        {"ras.spare_region_lines", "1024"},
        {"ras.dedup_suspend_ues", "5"},
        {"telemetry.trace_ring_capacity", "777"},
        {"telemetry.span_sample_every", "3"},
        {"telemetry.histogram_buckets", "true"},
        {"ecc.engine", "rs"},
        {"persistence.enabled", "true"},
        {"persistence.domain", "eadr"},
        {"persistence.epoch_writes", "128"},
        {"persistence.checkpoint_epochs", "8"},
        {"persistence.barrier_ns", "45"},
        {"persistence.journal_append_ns", "7"},
        {"persistence.metadata_buffer_records", "512"},
        {"persistence.counter_slack", "3"},
        {"persistence.counter_probe_max", "64"},
        {"persistence.crash_at_write", "4242"},
        {"persistence.crash_phase", "pre_barrier"},
        {"trace.format", "gzip"},
        {"trace.line_payload", "false"},
        {"pipeline.epoch_records", "1024"},
        {"pipeline.sample_epochs", "4"},
        {"core.clock_ghz", "2.0000001"},
        {"core.base_cpi", "1.5"},
        {"seed", "42"},
    };
    // The defaults' rendering lists every key once, in table order.
    std::istringstream defaults(renderConfig(SimConfig{}));
    std::string line;
    std::getline(defaults, line);  // the header comment
    SimConfig cfg;
    std::size_t keys = 0;
    while (std::getline(defaults, line)) {
        std::string key = line.substr(0, line.find(" = "));
        ASSERT_TRUE(sample.count(key)) << key;
        EXPECT_NE(line, key + " = " + sample.at(key)) << key;
        ASSERT_TRUE(applyConfigKey(cfg, key, sample.at(key))) << key;
        ++keys;
    }
    ASSERT_EQ(keys, sample.size());

    const std::string rendered = renderConfig(cfg);
    for (const auto &[key, v] : sample)
        EXPECT_NE(rendered.find("\n" + key + " = " + v + "\n"),
                  std::string::npos)
            << key << " = " << v;
    {
        std::ofstream out(path_);
        out << rendered;
    }
    SimConfig back;
    loadConfigFile(back, path_.string());
    EXPECT_EQ(renderConfig(back), rendered);
}

/** The config key of a renderConfig() line, and whether its section
 * is one the stats report leaves out (an execution setting). */
std::string
lineKey(const std::string &line)
{
    return line.substr(0, line.find(" = "));
}

bool
isExecutionKey(const std::string &key)
{
    for (const char *section : {"telemetry.", "trace.", "pipeline."})
        if (key.rfind(section, 0) == 0)
            return true;
    return false;
}

/** Every line of renderConfig(@p cfg) outside the execution sections. */
std::vector<std::string>
reportedLines(const SimConfig &cfg)
{
    std::istringstream in(renderConfig(cfg));
    std::string line;
    std::getline(in, line);  // the header comment
    std::vector<std::string> out;
    while (std::getline(in, line))
        if (!isExecutionKey(lineKey(line)))
            out.push_back(line);
    return out;
}

TEST(ConfigReport, ConfigBlockIsTheKeyTableAndReloads)
{
    // At least one non-default key in every reported section, plus
    // execution keys that must stay out of the report.
    SimConfig cfg;
    for (const auto &[key, v] : std::vector<std::pair<std::string,
                                                      std::string>>{
             {"pcm.start_gap", "true"},
             {"pcm.start_gap_region_lines", "64"},
             {"pcm.read_energy_pj", "1490.125"},
             {"channels.count", "2"},
             {"crypto.sha1_latency", "500"},
             {"metadata.efit_kb", "256"},
             {"metadata.decay_delta", "3"},
             {"ras.enabled", "true"},
             {"ras.read_ber", "1.23456789e-07"},
             {"ras.write_ber", "0.12345678901234"},
             {"ecc.engine", "bch"},
             {"persistence.enabled", "true"},
             {"persistence.domain", "adr"},
             {"persistence.epoch_writes", "128"},
             {"persistence.crash_phase", "mid_journal"},
             {"core.clock_ghz", "2.0000001"},
             {"seed", "42"},
             {"telemetry.span_sample_every", "3"},
             {"trace.line_payload", "false"},
             {"pipeline.epoch_records", "1024"},
         })
        ASSERT_TRUE(applyConfigKey(cfg, key, v)) << key;

    std::ostringstream os;
    writeStatsReport(os, cfg, RunResult{}, StatRegistry{});
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(tryParseJson(os.str(), doc, &err)) << err;
    const JsonValue *config = doc.find("config");
    ASSERT_NE(config, nullptr);

    // Flatten to `section.key = value` and apply over the defaults.
    std::vector<std::string> reported;
    SimConfig back;
    auto apply = [&](const std::string &key, const JsonValue &v) {
        std::string text = v.str;
        if (v.isNumber()) {
            char buf[32];
            std::snprintf(buf, sizeof buf, "%.17g", v.number);
            text = buf;
        } else if (v.type == JsonValue::Type::Bool) {
            text = v.boolean ? "true" : "false";
        }
        reported.push_back(key);
        EXPECT_TRUE(applyConfigKey(back, key, text)) << key;
    };
    for (const auto &[name, v] : config->object) {
        if (!v.isObject()) {
            apply(name, v);
            continue;
        }
        for (const auto &[key, leaf] : v.object)
            apply(name + "." + key, leaf);
    }

    EXPECT_EQ(reportedLines(back), reportedLines(cfg));

    // The reported keys are exactly the table's non-execution rows, in
    // table order.
    std::vector<std::string> expected;
    for (const std::string &line : reportedLines(cfg))
        expected.push_back(lineKey(line));
    EXPECT_EQ(reported, expected);
    EXPECT_EQ(reported.size(), 52u);
}

TEST_F(ConfigFileTest, RenderRoundTrips)
{
    SimConfig cfg;
    cfg.pcm.writeLatency = 222;
    cfg.metadata.referHMax = 77;
    cfg.core.clockGhz = 2.5;
    {
        std::ofstream out(path_);
        out << renderConfig(cfg);
    }
    SimConfig back;
    loadConfigFile(back, path_.string());
    EXPECT_EQ(back.pcm.writeLatency, 222u);
    EXPECT_EQ(back.metadata.referHMax, 77u);
    EXPECT_DOUBLE_EQ(back.core.clockGhz, 2.5);
    EXPECT_EQ(renderConfig(back), renderConfig(cfg));
}

TEST_F(ConfigFileTest, TelemetryRenderRoundTrips)
{
    SimConfig cfg;
    cfg.telemetry.traceRingCapacity = 777;
    cfg.telemetry.spanSampleEvery = 3;
    cfg.telemetry.histogramBuckets = true;
    {
        std::ofstream out(path_);
        out << renderConfig(cfg);
    }
    SimConfig back;
    loadConfigFile(back, path_.string());
    EXPECT_EQ(back.telemetry.traceRingCapacity, 777u);
    EXPECT_EQ(back.telemetry.spanSampleEvery, 3u);
    EXPECT_TRUE(back.telemetry.histogramBuckets);
    EXPECT_EQ(renderConfig(back), renderConfig(cfg));
}

TEST_F(ConfigFileTest, ChannelRoundTrips)
{
    SimConfig cfg;
    cfg.channels.count = 8;
    cfg.channels.wpqCoalescing = true;
    {
        std::ofstream out(path_);
        out << renderConfig(cfg);
    }
    SimConfig back;
    loadConfigFile(back, path_.string());
    EXPECT_EQ(back.channels.count, 8u);
    EXPECT_TRUE(back.channels.wpqCoalescing);
    EXPECT_EQ(renderConfig(back), renderConfig(cfg));
}

TEST_F(ConfigFileTest, RasRoundTrips)
{
    SimConfig cfg;
    cfg.ras.enabled = true;
    cfg.ras.readBer = 1e-7;
    cfg.ras.patrolIntervalWrites = 256;
    cfg.ras.writeVerifyRetries = 2;
    {
        std::ofstream out(path_);
        out << renderConfig(cfg);
    }
    SimConfig back;
    loadConfigFile(back, path_.string());
    EXPECT_TRUE(back.ras.enabled);
    EXPECT_DOUBLE_EQ(back.ras.readBer, 1e-7);
    EXPECT_EQ(back.ras.patrolIntervalWrites, 256u);
    EXPECT_EQ(back.ras.writeVerifyRetries, 2u);
    EXPECT_EQ(renderConfig(back), renderConfig(cfg));
}

TEST_F(ConfigFileTest, EccRoundTrips)
{
    SimConfig cfg;
    cfg.ecc.engine = EccEngineKind::Rs;
    {
        std::ofstream out(path_);
        out << renderConfig(cfg);
    }
    SimConfig back;
    loadConfigFile(back, path_.string());
    EXPECT_EQ(back.ecc.engine, EccEngineKind::Rs);
    EXPECT_EQ(renderConfig(back), renderConfig(cfg));
}

TEST_F(ConfigFileTest, PersistenceRoundTrips)
{
    SimConfig cfg;
    cfg.persist.enabled = true;
    cfg.persist.domain = PersistDomain::Eadr;
    cfg.persist.epochWrites = 128;
    cfg.persist.checkpointEpochs = 8;
    cfg.persist.counterSlack = 3;
    cfg.persist.crashAtWrite = 4242;
    cfg.persist.crashPhase = CrashPhase::PreBarrier;
    {
        std::ofstream out(path_);
        out << renderConfig(cfg);
    }
    SimConfig back;
    loadConfigFile(back, path_.string());
    EXPECT_TRUE(back.persist.enabled);
    EXPECT_EQ(back.persist.domain, PersistDomain::Eadr);
    EXPECT_EQ(back.persist.epochWrites, 128u);
    EXPECT_EQ(back.persist.checkpointEpochs, 8u);
    EXPECT_EQ(back.persist.counterSlack, 3u);
    EXPECT_EQ(back.persist.crashAtWrite, 4242u);
    EXPECT_EQ(back.persist.crashPhase, CrashPhase::PreBarrier);
    EXPECT_EQ(renderConfig(back), renderConfig(cfg));
}

TEST_F(ConfigFileTest, PipelineRoundTrips)
{
    SimConfig cfg;
    cfg.pipeline.epochRecords = 1024;
    cfg.pipeline.sampleEpochs = 4;
    {
        std::ofstream out(path_);
        out << renderConfig(cfg);
    }
    SimConfig back;
    loadConfigFile(back, path_.string());
    EXPECT_EQ(back.pipeline.epochRecords, 1024u);
    EXPECT_EQ(back.pipeline.sampleEpochs, 4u);
    EXPECT_EQ(renderConfig(back), renderConfig(cfg));
}

TEST_F(ConfigFileTest, TraceRoundTrips)
{
    SimConfig cfg;
    cfg.trace.format = TraceFormat::Gzip;
    cfg.trace.linePayload = false;
    {
        std::ofstream out(path_);
        out << renderConfig(cfg);
    }
    SimConfig back;
    loadConfigFile(back, path_.string());
    EXPECT_EQ(back.trace.format, TraceFormat::Gzip);
    EXPECT_FALSE(back.trace.linePayload);
    EXPECT_EQ(renderConfig(back), renderConfig(cfg));
}

TEST(ConfigIoDeath, MissingFileIsFatal)
{
    SimConfig cfg;
    EXPECT_EXIT(loadConfigFile(cfg, "/nonexistent/esd.cfg"),
                ::testing::ExitedWithCode(1), "cannot open");
}

TEST(ConfigIoDeath, BadIntegerIsFatal)
{
    SimConfig cfg;
    EXPECT_EXIT(applyConfigKey(cfg, "pcm.read_latency", "abc"),
                ::testing::ExitedWithCode(1), "not an integer");
    // A flag such as -channels=+2 reaches the same parser.
    EXPECT_EXIT(applyConfigKey(cfg, "channels.count", "+2"),
                ::testing::ExitedWithCode(1), "'\\+2' is not an integer");
    EXPECT_EXIT(applyConfigKey(cfg, "channels.count", " 2"),
                ::testing::ExitedWithCode(1), "' 2' is not an integer");
}

TEST(ConfigIoDeath, NegativeIntegerIsFatal)
{
    // std::stoull would silently wrap -1 to 2^64-1.
    SimConfig cfg;
    EXPECT_EXIT(applyConfigKey(cfg, "pcm.read_latency", "-1"),
                ::testing::ExitedWithCode(1), "negative");
}

TEST(ConfigIoDeath, TrailingGarbageIsFatal)
{
    SimConfig cfg;
    EXPECT_EXIT(applyConfigKey(cfg, "pcm.read_latency", "75ns"),
                ::testing::ExitedWithCode(1), "trailing garbage");
    EXPECT_EXIT(applyConfigKey(cfg, "pcm.read_latency", "0x4b"),
                ::testing::ExitedWithCode(1), "trailing garbage");
    EXPECT_EXIT(applyConfigKey(cfg, "core.clock_ghz", "2.0GHz"),
                ::testing::ExitedWithCode(1), "trailing garbage");
}

TEST(ConfigIoDeath, DoubleKeysTakeDecimalSpellingsOnly)
{
    // std::stod would take the sign, the leading space and the C99 hex
    // float, so each of these loaded 2.
    SimConfig cfg;
    EXPECT_EXIT(applyConfigKey(cfg, "core.clock_ghz", "+2"),
                ::testing::ExitedWithCode(1),
                "'core.clock_ghz': '\\+2' is not a number");
    EXPECT_EXIT(applyConfigKey(cfg, "core.clock_ghz", " 2"),
                ::testing::ExitedWithCode(1),
                "'core.clock_ghz': ' 2' is not a number");
    EXPECT_EXIT(applyConfigKey(cfg, "core.clock_ghz", "0x1p1"),
                ::testing::ExitedWithCode(1),
                "'core.clock_ghz': trailing garbage in '0x1p1'");
    EXPECT_EXIT(applyConfigKey(cfg, "ras.read_ber", "1e999"),
                ::testing::ExitedWithCode(1),
                "'ras.read_ber': '1e999' is out of double range");
    // Decimal and exponent spellings still load.
    for (const char *v : {"2", "2.5", ".5", "3.", "25e-1", "1E1"})
        EXPECT_TRUE(applyConfigKey(cfg, "core.clock_ghz", v)) << v;
    EXPECT_DOUBLE_EQ(cfg.core.clockGhz, 10.0);
    EXPECT_TRUE(applyConfigKey(cfg, "ras.read_ber", "1e-6"));
    EXPECT_DOUBLE_EQ(cfg.ras.readBer, 1e-6);
}

TEST(ConfigIoDeath, OverflowIsFatal)
{
    SimConfig cfg;
    EXPECT_EXIT(applyConfigKey(cfg, "pcm.read_latency",
                               "99999999999999999999999999"),
                ::testing::ExitedWithCode(1), "does not fit");
}

TEST(ConfigIoDeath, WrapTruncationAndNonFiniteAreFatal)
{
    // Each value would wrap in its field's narrower type or in the
    // unit shift, or is not finite, or is outside the key's domain:
    // the key's bounds reject it by name.
    SimConfig cfg;
    EXPECT_EXIT(applyConfigKey(cfg, "metadata.refer_h_max", "4294967297"),
                ::testing::ExitedWithCode(1),
                "'metadata.refer_h_max': 4294967297 is out of range "
                "\\[0, 4294967295\\]");
    EXPECT_EXIT(applyConfigKey(cfg, "metadata.decay_delta", "4294967296"),
                ::testing::ExitedWithCode(1),
                "'metadata.decay_delta': 4294967296 is out of range");
    EXPECT_EXIT(
        applyConfigKey(cfg, "metadata.amt_kb", "18014398509481985"),
        ::testing::ExitedWithCode(1),
        "'metadata.amt_kb': 18014398509481985 is out of range");
    EXPECT_EXIT(
        applyConfigKey(cfg, "metadata.efit_kb", "18014398509481984"),
        ::testing::ExitedWithCode(1),
        "'metadata.efit_kb': 18014398509481984 is out of range");
    EXPECT_EXIT(applyConfigKey(cfg, "ras.read_ber", "nan"),
                ::testing::ExitedWithCode(1),
                "'ras.read_ber': 'nan' is not a finite number");
    EXPECT_EXIT(applyConfigKey(cfg, "core.base_cpi", "inf"),
                ::testing::ExitedWithCode(1),
                "'core.base_cpi': 'inf' is not a finite number");
    EXPECT_EXIT(applyConfigKey(cfg, "core.clock_ghz", "0"),
                ::testing::ExitedWithCode(1),
                "'core.clock_ghz': 0 is out of range \\(must be > 0\\)");
    EXPECT_EXIT(applyConfigKey(cfg, "core.clock_ghz", "-1"),
                ::testing::ExitedWithCode(1),
                "'core.clock_ghz': -1 is out of range");
    EXPECT_EXIT(applyConfigKey(cfg, "pcm.write_energy_pj", "-0.5"),
                ::testing::ExitedWithCode(1),
                "'pcm.write_energy_pj': -0.5 is out of range "
                "\\(must be >= 0\\)");
    // The largest values that fit are still taken.
    EXPECT_TRUE(applyConfigKey(cfg, "metadata.refer_h_max", "4294967295"));
    EXPECT_EQ(cfg.metadata.referHMax, 4294967295u);
    EXPECT_TRUE(
        applyConfigKey(cfg, "metadata.amt_kb", "18014398509481983"));
    EXPECT_EQ(cfg.metadata.amtCacheBytes, 18014398509481983ull << 10);
}

TEST(ConfigIo, RasKeysApply)
{
    SimConfig cfg;
    EXPECT_TRUE(applyConfigKey(cfg, "ras.enabled", "true"));
    EXPECT_TRUE(cfg.ras.enabled);
    EXPECT_TRUE(applyConfigKey(cfg, "ras.read_ber", "1e-6"));
    EXPECT_DOUBLE_EQ(cfg.ras.readBer, 1e-6);
    EXPECT_TRUE(applyConfigKey(cfg, "ras.write_ber", "0.5"));
    EXPECT_DOUBLE_EQ(cfg.ras.writeBer, 0.5);
    EXPECT_TRUE(applyConfigKey(cfg, "ras.stuck_at_onset_writes", "100"));
    EXPECT_EQ(cfg.ras.stuckAtOnsetWrites, 100u);
    EXPECT_TRUE(applyConfigKey(cfg, "ras.write_verify_retries", "3"));
    EXPECT_EQ(cfg.ras.writeVerifyRetries, 3u);
    EXPECT_TRUE(applyConfigKey(cfg, "ras.spare_region_lines", "1024"));
    EXPECT_EQ(cfg.ras.spareRegionLines, 1024u);
    EXPECT_TRUE(applyConfigKey(cfg, "ras.dedup_suspend_ues", "5"));
    EXPECT_EQ(cfg.ras.dedupSuspendUes, 5u);
}

TEST(ConfigIo, TelemetryKeysApply)
{
    SimConfig cfg;
    EXPECT_TRUE(
        applyConfigKey(cfg, "telemetry.trace_ring_capacity", "1024"));
    EXPECT_EQ(cfg.telemetry.traceRingCapacity, 1024u);
    EXPECT_TRUE(
        applyConfigKey(cfg, "telemetry.span_sample_every", "16"));
    EXPECT_EQ(cfg.telemetry.spanSampleEvery, 16u);
    EXPECT_TRUE(
        applyConfigKey(cfg, "telemetry.histogram_buckets", "true"));
    EXPECT_TRUE(cfg.telemetry.histogramBuckets);
}

TEST(ConfigIoDeath, TelemetryTraceRingOutOfRangeIsFatal)
{
    SimConfig cfg;
    EXPECT_EXIT(applyConfigKey(cfg, "telemetry.trace_ring_capacity",
                               "0"),
                ::testing::ExitedWithCode(1), "out of range");
    EXPECT_EXIT(applyConfigKey(cfg, "telemetry.span_sample_every", "0"),
                ::testing::ExitedWithCode(1), "out of range");
}

TEST(ConfigIoDeath, RasBerOutOfRangeIsFatal)
{
    SimConfig cfg;
    EXPECT_EXIT(applyConfigKey(cfg, "ras.read_ber", "1.5"),
                ::testing::ExitedWithCode(1), "out of range");
    EXPECT_EXIT(applyConfigKey(cfg, "ras.write_ber", "-0.1"),
                ::testing::ExitedWithCode(1), "out of range");
}

TEST(ConfigIoDeath, RasRetriesOutOfRangeIsFatal)
{
    SimConfig cfg;
    EXPECT_EXIT(applyConfigKey(cfg, "ras.write_verify_retries", "65"),
                ::testing::ExitedWithCode(1), "out of range");
    EXPECT_EXIT(applyConfigKey(cfg, "ras.patrol_lines_per_sweep", "0"),
                ::testing::ExitedWithCode(1), "out of range");
}

TEST(ConfigIo, ChannelKeysApply)
{
    SimConfig cfg;
    EXPECT_TRUE(applyConfigKey(cfg, "channels.count", "4"));
    EXPECT_EQ(cfg.channels.count, 4u);
    // Integers are decimal: a leading zero is not an octal prefix.
    EXPECT_TRUE(applyConfigKey(cfg, "channels.count", "010"));
    EXPECT_EQ(cfg.channels.count, 10u);
    EXPECT_TRUE(applyConfigKey(cfg, "channels.wpq_coalescing", "true"));
    EXPECT_TRUE(cfg.channels.wpqCoalescing);
    EXPECT_TRUE(applyConfigKey(cfg, "channels.wpq_coalescing", "off"));
    EXPECT_FALSE(cfg.channels.wpqCoalescing);
}

TEST(ConfigIoDeath, ChannelCountOutOfRangeIsFatal)
{
    SimConfig cfg;
    EXPECT_EXIT(applyConfigKey(cfg, "channels.count", "0"),
                ::testing::ExitedWithCode(1), "out of range");
    EXPECT_EXIT(applyConfigKey(cfg, "channels.count", "65"),
                ::testing::ExitedWithCode(1), "out of range");
    EXPECT_EXIT(applyConfigKey(cfg, "channels.count", "-2"),
                ::testing::ExitedWithCode(1), "negative");
    EXPECT_EXIT(applyConfigKey(cfg, "channels.count", "4x"),
                ::testing::ExitedWithCode(1), "trailing garbage");
    EXPECT_EXIT(applyConfigKey(cfg, "channels.wpq_coalescing", "maybe"),
                ::testing::ExitedWithCode(1), "not a boolean");
}

TEST(ConfigIoDeath, PcmGeometryOutOfRangeIsFatal)
{
    SimConfig cfg;
    EXPECT_EXIT(applyConfigKey(cfg, "pcm.banks_per_channel", "0"),
                ::testing::ExitedWithCode(1), "out of range");
    EXPECT_EXIT(applyConfigKey(cfg, "pcm.banks_per_channel", "1025"),
                ::testing::ExitedWithCode(1), "out of range");
    EXPECT_EXIT(applyConfigKey(cfg, "pcm.write_queue_depth", "0"),
                ::testing::ExitedWithCode(1), "out of range");
    EXPECT_EXIT(applyConfigKey(cfg, "pcm.write_queue_depth", "1048577"),
                ::testing::ExitedWithCode(1), "out of range");
    EXPECT_EXIT(applyConfigKey(cfg, "pcm.capacity_gb", "0"),
                ::testing::ExitedWithCode(1), "out of range");
    EXPECT_EXIT(applyConfigKey(cfg, "pcm.gap_move_period", "0"),
                ::testing::ExitedWithCode(1), "out of range");
    EXPECT_EXIT(applyConfigKey(cfg, "pcm.start_gap_region_lines", "0"),
                ::testing::ExitedWithCode(1), "out of range");
}

TEST(ConfigIo, EccKeysApply)
{
    SimConfig cfg;
    EXPECT_EQ(cfg.ecc.engine, EccEngineKind::Hamming);  // default codec
    EXPECT_TRUE(applyConfigKey(cfg, "ecc.engine", "bch"));
    EXPECT_EQ(cfg.ecc.engine, EccEngineKind::Bch);
    EXPECT_TRUE(applyConfigKey(cfg, "ecc.engine", "rs"));
    EXPECT_EQ(cfg.ecc.engine, EccEngineKind::Rs);
    EXPECT_TRUE(applyConfigKey(cfg, "ecc.engine", "hamming"));
    EXPECT_EQ(cfg.ecc.engine, EccEngineKind::Hamming);
}

TEST(ConfigIoDeath, UnknownEccEngineIsFatal)
{
    SimConfig cfg;
    EXPECT_EXIT(applyConfigKey(cfg, "ecc.engine", "banana"),
                ::testing::ExitedWithCode(1), "not an ecc engine");
    EXPECT_EXIT(applyConfigKey(cfg, "ecc.engine", "BCH"),
                ::testing::ExitedWithCode(1),
                "expected hamming, bch, or rs");
    // Case-sensitive and whitespace-strict, like every other enum key.
    EXPECT_EXIT(applyConfigKey(cfg, "ecc.engine", "rs "),
                ::testing::ExitedWithCode(1), "not an ecc engine");
}

TEST(ConfigIo, PersistenceKeysApply)
{
    SimConfig cfg;
    EXPECT_FALSE(cfg.persist.enabled);  // default-off master switch
    EXPECT_TRUE(applyConfigKey(cfg, "persistence.enabled", "true"));
    EXPECT_TRUE(cfg.persist.enabled);
    EXPECT_TRUE(applyConfigKey(cfg, "persistence.domain", "eadr"));
    EXPECT_EQ(cfg.persist.domain, PersistDomain::Eadr);
    EXPECT_TRUE(applyConfigKey(cfg, "persistence.epoch_writes", "32"));
    EXPECT_EQ(cfg.persist.epochWrites, 32u);
    EXPECT_TRUE(
        applyConfigKey(cfg, "persistence.checkpoint_epochs", "16"));
    EXPECT_EQ(cfg.persist.checkpointEpochs, 16u);
    EXPECT_TRUE(applyConfigKey(cfg, "persistence.barrier_ns", "45"));
    EXPECT_EQ(cfg.persist.barrierNs, 45u);
    EXPECT_TRUE(
        applyConfigKey(cfg, "persistence.journal_append_ns", "7"));
    EXPECT_EQ(cfg.persist.journalAppendNs, 7u);
    EXPECT_TRUE(applyConfigKey(cfg,
                               "persistence.metadata_buffer_records",
                               "512"));
    EXPECT_EQ(cfg.persist.metadataBufferRecords, 512u);
    EXPECT_TRUE(applyConfigKey(cfg, "persistence.counter_slack", "4"));
    EXPECT_EQ(cfg.persist.counterSlack, 4u);
    EXPECT_TRUE(
        applyConfigKey(cfg, "persistence.counter_probe_max", "64"));
    EXPECT_EQ(cfg.persist.counterProbeMax, 64u);
    EXPECT_TRUE(
        applyConfigKey(cfg, "persistence.crash_at_write", "1000"));
    EXPECT_EQ(cfg.persist.crashAtWrite, 1000u);
    EXPECT_TRUE(
        applyConfigKey(cfg, "persistence.crash_phase", "mid_journal"));
    EXPECT_EQ(cfg.persist.crashPhase, CrashPhase::MidJournal);
    // Unknown keys in the section are rejected like anywhere else.
    EXPECT_FALSE(applyConfigKey(cfg, "persistence.bogus", "1"));
}

TEST(ConfigIoDeath, PersistenceDomainUnknownIsFatal)
{
    SimConfig cfg;
    EXPECT_EXIT(applyConfigKey(cfg, "persistence.domain", "nvdimm"),
                ::testing::ExitedWithCode(1),
                "not a persistence domain");
}

TEST(ConfigIoDeath, PersistenceCrashPhaseUnknownIsFatal)
{
    SimConfig cfg;
    EXPECT_EXIT(applyConfigKey(cfg, "persistence.crash_phase",
                               "mid_write"),
                ::testing::ExitedWithCode(1), "not a crash phase");
}

TEST(ConfigIoDeath, PersistenceRangesAreFatal)
{
    SimConfig cfg;
    EXPECT_EXIT(applyConfigKey(cfg, "persistence.epoch_writes", "0"),
                ::testing::ExitedWithCode(1), "out of range");
    EXPECT_EXIT(
        applyConfigKey(cfg, "persistence.checkpoint_epochs", "0"),
        ::testing::ExitedWithCode(1), "out of range");
    EXPECT_EXIT(applyConfigKey(cfg,
                               "persistence.metadata_buffer_records",
                               "0"),
                ::testing::ExitedWithCode(1), "out of range");
    EXPECT_EXIT(applyConfigKey(cfg, "persistence.counter_probe_max",
                               "100000"),
                ::testing::ExitedWithCode(1), "out of range");
}

TEST(ConfigIo, PipelineKeysApply)
{
    SimConfig cfg;
    EXPECT_TRUE(applyConfigKey(cfg, "pipeline.epoch_records", "512"));
    EXPECT_EQ(cfg.pipeline.epochRecords, 512u);
    EXPECT_TRUE(applyConfigKey(cfg, "pipeline.sample_epochs", "16"));
    EXPECT_EQ(cfg.pipeline.sampleEpochs, 16u);
    // 0 = sampling off is inside the valid range.
    EXPECT_TRUE(applyConfigKey(cfg, "pipeline.sample_epochs", "0"));
    EXPECT_EQ(cfg.pipeline.sampleEpochs, 0u);
    EXPECT_FALSE(applyConfigKey(cfg, "pipeline.bogus", "1"));
}

TEST(ConfigIoDeath, PipelineRangesAreFatal)
{
    SimConfig cfg;
    EXPECT_EXIT(applyConfigKey(cfg, "pipeline.epoch_records", "0"),
                ::testing::ExitedWithCode(1), "out of range");
    EXPECT_EXIT(
        applyConfigKey(cfg, "pipeline.epoch_records", "1048577"),
        ::testing::ExitedWithCode(1), "out of range");
    EXPECT_EXIT(
        applyConfigKey(cfg, "pipeline.sample_epochs", "1048577"),
        ::testing::ExitedWithCode(1), "out of range");
}

TEST(ConfigIo, ApplyTraceKeys)
{
    SimConfig cfg;
    EXPECT_TRUE(applyConfigKey(cfg, "trace.format", "binary"));
    EXPECT_EQ(cfg.trace.format, TraceFormat::Binary);
    EXPECT_TRUE(applyConfigKey(cfg, "trace.format", "auto"));
    EXPECT_EQ(cfg.trace.format, TraceFormat::Auto);
    EXPECT_TRUE(applyConfigKey(cfg, "trace.line_payload", "false"));
    EXPECT_FALSE(cfg.trace.linePayload);
    EXPECT_FALSE(applyConfigKey(cfg, "trace.bogus", "1"));
}

TEST(ConfigIoDeath, TraceKeysValidate)
{
    SimConfig cfg;
    EXPECT_EXIT(applyConfigKey(cfg, "trace.format", "xml"),
                ::testing::ExitedWithCode(1),
                "not a trace format");
}

/** Apply @p args as command-line flags over a default config. */
SimConfig
fromFlags(std::initializer_list<std::string> args)
{
    ConfigFlags flags;
    for (const std::string &a : args)
        EXPECT_TRUE(flags.take(a)) << a;
    SimConfig cfg;
    flags.apply(cfg);
    return cfg;
}

TEST(ConfigFlags, EveryAliasEqualsItsKey)
{
    // One non-default sample value per alias; the size check makes a
    // new alias fail here until it gets one.
    const std::map<std::string, std::string> sample = {
        {"-seed", "7"},
        {"-ecc", "rs"},
        {"-channels", "4"},
        {"-wpq-depth", "16"},
        {"-wpq-coalescing", "1"},
        {"-ras-read-ber", "0.25"},
        {"-ras-write-ber", "0.5"},
        {"-ras-patrol-interval", "100"},
        {"-ras-write-verify", "3"},
        {"-persist", "1"},
        {"-persist-domain", "eadr"},
        {"-persist-epoch-writes", "8"},
        {"-persist-checkpoint-epochs", "5"},
        {"-persist-counter-slack", "2000000"},
        {"-persist-crash-at", "900"},
        {"-persist-crash-phase", "mid_journal"},
        {"-trace-format", "gzip"},
        {"-trace-payload", "0"},
        {"-trace-ring", "32"},
        {"-span-every", "9"},
        {"-hist-buckets", "1"},
    };
    ASSERT_EQ(sample.size(), configFlagAliases().size());
    const std::string defaults = renderConfig(SimConfig{});
    for (const ConfigFlagAlias &a : configFlagAliases()) {
        ASSERT_TRUE(sample.count(a.flag)) << a.flag;
        const std::string &v = sample.at(a.flag);
        SimConfig want;
        if (a.implies) {
            ASSERT_TRUE(applyConfigKey(want, a.implies, "true"));
        }
        ASSERT_TRUE(applyConfigKey(want, a.key, v));
        std::string got =
            renderConfig(fromFlags({std::string(a.flag) + "=" + v}));
        EXPECT_EQ(renderConfig(want), got) << a.flag;
        EXPECT_NE(defaults, got) << a.flag << " changed nothing";
        // The generic spelling of the same key sets the same value
        // (without the alias's implied section enable).
        SimConfig bare;
        ASSERT_TRUE(applyConfigKey(bare, a.key, v));
        std::string generic = std::string(a.key) + "=" + v;
        EXPECT_EQ(renderConfig(bare),
                  renderConfig(fromFlags({"-" + generic})))
            << a.key;
    }
}

TEST(ConfigFlags, ExplicitDisableBeatsImpliedEnable)
{
    for (bool disable_first : {true, false}) {
        SimConfig cfg =
            disable_first
                ? fromFlags({"-persist=0", "-persist-domain=eadr"})
                : fromFlags({"-persist-domain=eadr", "-persist=0"});
        EXPECT_FALSE(cfg.persist.enabled) << disable_first;
        EXPECT_EQ(cfg.persist.domain, PersistDomain::Eadr);
    }
    EXPECT_TRUE(fromFlags({"-persist-domain=eadr"}).persist.enabled);
    EXPECT_TRUE(fromFlags({"-ras-write-verify=2"}).ras.enabled);
}

TEST(ConfigFlags, BareHistBucketsAndLastFlagWins)
{
    EXPECT_TRUE(fromFlags({"-hist-buckets"}).telemetry.histogramBuckets);
    SimConfig cfg = fromFlags({"-channels=2", "-channels.count=8"});
    EXPECT_EQ(cfg.channels.count, 8u);
}

TEST(ConfigFlags, ToolFlagsAreNotTaken)
{
    ConfigFlags flags;
    for (const char *arg :
         {"-records=10", "-stats-json=out.json", "-seed", "-channels",
          "-metadata.efit_kb", "-trace-in=a.trace", "-persistx=1"})
        EXPECT_FALSE(flags.take(arg)) << arg;
}

TEST(ConfigFlagsDeath, UnknownDottedKeyIsFatal)
{
    ConfigFlags flags;
    ASSERT_TRUE(flags.take("-foo.bar=1"));
    SimConfig cfg;
    EXPECT_EXIT(flags.apply(cfg), ::testing::ExitedWithCode(1),
                "unknown config key 'foo.bar'");
}

TEST(ConfigFlagsDeath, RemovedKeysAreFatal)
{
    for (const char *k : {"pcm.channels", "pcm.ranks", "pcm.banks",
                          "channels.wpq_depth", "crypto.md5_latency"}) {
        ConfigFlags flags;
        ASSERT_TRUE(flags.take(std::string("-") + k + "=2")) << k;
        SimConfig cfg;
        EXPECT_EXIT(flags.apply(cfg), ::testing::ExitedWithCode(1),
                    std::string("unknown config key '") + k + "'");
    }
    ConfigFlags flags;
    EXPECT_FALSE(flags.take("-trace-cap=33"));
}

TEST(ConfigFlagsDeath, AliasTakesTheKeyRange)
{
    ConfigFlags flags;
    ASSERT_TRUE(flags.take("-ras-write-verify=1000"));
    SimConfig cfg;
    EXPECT_EXIT(flags.apply(cfg), ::testing::ExitedWithCode(1),
                "'ras.write_verify_retries': 1000 is out of range "
                "\\[0, 64\\]");
}

} // namespace
} // namespace esd
