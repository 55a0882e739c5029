#include "core/run_report.hh"

#include "common/config_io.hh"
#include "common/json.hh"

namespace esd
{

void
writeRunResultJson(JsonWriter &w, const RunResult &r,
                   bool histogram_buckets)
{
    w.beginObject();
    w.kv("scheme", r.schemeName);
    w.kv("records", r.records);
    w.kv("instructions", r.instructions);
    w.kv("runtime_ns", r.runtimeNs);
    w.kv("ipc", r.ipc);

    w.key("read_latency");
    writeLatencyJson(w, r.readLatency, histogram_buckets);
    w.key("write_latency");
    writeLatencyJson(w, r.writeLatency, histogram_buckets);

    w.kv("logical_writes", r.logicalWrites);
    w.kv("logical_reads", r.logicalReads);
    w.kv("dedup_hits", r.dedupHits);
    w.kv("write_reduction", r.writeReduction());
    w.kv("nvm_data_writes", r.nvmDataWrites);
    w.kv("nvm_reads_total", r.nvmReadsTotal);
    w.kv("nvm_writes_total", r.nvmWritesTotal);
    w.kv("nvm_writes_coalesced", r.nvmWritesCoalesced);

    w.key("energy_pj");
    w.beginObject();
    w.kv("device_read", r.energy.deviceRead);
    w.kv("device_write", r.energy.deviceWrite);
    w.kv("hash", r.energy.hash);
    w.kv("crypto", r.energy.crypto);
    w.kv("metadata", r.energy.metadata);
    w.kv("total", r.energy.total());
    w.endObject();

    w.key("write_breakdown_ns");
    w.beginObject();
    w.kv("fp_compute", r.breakdown.fpCompute);
    w.kv("fp_nvm_lookup", r.breakdown.fpNvmLookup);
    w.kv("read_compare", r.breakdown.readCompare);
    w.kv("line_write", r.breakdown.lineWrite);
    w.kv("encrypt", r.breakdown.encrypt);
    w.kv("metadata", r.breakdown.metadata);
    w.endObject();

    w.kv("metadata_nvm_bytes", r.metadataNvmBytes);
    w.kv("unique_lines_stored", r.uniqueLinesStored);
    w.kv("fp_cache_hit_rate", r.fpCacheHitRate);
    w.kv("amt_cache_hit_rate", r.amtCacheHitRate);
    w.kv("dedup_via_fp_cache_frac", r.dedupViaFpCacheFrac);
    w.kv("dedup_via_fp_nvm_frac", r.dedupViaFpNvmFrac);

    w.key("wear");
    w.beginObject();
    w.kv("total_writes", r.wear.totalWrites);
    w.kv("lines_touched", r.wear.linesTouched);
    w.kv("max_line_writes", r.wear.maxLineWrites);
    w.kv("mean_line_writes", r.wear.meanLineWrites());
    w.kv("imbalance", r.wear.imbalance());
    w.endObject();

    w.endObject();
}

void
writeStatsReport(std::ostream &os, const SimConfig &cfg,
                 const RunResult &r, const StatRegistry &reg,
                 const IntervalSampler *sampler, int indent,
                 bool histogram_buckets)
{
    JsonWriter w(os, indent);
    w.beginObject();
    w.key("config");
    writeConfigJson(w, cfg);
    w.key("result");
    writeRunResultJson(w, r, histogram_buckets);
    w.key("stats");
    reg.writeJson(w, histogram_buckets);
    if (sampler && sampler->enabled()) {
        w.key("intervals");
        sampler->writeJson(w);
    }
    w.endObject();
    os << "\n";
}

CrashCheck
checkInjectedCrash(Simulator &sim, const SimConfig &cfg)
{
    CrashCheck c;
    if (!cfg.persist.enabled || cfg.persist.crashAtWrite == 0)
        return c;
    const PersistenceManager *pm = sim.persistence();
    if (!pm->crashed()) {
        c.error = "run ended before the injected crash point (write " +
                  std::to_string(cfg.persist.crashAtWrite) + ")";
        return c;
    }
    c.image = &pm->image();
    c.recovered = recoverFromImage(*c.image, pm->config(),
                                   sim.scheme().crypto(),
                                   sim.scheme().ecc());
    c.audit = auditPadSafety(c.recovered, *c.image);
    if (!c.recovered.summary.ok)
        c.error = "crash recovery failed: " +
                  std::to_string(c.recovered.summary.countersUnresolved) +
                  " counters unresolved, " +
                  std::to_string(c.recovered.summary.mappingsInvalidated) +
                  " mappings invalidated";
    else if (c.audit.violations != 0)
        c.error = "pad-safety audit failed: " +
                  std::to_string(c.audit.violations) + " of " +
                  std::to_string(c.audit.countersChecked) +
                  " counter floors below the true counter";
    return c;
}

} // namespace esd
