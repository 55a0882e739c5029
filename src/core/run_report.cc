#include "core/run_report.hh"

#include "common/config_io.hh"
#include "common/json.hh"

namespace esd
{

void
writeConfigJson(JsonWriter &w, const SimConfig &cfg)
{
    w.beginObject();

    w.key("pcm");
    w.beginObject();
    w.kv("capacity_bytes", cfg.pcm.capacityBytes);
    w.kv("read_latency_ns", cfg.pcm.readLatency);
    w.kv("write_latency_ns", cfg.pcm.writeLatency);
    w.kv("row_buffer_lines", cfg.pcm.rowBufferLines);
    w.kv("row_hit_read_latency_ns", cfg.pcm.rowHitReadLatency);
    w.kv("read_energy_pj", cfg.pcm.readEnergy);
    w.kv("write_energy_pj", cfg.pcm.writeEnergy);
    w.kv("banks_per_channel", cfg.pcm.banksPerChannel);
    w.kv("write_queue_depth", cfg.pcm.writeQueueDepth);
    w.kv("read_priority", cfg.pcm.readPriority);
    w.kv("start_gap_enabled", cfg.pcm.startGapEnabled);
    w.kv("gap_move_period", cfg.pcm.gapMovePeriod);
    w.endObject();

    w.key("channels");
    w.beginObject();
    w.kv("count", static_cast<std::uint64_t>(cfg.channels.count));
    w.kv("wpq_coalescing", cfg.channels.wpqCoalescing);
    w.endObject();

    w.key("crypto");
    w.beginObject();
    w.kv("sha1_latency_ns", cfg.crypto.sha1Latency);
    w.kv("crc_latency_ns", cfg.crypto.crcLatency);
    w.kv("encrypt_latency_ns", cfg.crypto.encryptLatency);
    w.kv("ecc_latency_ns", cfg.crypto.eccLatency);
    w.kv("metadata_cache_latency_ns", cfg.crypto.metadataCacheLatency);
    w.kv("compare_latency_ns", cfg.crypto.compareLatency);
    w.endObject();

    w.key("metadata");
    w.beginObject();
    w.kv("efit_cache_bytes", cfg.metadata.efitCacheBytes);
    w.kv("amt_cache_bytes", cfg.metadata.amtCacheBytes);
    w.kv("efit_assoc", cfg.metadata.efitAssoc);
    w.kv("amt_assoc", cfg.metadata.amtAssoc);
    w.kv("refer_h_max", static_cast<std::uint64_t>(
                            cfg.metadata.referHMax));
    w.kv("decay_period", cfg.metadata.decayPeriod);
    w.kv("use_lrcu", cfg.metadata.useLrcu);
    w.endObject();

    w.key("ras");
    w.beginObject();
    w.kv("enabled", cfg.ras.enabled);
    w.kv("read_ber", cfg.ras.readBer);
    w.kv("write_ber", cfg.ras.writeBer);
    w.kv("stuck_at_onset_writes", cfg.ras.stuckAtOnsetWrites);
    w.kv("stuck_at_per_write", cfg.ras.stuckAtPerWrite);
    w.kv("demand_scrub", cfg.ras.demandScrub);
    w.kv("patrol_interval_writes", cfg.ras.patrolIntervalWrites);
    w.kv("patrol_lines_per_sweep", cfg.ras.patrolLinesPerSweep);
    w.kv("write_verify_retries", cfg.ras.writeVerifyRetries);
    w.kv("write_verify_backoff_ns", cfg.ras.writeVerifyBackoffNs);
    w.kv("spare_region_lines", cfg.ras.spareRegionLines);
    w.kv("dedup_suspend_ues", cfg.ras.dedupSuspendUes);
    w.endObject();

    // Emitted only off the default engine: hamming reports stay byte-
    // identical to releases that predate pluggable ECC.
    if (cfg.ecc.engine != EccEngineKind::Hamming) {
        w.key("ecc");
        w.beginObject();
        w.kv("engine", eccEngineName(cfg.ecc.engine));
        w.endObject();
    }

    // Emitted only when enabled: default-off reports stay byte-
    // identical to releases that predate the crash subsystem.
    if (cfg.persist.enabled) {
        w.key("persistence");
        w.beginObject();
        w.kv("enabled", cfg.persist.enabled);
        w.kv("domain", persistDomainName(cfg.persist.domain));
        w.kv("epoch_writes", cfg.persist.epochWrites);
        w.kv("checkpoint_epochs", cfg.persist.checkpointEpochs);
        w.kv("barrier_ns", cfg.persist.barrierNs);
        w.kv("journal_append_ns", cfg.persist.journalAppendNs);
        w.kv("metadata_buffer_records",
             cfg.persist.metadataBufferRecords);
        w.kv("counter_slack", cfg.persist.counterSlack);
        w.kv("counter_probe_max", cfg.persist.counterProbeMax);
        w.kv("crash_at_write", cfg.persist.crashAtWrite);
        w.kv("crash_phase", crashPhaseName(cfg.persist.crashPhase));
        w.endObject();
    }

    w.key("core");
    w.beginObject();
    w.kv("clock_ghz", cfg.core.clockGhz);
    w.kv("base_cpi", cfg.core.baseCpi);
    w.endObject();

    w.kv("seed", cfg.seed);
    w.endObject();
}

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
