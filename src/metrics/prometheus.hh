/**
 * @file
 * Prometheus text-format exposition of the stat registry.
 *
 * writePrometheusText() renders every registered stat in the
 * Prometheus text exposition format (v0.0.4): counters and gauges as
 * single samples, latency stats as summaries (quantile series plus
 * _sum/_count). Names are sanitized ("pcm.ch0.reads" ->
 * "esd_pcm_ch0_reads") and emitted in name-sorted order so pages diff
 * cleanly. esd_sim renders the page once, after the run, over the
 * finished job's simulators.
 */

#ifndef ESD_METRICS_PROMETHEUS_HH
#define ESD_METRICS_PROMETHEUS_HH

#include <ostream>
#include <string>
#include <vector>

namespace esd
{

class StatRegistry;

/** Sanitize a dotted stat name into a Prometheus metric name:
 * "esd_" prefix, [a-zA-Z0-9_] body, everything else becomes '_'. */
std::string prometheusName(const std::string &stat_name);

/**
 * Render @p regs (one per simulator, in shard order) as one text-format
 * exposition page. One registry gives unlabelled samples; several give
 * each metric's HELP/TYPE once, then one sample per registry that has
 * it, labelled shard="s" in shard order.
 */
void writePrometheusText(std::ostream &os,
                         const std::vector<const StatRegistry *> &regs);

} // namespace esd

#endif // ESD_METRICS_PROMETHEUS_HH
