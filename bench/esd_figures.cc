/**
 * @file
 * The figure driver: Table I, every evaluation figure of the paper,
 * the four ablations and the five extensions (endurance, RAS, crash
 * consistency, channels, cores), as rows of one table.
 *
 *   esd_figures [-jobs=N] [-out=DIR]
 *
 * Each row names the (scheme, config) series it reads over its apps.
 * The driver collects every row's grid points, drops duplicates (same
 * app, scheme, records, warm-up and config), and runs the union once
 * through exec::SweepRunner — so the default-config ESD run of an app
 * serves the main grid, Fig. 18, three ablations and ESD+ alike. Rows
 * then render their tables from the finished outcomes: summary numbers
 * from each RunResult, registry counters from the run's stats report.
 *
 * Each row's paper-shape claims are bands over numbers the row
 * computed. A band either holds or misses; a miss that EXPERIMENTS.md
 * explains is registered in the band itself. The register describes
 * the committed run size (250 000 records, 50 000 warm-up): at that
 * size the driver exits 1 on an unregistered miss and on a registered
 * band that holds. Bands depend on run length, so at any other size
 * the verdicts are printed and only a failed job fails the run.
 *
 * Output: every row's text on stdout; -out=DIR also writes one
 * <row>.txt per row (the committed results/ files); ESD_BENCH_JSON
 * receives the sweep report of the union grid. All of it is
 * byte-identical at any -jobs.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <sstream>

#include "bench_common.hh"
#include "common/atomic_file.hh"
#include "common/config_io.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "crypto/crc.hh"
#include "crypto/sha1.hh"
#include "dedup/analyzer.hh"
#include "ecc/line_ecc.hh"
#include "exec/sweep_runner.hh"
#include "metrics/report.hh"

namespace
{

using namespace esd;
using Cells = std::vector<std::string>;

constexpr double kInf = std::numeric_limits<double>::infinity();

/** EXPERIMENTS.md sections that explain a registered miss. */
const char *const kPlacement = "Deviation: AMT placement";
const char *const kFootprint = "Deviation: footprint";
const char *const kSha1Profile = "Deviation: SHA-1 write profile";
const char *const kLookupShare = "Deviation: fingerprint lookup share";
const char *const kChannelDomain = "Deviation: per-channel dedup domain";
const char *const kAdrFloor = "Deviation: ADR overhead floor";

/** Numbers a row computed for its bands, by name. */
using Figures = std::map<std::string, double>;

/**
 * One paper-shape claim: it holds when lo <= figure <= hi. A share's
 * tolerance is ±5 points unless `why` says otherwise; an ordering is
 * exact. `deviation` is empty, or the EXPERIMENTS.md section that
 * explains why the band misses at the committed size.
 */
struct Band
{
    std::string claim;
    std::string figure;
    double lo;
    double hi;
    std::string why;
    std::string deviation = "";
};

/** The paper's number, ± a tolerance. */
Band
near(std::string claim, std::string figure, double paper, double tol,
     std::string why, std::string deviation = "")
{
    return {std::move(claim), std::move(figure), paper - tol, paper + tol,
            std::move(why), std::move(deviation)};
}

/** One (scheme, config) series of a row, run over the row's apps. */
struct Series
{
    SchemeKind scheme;
    SimConfig cfg = bench::benchConfig();
    std::vector<std::string> coreApps = {};  ///< exec::JobSpec::coreApps
};

class Runs;

/** One table of the evaluation. */
struct Row
{
    std::string name;   ///< -out=DIR writes <name>.txt
    std::string title;
    std::string what;
    std::vector<Series> series;  ///< its grid: apps x series
    std::function<void(const Runs &, std::ostream &, Figures &)> render;
    std::vector<Band> bands;
    std::vector<std::string> apps = bench::appNames();
};

/** The union grid: every row's points, each run once. */
class Grid
{
  public:
    /** Index of @p app under @p s, adding it on first sight. */
    std::size_t
    add(const std::string &app, const Series &s)
    {
        exec::JobSpec job;
        job.app = app;
        job.scheme = s.scheme;
        job.cfg = s.cfg;
        job.cfg.seed = 1;
        job.records = bench::benchRecords();
        job.warmup = bench::benchWarmup();
        job.coreApps = s.coreApps;
        std::string key = app + "\n" +
                          std::to_string(static_cast<int>(s.scheme)) +
                          "\n" + std::to_string(job.records) + "\n" +
                          std::to_string(job.warmup) + "\n" +
                          renderConfig(job.cfg);
        for (const std::string &core : s.coreApps)
            key += "\ncore " + core;
        auto [it, fresh] = index_.emplace(key, jobs_.size());
        if (fresh)
            jobs_.push_back(std::move(job));
        return it->second;
    }

    const std::vector<exec::JobSpec> &jobs() const { return jobs_; }

    std::vector<exec::SweepOutcome> outcomes;

  private:
    std::vector<exec::JobSpec> jobs_;
    std::map<std::string, std::size_t> index_;
};

/** A row's view of the finished grid, addressed (app, series). */
class Runs
{
  public:
    Runs(const Grid &grid, const Row &row, std::vector<std::size_t> slots)
        : grid_(grid), row_(row), slots_(std::move(slots))
    {
    }

    const std::vector<std::string> &apps() const { return row_.apps; }

    const RunResult &
    at(std::size_t app, std::size_t series) const
    {
        return outcome(app, series).result;
    }

    /** Registry counter @p key from the run's stats report. */
    std::uint64_t
    stat(std::size_t app, std::size_t series, const std::string &key) const
    {
        JsonValue doc = parseJson(outcome(app, series).reportJson);
        const JsonValue *v = doc.find("report")->find("stats")->find(key);
        if (!v || !v->isNumber())
            esd_fatal("stat '%s' missing from the %s report", key.c_str(),
                      row_.name.c_str());
        return static_cast<std::uint64_t>(v->number);
    }

  private:
    const exec::SweepOutcome &
    outcome(std::size_t app, std::size_t series) const
    {
        return grid_.outcomes[slots_[app * row_.series.size() + series]];
    }

    const Grid &grid_;
    const Row &row_;
    std::vector<std::size_t> slots_;
};

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double acc = 0;
    for (double v : values)
        acc += std::log(std::max(v, 1e-12));
    return std::exp(acc / values.size());
}

std::string
speedup(double v)
{
    return TablePrinter::num(v, 2) + "x";
}

/** The write stream's content profile of one app (Figs. 1 and 3). */
struct Content
{
    std::uint64_t writes = 0;
    std::uint64_t unique = 0;
    std::uint64_t zeroWrites = 0;
    double dupRate = 0;
    RefCountBuckets buckets;
};

/** One DedupAnalyzer pass per app over benchRecords() writes, shared
 * by Figs. 1 and 3. */
const std::vector<Content> &
contentProfiles()
{
    static const std::vector<Content> profiles = []
    {
        std::vector<Content> out;
        for (const std::string &app : bench::appNames()) {
            SyntheticWorkload w(findApp(app), 1);
            DedupAnalyzer an;
            TraceRecord rec;
            while (an.totalWrites() < bench::benchRecords() && w.next(rec))
                if (rec.op == OpType::Write)
                    an.addWrite(rec.data);
            out.push_back({an.totalWrites(), an.uniqueLines(),
                           an.zeroWrites(), an.duplicateRate(),
                           an.buckets()});
        }
        return out;
    }();
    return profiles;
}

const std::vector<SchemeKind> kDedup = {SchemeKind::DedupSha1,
                                        SchemeKind::DeWrite, SchemeKind::Esd};

std::vector<Series>
seriesOf(const std::vector<SchemeKind> &kinds)
{
    std::vector<Series> out;
    for (SchemeKind k : kinds)
        out.push_back({k});
    return out;
}

/** ESD under one metadata-cache variant. */
Series
esdWith(const std::function<void(MetadataConfig &)> &tweak)
{
    Series s{SchemeKind::Esd};
    tweak(s.cfg.metadata);
    return s;
}

void
renderTableI(const Runs &, std::ostream &os, Figures &)
{
    const SimConfig cfg = bench::benchConfig();
    os << cfg.summary() << "\n"
       << "Crypto cost model\n"
       << "  SHA-1:          " << cfg.crypto.sha1Latency << " ns / line\n"
       << "  CRC (DeWrite):  " << cfg.crypto.crcLatency << " ns / line\n"
       << "  CME apply:      " << cfg.crypto.encryptLatency
       << " ns / line\n"
       << "  ECC intercept:  " << cfg.crypto.eccLatency << " ns / line\n";
}

void
renderFig1(const Runs &runs, std::ostream &os, Figures &f)
{
    TablePrinter table({"app", "writes", "unique", "zero-writes",
                        "dup-rate"});
    double sum = 0, lo = 1, hi = 0;
    for (std::size_t a = 0; a < runs.apps().size(); ++a) {
        const Content &c = contentProfiles()[a];
        sum += c.dupRate;
        lo = std::min(lo, c.dupRate);
        hi = std::max(hi, c.dupRate);
        table.addRow({runs.apps()[a], std::to_string(c.writes),
                      std::to_string(c.unique),
                      std::to_string(c.zeroWrites),
                      TablePrinter::pct(c.dupRate)});
    }
    table.addRow({"average", "-", "-", "-",
                  TablePrinter::pct(sum / runs.apps().size())});
    table.print(os);
    os << "\n";
    f["dup_rate_average"] = sum / runs.apps().size();
    f["dup_rate_min"] = lo;
    f["dup_rate_max"] = hi;
}

void
renderFig2(const Runs &runs, std::ostream &os, Figures &f)
{
    double esd_min = kInf;
    for (std::size_t a = 0; a < runs.apps().size(); ++a) {
        os << runs.apps()[a] << ":\n";
        const RunResult &base = runs.at(a, 0);
        TablePrinter table({"scheme", "rel-IPC", "write-speedup",
                            "read-speedup", "write-reduction"});
        for (int i = 0; i < 3; ++i) {
            const RunResult &r = runs.at(a, i + 1);
            table.addRow(
                {schemeName(kDedup[i]), speedup(r.ipc / base.ipc),
                 speedup(base.writeLatency.mean() / r.writeLatency.mean()),
                 speedup(base.readLatency.mean() / r.readLatency.mean()),
                 TablePrinter::pct(r.writeReduction())});
        }
        table.print(os);
        os << "\n";
        esd_min = std::min(esd_min, runs.at(a, 3).ipc / base.ipc);
        if (runs.apps()[a] == "leela")
            f["leela_sha1_rel_ipc"] = runs.at(a, 1).ipc / base.ipc;
    }
    f["esd_min_rel_ipc"] = esd_min;
}

void
renderFig3(const Runs &runs, std::ostream &os, Figures &f)
{
    constexpr std::size_t kN = RefCountBuckets::kNumBuckets;
    std::uint64_t agg_lines[kN] = {};
    std::uint64_t agg_volume[kN] = {};
    TablePrinter per_app({"app", "num1", "num10", "num100", "num1000",
                          "num1000+", "vol1000+%"});
    for (std::size_t a = 0; a < runs.apps().size(); ++a) {
        const RefCountBuckets &b = contentProfiles()[a].buckets;
        for (std::size_t i = 0; i < kN; ++i) {
            agg_lines[i] += b.lines(i);
            agg_volume[i] += b.volume(i);
        }
        per_app.addRow(
            {runs.apps()[a], std::to_string(b.lines(0)),
             std::to_string(b.lines(1)), std::to_string(b.lines(2)),
             std::to_string(b.lines(3)), std::to_string(b.lines(4)),
             TablePrinter::pct(
                 static_cast<double>(b.volume(4)) /
                 std::max<std::uint64_t>(b.totalVolume(), 1))});
    }
    per_app.print(os);

    std::uint64_t total_lines = 0, total_volume = 0;
    for (std::size_t i = 0; i < kN; ++i) {
        total_lines += agg_lines[i];
        total_volume += agg_volume[i];
    }
    os << "\nAggregate across the 20 applications:\n";
    TablePrinter aggt(
        {"bucket", "unique-lines", "lines-frac", "volume-frac"});
    for (std::size_t i = 0; i < kN; ++i) {
        aggt.addRow({RefCountBuckets::bucketName(i),
                     std::to_string(agg_lines[i]),
                     TablePrinter::pct(
                         static_cast<double>(agg_lines[i]) / total_lines,
                         3),
                     TablePrinter::pct(static_cast<double>(agg_volume[i]) /
                                       total_volume)});
    }
    aggt.print(os);
    os << "\n";
    f["num1000plus_lines_share"] =
        static_cast<double>(agg_lines[kN - 1]) / total_lines;
    f["num1000plus_volume_share"] =
        static_cast<double>(agg_volume[kN - 1]) / total_volume;
}

void
renderFig5(const Runs &runs, std::ostream &os, Figures &f)
{
    TablePrinter table({"app", "dup-via-cache", "dup-via-NVMM",
                        "fp-lookup-lat-share"});
    double s_cache = 0, s_nvm = 0, s_share = 0;
    for (std::size_t a = 0; a < runs.apps().size(); ++a) {
        const RunResult &r = runs.at(a, 0);
        // Latency share excludes the (scheme-specific) hash compute so
        // the lookup overhead is visible the way the paper frames it.
        double non_hash = r.breakdown.total() - r.breakdown.fpCompute;
        double share = non_hash > 0 ? r.breakdown.fpNvmLookup / non_hash : 0;
        s_cache += r.dedupViaFpCacheFrac;
        s_nvm += r.dedupViaFpNvmFrac;
        s_share += share;
        table.addRow({runs.apps()[a],
                      TablePrinter::pct(r.dedupViaFpCacheFrac),
                      TablePrinter::pct(r.dedupViaFpNvmFrac),
                      TablePrinter::pct(share)});
    }
    std::size_t n = runs.apps().size();
    table.addRow({"average", TablePrinter::pct(s_cache / n),
                  TablePrinter::pct(s_nvm / n),
                  TablePrinter::pct(s_share / n)});
    table.print(os);
    os << "\n";
    f["via_cache_average"] = s_cache / n;
    f["via_nvm_average"] = s_nvm / n;
    f["lookup_share_average"] = s_share / n;
}

/**
 * Fig. 8: empirical collision rates of each fingerprint over the two
 * seed-pinned corpora, benchRecords() * 8 / 5 lines each (400 000 at
 * the committed size). It runs no simulation.
 */
void
renderFig8(const Runs &, std::ostream &os, Figures &f)
{
    const bench::Corpora c =
        bench::collisionCorpora(bench::benchRecords() * 8 / 5, 2024);
    struct Fingerprint
    {
        const char *name;
        const char *bits;
        bench::Collisions random, similar;
    };
    auto count = [&](const char *name, const char *bits, auto fingerprint)
    {
        return Fingerprint{name, bits,
                           bench::countCollisions(c.random, fingerprint),
                           bench::countCollisions(c.similar, fingerprint)};
    };
    const Fingerprint fps[] = {
        count("CRC32C (DeWrite)", "32",
              [](const CacheLine &l) { return Crc32c::line(l); }),
        count("ECC (ESD)", "64",
              [](const CacheLine &l) { return LineEccCodec::encode(l); }),
        count("SHA-1/64", "64",
              [](const CacheLine &l) { return Sha1::fingerprint64(l); }),
        count("SHA-1 full", "160", [](const CacheLine &l)
              { return Sha1::toHex(Sha1::digestLine(l)); })};
    const double crc_random = static_cast<double>(fps[0].random.collisions);

    TablePrinter table({"fingerprint", "bits", "random-collide",
                        "similar-collide", "vs-CRC(random)"});
    for (const Fingerprint &fp : fps)
        table.addRow({fp.name, fp.bits, fp.random.rate(), fp.similar.rate(),
                      crc_random == 0
                          ? "-"
                          : TablePrinter::num(
                                static_cast<double>(fp.random.collisions) /
                                    crc_random,
                                4)});
    table.print(os);
    os << "\nlines: random=" << fps[0].random.lines
       << " similar=" << fps[0].similar.lines
       << "\npaper shape: on independent contents the 64-bit ECC "
          "collides orders of magnitude less than 32-bit CRC; "
          "cryptographic hashes never collide at this scale.\n"
          "Note the similar-corpus column: per-word ECC is "
          "linear, so lines differing in a single word exercise "
          "only that word's 8 check bits and collide heavily — "
          "this is exactly why ESD always verifies candidates "
          "with a byte-by-byte comparison (harmless there, but "
          "fatal for any hash-trusting scheme with a weak "
          "fingerprint).\n";
    f["crc32c_random_collisions"] = crc_random;
    f["ecc_random_collisions"] =
        static_cast<double>(fps[1].random.collisions);
    f["ecc_similar_collisions"] =
        static_cast<double>(fps[1].similar.collisions);
    f["sha1_collisions_max"] = static_cast<double>(
        std::max({fps[2].random.collisions, fps[2].similar.collisions,
                  fps[3].random.collisions, fps[3].similar.collisions}));
}

void
renderFig11(const Runs &runs, std::ostream &os, Figures &f)
{
    TablePrinter table({"app", "Dedup_SHA1", "DeWrite", "ESD"});
    double sum[3] = {0, 0, 0};
    for (std::size_t a = 0; a < runs.apps().size(); ++a) {
        Cells row{runs.apps()[a]};
        for (int i = 0; i < 3; ++i) {
            double red = runs.at(a, i).writeReduction();
            sum[i] += red;
            row.push_back(TablePrinter::pct(red));
        }
        table.addRow(row);
    }
    std::size_t n = runs.apps().size();
    table.addRow({"average", TablePrinter::pct(sum[0] / n),
                  TablePrinter::pct(sum[1] / n),
                  TablePrinter::pct(sum[2] / n)});
    table.print(os);
    os << "\n";
    f["esd_average"] = sum[2] / n;
    f["full_minus_esd"] = (sum[0] - sum[2]) / n;
}

/**
 * Figs. 12-14: each dedup scheme's ratio to Baseline per app, oriented
 * so > 1 is better, with the geomeans and the figures their bands read.
 */
auto
ratios(const char *base_col, int base_digits,
       double (*metric)(const RunResult &), bool lower_is_better)
{
    return [=](const Runs &runs, std::ostream &os, Figures &f)
    {
        TablePrinter table({"app", base_col, "Dedup_SHA1", "DeWrite",
                            "ESD"});
        std::vector<double> sp[3];
        for (std::size_t a = 0; a < runs.apps().size(); ++a) {
            double base = metric(runs.at(a, 0));
            Cells row{runs.apps()[a], TablePrinter::num(base, base_digits)};
            for (int i = 0; i < 3; ++i) {
                double mine = metric(runs.at(a, i + 1));
                double s = lower_is_better ? (mine > 0 ? base / mine : 0)
                                           : (base > 0 ? mine / base : 0);
                sp[i].push_back(s);
                row.push_back(speedup(s));
            }
            table.addRow(row);
            if (runs.apps()[a] == "lbm")
                f["dewrite_over_esd_lbm"] = sp[1].back() - sp[2].back();
        }
        table.addRow({"geomean", "-", speedup(geomean(sp[0])),
                      speedup(geomean(sp[1])), speedup(geomean(sp[2]))});
        table.print(os);
        os << "\n";
        f["esd_min"] = *std::min_element(sp[2].begin(), sp[2].end());
        f["sha1_apps_below_1x"] = static_cast<double>(std::count_if(
            sp[0].begin(), sp[0].end(), [](double v) { return v < 1.0; }));
        f["esd_over_dewrite_geomean"] = geomean(sp[2]) - geomean(sp[1]);
        f["dewrite_over_sha1_geomean"] = geomean(sp[1]) - geomean(sp[0]);
    };
}

void
renderFig15(const Runs &runs, std::ostream &os, Figures &f)
{
    double ordered = 0, shortest_tail = 0;
    for (std::size_t a = 0; a < runs.apps().size(); ++a) {
        os << runs.apps()[a] << ":\n";
        TablePrinter table({"scheme", "p50", "p90", "p99", "p99.9",
                            "max"});
        for (int i = 0; i < 3; ++i) {
            const LatencyStat &w = runs.at(a, i).writeLatency;
            table.addRow({schemeName(kDedup[i]),
                          TablePrinter::num(w.percentile(50), 0),
                          TablePrinter::num(w.percentile(90), 0),
                          TablePrinter::num(w.percentile(99), 0),
                          TablePrinter::num(w.percentile(99.9), 0),
                          TablePrinter::num(w.max(), 0)});
        }
        table.print(os);

        // 10-point CDF series (latency at each decile) — the plotted
        // curves of the figure.
        for (int i = 0; i < 3; ++i) {
            os << "  cdf " << schemeName(kDedup[i]) << ":";
            for (const auto &[lat, frac] : runs.at(a, i).writeLatency.cdf(10))
                os << " (" << TablePrinter::num(lat, 0) << ","
                   << TablePrinter::num(frac, 1) << ")";
            os << "\n";
        }
        os << "\n";

        auto pct = [&](int i, double p)
        { return runs.at(a, i).writeLatency.percentile(p); };
        ordered += pct(2, 50) <= pct(1, 50) && pct(1, 50) <= pct(0, 50);
        shortest_tail += pct(2, 99) <= std::min(pct(0, 99), pct(1, 99));
    }
    f["apps_esd_dewrite_sha1_p50_order"] = ordered;
    f["apps_esd_shortest_p99"] = shortest_tail;
}

void
renderFig16(const Runs &runs, std::ostream &os, Figures &f)
{
    TablePrinter table({"app", "base(uJ)", "Dedup_SHA1", "DeWrite",
                        "ESD"});
    double sum[3] = {0, 0, 0};
    for (std::size_t a = 0; a < runs.apps().size(); ++a) {
        double base = runs.at(a, 0).energy.total();
        Cells row{runs.apps()[a], TablePrinter::num(base / 1e6, 1)};
        for (int i = 0; i < 3; ++i) {
            double mine = runs.at(a, i + 1).energy.total();
            double s = base > 0 ? mine / base : 0;
            sum[i] += s;
            row.push_back(TablePrinter::num(s, 3));
        }
        table.addRow(row);
    }
    std::size_t n = runs.apps().size();
    table.addRow({"average", "-", TablePrinter::num(sum[0] / n, 3),
                  TablePrinter::num(sum[1] / n, 3),
                  TablePrinter::num(sum[2] / n, 3)});
    table.print(os);

    // Component decomposition, aggregated over the suite.
    os << "\nAggregate energy decomposition (uJ):\n";
    TablePrinter comp({"scheme", "dev-read", "dev-write", "hash",
                       "crypto", "metadata", "total"});
    for (std::size_t k = 0; k < allSchemeKinds().size(); ++k) {
        EnergyBreakdown e;
        for (std::size_t a = 0; a < n; ++a)
            e.add(runs.at(a, k).energy);
        comp.addRow({schemeName(allSchemeKinds()[k]),
                     TablePrinter::num(e.deviceRead / 1e6, 1),
                     TablePrinter::num(e.deviceWrite / 1e6, 1),
                     TablePrinter::num(e.hash / 1e6, 1),
                     TablePrinter::num(e.crypto / 1e6, 1),
                     TablePrinter::num(e.metadata / 1e6, 1),
                     TablePrinter::num(e.total() / 1e6, 1)});
        if (allSchemeKinds()[k] == SchemeKind::Esd)
            f["esd_hash_energy"] = e.hash;
    }
    comp.print(os);
    os << "\n";
    f["dewrite_minus_esd"] = (sum[1] - sum[2]) / n;
    f["sha1_minus_dewrite"] = (sum[0] - sum[1]) / n;
}

void
renderFig17(const Runs &runs, std::ostream &os, Figures &f)
{
    TablePrinter table({"scheme", "fp-compute", "fp-NVMM-lookup",
                        "read-compare", "line-write", "encrypt",
                        "metadata"});
    const char *tag[3] = {"sha1", "dewrite", "esd"};
    for (int i = 0; i < 3; ++i) {
        WriteBreakdown sum;
        for (std::size_t a = 0; a < runs.apps().size(); ++a)
            sum.add(runs.at(a, i).breakdown);
        double t = sum.total();
        auto share = [&](double v) { return t > 0 ? v / t : 0; };
        table.addRow({schemeName(kDedup[i]),
                      TablePrinter::pct(share(sum.fpCompute)),
                      TablePrinter::pct(share(sum.fpNvmLookup)),
                      TablePrinter::pct(share(sum.readCompare)),
                      TablePrinter::pct(share(sum.lineWrite)),
                      TablePrinter::pct(share(sum.encrypt)),
                      TablePrinter::pct(share(sum.metadata))});
        f[std::string(tag[i]) + "_fp_compute_share"] = share(sum.fpCompute);
        f[std::string(tag[i]) + "_fp_lookup_share"] =
            share(sum.fpNvmLookup);
    }
    table.print(os);
    os << "\n";
}

const std::uint64_t kFig18Sizes[] = {64 << 10,  128 << 10,  256 << 10,
                                     512 << 10, 1024 << 10, 2048 << 10};

/** Suite average of @p metric over series @p s. */
double
suiteMean(const Runs &runs, std::size_t s,
          double (*metric)(const RunResult &))
{
    double sum = 0;
    for (std::size_t a = 0; a < runs.apps().size(); ++a)
        sum += metric(runs.at(a, s));
    return sum / runs.apps().size();
}

double fpHit(const RunResult &r) { return r.fpCacheHitRate; }
double amtHit(const RunResult &r) { return r.amtCacheHitRate; }
double reduction(const RunResult &r) { return r.writeReduction(); }
double writeLat(const RunResult &r) { return r.writeLatency.mean(); }
double readLat(const RunResult &r) { return r.readLatency.mean(); }
double ipc(const RunResult &r) { return r.ipc; }

void
renderFig18(const Runs &runs, std::ostream &os, Figures &f)
{
    TablePrinter table({"cache-size", "EFIT+LRCU", "EFIT(LRU)", "AMT"});
    double gap = kInf, efit512 = 0, efit_last = 0;
    for (std::size_t i = 0; i < std::size(kFig18Sizes); ++i) {
        double lrcu = suiteMean(runs, 2 * i, fpHit);
        double lru = suiteMean(runs, 2 * i + 1, fpHit);
        double amt = suiteMean(runs, 2 * i, amtHit);
        table.addRow({std::to_string(kFig18Sizes[i] >> 10) + "KB",
                      TablePrinter::pct(lrcu, 2),
                      TablePrinter::pct(lru, 2),
                      TablePrinter::pct(amt, 2)});
        gap = std::min(gap, lrcu - lru);
        if (kFig18Sizes[i] == 512 << 10)
            efit512 = lrcu;
        efit_last = lrcu;
    }
    table.print(os);
    os << "\n";
    f["lrcu_minus_lru_min"] = gap;
    f["efit_gain_past_512k"] = efit_last - efit512;
}

void
renderFig19(const Runs &runs, std::ostream &os, Figures &f)
{
    double sum_bytes[4] = {0, 0, 0, 0};
    std::uint64_t sum_data = 0;
    TablePrinter table({"app", "Dedup_SHA1(KB)", "DeWrite(KB)",
                        "ESD(KB)", "ESD/SHA1"});
    for (std::size_t a = 0; a < runs.apps().size(); ++a) {
        double b[4];
        for (int i = 0; i < 4; ++i) {
            b[i] = static_cast<double>(runs.at(a, i).metadataNvmBytes);
            sum_bytes[i] += b[i];
        }
        sum_data += runs.at(a, 3).uniqueLinesStored * kLineSize;
        table.addRow({runs.apps()[a], TablePrinter::num(b[1] / 1024, 1),
                      TablePrinter::num(b[2] / 1024, 1),
                      TablePrinter::num(b[3] / 1024, 1),
                      TablePrinter::num(b[1] > 0 ? b[3] / b[1] : 0, 3)});
    }
    table.addRow({"total", TablePrinter::num(sum_bytes[1] / 1024, 1),
                  TablePrinter::num(sum_bytes[2] / 1024, 1),
                  TablePrinter::num(sum_bytes[3] / 1024, 1),
                  TablePrinter::num(sum_bytes[3] / sum_bytes[1], 3)});
    table.print(os);

    f["esd_saving_vs_sha1"] = 1 - sum_bytes[3] / sum_bytes[1];
    f["esd_saving_vs_dewrite"] = 1 - sum_bytes[3] / sum_bytes[2];
    os << "\nNormalised to Dedup_SHA1: DeWrite="
       << TablePrinter::num(sum_bytes[2] / sum_bytes[1], 3)
       << " ESD=" << TablePrinter::num(sum_bytes[3] / sum_bytes[1], 3)
       << " (reductions: ESD vs SHA1 "
       << TablePrinter::pct(f["esd_saving_vs_sha1"])
       << ", ESD vs DeWrite "
       << TablePrinter::pct(f["esd_saving_vs_dewrite"]) << ")\n"
       << "metadata vs stored data (ESD): "
       << TablePrinter::pct(sum_bytes[3] / static_cast<double>(sum_data))
       << "\n";
}

void
renderSelective(const Runs &runs, std::ostream &os, Figures &f)
{
    TablePrinter table({"app", "red(ESD)", "red(Full)", "wlat(ESD)",
                        "wlat(Full)", "fpNVMM-lookups", "meta(ESD)KB",
                        "meta(Full)KB"});
    double w_esd = 0, w_full = 0;
    double more_dups = kInf, more_meta = kInf, lookups = kInf;
    for (std::size_t a = 0; a < runs.apps().size(); ++a) {
        const RunResult &esd = runs.at(a, 0);
        const RunResult &full = runs.at(a, 1);
        std::uint64_t fp_lookups = runs.stat(a, 1, "scheme.fp_nvm_lookups");
        w_esd += esd.writeLatency.mean();
        w_full += full.writeLatency.mean();
        table.addRow(
            {runs.apps()[a], TablePrinter::pct(esd.writeReduction()),
             TablePrinter::pct(full.writeReduction()),
             TablePrinter::num(esd.writeLatency.mean(), 1),
             TablePrinter::num(full.writeLatency.mean(), 1),
             std::to_string(fp_lookups),
             TablePrinter::num(esd.metadataNvmBytes / 1024.0, 1),
             TablePrinter::num(full.metadataNvmBytes / 1024.0, 1)});
        more_dups = std::min(more_dups, full.writeReduction() -
                                            esd.writeReduction());
        more_meta = std::min(more_meta,
                             static_cast<double>(full.metadataNvmBytes) -
                                 static_cast<double>(esd.metadataNvmBytes));
        lookups = std::min<double>(lookups, fp_lookups);
    }
    table.print(os);
    std::size_t n = runs.apps().size();
    os << "\nmean write latency: ESD=" << TablePrinter::num(w_esd / n, 1)
       << "ns  ESD_Full=" << TablePrinter::num(w_full / n, 1) << "ns\n";
    f["full_minus_esd_reduction_min"] = more_dups;
    f["full_minus_esd_metadata_min"] = more_meta;
    f["full_fp_lookups_min"] = lookups;
}

const std::uint64_t kLrcuKb[] = {32, 64, 128, 512};
/** (LRCU, decay period) per size: LRCU with decay, plain LRU, LRCU
 * without decay. */
const std::pair<bool, std::uint64_t> kLrcuPolicies[] = {
    {true, 4096}, {false, 0}, {true, 0}};

void
renderLrcu(const Runs &runs, std::ostream &os, Figures &f)
{
    TablePrinter table({"EFIT-size", "policy", "hit-rate",
                        "write-reduction", "mean-wlat(ns)"});
    double gap = kInf, gap_first = 0, gap_last = 0;
    for (std::size_t i = 0; i < std::size(kLrcuKb); ++i) {
        const std::pair<const char *, std::size_t> policies[] = {
            {"LRCU+decay", 3 * i}, {"LRCU,no-decay", 3 * i + 2},
            {"LRU", 3 * i + 1}};
        for (const auto &[policy, s] : policies) {
            table.addRow(
                {std::to_string(kLrcuKb[i]) + "KB", policy,
                 TablePrinter::pct(suiteMean(runs, s, fpHit), 2),
                 TablePrinter::pct(suiteMean(runs, s, reduction), 2),
                 TablePrinter::num(suiteMean(runs, s, writeLat), 1)});
        }
        double g = suiteMean(runs, 3 * i, fpHit) -
                   suiteMean(runs, 3 * i + 1, fpHit);
        gap = std::min(gap, g);
        gap_first = i == 0 ? g : gap_first;
        gap_last = g;
    }
    table.print(os);
    os << "\n";
    f["lrcu_minus_lru_min"] = gap;
    f["gap_smallest_minus_largest"] = gap_first - gap_last;
}

const std::uint32_t kReferHCaps[] = {3, 15, 255, 65535};

void
renderReferH(const Runs &runs, std::ostream &os, Figures &f)
{
    TablePrinter table({"referH-max", "bits", "write-reduction",
                        "saturation-rewrites", "mean-wlat(ns)"});
    double red_at[std::size(kReferHCaps)];
    std::uint64_t rewrites_at[std::size(kReferHCaps)];
    for (std::size_t i = 0; i < std::size(kReferHCaps); ++i) {
        double red = 0, wlat = 0;
        std::uint64_t rewrites = 0;
        for (std::size_t a = 0; a < runs.apps().size(); ++a) {
            red += runs.at(a, i).writeReduction();
            wlat += runs.at(a, i).writeLatency.mean();
            rewrites += runs.stat(a, i, "scheme.referh_overflow_rewrites");
        }
        int bits = 0;
        for (std::uint32_t v = kReferHCaps[i]; v; v >>= 1)
            ++bits;
        std::size_t n = runs.apps().size();
        table.addRow({std::to_string(kReferHCaps[i]), std::to_string(bits),
                      TablePrinter::pct(red / n, 2),
                      std::to_string(rewrites),
                      TablePrinter::num(wlat / n, 1)});
        red_at[i] = red / n;
        rewrites_at[i] = rewrites;
    }
    table.print(os);
    os << "\n";
    f["wide_minus_8bit_reduction"] = red_at[3] - red_at[2];
    f["2bit_minus_8bit_rewrites"] = static_cast<double>(rewrites_at[0]) -
                                    static_cast<double>(rewrites_at[2]);
}

void
renderContentCache(const Runs &runs, std::ostream &os, Figures &f)
{
    TablePrinter table({"app", "red(ESD)", "red(ESD+)", "cmp-reads(ESD)",
                        "cmp-reads(ESD+)", "on-chip-cmp", "wlat(ESD)",
                        "wlat(ESD+)"});
    double w0 = 0, w1 = 0, red_gap = 0;
    std::uint64_t onchip_sum = 0, cmp_sum = 0;
    for (std::size_t a = 0; a < runs.apps().size(); ++a) {
        const RunResult &esd = runs.at(a, 0);
        const RunResult &plus = runs.at(a, 1);
        std::uint64_t esd_cmp = runs.stat(a, 0, "scheme.compare_reads");
        std::uint64_t plus_cmp = runs.stat(a, 1, "scheme.compare_reads");
        std::uint64_t onchip = runs.stat(a, 1, "esd.content_cache.hits");
        w0 += esd.writeLatency.mean();
        w1 += plus.writeLatency.mean();
        table.addRow({runs.apps()[a], TablePrinter::pct(esd.writeReduction()),
                      TablePrinter::pct(plus.writeReduction()),
                      std::to_string(esd_cmp), std::to_string(plus_cmp),
                      std::to_string(onchip),
                      TablePrinter::num(esd.writeLatency.mean(), 1),
                      TablePrinter::num(plus.writeLatency.mean(), 1)});
        red_gap = std::max(red_gap, std::fabs(plus.writeReduction() -
                                              esd.writeReduction()));
        onchip_sum += onchip;
        cmp_sum += onchip + plus_cmp;
    }
    table.print(os);
    std::size_t n = runs.apps().size();
    os << "\nmean write latency: ESD=" << TablePrinter::num(w0 / n, 1)
       << "ns  ESD+=" << TablePrinter::num(w1 / n, 1) << "ns\n";
    f["reduction_gap_max"] = red_gap;
    f["onchip_compare_share"] =
        cmp_sum ? static_cast<double>(onchip_sum) / cmp_sum : 0;
}

/** Start-Gap off and on under each paper scheme. Off is the default
 * config; on rotates a 64-line region every 2 writes, so a bench run
 * sees whole rotations (production Start-Gap, period 100 over 16 K-line
 * regions, needs ~1.6 M writes per region to rotate once). */
std::vector<Series>
enduranceSeries()
{
    std::vector<Series> out;
    for (SchemeKind k : allSchemeKinds()) {
        Series on{k};
        on.cfg.pcm.startGapEnabled = true;
        on.cfg.pcm.gapMovePeriod = 2;
        on.cfg.pcm.startGapRegionLines = 64;
        out.push_back({k});
        out.push_back(on);
    }
    return out;
}

void
renderEndurance(const Runs &runs, std::ostream &os, Figures &f)
{
    constexpr double kCellEndurance = 1e7;  // PCM, Section I
    TablePrinter table({"scheme", "start-gap", "NVMM-writes",
                        "max-line-wear", "imbalance", "rel-lifetime"});
    const std::size_t kinds = allSchemeKinds().size();
    std::vector<double> writes(2 * kinds), wear(2 * kinds),
        imbalance(2 * kinds);
    double base_life = 0;
    for (std::size_t s = 0; s < 2 * kinds; ++s) {
        std::uint64_t total = 0, max_wear = 0;
        for (std::size_t a = 0; a < runs.apps().size(); ++a) {
            const RunResult &r = runs.at(a, s);
            total += r.nvmWritesTotal;
            max_wear = std::max(max_wear, r.wear.maxLineWrites);
            imbalance[s] += r.wear.imbalance();
        }
        imbalance[s] /= runs.apps().size();
        writes[s] = static_cast<double>(total);
        wear[s] = static_cast<double>(max_wear);
        double life = max_wear ? kCellEndurance / max_wear : 0;
        if (s == 0)
            base_life = life;
        table.addRow({schemeName(allSchemeKinds()[s / 2]),
                      s % 2 ? "on" : "off", std::to_string(total),
                      std::to_string(max_wear),
                      TablePrinter::num(imbalance[s], 1),
                      speedup(base_life ? life / base_life : 1.0)});
    }
    table.print(os);
    os << "\n";
    // Series 2k is SchemeKind k with Start-Gap off, 2k + 1 with it on;
    // Baseline is kind 0 and ESD the last.
    double more_writes = -kInf, wear_gap = kInf, gap_wear = -kInf;
    for (std::size_t k = 1; k < kinds; ++k)
        more_writes = std::max(more_writes, writes[2 * k] - writes[0]);
    for (SchemeKind kind : {SchemeKind::DedupSha1, SchemeKind::DeWrite}) {
        std::size_t k = static_cast<std::size_t>(kind);
        wear_gap = std::min(wear_gap, wear[2 * k] - wear[0]);
        gap_wear = std::max(gap_wear, wear[2 * k + 1] - wear[2 * k]);
    }
    double flattest = kInf;
    for (std::size_t k = 0; k + 1 < kinds; ++k)
        flattest = std::min(flattest, imbalance[2 * k + 1] -
                                          imbalance[2 * kinds - 1]);
    f["dedup_minus_baseline_writes_max"] = more_writes;
    f["sha1_dewrite_minus_baseline_wear_min"] = wear_gap;
    f["start_gap_sha1_dewrite_wear_change_max"] = gap_wear;
    f["others_minus_esd_imbalance_start_gap_min"] = flattest;
}

const double kRasBers[] = {0.0, 1e-6, 1e-5, 1e-4};

/** A fault campaign per (paper scheme, read BER), then each scheme's
 * fault-free default config for the BER-0 identity band. */
std::vector<Series>
rasSeries()
{
    std::vector<Series> out;
    for (SchemeKind k : allSchemeKinds()) {
        for (double ber : kRasBers) {
            Series s{k};
            s.cfg.ras.enabled = true;
            s.cfg.ras.readBer = ber;
            s.cfg.ras.writeBer = ber / 10;
            s.cfg.ras.demandScrub = true;
            s.cfg.ras.patrolIntervalWrites = 512;
            s.cfg.ras.patrolLinesPerSweep = 8;
            s.cfg.ras.writeVerifyRetries = 2;
            s.cfg.ras.writeVerifyBackoffNs = 100;
            out.push_back(s);
        }
    }
    for (SchemeKind k : allSchemeKinds())
        out.push_back({k});
    return out;
}

void
renderRas(const Runs &runs, std::ostream &os, Figures &f)
{
    TablePrinter table({"scheme", "read-BER", "injected", "corrected",
                        "retired", "UE", "SDC", "blast-radius",
                        "dedup-rate"});
    const std::size_t kinds = allSchemeKinds().size();
    const std::size_t bers = std::size(kRasBers);
    double ber0_max = 0, ber0_gap = 0, sdc_share = 0, base_blast = 0;
    double dedup_blast = kInf;
    for (std::size_t k = 0; k < kinds; ++k) {
        for (std::size_t b = 0; b < bers; ++b) {
            std::size_t s = k * bers + b;
            auto stat = [&](const char *key) { return runs.stat(0, s, key); };
            enum { kInjected, kCorrected, kRetired, kUe, kSdc, kBlast };
            const std::uint64_t col[] = {
                stat("ras.faults.bit_flips_read") +
                    stat("ras.faults.bit_flips_write"),
                stat("scheme.ecc_corrected_reads") +
                    stat("ras.patrol_corrected"),
                stat("ras.lines_retired"), stat("ras.ue_events"),
                stat("scheme.sdc_events"), stat("ras.blast_radius_refs")};
            double red = runs.at(0, s).writeReduction();
            Cells row{schemeName(allSchemeKinds()[k]),
                      TablePrinter::num(kRasBers[b], 6)};
            for (std::uint64_t v : col)
                row.push_back(std::to_string(v));
            row.push_back(TablePrinter::pct(red));
            table.addRow(row);
            double blast_over_ue = static_cast<double>(col[kBlast]) -
                                   static_cast<double>(col[kUe]);
            if (b == 0) {
                ber0_max = std::max<double>(
                    ber0_max, *std::max_element(std::begin(col),
                                                std::end(col)));
                // Series kinds * bers + k is scheme k's fault-free run.
                ber0_gap = std::max(
                    ber0_gap, std::fabs(red - runs.at(0, kinds * bers + k)
                                                  .writeReduction()));
            }
            if (col[kInjected])
                sdc_share = std::max(sdc_share,
                                     static_cast<double>(col[kSdc]) /
                                         col[kInjected]);
            if (k == 0)
                base_blast = std::max(base_blast, std::fabs(blast_over_ue));
            else if (b == bers - 1)
                dedup_blast = std::min(dedup_blast, blast_over_ue);
        }
    }
    table.print(os);
    os << "\n";
    f["ber0_ras_column_max"] = ber0_max;
    f["ber0_reduction_gap_max"] = ber0_gap;
    f["sdc_share_of_injected_max"] = sdc_share;
    f["baseline_blast_minus_ue_max"] = base_blast;
    f["dedup_blast_minus_ue_at_1e-4_min"] = dedup_blast;
}

const char *const kPersistDomains[] = {"off", "adr", "eadr"};

/** Every scheme with persistence off (the default config), under ADR
 * and under eADR. */
std::vector<Series>
persistSeries()
{
    std::vector<Series> out;
    for (SchemeKind k : allSchemeKindsExtended()) {
        for (const char *domain : kPersistDomains) {
            Series s{k};
            if (domain != kPersistDomains[0]) {
                s.cfg.persist.enabled = true;
                s.cfg.persist.domain = parsePersistDomain("domain", domain);
            }
            out.push_back(s);
        }
    }
    return out;
}

void
renderPersist(const Runs &runs, std::ostream &os, Figures &f)
{
    TablePrinter table({"scheme", "persist", "write mean", "write p99",
                        "mean vs off", "journal recs", "commits",
                        "barrier ns", "drain ns"});
    const std::size_t domains = std::size(kPersistDomains);
    double eadr_drain = 0, eadr_over_adr = -kInf, adr_lo = kInf,
           adr_hi = -kInf;
    for (std::size_t k = 0; k < allSchemeKindsExtended().size(); ++k) {
        double off_mean = runs.at(0, k * domains).writeLatency.mean();
        for (std::size_t d = 0; d < domains; ++d) {
            std::size_t s = k * domains + d;
            const RunResult &r = runs.at(0, s);
            // persist.* is registered only on persistence-enabled runs.
            auto stat = [&](const char *key)
            { return d == 0 ? 0 : runs.stat(0, s, key); };
            double mean = r.writeLatency.mean();
            double rel = off_mean > 0 ? mean / off_mean : 1.0;
            table.addRow({schemeName(allSchemeKindsExtended()[k]),
                          kPersistDomains[d], TablePrinter::num(mean, 1),
                          TablePrinter::num(r.writeLatency.percentile(99), 0),
                          TablePrinter::num(rel, 3),
                          std::to_string(stat("persist.journal_records")),
                          std::to_string(stat("persist.epoch_commits")),
                          std::to_string(stat("persist.barrier_ns")),
                          std::to_string(stat("persist.drain_wait_ns"))});
            if (d == 1) {
                adr_lo = std::min(adr_lo, rel);
                adr_hi = std::max(adr_hi, rel);
            } else if (d == 2) {
                eadr_drain = std::max<double>(
                    eadr_drain, stat("persist.drain_wait_ns"));
                eadr_over_adr = std::max(
                    eadr_over_adr,
                    mean - runs.at(0, s - 1).writeLatency.mean());
            }
        }
    }
    table.print(os);
    os << "\n";
    f["eadr_drain_wait_ns_max"] = eadr_drain;
    f["eadr_minus_adr_mean_max"] = eadr_over_adr;
    f["adr_mean_vs_off_min"] = adr_lo;
    f["adr_mean_vs_off_max"] = adr_hi;
}

const unsigned kChannelCounts[] = {1, 2, 4, 8};

/** Every scheme at 1/2/4/8 channels with WPQ coalescing on. */
std::vector<Series>
channelSeries()
{
    std::vector<Series> out;
    for (SchemeKind k : allSchemeKindsExtended()) {
        for (unsigned ch : kChannelCounts) {
            Series s{k};
            s.cfg.channels.count = ch;
            s.cfg.channels.wpqCoalescing = true;
            out.push_back(s);
        }
    }
    return out;
}

void
renderChannels(const Runs &runs, std::ostream &os, Figures &f)
{
    TablePrinter table({"scheme", "ch", "write mean ns", "write p99 ns",
                        "coalesced", "IPC"});
    const std::size_t counts = std::size(kChannelCounts);
    const std::size_t kinds = allSchemeKindsExtended().size();
    double ipc_step = kInf;
    for (std::size_t s = 0; s < kinds * counts; ++s) {
        const RunResult &r = runs.at(0, s);
        table.addRow({r.schemeName, std::to_string(kChannelCounts[s % counts]),
                      TablePrinter::num(r.writeLatency.mean(), 1),
                      TablePrinter::num(r.writeLatency.percentile(99), 0),
                      std::to_string(r.nvmWritesCoalesced),
                      TablePrinter::num(r.ipc, 3)});
        if (s % counts)
            ipc_step = std::min(ipc_step, r.ipc - runs.at(0, s - 1).ipc);
    }
    table.print(os);

    // Headline: how much the channel spread alone buys each scheme.
    os << "\nwrite-latency speedup, 1 -> 4 channels:\n";
    double others = kInf;
    for (std::size_t k = 0; k < kinds; ++k) {
        double one = runs.at(0, k * counts).writeLatency.mean();
        double four = runs.at(0, k * counts + 2).writeLatency.mean();
        double sp = four > 0 ? one / four : 0;
        os << "  " << schemeName(allSchemeKindsExtended()[k]) << ": "
           << speedup(sp) << "\n";
        if (allSchemeKindsExtended()[k] == SchemeKind::DedupSha1)
            f["sha1_speedup_1_to_4"] = sp;
        else
            others = std::min(others, sp);
    }
    os << "\n";
    f["ipc_step_min"] = ipc_step;
    f["speedup_1_to_4_min_but_sha1"] = others;
}

const unsigned kCoreCounts[] = {1, 2, 4, 8};

/** Each paper scheme at 1/2/4/8 cores; core i replays a different app
 * of a mixed bag so the cores do not run in lockstep. */
std::vector<Series>
multicoreSeries()
{
    static const char *const kMix[] = {"gcc", "lbm",  "x264",    "mcf",
                                       "wrf", "dedup", "facesim", "bodytrack"};
    std::vector<Series> out;
    for (unsigned cores : kCoreCounts)
        for (SchemeKind k : allSchemeKinds())
            out.push_back({k, bench::benchConfig(),
                           {kMix + 1, kMix + cores}});
    return out;
}

void
renderMulticore(const Runs &runs, std::ostream &os, Figures &f)
{
    TablePrinter table({"cores", "scheme", "sys-IPC", "wlat(ns)",
                        "rlat(ns)", "write-red", "vs-Baseline-IPC"});
    const std::size_t kinds = allSchemeKinds().size();
    double lat_step = kInf, esd_vs_base = kInf;
    for (std::size_t c = 0; c < std::size(kCoreCounts); ++c) {
        double base_ipc = runs.at(0, c * kinds).ipc;
        for (std::size_t k = 0; k < kinds; ++k) {
            const RunResult &r = runs.at(0, c * kinds + k);
            double rel = base_ipc > 0 ? r.ipc / base_ipc : 1.0;
            table.addRow({std::to_string(kCoreCounts[c]),
                          schemeName(allSchemeKinds()[k]),
                          TablePrinter::num(r.ipc, 3),
                          TablePrinter::num(r.writeLatency.mean(), 1),
                          TablePrinter::num(r.readLatency.mean(), 1),
                          TablePrinter::pct(r.writeReduction()),
                          speedup(rel)});
            if (c > 0) {
                const RunResult &fewer = runs.at(0, (c - 1) * kinds + k);
                lat_step = std::min(
                    {lat_step,
                     r.writeLatency.mean() - fewer.writeLatency.mean(),
                     r.readLatency.mean() - fewer.readLatency.mean()});
            }
            if (allSchemeKinds()[k] == SchemeKind::Esd && kCoreCounts[c] <= 2)
                esd_vs_base = std::min(esd_vs_base, rel);
        }
    }
    table.print(os);
    os << "\n";
    f["latency_step_min"] = lat_step;
    f["esd_rel_ipc_1_2_cores_min"] = esd_vs_base;
}

std::vector<Row>
makeRows()
{
    const char *kShare = "±5 points on a share";
    const char *kOrder = "an ordering: exact";
    auto ratio_bands = [&](const std::string &what, const char *esd_claim)
    {
        return std::vector<Band>{
            {esd_claim, "esd_min", 1, kInf, kOrder, kPlacement},
            {"Dedup_SHA1 " + what + " below 1x on most apps (11+ of 20)",
             "sha1_apps_below_1x", 11, kInf, "a count: exact"},
            {"geomean: ESD >= DeWrite", "esd_over_dewrite_geomean", 0, kInf,
             kOrder},
            {"geomean: DeWrite >= Dedup_SHA1", "dewrite_over_sha1_geomean",
             0, kInf, kOrder}};
    };
    std::vector<Band> fig12 = ratio_bands(
        "write speedup", "ESD >= 1x write speedup on every app (up to 3.4x)");
    fig12.push_back({"DeWrite beats ESD on lbm", "dewrite_over_esd_lbm", 0,
                     kInf, kOrder, kFootprint});
    std::vector<Series> fig18, lrcu, referh;
    for (std::uint64_t s : kFig18Sizes)
        for (bool on : {true, false})
            fig18.push_back(esdWith([&](MetadataConfig &m) {
                m.efitCacheBytes = m.amtCacheBytes = s;
                m.useLrcu = on;
            }));
    for (std::uint64_t kb : kLrcuKb)
        for (auto [on, decay] : kLrcuPolicies)
            lrcu.push_back(esdWith([&](MetadataConfig &m) {
                m.efitCacheBytes = kb << 10;
                m.useLrcu = on;
                m.decayPeriod = decay;
            }));
    for (std::uint32_t cap : kReferHCaps)
        referh.push_back(
            esdWith([&](MetadataConfig &m) { m.referHMax = cap; }));

    return {
        {"bench_config", "Table I", "System configuration parameters", {},
         renderTableI, {}, {}},
        {"bench_fig01_duprate", "Figure 1",
         "Duplicate rate of cache lines per application", {}, renderFig1,
         {near("average duplicate rate is 62.9%", "dup_rate_average",
               0.629, 0.05, kShare),
          near("the lowest app's duplicate rate is 33.1%", "dup_rate_min",
               0.331, 0.05, kShare),
          near("the highest app's duplicate rate is 99.9%", "dup_rate_max",
               0.999, 0.05, kShare)}},
        {"bench_fig02_worstcase", "Figure 2",
         "Worst-case normalised performance (relative IPC and write "
         "speedup vs Baseline)",
         seriesOf(allSchemeKinds()), renderFig2,
         {{"on leela, Dedup_SHA1 falls below Baseline", "leela_sha1_rel_ipc",
           -kInf, 1, kOrder},
          {"ESD stays >= Baseline on leela and lbm", "esd_min_rel_ipc", 1,
           kInf, kOrder, kPlacement}},
         {"leela", "lbm"}},
        {"bench_fig03_locality", "Figure 3",
         "Reference-count distribution (a: unique lines, b: occupied "
         "pre-dedup volume)",
         {}, renderFig3,
         {near("num1000+ lines are ~0.08% of unique lines",
               "num1000plus_lines_share", 0.0008, 0.0004,
               "±0.04 points, half the paper's share: ±5 points would "
               "admit any share below 5%",
               kFootprint),
          near("num1000+ lines carry ~42.7% of pre-dedup volume",
               "num1000plus_volume_share", 0.427, 0.05, kShare,
               kFootprint)}},
        {"bench_fig05_lookup", "Figure 5",
         "Duplicates filtered via cached vs NVMM fingerprints (Dedup_SHA1, "
         "full dedup) and the fp NVMM_lookup share of non-hash write "
         "latency",
         seriesOf({SchemeKind::DedupSha1}), renderFig5,
         {near("cached fingerprints filter 51.0% of writes on average",
               "via_cache_average", 0.510, 0.05, kShare),
          near("NVMM-resident fingerprints filter 13.7% more",
               "via_nvm_average", 0.137, 0.05, kShare, kFootprint),
          near("fingerprint NVMM lookups cost ~49.2% of write latency",
               "lookup_share_average", 0.492, 0.05, kShare,
               kLookupShare)}},
        {"bench_fig08_collision", "Figure 8",
         "Fingerprint collision rates (lower is better; normalised view: "
         "CRC is the reference)",
         {}, renderFig8,
         {{"CRC32C (DeWrite) collides on random lines",
           "crc32c_random_collisions", 1, kInf, "a count: exact"},
          {"the 64-bit ECC never collides on random lines",
           "ecc_random_collisions", -kInf, 0, "a count: exact"},
          {"SHA-1/64 and full SHA-1 never collide on either corpus",
           "sha1_collisions_max", -kInf, 0, "a count: exact"},
          {"the ECC collides on the similar corpus", "ecc_similar_collisions",
           1, kInf, "a count: exact"}},
         {}},
        {"bench_fig11_writes", "Figure 11",
         "Cache-line write reduction vs Baseline (fraction of logical "
         "writes eliminated)",
         seriesOf(kDedup), renderFig11,
         {near("ESD removes 47.8% of writes on average", "esd_average",
               0.478, 0.05, kShare, kFootprint),
          near("full dedup removes ~18.3 points more than ESD",
               "full_minus_esd", 0.183, 0.05, kShare, kFootprint)}},
        {"bench_fig12_wspeedup", "Figure 12",
         "Write speedup (Baseline mean write latency / scheme mean write "
         "latency)",
         seriesOf(allSchemeKinds()), ratios("base(ns)", 1, writeLat, true),
         fig12},
        {"bench_fig13_rspeedup", "Figure 13",
         "Read speedup (Baseline mean read latency / scheme mean read "
         "latency)",
         seriesOf(allSchemeKinds()), ratios("base(ns)", 1, readLat, true),
         ratio_bands("read speedup",
                     "ESD speeds reads on every app (up to 5.3x)")},
        {"bench_fig14_ipc", "Figure 14", "Relative IPC (scheme / Baseline)",
         seriesOf(allSchemeKinds()), ratios("base-IPC", 3, ipc, false),
         ratio_bands("IPC", "ESD improves IPC on every app (up to 2.4x)")},
        {"bench_fig15_cdf", "Figure 15",
         "Write-latency CDF and tail percentiles (ns)", seriesOf(kDedup),
         renderFig15,
         {{"median write latency ESD <= DeWrite <= Dedup_SHA1 on all 8 apps",
           "apps_esd_dewrite_sha1_p50_order", 8, kInf, kOrder},
          {"ESD has the shortest p99 tail on all 8 apps",
           "apps_esd_shortest_p99", 8, kInf, kOrder}},
         {"gcc", "leela", "bodytrack", "dedup", "facesim", "fluidanimate",
          "wrf", "x264"}},
        {"bench_fig16_energy", "Figure 16",
         "Energy normalised to Baseline (< 1 is better)",
         seriesOf(allSchemeKinds()), renderFig16,
         {{"average energy: ESD <= DeWrite", "dewrite_minus_esd", 0, kInf,
           kOrder},
          {"average energy: DeWrite <= Dedup_SHA1", "sha1_minus_dewrite", 0,
           kInf, kOrder},
          {"ESD spends no hash energy", "esd_hash_energy", -kInf, 0,
           "structural: exact"}}},
        {"bench_fig17_profile", "Figure 17",
         "Write-latency profile (share of accumulated write-path time)",
         seriesOf(kDedup), renderFig17,
         {{"ESD's fingerprint-compute column is zero", "esd_fp_compute_share",
           -kInf, 0, "structural: exact"},
          {"ESD's fingerprint NVMM-lookup column is zero",
           "esd_fp_lookup_share", -kInf, 0, "structural: exact"},
          near("SHA-1 spends ~80% of write time on fingerprints",
               "sha1_fp_compute_share", 0.80, 0.05, kShare, kSha1Profile),
          near("DeWrite spends ~10% on fingerprint compute",
               "dewrite_fp_compute_share", 0.10, 0.05, kShare),
          near("DeWrite spends ~23% on fingerprint NVMM lookups",
               "dewrite_fp_lookup_share", 0.23, 0.05, kShare)}},
        {"bench_fig18_sweep", "Figure 18",
         "EFIT (w/ and w/o LRCU) and AMT cache hit rates vs cache size, "
         "averaged over the suite",
         fig18, renderFig18,
         {{"EFIT hit rate saturates near 512KB", "efit_gain_past_512k",
           -kInf, 0.01,
           "saturated: quadrupling the EFIT past 512KB gains at most 1 "
           "point"},
          {"LRCU beats plain LRU at every size", "lrcu_minus_lru_min", 0,
           kInf, kOrder}}},
        {"bench_fig19_metadata", "Figure 19",
         "Metadata NVMM footprint normalised to Dedup_SHA1",
         seriesOf(allSchemeKinds()), renderFig19,
         {near("ESD uses 81.2% less metadata than Dedup_SHA1",
               "esd_saving_vs_sha1", 0.812, 0.05, kShare, kFootprint),
          near("ESD uses 60.9% less metadata than DeWrite",
               "esd_saving_vs_dewrite", 0.609, 0.05, kShare, kFootprint)}},
        {"bench_abl_selective", "Ablation: selective vs full dedup",
         "ESD (cache-only EFIT) vs ESD_Full (same ECC fingerprints, full "
         "NVMM index)",
         seriesOf({SchemeKind::Esd, SchemeKind::EsdFull}), renderSelective,
         {{"ESD_Full removes at least ESD's duplicates on every app",
           "full_minus_esd_reduction_min", 0, kInf, kOrder},
          {"ESD_Full pays fingerprint NVMM lookups on every app",
           "full_fp_lookups_min", 1, kInf, kOrder},
          {"ESD_Full has the larger metadata footprint on every app",
           "full_minus_esd_metadata_min", 0, kInf, kOrder}}},
        {"bench_abl_lrcu", "Ablation: LRCU vs LRU vs decay",
         "EFIT policy under cache pressure (suite averages, ESD scheme)",
         lrcu, renderLrcu,
         {{"LRCU (with decay) >= LRU hit rate at every size",
           "lrcu_minus_lru_min", 0, kInf, kOrder},
          {"the LRCU-LRU gap widens as the EFIT shrinks",
           "gap_smallest_minus_largest", 0, kInf, kOrder}}},
        {"bench_abl_referh", "Ablation: referH saturation cap",
         "ESD with different reference-counter widths (suite totals)",
         referh, renderReferH,
         {{"an 8-bit referH captures nearly all reuse",
           "wide_minus_8bit_reduction", -kInf, 0.01,
           "nearly all: 16 bits gain at most 1 point over 8"},
          {"a 2-bit referH rewrites hot lines more often",
           "2bit_minus_8bit_rewrites", 1, kInf, kOrder}}},
        {"bench_abl_content_cache", "Extension: ESD+ content cache",
         "Byte comparisons served on chip vs from NVMM (4 KB content "
         "cache, hot threshold referH>=2)",
         seriesOf({SchemeKind::Esd, SchemeKind::EsdPlus}), renderContentCache,
         {{"ESD+ has ESD's write reduction on every app", "reduction_gap_max",
           -kInf, 0, "identity: exact"},
          {"most byte comparisons move on chip", "onchip_compare_share", 0.5,
           kInf, "most: more than half, exact"}}},
        {"bench_endurance", "Endurance",
         "NVMM write totals, wear concentration (max/mean line writes), and "
         "relative lifetime (suite aggregate)",
         enduranceSeries(), renderEndurance,
         {{"every dedup scheme's suite NVMM writes are at most Baseline's",
           "dedup_minus_baseline_writes_max", -kInf, 0, kOrder},
          {"Dedup_SHA1's and DeWrite's max-line wear exceed Baseline's",
           "sha1_dewrite_minus_baseline_wear_min", 1, kInf,
           "an ordering of integer counts: exact"},
          {"Start-Gap lowers max-line wear for Dedup_SHA1 and DeWrite",
           "start_gap_sha1_dewrite_wear_change_max", -kInf, -1,
           "an ordering of integer counts: exact"},
          {"with Start-Gap on, ESD's imbalance is the lowest of the four",
           "others_minus_esd_imbalance_start_gap_min", 0, kInf, kOrder}}},
        {"bench_ras_faults", "RAS fault campaign",
         "per-scheme fault tolerance vs raw BER (gcc workload): "
         "injected/corrected faults, retired lines, UEs, silent data "
         "corruptions, and the dedup blast radius",
         rasSeries(), renderRas,
         {{"at BER 0 every RAS column is zero", "ber0_ras_column_max", -kInf,
           0, "disabled-is-inert: exact"},
          {"at BER 0 each scheme has its fault-free dedup rate",
           "ber0_reduction_gap_max", -kInf, 0, "identity: exact"},
          {"SDC stays at most 1% of injected faults at every BER",
           "sdc_share_of_injected_max", -kInf, 0.01,
           "the nightly ras-stress bound"},
          {"Baseline's blast radius equals its UE count",
           "baseline_blast_minus_ue_max", -kInf, 0,
           "structural: one logical line per physical line, exact"},
          {"each dedup scheme's blast radius exceeds its UE count at 1e-4",
           "dedup_blast_minus_ue_at_1e-4_min", 1, kInf,
           "an ordering of integer counts: exact"}},
         {"gcc"}},
        {"bench_persist_overhead", "Metadata-journaling overhead",
         "per-scheme write-latency cost of crash consistency (gcc "
         "workload): off vs ADR vs eADR persistence domains",
         persistSeries(), renderPersist,
         {{"eADR never waits for a WPQ drain", "eadr_drain_wait_ns_max",
           -kInf, 0, "structural: exact"},
          {"eADR's mean write latency is at most ADR's for every scheme",
           "eadr_minus_adr_mean_max", -kInf, 0, kOrder},
          {"ADR costs at least 1.02x the mean write latency",
           "adr_mean_vs_off_min", 1.02, kInf,
           "the range EXPERIMENTS.md states, exact", kAdrFloor},
          {"ADR costs at most 1.16x the mean write latency",
           "adr_mean_vs_off_max", -kInf, 1.16,
           "the range EXPERIMENTS.md states, exact"}},
         {"gcc"}},
        {"bench_channel_scaling", "Channel scaling",
         "write latency and IPC vs memory channels (lbm)", channelSeries(),
         renderChannels,
         {{"IPC does not fall as channels are added, for any scheme",
           "ipc_step_min", 0, kInf, kOrder},
          {"1 -> 4 channels speeds writes up for every scheme but "
           "Dedup_SHA1",
           "speedup_1_to_4_min_but_sha1", 1, kInf, kOrder},
          {"1 -> 4 channels speeds Dedup_SHA1's writes up",
           "sha1_speedup_1_to_4", 1, kInf, kOrder, kChannelDomain}},
         {"lbm"}},
        {"bench_multicore", "Extension: multi-core scaling",
         "1/2/4/8 cores sharing one controller; mixed application per core",
         multicoreSeries(), renderMulticore,
         {{"every scheme's latencies grow with core count",
           "latency_step_min", 0, kInf, kOrder},
          {"ESD's IPC is at least Baseline's at 1-2 cores",
           "esd_rel_ipc_1_2_cores_min", 1, kInf, kOrder, kPlacement}},
         {"gcc"}},
    };
}

std::string
fmt(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.4g", v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_dir;
    bench::parseBenchArgs(argc, argv, &out_dir);

    std::vector<Row> rows = makeRows();
    Grid grid;
    std::vector<std::vector<std::size_t>> slots(rows.size());
    for (std::size_t r = 0; r < rows.size(); ++r)
        for (const std::string &app : rows[r].apps)
            for (const Series &s : rows[r].series)
                slots[r].push_back(grid.add(app, s));

    grid.outcomes = exec::SweepRunner(bench::benchJobs()).run(grid.jobs());
    if (const char *path = std::getenv("ESD_BENCH_JSON"); path && *path) {
        std::ostringstream doc;
        exec::writeSweepReport(doc, grid.outcomes);
        if (!writeFileAtomic(path, doc.str()))
            esd_fatal("cannot write ESD_BENCH_JSON '%s'", path);
    }
    int failed = 0;
    for (std::size_t i = 0; i < grid.outcomes.size(); ++i) {
        if (grid.outcomes[i].ok)
            continue;
        ++failed;
        std::cerr << "esd_figures: job " << i << " ("
                  << grid.jobs()[i].app << ", "
                  << schemeName(grid.jobs()[i].scheme)
                  << ") failed: " << grid.outcomes[i].error << "\n";
    }
    if (failed)
        return 1;

    if (!out_dir.empty())
        std::filesystem::create_directories(out_dir);
    const bool strict =
        bench::benchRecords() == 250000 && bench::benchWarmup() == 50000;
    std::size_t count[4] = {0, 0, 0, 0}, broken = 0;
    for (std::size_t r = 0; r < rows.size(); ++r) {
        const Row &row = rows[r];
        std::ostringstream os;
        Figures f;
        bench::printHeader(row.title, row.what, os);
        row.render(Runs(grid, row, slots[r]), os, f);
        for (const Band &b : row.bands) {
            auto it = f.find(b.figure);
            if (it == f.end())
                esd_panic("%s: band reads '%s', which the row never "
                          "computed",
                          row.name.c_str(), b.figure.c_str());
            bool passed = b.lo <= it->second && it->second <= b.hi;
            bench::BandStatus s =
                bench::bandStatus(passed, !b.deviation.empty());
            static const char *const kWord[] = {"holds", "deviates",
                                                "FAILS", "STALE"};
            ++count[static_cast<int>(s)];
            broken += bench::breaksWall(s);
            os << "band " << kWord[static_cast<int>(s)] << ": " << b.claim
               << "\n  " << b.figure << " = " << fmt(it->second)
               << ", band [" << fmt(b.lo) << ", " << fmt(b.hi) << "] ("
               << b.why << ")";
            if (!b.deviation.empty())
                os << "; registered: EXPERIMENTS.md \"" << b.deviation
                   << "\"";
            os << "\n";
        }
        std::cout << os.str();
        if (!out_dir.empty() &&
            !writeFileAtomic(out_dir + "/" + row.name + ".txt", os.str()))
            esd_fatal("cannot write %s/%s.txt", out_dir.c_str(),
                      row.name.c_str());
    }

    std::cout << "\n" << grid.jobs().size() << " runs; bands: "
              << count[0] << " hold, " << count[1]
              << " deviate as registered, " << count[2]
              << " fail unregistered, " << count[3]
              << " hold though registered\n"
              << (strict ? "register: strict at this run size\n"
                         : "register: informational (it describes "
                           "250000 records with 50000 warm-up)\n");
    if (strict && broken) {
        std::cerr << "esd_figures: " << broken
                  << " band(s) disagree with the deviation register\n";
        return 1;
    }
    return 0;
}
