#!/usr/bin/env python3
"""Compare a fresh benchmark JSON against a committed baseline.

Used by the CI `perf` job: `esd_hostbench -out=DIR` writes one
DIR/<row>.json per row (hotpath, sweep_scaling, pipeline_scaling,
trace_ingest, ecc_codecs), and this script fails the build when any
throughput metric drops below `--threshold` (default 0.85) times its
value in bench/baselines/<row>.json. Higher-is-better metrics only;
latency-style metrics are not extracted.

Metric extraction understands the five row shapes:

  hotpath:          {"schemes": [{"scheme": S, "writes_per_s": W}],
                     "aggregate_writes_per_s": W}
  sweep_scaling:    {"scaling": [{"jobs": N, "writes_per_s": W,
                                  "speedup": X}]}
  pipeline_scaling: {"scaling": [{"workers": N, "writes_per_s": W,
                                  "speedup": X}]}
  trace_ingest:     {"formats": [{"format": F, "records_per_s": R}]}
  ecc_codecs:       {"codecs": [{"codec": C, "encode_lines_per_s": E,
                                 "decode_lines_per_s": D}]}

plus a generic fallback: any top-level numeric field ending in
"_per_s".

The two files must describe runs of the same size: every top-level
integer field other than `host_threads` that both files carry
(records_per_run, warmup, reps, apps, records, lines, seed, channels,
grid_jobs, schemes_per_level) must be equal, or the comparison is
refused.

Scaling rows are host-bound: a `workers[N]` or `jobs[N]` row is
compared only when N <= the smaller top-level `host_threads` of the two
files, and each skipped row is printed. When either file lacks
`host_threads`, every row is compared.

Exit status: 0 when every metric holds, 1 on regression, on a metric
missing from the fresh run or on runs of different sizes, 2 on
usage/IO errors.

Example:
  python3 scripts/check_perf.py \
    --baseline bench/baselines/hotpath.json --fresh fresh/hotpath.json

Self-test (used by ctest):
  python3 scripts/check_perf.py --self-test
"""

import argparse
import json
import re
import sys

# A scaling row's worker/job count.
SCALING_ROW = re.compile(r"^(?:workers|jobs)\[(\d+)\]\.")


def extract_metrics(doc):
    """Flatten a bench JSON document into {metric_name: value}."""
    metrics = {}
    for entry in doc.get("schemes", []):
        name = entry.get("scheme")
        if name is not None and "writes_per_s" in entry:
            metrics[f"scheme[{name}].writes_per_s"] = entry["writes_per_s"]
    for entry in doc.get("scaling", []):
        jobs = entry.get("jobs")
        workers = entry.get("workers")
        if jobs is not None:
            label = f"jobs[{jobs}]"
        elif workers is not None:
            label = f"workers[{workers}]"
        else:
            continue
        if "writes_per_s" in entry:
            metrics[f"{label}.writes_per_s"] = entry["writes_per_s"]
        if "speedup" in entry:
            metrics[f"{label}.speedup"] = entry["speedup"]
    for entry in doc.get("formats", []):
        name = entry.get("format")
        if name is not None and "records_per_s" in entry:
            metrics[f"format[{name}].records_per_s"] = \
                entry["records_per_s"]
    for entry in doc.get("codecs", []):
        name = entry.get("codec")
        if name is None:
            continue
        for field in ("encode_lines_per_s", "decode_lines_per_s"):
            if field in entry:
                metrics[f"codec[{name}].{field}"] = entry[field]
    for key, value in doc.items():
        if key.endswith("_per_s") and isinstance(value, (int, float)):
            metrics[key] = value
    return metrics


def thread_limit(baseline_doc, fresh_doc):
    """The smaller host_threads of the two documents, or None when
    either does not record it."""
    counts = [doc.get("host_threads") for doc in (baseline_doc, fresh_doc)]
    if not all(isinstance(c, int) and c > 0 for c in counts):
        return None
    return min(counts)


def size_mismatches(baseline_doc, fresh_doc):
    """Top-level integer fields, host_threads aside, that both
    documents carry with different values: [(key, baseline, fresh)]."""
    def is_int(v):
        return isinstance(v, int) and not isinstance(v, bool)
    return [(k, v, fresh_doc[k]) for k, v in baseline_doc.items()
            if k != "host_threads" and k in fresh_doc and is_int(v)
            and is_int(fresh_doc[k]) and v != fresh_doc[k]]


def compare(baseline, fresh, threshold, max_threads=None):
    """Return (rows, failures): one row per baseline metric. Scaling
    rows above @max_threads workers/jobs are reported as skipped."""
    rows = []
    failures = []
    for name in sorted(baseline):
        base = baseline[name]
        cur = fresh.get(name)
        row = SCALING_ROW.match(name)
        if (max_threads is not None and row
                and int(row.group(1)) > max_threads):
            rows.append((name, base, cur, None,
                         f"skipped (> {max_threads} host threads)"))
            continue
        if cur is None:
            rows.append((name, base, None, None, "MISSING"))
            failures.append(name)
            continue
        ratio = cur / base if base else float("inf")
        ok = ratio >= threshold
        rows.append((name, base, cur, ratio, "ok" if ok else "FAIL"))
        if not ok:
            failures.append(name)
    return rows, failures


def print_table(rows, threshold):
    name_w = max([len(r[0]) for r in rows] + [len("metric")])
    print(f"{'metric':<{name_w}} {'baseline':>14} {'fresh':>14} "
          f"{'ratio':>8}  status")
    for name, base, cur, ratio, status in rows:
        cur_s = f"{cur:14.1f}" if cur is not None else f"{'-':>14}"
        ratio_s = f"{ratio:8.3f}" if ratio is not None else f"{'-':>8}"
        print(f"{name:<{name_w}} {base:14.1f} {cur_s} {ratio_s}  {status}")
    print(f"(gate: fresh >= {threshold:.2f} x baseline)")


def self_test():
    base = {
        "schemes": [
            {"scheme": "ESD", "writes_per_s": 1000.0},
            {"scheme": "Baseline", "writes_per_s": 2000.0},
        ],
        "aggregate_writes_per_s": 1500.0,
        "scaling": [{"jobs": 4, "writes_per_s": 4000.0, "speedup": 3.5},
                    {"workers": 2, "writes_per_s": 1800.0,
                     "speedup": 1.8}],
        "formats": [{"format": "binary", "records_per_s": 9e6}],
        "codecs": [{"codec": "rs", "encode_lines_per_s": 7e5,
                    "decode_lines_per_s": 3.5e5,
                    "similar_collisions": 0}],
    }
    bm = extract_metrics(base)
    assert bm == {
        "scheme[ESD].writes_per_s": 1000.0,
        "scheme[Baseline].writes_per_s": 2000.0,
        "aggregate_writes_per_s": 1500.0,
        "jobs[4].writes_per_s": 4000.0,
        "jobs[4].speedup": 3.5,
        "workers[2].writes_per_s": 1800.0,
        "workers[2].speedup": 1.8,
        "format[binary].records_per_s": 9e6,
        "codec[rs].encode_lines_per_s": 7e5,
        "codec[rs].decode_lines_per_s": 3.5e5,
    }, bm

    # Identical run passes.
    rows, failures = compare(bm, dict(bm), 0.85)
    assert not failures, failures

    # A 20% regression on one metric fails exactly that metric.
    fresh = dict(bm)
    fresh["scheme[ESD].writes_per_s"] = 800.0
    rows, failures = compare(bm, fresh, 0.85)
    assert failures == ["scheme[ESD].writes_per_s"], failures

    # A 10% regression stays inside the 0.85 gate.
    fresh["scheme[ESD].writes_per_s"] = 900.0
    rows, failures = compare(bm, fresh, 0.85)
    assert not failures, failures

    # A metric absent from the fresh run fails.
    fresh = dict(bm)
    del fresh["jobs[4].speedup"]
    rows, failures = compare(bm, fresh, 0.85)
    assert failures == ["jobs[4].speedup"], failures

    # Scaling rows beyond the smaller host's thread count are skipped
    # (and listed); rows within it, and non-scaling metrics, still gate.
    assert thread_limit({"host_threads": 8}, {"host_threads": 2}) == 2
    assert thread_limit({"host_threads": 8}, {}) is None
    assert thread_limit({"host_threads": 0}, {"host_threads": 4}) is None
    fresh = dict(bm)
    fresh["jobs[4].speedup"] = 1.0
    fresh["workers[2].speedup"] = 1.0
    rows, failures = compare(bm, fresh, 0.85, max_threads=2)
    assert failures == ["workers[2].speedup"], failures
    skipped = [r[0] for r in rows if r[4].startswith("skipped")]
    assert skipped == ["jobs[4].speedup", "jobs[4].writes_per_s"], skipped
    del fresh["jobs[4].writes_per_s"]
    rows, failures = compare(bm, fresh, 0.85, max_threads=2)
    assert failures == ["workers[2].speedup"], failures
    # Without host_threads on both sides, every row gates as before.
    rows, failures = compare(bm, fresh, 0.85, max_threads=None)
    assert failures == ["jobs[4].speedup", "jobs[4].writes_per_s",
                        "workers[2].speedup"], failures

    # Runs of different sizes are refused, naming the key; host_threads
    # and keys only one side carries do not count.
    small = {"records_per_run": 60000, "warmup": 30000, "reps": 3,
             "host_threads": 4}
    assert size_mismatches(small, dict(small)) == []
    assert size_mismatches(small, dict(small, host_threads=8)) == []
    assert size_mismatches(small, {"records": 250000}) == []
    assert size_mismatches(small, dict(small, records_per_run=250000)) \
        == [("records_per_run", 60000, 250000)]

    print("check_perf.py self-test: ok")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", help="committed baseline JSON")
    ap.add_argument("--fresh", help="freshly measured JSON")
    ap.add_argument("--threshold", type=float, default=0.85,
                    help="minimum fresh/baseline ratio (default 0.85)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the built-in unit checks and exit")
    args = ap.parse_args()

    if args.self_test:
        return self_test()
    if not args.baseline or not args.fresh:
        ap.error("--baseline and --fresh are required")

    try:
        with open(args.baseline) as f:
            baseline_doc = json.load(f)
        with open(args.fresh) as f:
            fresh_doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_perf: {e}", file=sys.stderr)
        return 2
    mismatches = size_mismatches(baseline_doc, fresh_doc)
    for key, base, cur in mismatches:
        print(f"check_perf: {key} is {cur} in {args.fresh} but {base} in "
              f"{args.baseline}; runs of different sizes do not compare",
              file=sys.stderr)
    if mismatches:
        return 1
    baseline = extract_metrics(baseline_doc)
    fresh = extract_metrics(fresh_doc)

    if not baseline:
        print(f"check_perf: no metrics in baseline {args.baseline}",
              file=sys.stderr)
        return 2

    rows, failures = compare(baseline, fresh, args.threshold,
                             thread_limit(baseline_doc, fresh_doc))
    print_table(rows, args.threshold)
    if failures:
        print(f"check_perf: {len(failures)} metric(s) regressed below "
              f"{args.threshold:.2f}x baseline: {', '.join(failures)}",
              file=sys.stderr)
        return 1
    print("check_perf: all metrics within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
