#!/usr/bin/env python3
"""Validate the simulator's telemetry exports.

Used by the CI telemetry-validation step after a short run with every
exporter enabled:

  --spans spans.json       assert the span file is loadable Chrome
                           trace-event JSON: a traceEvents array of
                           well-formed M/X/i events, one named process
                           per simulator (one per shard under
                           -workers), with at least one complete span
                           per track kind (pipeline + channel);
  --metrics metrics.prom   round-trip the Prometheus text page
                           through a line parser: every line must be a
                           comment, a HELP/TYPE header, or a sample,
                           and every TYPE'd metric must have samples;
  --sweep-a / --sweep-b    two sweep reports (e.g. -jobs=1 vs -jobs=8)
                           that must be byte-identical, including the
                           merged-histogram aggregate percentiles.

Exit status: 0 when every requested check holds, 1 on violation,
2 on usage/IO errors.

Self-test (used by ctest):
  python3 scripts/check_telemetry.py --self-test
"""

import argparse
import json
import re
import sys


def check_spans(doc):
    """Validate a parsed Chrome trace-event document. Returns a list
    of violation strings (empty = valid)."""
    errors = []
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not an array"]

    tracks = set()
    named = set()
    pids = set()
    complete = 0
    for i, e in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(e, dict):
            errors.append(f"{where}: not an object")
            continue
        ph = e.get("ph")
        if ph not in ("M", "X", "i"):
            errors.append(f"{where}: unexpected ph {ph!r}")
            continue
        if not isinstance(e.get("name"), str):
            errors.append(f"{where}: missing name")
        if ph == "M":
            if e.get("name") == "process_name":
                named.add(e.get("pid"))
            continue
        pids.add(e.get("pid"))
        for key in ("ts", "pid", "tid"):
            if not isinstance(e.get(key), (int, float)):
                errors.append(f"{where}: missing numeric {key}")
        if ph == "X":
            complete += 1
            dur = e.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(f"{where}: bad dur {dur!r}")
            if isinstance(e.get("tid"), (int, float)):
                tracks.add(int(e["tid"]))

    for pid in sorted(pids - named, key=str):
        errors.append(f"process {pid!r} has no process_name metadata")
    if complete == 0:
        errors.append("no complete ('X') spans recorded")
    # tid 0 is the write pipeline; tid 1+c the memory channels. A run
    # with both layers attached must populate both kinds.
    if 0 not in tracks:
        errors.append("no spans on the write-pipeline track (tid 0)")
    if not any(t >= 1 for t in tracks):
        errors.append("no spans on any channel track (tid >= 1)")
    return errors


SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$")
HEADER_RE = re.compile(
    r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*( .*)?$")


def check_prometheus(text):
    """Line-parse a Prometheus text exposition page. Returns (metrics
    dict name -> sample count, violations)."""
    errors = []
    typed = {}
    samples = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("#"):
            m = HEADER_RE.match(line)
            if not m:
                errors.append(f"line {lineno}: malformed comment "
                              f"{line!r}")
            elif m.group(1) == "TYPE":
                typed[line.split()[2]] = line.split()[3]
            continue
        m = SAMPLE_RE.match(line)
        if not m:
            errors.append(f"line {lineno}: malformed sample {line!r}")
            continue
        name = line.split("{")[0].split(" ")[0]
        value = line.rsplit(" ", 1)[1]
        try:
            float(value)
        except ValueError:
            errors.append(f"line {lineno}: non-numeric value "
                          f"{value!r}")
        samples[name] = samples.get(name, 0) + 1

    if not typed:
        errors.append("no # TYPE headers found")
    for name, kind in typed.items():
        if kind == "summary":
            # Samples appear as name{quantile=...}, name_sum, name_count.
            if samples.get(name, 0) == 0 or \
                    samples.get(name + "_count", 0) == 0:
                errors.append(f"summary {name} has no samples")
        elif samples.get(name, 0) == 0:
            errors.append(f"{kind} {name} has no samples")
    return samples, errors


def check_sweeps_identical(text_a, text_b):
    errors = []
    if text_a != text_b:
        errors.append("sweep reports are not byte-identical")
    try:
        doc = json.loads(text_a)
    except json.JSONDecodeError as e:
        return errors + [f"sweep report unparseable: {e}"]
    agg = doc.get("aggregate")
    if not isinstance(agg, dict):
        errors.append("sweep report has no aggregate section")
        return errors
    for key in ("read_latency", "write_latency"):
        lat = agg.get(key)
        if not isinstance(lat, dict):
            errors.append(f"aggregate missing {key}")
            continue
        for field in ("count", "p50", "p90", "p99", "buckets"):
            if field not in lat:
                errors.append(f"aggregate.{key} missing {field}")
        buckets = lat.get("buckets")
        if isinstance(buckets, list) and lat.get("count", 0) > 0:
            total = sum(b[2] for b in buckets if len(b) == 3)
            if total != lat["count"]:
                errors.append(
                    f"aggregate.{key}: bucket counts sum to {total}, "
                    f"count says {lat['count']}")
    return errors


def self_test():
    ok_spans = {
        "traceEvents": [
            {"name": "process_name", "ph": "M", "pid": 1,
             "args": {"name": "esd_sim"}},
            {"name": "write", "ph": "X", "ts": 0.1, "dur": 0.25,
             "pid": 1, "tid": 0},
            {"name": "read", "ph": "X", "ts": 0.2, "dur": 0.075,
             "pid": 1, "tid": 1},
            {"name": "coalesced", "ph": "i", "ts": 0.3, "pid": 1,
             "tid": 1, "s": "t"},
        ]
    }
    assert check_spans(ok_spans) == [], check_spans(ok_spans)
    assert check_spans({"traceEvents": []})  # empty: violations
    bad = {"traceEvents": [{"name": "w", "ph": "X", "ts": 1,
                            "pid": 1, "tid": 0, "dur": -5}]}
    assert any("dur" in e for e in check_spans(bad))
    sharded = {"traceEvents": ok_spans["traceEvents"] + [
        {"name": "write", "ph": "X", "ts": 0.1, "dur": 0.25,
         "pid": 2, "tid": 0}]}
    assert any("process 2" in e for e in check_spans(sharded))

    page = ("# HELP esd_pcm_reads device reads\n"
            "# TYPE esd_pcm_reads counter\n"
            "esd_pcm_reads 42\n"
            "# TYPE esd_scheme_write_latency summary\n"
            "esd_scheme_write_latency{quantile=\"0.5\"} 83\n"
            "esd_scheme_write_latency_sum 887.2\n"
            "esd_scheme_write_latency_count 9594\n")
    samples, errors = check_prometheus(page)
    assert errors == [], errors
    assert samples["esd_pcm_reads"] == 1
    _, errors = check_prometheus("esd_bad_value{x=\"1\"} notanumber\n"
                                 "# TYPE esd_bad_value gauge\n")
    assert errors, "non-numeric value not caught"
    _, errors = check_prometheus("# TYPE esd_ghost counter\n")
    assert any("no samples" in e for e in errors)

    sweep = json.dumps({
        "job_count": 1, "jobs": [],
        "aggregate": {
            "read_latency": {"count": 2, "mean": 5.0, "min": 4,
                             "max": 6, "p50": 4, "p90": 6, "p99": 6,
                             "buckets": [[4, 1, 1], [6, 1, 1]]},
            "write_latency": {"count": 0, "mean": 0, "min": 0,
                              "max": 0, "p50": 0, "p90": 0, "p99": 0,
                              "buckets": []},
        }})
    assert check_sweeps_identical(sweep, sweep) == []
    assert check_sweeps_identical(sweep, sweep + " ")
    broken = sweep.replace('"count": 2', '"count": 3')
    assert any("sum to" in e for e in check_sweeps_identical(broken,
                                                             broken))
    print("check_telemetry.py self-test: ok")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--spans")
    ap.add_argument("--metrics")
    ap.add_argument("--sweep-a")
    ap.add_argument("--sweep-b")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        self_test()
        return 0
    if not (args.spans or args.metrics or (args.sweep_a and
                                           args.sweep_b)):
        ap.error("nothing to check: give --spans, --metrics, and/or "
                 "--sweep-a/--sweep-b")

    failures = []
    if args.spans:
        try:
            doc = json.load(open(args.spans))
        except (OSError, json.JSONDecodeError) as e:
            print(f"error: {args.spans}: {e}", file=sys.stderr)
            return 2
        errs = check_spans(doc)
        failures += [f"{args.spans}: {e}" for e in errs]
        if not errs:
            n = sum(1 for e in doc["traceEvents"]
                    if e.get("ph") == "X")
            print(f"{args.spans}: ok ({n} spans)")
    if args.metrics:
        try:
            text = open(args.metrics).read()
        except OSError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        samples, errs = check_prometheus(text)
        failures += [f"{args.metrics}: {e}" for e in errs]
        if not errs:
            print(f"{args.metrics}: ok ({len(samples)} metric "
                  f"families)")
    if args.sweep_a and args.sweep_b:
        try:
            a = open(args.sweep_a).read()
            b = open(args.sweep_b).read()
        except OSError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        errs = check_sweeps_identical(a, b)
        failures += [f"{args.sweep_a} vs {args.sweep_b}: {e}"
                     for e in errs]
        if not errs:
            print(f"{args.sweep_a} == {args.sweep_b}: ok")

    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
