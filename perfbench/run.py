#!/usr/bin/env python3
"""End-to-end benchmark of the ESD simulator's write path.

One invocation measures one workload:

    python3 perfbench/run.py --workload hot-dedup-w1 --seed 1 \\
        --seconds 30 --trace 0

It builds the simulator libraries, esd_sim and the esd_perfbench replayer
from the enclosing source tree (into .bench_build/perfbench), generates
the workload's input trace from --seed (cached by workload, seed and
length), then replays the workload in fresh child processes for
--seconds seconds. Every child run is checked (see check_report) and a
failed check counts the run as failed. One extra run replays the same
flags through esd_sim, whose stats report must be byte-identical to
esd_perfbench's. The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (medians over the untraced
runs); --trace 1 alternates untraced and traced runs and reports the
per-layer split from the traced ones, plus their overhead. The spans of
the traced runs are written as one Chrome-trace JSON file under
.bench_build/perfbench/traces when the invocation ends.

`--workload all` measures every workload in turn. `--self-test` runs
every workload at a tiny size and checks the metric surface and the
failure accounting.
See perfbench/README.md for the metric table and the A/B procedure.
"""

import argparse
import dataclasses
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK = ROOT / ".bench_build" / "perfbench"
BUILD = WORK / "build"
PERFBENCH = BUILD / "esd_perfbench"
ESD_SIM = BUILD / "esd" / "tools" / "esd_sim"

MIN_RUNS = 3  # untraced runs per invocation, whatever --seconds says
CHILD_TIMEOUT_S = 150
INPUTS_KEPT = 4  # cached input traces kept per workload
PHASES = ("fingerprint", "lookup", "compare", "encrypt", "device",
          "persist")


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    app: str  # synthetic application the records come from
    records: int  # records replayed after the warm-up
    flags: tuple  # esd_sim flags besides seed, input, workers (ESD is
    # esd_sim's default scheme)
    workers: int = 0  # 0 = one Simulator, else ShardedPipeline workers
    warmup: int = 0
    trace_format: str = ""  # "" = in-process synthetic generator
    payload: int = 1  # file traces: 64 B write payloads or address-only

    def scaled(self, factor):
        return dataclasses.replace(
            self, records=max(1, int(self.records * factor)),
            warmup=int(self.warmup * factor))


# Why each workload exists is recorded in perfbench/README.md.
WORKLOADS = {w.name: w for w in (
    Workload("hot-dedup-w1", app="mcf", records=400_000, warmup=40_000,
             flags=("-channels=1",)),
    Workload("gzip-ingest-w2", app="gcc", records=200_000,
             trace_format="gzip", payload=1, workers=2,
             flags=("-channels=4",)),
    Workload("cold-persist-w2", app="namd", records=600_000,
             trace_format="binary", payload=0, workers=2,
             flags=("-channels=4", "-persist-domain=adr")),
)}

END_TO_END = {"records_per_s": "rec/s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "trace.open_s": "s", "trace.ingest_s": "s", "trace.records": "count",
    "trace.input_bytes": "bytes", "trace.ingest_records_per_s": "rec/s",
    "core.construct_s": "s", "core.step_s": "s",
    "core.unattributed_s": "s",
    "exec.run_s": "s", "exec.epochs": "count",
    "exec.shard_imbalance": "ratio", "exec.shard_phase_s": "s",
    "exec.parallel_eff": "ratio",
    "ecc.fingerprint_s": "s", "ecc.fingerprint_calls": "count",
    "dedup.lookup_s": "s", "dedup.lookup_calls": "count",
    "dedup.compare_s": "s", "dedup.compare_calls": "count",
    "dedup.write_reduction": "ratio", "dedup.efit_hit_rate": "ratio",
    "dedup.compare_yield": "ratio",
    "crypto.encrypt_s": "s", "crypto.encrypt_calls": "count",
    "nvm.device_s": "s", "nvm.device_calls": "count",
    "nvm.writes": "count", "nvm.reads": "count",
    "nvm.wpq_stalls": "count",
    "persist.journal_s": "s", "persist.journal_calls": "count",
    "persist.epoch_commits": "count", "persist.journal_records": "count",
    "metrics.report_s": "s", "metrics.report_bytes": "bytes",
    "bench.trace_overhead": "ratio",
}


class SetupError(Exception):
    """The benchmark cannot run here (no source tree, build failure)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ----------------------------------------------------------------------
# Build and inputs.

def build():
    if not (ROOT / "src" / "core" / "simulator.hh").is_file():
        raise SetupError(f"no ESD source tree around {BENCH_DIR.name}/")
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", str(BUILD), "-j", jobs]]
    if not (BUILD / "CMakeCache.txt").exists():
        steps.insert(0, ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    # Compiler temporaries stay inside the checkout too.
    tmp = WORK / "tmp"
    tmp.mkdir(exist_ok=True)
    env = {**os.environ, "TMPDIR": str(tmp)}
    with open(WORK / "build.log", "ab") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT, env=env).returncode != 0:
                raise SetupError(f"build failed: {' '.join(cmd)} "
                                 f"(see {WORK / 'build.log'})")


def input_trace(w, seed):
    """The workload's replay trace for @seed, generated on first use.

    Generated through the capture writer from the synthetic app, so the
    program under test only ever sees the rendered file."""
    ext = {"gzip": "trace.gz", "binary": "esdt"}[w.trace_format]
    inputs = WORK / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    path = inputs / f"{w.name}-s{seed}-n{w.records}.{ext}"
    if path.exists():
        return path
    tmp = inputs / f".{path.name}.tmp"
    gen = [str(PERFBENCH), "gen", f"-app={w.app}", f"-seed={seed}",
           f"-records={w.records}", f"-format={w.trace_format}",
           f"-payload={w.payload}", f"-out={tmp}"]
    if subprocess.run(gen, stdout=subprocess.DEVNULL, cwd=ROOT).returncode:
        raise SetupError(f"cannot generate {path.name}")
    os.replace(tmp, path)
    # Bound the cache: drop this workload's least recently made inputs.
    cached = sorted(inputs.glob(f"{w.name}-s*"),
                    key=lambda p: p.stat().st_mtime)
    for old in cached[:-INPUTS_KEPT]:
        old.unlink()
    return path


def sim_flags(w, seed, trace):
    flags = [f"-seed={seed}", *w.flags]
    if w.workers:
        flags.append(f"-workers={w.workers}")
    if trace:
        return flags + [f"-trace-in={trace}"]
    # esd_sim's -records counts the warm-up records too.
    return flags + [f"-app={w.app}", f"-records={w.records + w.warmup}",
                    f"-warmup={w.warmup}"]


# ----------------------------------------------------------------------
# Child runs and output checks.

def run_child(cmd, tag, runs):
    """Run @cmd to completion; returns (exit code, peak RSS MB, stdout).

    A negative exit code is the signal that killed the child."""
    out_path, err_path = runs / f"{tag}.out", runs / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        log(f"{tag}: exit {proc.returncode}: "
            f"{err_path.read_text(errors='replace').strip()[-400:]}")
    return proc.returncode, usage.ru_maxrss / 1024.0, out_path.read_text()


def shard_stats(report):
    if "shards" in report:
        return [s["stats"] for s in report["shards"]]
    return [report["stats"]]


def check_report(text, measured_records):
    """Parse a stats report and check its invariants.

    Returns (report, errors); any error fails the run."""
    try:
        report = json.loads(text)
        r = report["result"]
        errors = []
        if r["logical_writes"] + r["logical_reads"] != measured_records:
            errors.append(f"logical writes + reads = "
                          f"{r['logical_writes'] + r['logical_reads']}, "
                          f"measured records = {measured_records}")
        for i, s in enumerate(shard_stats(report)):
            if (s["pcm.writes_offered"] !=
                    s["pcm.writes"] + s["pcm.writes_coalesced"]):
                errors.append(f"shard {i}: pcm.writes_offered != "
                              "pcm.writes + pcm.writes_coalesced")
            if s["scheme.sdc_events"] != 0:
                errors.append(f"shard {i}: scheme.sdc_events = "
                              f"{s['scheme.sdc_events']}")
        return report, errors
    except (ValueError, KeyError, TypeError) as e:
        return None, [f"stats report unreadable: {e!r}"]


def result_section(text):
    """The raw bytes of the report's top-level "result" member (the
    reports are written with 2-space indent)."""
    start = text.find('\n  "result": ')
    if start < 0:
        return None
    end = text.find('\n  "', start + 1)
    return text[start:end if end >= 0 else len(text)]


def layer_metrics(w, line, spans, report, input_bytes):
    """Per-layer split of one traced run from its spans and report."""
    by_name = {}
    for _sid, _parent, name, start, end in spans:
        by_name[name] = by_name.get(name, 0.0) + (end - start) / 1e9
    stats = shard_stats(report)
    persist_on = any(f.startswith("-persist-domain=") for f in w.flags)

    def total(key):
        # Strict: a stat renamed in the simulator fails the run instead
        # of reading as 0. Only persist.* is absent by design, when
        # persistence is off.
        if key.startswith("persist.") and not persist_on:
            return 0
        return sum(s[key] for s in stats)

    phase_s = {p: total(f"host.profile.{p}_ns") / 1e9 for p in PHASES}
    calls = {p: total(f"host.profile.{p}_calls") for p in PHASES}
    all_phases_s = sum(phase_s.values())
    ingest_s = by_name.get("ingest_batch", 0.0)
    step_s = by_name.get("step_batch", 0.0)
    result = report["result"]
    compares = total("scheme.compare_reads")
    lookups = total("esd.efit.lookups")
    m = {
        "trace.open_s": by_name["open"],
        "trace.ingest_s": ingest_s,
        "trace.records": line["records"],
        "trace.input_bytes": input_bytes,
        "trace.ingest_records_per_s":
            line["records"] / ingest_s if ingest_s else 0.0,
        "core.construct_s": by_name["construct"],
        # Not applicable (0) on the other run path: the pipeline steps
        # its shards inside run(), a single Simulator has no epochs.
        # step_batch spans cover the measured records only, the window
        # the Profiler totals cover (warm-up steps are warmup_batch).
        "core.step_s": step_s,
        "core.unattributed_s":
            step_s - all_phases_s if not w.workers else 0.0,
        "exec.run_s": by_name["execute"] if w.workers else 0.0,
        "exec.epochs": report["pipeline"]["epochs"] if w.workers else 0,
        "exec.shard_imbalance": 0.0,
        "exec.shard_phase_s": all_phases_s if w.workers else 0.0,
        "exec.parallel_eff": 0.0,
        "ecc.fingerprint_s": phase_s["fingerprint"],
        "ecc.fingerprint_calls": calls["fingerprint"],
        "dedup.lookup_s": phase_s["lookup"],
        "dedup.lookup_calls": calls["lookup"],
        "dedup.compare_s": phase_s["compare"],
        "dedup.compare_calls": calls["compare"],
        "dedup.write_reduction": result["write_reduction"],
        "dedup.efit_hit_rate":
            total("esd.efit.hits") / lookups if lookups else 0.0,
        "dedup.compare_yield":
            (compares - total("scheme.compare_mismatches")) / compares
            if compares else 0.0,
        "crypto.encrypt_s": phase_s["encrypt"],
        "crypto.encrypt_calls": calls["encrypt"],
        "nvm.device_s": phase_s["device"],
        "nvm.device_calls": calls["device"],
        "nvm.writes": result["nvm_writes_total"],
        "nvm.reads": result["nvm_reads_total"],
        "nvm.wpq_stalls": total("pcm.write_queue_stalls"),
        "persist.journal_s": phase_s["persist"],
        "persist.journal_calls": calls["persist"],
        "persist.epoch_commits": total("persist.epoch_commits"),
        "persist.journal_records": total("persist.journal_records"),
        "metrics.report_s": by_name["report"],
        "metrics.report_bytes": line["report_bytes"],
    }
    if w.workers:
        shard_records = [s["result"]["records"] for s in report["shards"]]
        mean = statistics.fmean(shard_records)
        m["exec.shard_imbalance"] = max(shard_records) / mean if mean else 0
        run_s = m["exec.run_s"]
        m["exec.parallel_eff"] = (all_phases_s / (w.workers * run_s)
                                  if run_s else 0.0)
    return m


def self_times(spans):
    """Seconds of each span name of one run not covered by its child
    spans."""
    child = {}
    for _sid, parent, _name, start, end in spans:
        child[parent] = child.get(parent, 0) + (end - start)
    out = {}
    for sid, _parent, name, start, end in spans:
        out[name] = out.get(name, 0.0) + (end - start - child.get(sid, 0)) / 1e9
    return out


def write_chrome_trace(path, traced_runs):
    events = []
    for run_id, spans in traced_runs:
        for sid, parent, name, start, end in spans:
            events.append({"name": name, "ph": "X", "pid": run_id,
                           "tid": 0, "ts": start / 1e3,
                           "dur": (end - start) / 1e3,
                           "args": {"span": sid, "parent": parent}})
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps({"traceEvents": events}))
    os.replace(tmp, path)


# ----------------------------------------------------------------------
# One invocation.

def measure(w, seed, seconds, trace, corrupt_first=False):
    """Replay @w for @seconds; returns (summary dict, lines to print,
    tags of the failed runs).

    @corrupt_first truncates the first run's stats report before it is
    checked (self-test: a corrupted report must count as a failure)."""
    trace_file = input_trace(w, seed) if w.trace_format else None
    input_bytes = trace_file.stat().st_size if trace_file else 0
    flags = sim_flags(w, seed, trace_file)
    runs = WORK / "runs" / f"{w.name}-s{seed}"
    runs.mkdir(parents=True, exist_ok=True)
    expect_records = w.records + w.warmup

    attempted = 0
    failed_tags = []
    reference = None  # first good untraced report text
    untraced, traced_walls, layers, traced_runs = [], [], [], []
    t0 = time.monotonic()
    i = 0
    while True:
        is_traced = trace and i % 2 == 1
        i += 1
        tag = f"run{i}"
        report_path = runs / f"{tag}.json"
        spans_path = runs / f"{tag}.spans.json"
        cmd = [str(PERFBENCH), "run", *flags, f"-stats-json={report_path}"]
        if is_traced:
            cmd += ["-traced", f"-spans-out={spans_path}"]
        attempted += 1
        code, rss_mb, out = run_child(cmd, tag, runs)
        errors = []
        if code != 0:
            errors.append(f"exit status {code}")
        else:
            try:
                line = json.loads(out.strip().splitlines()[-1])
                if corrupt_first and i == 1:
                    raw = report_path.read_bytes()
                    report_path.write_bytes(raw[:len(raw) // 2])
                text = report_path.read_text()
                if line["records"] != expect_records:
                    errors.append(f"consumed {line['records']} records, "
                                  f"expected {expect_records}")
                report, errs = check_report(text, line["records"] - w.warmup)
                errors += errs
                if not errors and not is_traced:
                    if reference is None:
                        reference = text
                    elif text != reference:
                        errors.append("stats report differs from the first "
                                      "run's (non-deterministic output)")
                elif not errors:
                    if (reference is not None and result_section(text) !=
                            result_section(reference)):
                        errors.append("traced result section differs from "
                                      "the untraced run's")
                    spans = json.loads(spans_path.read_text())
                    layer = layer_metrics(w, line, spans, report,
                                          input_bytes)
            except (OSError, ValueError, KeyError, IndexError) as e:
                errors.append(f"no usable run output: {e!r}")
        if errors:
            failed_tags.append(tag)
            log(f"{w.name} seed {seed} {tag}: FAILED: {'; '.join(errors)}")
        elif is_traced:
            traced_walls.append(line["wall_ns"] / 1e9)
            layers.append(layer)
            traced_runs.append((i, spans))
        else:
            untraced.append({
                "t_s": time.monotonic() - t0,
                "records_per_s": line["records"] / (line["wall_ns"] / 1e9),
                "setup_s": line["setup_ns"] / 1e9,
                "peak_rss_mb": rss_mb,
                "wall_s": line["wall_ns"] / 1e9,
            })
        elapsed = time.monotonic() - t0
        enough = (len(untraced) >= MIN_RUNS and
                  (not trace or len(layers) >= 1))
        # A run that keeps failing stops the loop once the time is up.
        if elapsed >= seconds and (enough or len(failed_tags) >= MIN_RUNS):
            break

    # Parity: the same flags through the shipped CLI.
    attempted += 1
    parity_path = runs / "esd_sim.json"
    code, _, _ = run_child([str(ESD_SIM), *flags,
                            f"-stats-json={parity_path}"], "esd_sim", runs)
    parity_ok = (code == 0 and reference is not None and
                 parity_path.read_text() == reference)
    if not parity_ok:
        failed_tags.append("esd_sim")
        log(f"{w.name} seed {seed}: FAILED: esd_sim stats report is not "
            "byte-identical to esd_perfbench's")

    # Every run's figures, for A/B comparisons across invocations.
    failed = len(failed_tags)
    (runs / "samples.json").write_text(json.dumps(
        {"untraced": untraced, "traced": layers}, indent=1))
    lines = [f"{w.name} seed {seed}: {len(untraced)} untraced + "
             f"{len(layers)} traced runs + 1 esd_sim parity run, "
             f"{failed} failed"]
    metrics = {}
    if not trace and untraced:
        for name, unit in END_TO_END.items():
            values = [u[name] for u in untraced]
            metrics[name] = {"value": statistics.median(values),
                             "unit": unit}
            q = statistics.quantiles(values, n=4) if len(values) > 1 \
                else values * 3
            lines.append(f"  {name:<14} {metrics[name]['value']:.6g} "
                         f"{unit}  (median of {len(values)} runs; "
                         f"quartiles {q[0]:.6g} .. {q[2]:.6g}; "
                         f"min {min(values):.6g}, max {max(values):.6g})")
    if trace and layers and untraced:
        for name, unit in PER_LAYER.items():
            if name == "bench.trace_overhead":
                value = (statistics.median(traced_walls) /
                         statistics.median(u["wall_s"] for u in untraced))
            else:
                value = statistics.median_low(m[name] for m in layers)
            metrics[name] = {"value": value, "unit": unit}
            lines.append(f"  {name:<28} {value:.6g} {unit}")
        self_s = {}
        for _, spans in traced_runs:
            for name, v in self_times(spans).items():
                self_s[name] = self_s.get(name, 0.0) + v
        lines.append("  span self time (s, summed over traced runs): " +
                     ", ".join(f"{k}={v:.4f}"
                               for k, v in sorted(self_s.items())))
        chrome = WORK / "traces" / f"{w.name}-s{seed}.json"
        write_chrome_trace(chrome, traced_runs)
        lines.append(f"  spans: {chrome.relative_to(ROOT)}")
    lines.append(f"  {'failed_frac':<14} {failed / attempted:.6g} ratio "
                 f"({failed} of {attempted} runs)")
    expected = PER_LAYER if trace else END_TO_END
    correct = failed == 0 and set(metrics) == set(expected)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}, lines, failed_tags


# ----------------------------------------------------------------------
# Self-test.

def self_test():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    assert set(spec_w["name"] for spec_w in spec["workloads"]) == \
        set(WORKLOADS), "BENCHMARK.json workloads differ from run.py"
    seed = 4242
    for w in WORKLOADS.values():
        tiny = w.scaled(0.01)
        for trace in (0, 1):
            summary, lines, _ = measure(tiny, seed, 0, trace)
            print("\n".join(lines))
            assert summary["correct"] and summary["failed"] == 0, summary
            assert any(ln.split()[:3] == ["failed_frac", "0", "ratio"]
                       for ln in lines), lines
            got = {k: v["unit"] for k, v in summary["metrics"].items()}
            assert got == declared[trace], (w.name, trace, got)
            for name, v in summary["metrics"].items():
                assert math.isfinite(v["value"]), (w.name, name, v)
    # A corrupted stats report must fail its own run, and only that one:
    # the later runs and the esd_sim parity run compare against a good
    # report.
    print("corrupting one stats report; the FAILED line is expected:",
          flush=True)
    tiny = WORKLOADS["hot-dedup-w1"].scaled(0.01)
    summary, _, failed_tags = measure(tiny, seed, 0, 0, corrupt_first=True)
    assert failed_tags == ["run1"], failed_tags
    assert summary["failed"] == 1 and not summary["correct"], summary
    print("perfbench self-test: ok")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"],
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    try:
        build()
        if args.self_test:
            self_test()
            return 0
        for name in names:
            summary, lines, _ = measure(WORKLOADS[name], args.seed,
                                        args.seconds, args.trace)
            print("\n".join(lines))
            print(json.dumps(summary), flush=True)
            ok = ok and summary["correct"]
    except SetupError as e:
        log(f"perfbench: {e}")
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
