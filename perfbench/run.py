"""Layered benchmark for canard.

    python3 perfbench/run.py --workload {oracle,orbits,cli} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; canard is imported from ./src.
Workloads, their inputs and their gates are defined in workloads.py.

--trace 0 measures the end-to-end metrics with tracing off.  Every time
is read at the reference speed of speed.py: its wall time scaled by the
speed probe timed right before and after it, so that drift of the shared
host's CPU speed cancels.  The raw wall figures are in the detail record.
The run and its children are pinned to one CPU, the one the probe times.
    setup_s      median of several fresh-interpreter set-ups (import the
                 workload's canard modules, build its inputs, up to the
                 first op)
    ops_per_s    completed ops / summed op time of the timed phase (whole
                 cycles of rounds of ops, until S seconds have passed)
    op_p50_ms    median op latency
    op_tail_ms   highest percentile of op latency with at least 10 samples,
                 and 5% of them, beyond it (the percentile and sample count
                 are in the detail record)
    peak_rss_mb  peak resident memory of the workload process

--trace 1 runs fixed passes of every workload untraced and traced and
reports the per-layer metrics of layers.py, plus trace.overhead (traced
over untraced wall time of the selected workload's pass, repeated for S
seconds) and error_rate (failed over attempted ops of the whole run).

Every op's output is gated; failed ops are counted, never retried.  The
last stdout line is the JSON result; the line before it names the detail
record (environment, seed, per-kind latencies, failures) written under
.perfbench_out/, where the traced run also writes its spans.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import importlib.util
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

import layers
import speed
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_SAMPLES = 9
# Probe loops timed beside each op and beside each set-up probe.
OP_PROBES = 2
SETUP_PROBES = 8
MAX_FAILURE_NOTES = 10


@dataclass
class Record:
    spec: tuple
    out: Any
    error: Optional[str]
    seconds: float
    gated: bool = False
    bytes_out: int = 0


def calibration_seconds() -> float:
    """Fixed pure-Python plus numpy work; environment, not a metric."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    a = np.arange(40_000, dtype=float).reshape(200, 200) / 4e4
    for _ in range(20):
        a = np.tanh(a @ a.T / 200.0)
    return time.perf_counter() - t0


def _version(dist: str) -> Optional[str]:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def _git_commit() -> Optional[str]:
    if shutil.which("git") is None or not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "canard")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def environment() -> dict:
    return {
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "cpu": sorted(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def setup_seconds(name: str, seed: int, run_dir: str, env: dict) -> tuple:
    """Spawn-to-ready times of fresh set-up probes, raw and at the
    reference speed."""
    times, ref_times = [], []
    for i in range(SETUP_SAMPLES):
        probe_dir = os.path.join(run_dir, f"setup{i}")
        os.makedirs(probe_dir)
        before = speed.probe_seconds(SETUP_PROBES)
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"), name,
                               str(seed), probe_dir],
                              cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.communicate(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        times.append(elapsed)
        ref_times.append(speed.at_reference(elapsed, before,
                                            speed.probe_seconds(SETUP_PROBES)))
    return times, ref_times


def run_op(wl, spec, ctx) -> Record:
    t0 = time.perf_counter()
    try:
        out, error = wl.run(spec, ctx), None
    except Exception as exc:  # a failed op is counted, never retried
        out, error = None, f"{type(exc).__name__}: {exc}"
    return Record(spec, out, error, time.perf_counter() - t0)


def timed_phase(wl, ctx, seconds: float):
    """Whole cycles of ops until `seconds` have elapsed, each op between
    two speed probes.  A cycle is the workload's unit of a fixed op mix."""
    rounds = ctx["specs"]
    records = []
    start = time.perf_counter()
    deadline = start + seconds
    end = start
    probes = [speed.probe_seconds(OP_PROBES)]
    for n in itertools.count():
        if end >= deadline and n % wl.cycle_rounds == 0:
            break
        for spec in next(rounds):
            records.append(run_op(wl, spec, ctx))
            probes.append(speed.probe_seconds(OP_PROBES))
        end = time.perf_counter()
    return records, probes, end - start


def fixed_pass(wl, ctx, specs, traced=False):
    """One pass over specs, traced or not.  Returns records, wall time and
    the span log."""
    tracer = tracing.Tracer()
    if traced:
        tracer.install()
    start = time.perf_counter()
    try:
        records = [run_op(wl, spec, ctx) for spec in specs]
        wall = time.perf_counter() - start
    finally:
        if traced:
            tracer.uninstall()
    return records, wall, tracer.log


def gate(wl, ctx, records) -> None:
    for r in records:
        if r.error is not None:
            continue
        try:
            r.error = wl.check(r.spec, r.out, ctx)
        except Exception as exc:
            r.error = f"gate raised {type(exc).__name__}: {exc}"
        r.gated = True
        if wl.writes_files:
            r.bytes_out = _dir_bytes(r.out[2])


def _dir_bytes(path: str) -> int:
    if not os.path.isdir(path):
        return 0
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


def tail(latencies):
    """(value, percentile, samples): the highest order statistic with at
    least 10 samples, and at least 5% of them, above it (the minimum when
    there are fewer).  The top few per cent are single slow inputs met a
    few times per run, too few to read a change of the code from."""
    s = sorted(latencies)
    idx = max(len(s) - 1 - max(10, math.ceil(len(s) / 20)), 0)
    return s[idx], 100.0 * (idx + 1) / len(s), len(s)


def kind_summary(records) -> dict:
    out = {}
    for r in records:
        row = out.setdefault(r.spec[0], {"ops": 0, "failed": 0, "gated": 0, "ms": []})
        row["ops"] += 1
        row["failed"] += r.error is not None
        row["gated"] += r.gated
        row["ms"].append(r.seconds * 1e3)
    for row in out.values():
        row["p50_ms"] = statistics.median(row.pop("ms"))
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def latency_metrics(latencies) -> dict:
    tail_s, pct, n = tail(latencies)
    return {"ops_per_s": len(latencies) / sum(latencies),
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "op_tail_ms": tail_s * 1e3,
            "tail": {"percentile": pct, "samples": n}}


def measure(wl, seed: int, seconds: float, run_dir: str, env: dict, detail: dict):
    setups, ref_setups = setup_seconds(wl.name, seed, run_dir, env)
    ctx = wl.setup(seed, os.path.join(run_dir, "main"))
    records, probes, wall = timed_phase(wl, ctx, seconds)
    rss = peak_rss_mb()
    gate(wl, ctx, records)
    raw = [r.seconds for r in records]
    ref = latency_metrics([speed.at_reference(t, probes[i], probes[i + 1])
                           for i, t in enumerate(raw)])
    detail["ops"] = {"kind": [r.spec[0] for r in records], "seconds": raw,
                     "probes": probes}
    detail.update(setup_samples_s={"wall": setups, "reference": ref_setups},
                  timed_wall_s=wall, tail=ref.pop("tail"),
                  wall=dict(latency_metrics(raw),
                            setup_s=statistics.median(setups)))
    metrics = {
        "setup_s": (statistics.median(ref_setups), "s"),
        "ops_per_s": (ref["ops_per_s"], "ops/s"),
        "op_p50_ms": (ref["op_p50_ms"], "ms"),
        "op_tail_ms": (ref["op_tail_ms"], "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    return records, metrics


def traced(selected: str, seed: int, seconds: float, run_dir: str, env: dict,
           detail: dict):
    """Every workload's fixed pass untraced and traced; the selected one's
    pair repeats for `seconds` to time the tracing overhead."""
    metrics, absent, all_records, spans = {}, [], [], {}
    for name, wl in workloads.WORKLOADS.items():
        ctx = wl.setup(seed, os.path.join(run_dir, name))
        specs = [spec for rnd in itertools.islice(wl.specs(seed), wl.trace_pass_rounds)
                 for spec in rnd]
        walls = {"untraced": [], "traced": []}
        per_pass = []
        untraced_passes = []
        begin = time.perf_counter()
        while True:
            recs, wall, _ = fixed_pass(wl, ctx, specs)
            gate(wl, ctx, recs)
            untraced_passes.append(recs)
            walls["untraced"].append(wall)
            trecs, twall, log = fixed_pass(wl, ctx, specs, traced=True)
            gate(wl, ctx, trecs)
            all_records += recs + trecs
            walls["traced"].append(twall)
            summary = tracing.SpanSummary(log)
            values, needs = layers.HOME_LAYERS[name](summary)
            per_pass.append(values)
            if not spans.get(name):
                spans[name] = log.to_dict()
                absent += layers.absent_metrics(summary, needs, values)
            if name != selected or time.perf_counter() - begin >= seconds:
                break
        for key in per_pass[0]:
            values = [p[key] for p in per_pass]
            # counts repeat exactly from pass to pass; times get the median
            metrics[key] = values[0] if len(set(values)) == 1 else statistics.median(values)
        if name == "cli":
            metrics.update(layers.cli_wall_layers(untraced_passes))
        if name == selected:
            metrics["trace.overhead"] = (statistics.median(walls["traced"])
                                         / statistics.median(walls["untraced"]))
            detail["trace_pass_walls_s"] = walls
    metrics.update(layers.import_layers(ROOT, env))
    failed = sum(r.error is not None for r in all_records)
    metrics["error_rate"] = failed / len(all_records)
    detail["absent"] = sorted(set(absent))
    spans_path = os.path.join(OUT_DIR, f"spans-{selected}-seed{seed}.json")
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(spans, fh, separators=(",", ":"))
    detail["spans_file"] = os.path.relpath(spans_path, ROOT)
    units = _per_layer_units()
    return all_records, {k: (v, units[k]) for k, v in metrics.items()}


def _per_layer_units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "canard", "__init__.py")):
        print(f"error: no canard sources under {os.path.join(ROOT, 'src')}; run from "
              "the root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    # One core for the benchmark and its children, so the speed probes
    # time the core that runs the ops.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = workloads.python_env(ROOT)
    wl = workloads.WORKLOADS[args.workload]
    detail = {"workload": wl.name, "why": wl.why, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(),
              "calibration_s": {"start": calibration_seconds()}}
    os.makedirs(OUT_DIR, exist_ok=True)
    run_dir = os.path.join(OUT_DIR, f"run-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        if args.trace:
            records, metrics = traced(wl.name, args.seed, args.seconds, run_dir, env, detail)
        else:
            records, metrics = measure(wl, args.seed, args.seconds, run_dir, env, detail)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    detail["calibration_s"]["end"] = calibration_seconds()
    failed = [r for r in records if r.error is not None]
    detail["kinds"] = kind_summary(records)
    detail["failures"] = [f"{r.spec}: {r.error}" for r in failed[:MAX_FAILURE_NOTES]]
    detail["raised"] = sum(r.error is not None and not r.gated for r in records)
    detail_path = os.path.join(OUT_DIR, f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json")
    with open(detail_path, "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, default=str)
    print(f"detail: {os.path.relpath(detail_path, ROOT)}")
    result = {"correct": not failed, "attempted": len(records), "failed": len(failed),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
