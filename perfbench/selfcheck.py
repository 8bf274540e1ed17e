"""Self-check of the benchmark at a tiny size.

    python3 perfbench/selfcheck.py

Run from the root of a source checkout.  Runs every workload once
untraced and once traced with --seconds 1 and fails (exit code 1) if a
run fails, if the result line does not print exactly the metrics that
BENCHMARK.json declares for that mode with their units, or if any op
went ungated.  Gate misses are reported, not treated as a self-check
failure: they are the program's, and error_rate shows them.  Last, it
runs the benchmark in a directory holding only BENCHMARK.json and the
benchmark's files, where it must fail without printing a result.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(args, cwd):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py")] + args,
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def check_run(workload, trace, declared, workload_names) -> list:
    proc = run(["--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", str(trace)], ROOT)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}: {proc.stderr[-800:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    want = declared["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    for name, unit in want.items():
        if name not in got:
            problems.append(f"{where}: metric {name} missing")
        elif got[name]["unit"] != unit:
            problems.append(f"{where}: {name} unit {got[name]['unit']!r}, declared {unit!r}")
        elif not math.isfinite(got[name]["value"]):
            problems.append(f"{where}: {name} = {got[name]['value']!r}")
    problems += [f"{where}: undeclared metric {n}" for n in sorted(set(got) - set(want))]

    detail_path = lines[-2].split("detail: ", 1)[1]
    with open(os.path.join(ROOT, detail_path), "r", encoding="utf-8") as fh:
        detail = json.load(fh)
    kinds = detail["kinds"]
    for wl in workload_names if trace else [workload]:
        missing = [k for k in workloads.WORKLOADS[wl].kinds if k not in kinds]
        if missing:
            problems.append(f"{where}: op kinds never run: {missing}")
    # an op goes ungated only when it raised before producing output
    ungated = sum(row["ops"] - row["gated"] for row in kinds.values())
    if ungated != detail["raised"]:
        problems.append(f"{where}: {ungated} ops ungated but only {detail['raised']} raised")
    note = f"{where}: attempted {result['attempted']}, failed {result['failed']}"
    if detail.get("absent"):
        note += f", absent (reported as 0): {detail['absent']}"
    print(note + "".join(f"\n    {f}" for f in detail["failures"]))
    return problems


def check_bare_directory() -> list:
    bare = os.path.join(ROOT, ".perfbench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", "oracle", "--seed", "1", "--seconds", "1",
                    "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return ["bare directory: the benchmark succeeded without canard sources"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {mode: {m["name"]: m["unit"] for m in bench[mode]}
                for mode in ("end_to_end", "per_layer")}
    names = [w["name"] for w in bench["workloads"]]
    problems = []
    for workload in names:
        for trace in (0, 1):
            problems += check_run(workload, trace, declared, names)
    problems += check_bare_directory()
    for p in problems:
        print(f"FAIL {p}")
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
