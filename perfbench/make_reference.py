"""Record the reference outputs that the orbit and CLI gates compare with.

    python3 perfbench/make_reference.py

Run from the root of a source checkout.  It evaluates every input the
orbits and cli workloads can draw (both examples over the whole DY_GRID,
analyze on both examples, every sweep variant, and the fixed sdi and
simulate configurations) through the same code paths as the benchmark
and writes reference.json.
Re-record only when a change is meant to alter these outputs, and say so.
"""

import json
import os
import shutil
import sys
import tempfile

import workloads

ROOT = os.path.dirname(workloads.HERE)


def orbit_reference() -> dict:
    wl = workloads.Orbits()
    ctx = wl.context()
    ref = {}
    for label in workloads.EXAMPLES:
        heights, states = [], []
        for k in range(len(workloads.DY_GRID)):
            heights.append(wl.run(("return_map", label, k), ctx))
            states.append(wl.run(("integrate", label, k), ctx)[1])
        ref[label] = {"return_height": heights, "end_state": states}
    return ref


def cli_reference(run_dir: str) -> dict:
    wl = workloads.Cli()
    ctx = wl.context(run_dir)
    ref = {"analyze": {}, "sweep": {}}

    def digest(spec):
        code, stderr, out_dir = wl.run(spec, ctx)
        if code != 0:
            raise SystemExit(f"{spec} exited with {code}: {stderr}")
        return workloads.cli_digest(spec[0], out_dir)

    for kind in ("sdi", "simulate"):
        ref[kind] = digest((kind, None))
    for label in workloads.EXAMPLES:
        ref["analyze"][label] = digest(("analyze", label))
    for variant in range(workloads.SWEEP_VARIANTS):
        ref["sweep"][str(variant)] = digest(("sweep", variant))
    return ref


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="reference-", dir=out_dir)
    try:
        ref = {"orbits": orbit_reference(), "cli": cli_reference(run_dir)}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
