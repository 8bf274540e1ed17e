"""Fresh-interpreter set-up probe of the benchmark.

    child.py <workload> <seed> <dir>

Imports the workload's canard modules, builds its generated inputs up to
the first op, prints "ready" and exits.  The parent times it from spawn
to that line.  Expects ``src`` on PYTHONPATH (the parent sets it).
"""

import sys

import workloads


def main(argv) -> int:
    name, seed, run_dir = argv[0], int(argv[1]), argv[2]
    ctx = workloads.WORKLOADS[name].setup(seed, run_dir)
    next(ctx["specs"])
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
