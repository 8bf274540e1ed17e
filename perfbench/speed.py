"""Speed probe of the core that runs the benchmark.

On a shared host the speed of a core drifts by tens of per cent within
seconds (a busy sibling hyperthread, cache and memory traffic of other
tenants), and a whole 30-second run can fall into a slow phase.  So a
fixed loop of the kind of work canard does -- Python float arithmetic
and numpy operations on 2-vectors -- is timed right before and right
after every op.  An op's wall time times PROBE_REF_S over the mean probe
time around it is the op's time at the reference speed, the speed at
which one probe takes PROBE_REF_S.  The drift scales op and probe alike
and cancels; a change to canard moves only the op.  The raw wall times
go to the detail record beside the scaled ones.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

PROBE_REF_S = 1e-3
_STEP = np.array([1e-4, -1e-4])


def _loop():
    acc, v = 0.0, np.array([0.3, 0.1])
    for i in range(800):
        acc += math.sin(i * 1e-3) * (i % 7)
        v = v * 0.999 + _STEP
    return acc, v


def probe_seconds(repeats: int) -> float:
    """Median wall time of `repeats` probe loops."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def at_reference(seconds: float, probe_before: float, probe_after: float) -> float:
    """`seconds` of wall time scaled to the reference speed."""
    return seconds * PROBE_REF_S / (0.5 * (probe_before + probe_after))

