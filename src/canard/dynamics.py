"""Trajectory integration, Poincaré return maps, and cycle detection.

A field is an autonomous function (x, y) -> (dx/dt, dy/dt) on floats,
optionally carrying its source (see _kernels); allee_field(p) is the
model's, and carries it.  Every run goes through _run into one call of the
scalar Dormand-Prince 5(4) core in _kernels, at the tolerances asked
for; the core raises each of its failures as a NumericsError itself, and
_run types a division by zero or an overflow of the field's arithmetic as
one.  The core runs time forward and
evaluates a field that carries its source in place; for Reversed runs
_oriented negates the field, and its source, once per run.  integrate
keeps the accepted mesh only, as the core's own lists: the times, and
the states as (x, y) pairs.  Section crossings have one locator, the
core's section stop: section_crossings and a return map's run each
give it the section, a direction and a count, and the run ends at that
crossing, the limit-th of section_crossings (either direction) or a
return map's first in the start's direction; neither builds a
Trajectory.  Only region_excursion's seeded generator needs numpy, and
imports it where it runs.  Limit
cycles are found by bisection on the displacement map, with unstable
cycles handled in reversed time and their multiplier reported in the
forward-time convention; that bisection and the crossing location run
_kernels.bisect; a return map's start and each located crossing are
tested for tangency by the one rule, _kernels.tangential."""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Callable, List, Tuple

from ._kernels import bisect, dopri5, tangential
from .allee import AlleeParams
from .allee import model_field as allee_field
from .errors import DomainError, NumericsError, require_count

FORWARD = "Forward"
REVERSED = "Reversed"


@dataclass(frozen=True)
class IntegratorOptions:
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    t_max: float = 100.0
    direction: str = FORWARD

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol"):
            v = getattr(self, name)
            if not (0.0 < v <= 1e-2):
                raise DomainError(f"requires 0 < {name} <= 1e-2, got {v}")
        if not (math.isfinite(self.t_max) and self.t_max > 0.0):
            raise DomainError(f"requires finite t_max > 0, got {self.t_max}")
        if self.direction not in (FORWARD, REVERSED):
            raise DomainError(f"direction must be {FORWARD} or {REVERSED}")


@dataclass(eq=False)
class Trajectory:
    """The accepted mesh of one run, as the core's lists: the times t and
    the states y, one (x, y) pair of floats per time; and the core's work
    on it: accepted and rejected steps and field evaluations."""

    t: List[float]
    y: List[Tuple[float, float]]
    n_accepted: int
    n_rejected: int
    nfev: int

    @property
    def end_state(self) -> Tuple[float, float]:
        return self.y[-1]


def _oriented(field: Callable, direction: str) -> Callable:
    """field, or for REVERSED its negation: the floats -1.0 * field gives.
    The negation carries field's name, which the core's failures give, and
    for a field carrying its source the negated source, -(f_src) and
    -(g_src), which gives the same floats."""
    if direction != REVERSED:
        return field

    def negated(x, y):
        u, v = field(x, y)
        return -u, -v
    negated.__name__ = str(getattr(field, "__name__", field))
    source = getattr(field, "source", None)
    if source is not None:
        names, f_src, g_src = source
        negated.source, negated.params = (names, f"-({f_src})", f"-({g_src})"), field.params
    return negated


@contextlib.contextmanager
def _typed_arithmetic(field: Callable):
    """A ZeroDivisionError or OverflowError raised in the block by field or by
    the stepper's arithmetic on its values (x / (m + x) at x = -m, the step-size
    norm of a value near the float limit), as a NumericsError naming field."""
    try:
        yield
    except (ZeroDivisionError, OverflowError) as exc:
        name = getattr(field, "__name__", field)
        raise NumericsError(f"field '{name}' failed in float arithmetic: {exc}") from None


def _run(field: Callable, x0, opts: IntegratorOptions, stop=None):
    """One run of the core at opts.rel_tol and opts.abs_tol from the finite
    start x0.  Returns (ts, ys, counts, hits) as from dopri5 with the given
    stop; its failures are the core's."""
    try:
        # a string is one value, not a pair of digits
        u0 = () if isinstance(x0, str) else tuple(map(float, x0))
    except (TypeError, ValueError):
        u0 = ()
    if len(u0) != 2 or not all(map(math.isfinite, u0)):
        raise DomainError(f"initial state must be a finite point, got {x0}")
    with _typed_arithmetic(field):
        return dopri5(_oriented(field, opts.direction), u0, opts.t_max,
                      opts.rel_tol, opts.abs_tol, stop)


def integrate(field: Callable, x0, opts: IntegratorOptions = IntegratorOptions()
              ) -> Trajectory:
    """Integrate field from x0 to opts.t_max, keeping the accepted mesh.
    The Reversed direction negates the field; the trajectory parameter
    still runs forward over [0, t_max]."""
    ts, ys, counts, _ = _run(field, x0, opts)
    return Trajectory(ts, ys, *counts)


@dataclass(frozen=True)
class Section:
    """Vertical ray {x = x_sec, y > y_base}, crossed in a fixed
    x-direction (the direction of the starting point's velocity)."""

    x: float
    y_base: float


def section_crossings(field: Callable, start, section: Section,
                      opts: IntegratorOptions = IntegratorOptions(),
                      limit: int = 64):
    """The first limit crossings of the section ray by the orbit of start,
    in either direction, as (t, y, xdot_sign) tuples, located on the step's
    interpolant to a time width of 1e-10; a crossing located at t <= 1e-12
    is the start's own and is dropped.  The run ends at the limit-th
    crossing, so a failure of the orbit after it (step underflow, a
    non-finite field) is not reached; it runs to opts.t_max when there are
    fewer.  Used to seed displacement-map brackets from published initial
    values.  DomainError unless limit >= 1 is an integer."""
    require_count("limit", limit, 1)
    return _run(field, start, opts, (section.x, section.y_base, 0.0, limit))[3]


def bracket_from_crossings(field: Callable, starts, section: Section,
                           opts: IntegratorOptions = IntegratorOptions()
                           ) -> Tuple[float, float]:
    """Displacement bracket seeded from orbits: the first crossing height
    in each x-direction over the start points, sorted.  A spiral crossing
    the section in both directions straddles whatever it winds around."""
    first = {}
    for start in starts:
        for _t, y, d in section_crossings(field, start, section, opts, limit=8):
            if d not in first:
                first[d] = y
        if len(first) == 2:
            break
    if len(first) < 2:
        raise DomainError("seed orbits cross the section in one direction only")
    lo, hi = sorted(first.values())
    return lo, hi


def _first_return(field: Callable, section: Section, y0: float,
                  opts: IntegratorOptions) -> Tuple[float, float]:
    """(height, time) of the first same-direction crossing; the
    integration stops there instead of running on to t_max."""
    with _typed_arithmetic(field):
        v0, v1 = _oriented(field, opts.direction)(section.x, y0)
    if tangential(v0, v1):
        raise NumericsError("section crossing is tangential at the start point")
    stop = (section.x, section.y_base, math.copysign(1.0, v0), 1)
    hits = _run(field, (section.x, y0), opts, stop)[3]
    if not hits:
        raise NumericsError(
            f"no same-direction return to x={section.x} within t_max={opts.t_max}")
    return hits[0][1], hits[0][0]


def return_map(field: Callable, section: Section, y0: float,
               opts: IntegratorOptions = IntegratorOptions()) -> float:
    """Height of the first same-direction crossing of the section ray by
    the orbit started at (section.x, y0)."""
    return _first_return(field, section, y0, opts)[0]


@dataclass(frozen=True)
class CycleResult:
    section_point: Tuple[float, float]
    period: float
    multiplier: float
    stability: str
    converged: bool

    def __post_init__(self):
        if not self.period > 0.0:
            raise DomainError(f"cycle period must be positive, got {self.period}")


_NEUTRAL_BAND = 1e-4


def find_cycle(field: Callable, bracket: Tuple[float, float],
               section: Section,
               opts: IntegratorOptions = IntegratorOptions()) -> CycleResult:
    """Bisection on the displacement d(y) = P(y) - y over the bracket.
    d must change sign across the bracket.  With Reversed options the
    cycle is located in reversed time (where it attracts) and the
    multiplier is reported in the forward-time convention (reciprocal)."""
    y_lo, y_hi = float(min(bracket)), float(max(bracket))
    if not (math.isfinite(y_lo) and math.isfinite(y_hi) and y_lo < y_hi):
        raise DomainError(f"invalid bracket {bracket}")
    width = y_hi - y_lo

    def disp(y):
        return return_map(field, section, y, opts) - y

    d_lo = disp(y_lo)
    d_hi = disp(y_hi)
    if d_lo == 0.0:
        y_star = y_lo
    elif d_hi == 0.0:
        y_star = y_hi
    elif math.copysign(1.0, d_lo) == math.copysign(1.0, d_hi):
        raise DomainError(
            f"displacement does not change sign over bracket ({d_lo:+.3e} at "
            f"{y_lo}, {d_hi:+.3e} at {y_hi}): no cycle is straddled")
    else:
        y_star = bisect(disp, y_lo, y_hi, d_lo,
                        lambda lo, hi: hi - lo <= 2e-9, max_iter=80)

    y_ret, period = _first_return(field, section, y_star, opts)
    converged = abs(y_ret - y_star) < 1e-8

    delta = 1e-5 * width
    mult = (return_map(field, section, y_star + delta, opts)
            - return_map(field, section, y_star - delta, opts)) / (2.0 * delta)
    if opts.direction == REVERSED:
        if mult == 0.0:
            raise NumericsError("zero reversed-time multiplier cannot be inverted")
        mult = 1.0 / mult
    size = abs(mult)
    if size < 1.0 - _NEUTRAL_BAND:
        stability = "Stable"
    elif size > 1.0 + _NEUTRAL_BAND:
        stability = "Unstable"
    else:
        stability = "Neutral"
    return CycleResult((section.x, y_star), period, mult, stability, converged)


REGION_X = (0.0, 1.0)
REGION_Y = (0.0, 2.0)


def region_excursion(p: AlleeParams, n_starts: int = 100, seed: int = 0,
                     t_max: float = 1e4) -> float:
    """Worst excursion outside the box [0,1] x [0,2] over n_starts
    seeded uniform starts integrated to t_max at rel_tol 1e-9 and abs_tol
    1e-12.  The box is forward invariant for admissible parameters with
    (alpha-beta)/gamma <= 2, so the result should be at the
    integration-noise level.  DomainError unless n_starts >= 1 and seed
    >= 0 are integers: no start would pass the check vacuously."""
    require_count("n_starts", n_starts, 1)
    require_count("seed", seed, 0)
    import numpy as np

    rng = np.random.default_rng(seed)
    field = allee_field(p)
    opts = IntegratorOptions(rel_tol=1e-9, abs_tol=1e-12, t_max=t_max)
    worst = 0.0
    for _ in range(n_starts):
        u0 = (rng.uniform(*REGION_X), rng.uniform(*REGION_Y))
        xs, yv = zip(*integrate(field, u0, opts).y)
        # rounding is monotone, so max(v) - c is the max of v - c, bit for bit
        exc = max(0.0, -min(xs), max(xs) - REGION_X[1], -min(yv), max(yv) - REGION_Y[1])
        worst = max(worst, exc)
    return worst
