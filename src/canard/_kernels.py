"""Adaptive Runge-Kutta core shared by every integration entry point,
and the one bisection loop of the package.

The stepper is a Dormand-Prince 5(4) embedded pair with the quartic
dense-output interpolant and proportional-integral step control (Hairer,
Nørsett & Wanner, Solving ODEs I, §II.5-6).  It is plain Python on
scalar floats: a field is an autonomous function (x, y) -> (dx/dt,
dy/dt) on two floats, and a run hands back the lists it grew: the accepted
times, and one (x, y) pair per accepted state.  A field may carry its
source, as source_field's do: source = (names, f_src, g_src), two
expressions in x, y and the parameter names, and params, the values of
those names.  The
stepper's body is one template, instantiated and cached per source by
_stepper: for a field without one it calls the field at each stage, for
one with a source it binds params to locals once per run and evaluates
the expressions in place, with the floats the call gives.  Parameter
values never enter the source, so one stepper serves every parameter
set.  The template is written with the tableau's names, and the
generated source holds their values as literals, which the compiler
makes constants; it binds math.isfinite, math.sqrt and the appends of
the mesh lists to locals once per run, so a step reads none of these
through a global or attribute lookup, and it counts accepted steps and
field evaluations once, at the end, from the mesh and the rejections.
define is the package's one run of generated code.  Time only runs
forward here; reversed time is one negated field, built in dynamics.
The stepper is also the package's one section-crossing locator: an
optional section stop searches each accepted step for a crossing of a
vertical line, builds that step's interpolant row only where one is
found, keeps the crossings in a wanted direction and ends the run at the
limit-th; no run keeps the interpolant of its whole mesh.  A run raises
each of its failures as a NumericsError itself (see dopri5), so it
returns only when it reaches t_end or its stop.  bisect serves that
location, the displacement root of dynamics.find_cycle and the Hopf
point of allee.hopf_onset, each with its own stop rule; tangential is
the one tangency rule of a crossing."""

from __future__ import annotations

import functools
import math
import re

from .errors import DomainError, NumericsError

# Dormand-Prince 5(4) tableau; the nodes c_i are not needed, fields being
# autonomous
A21 = 1.0 / 5.0
A31, A32 = 3.0 / 40.0, 9.0 / 40.0
A41, A42, A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
A51, A52, A53, A54 = (19372.0 / 6561.0, -25360.0 / 2187.0,
                      64448.0 / 6561.0, -212.0 / 729.0)
A61, A62, A63, A64, A65 = (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0,
                           49.0 / 176.0, -5103.0 / 18656.0)
B1, B3, B4, B5, B6 = (35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0,
                      -2187.0 / 6784.0, 11.0 / 84.0)
# b minus the embedded 4th-order weights
E1, E3, E4, E5, E6, E7 = (71.0 / 57600.0, -71.0 / 16695.0, 71.0 / 1920.0,
                          -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0)
# dense-output weights
D1 = -12715105075.0 / 11282082432.0
D3 = 87487479700.0 / 32700410799.0
D4 = -10690763975.0 / 1880347072.0
D5 = 701980252875.0 / 199316789632.0
D6 = -1453857185.0 / 822651844.0
D7 = 69997945.0 / 29380423.0

_MAX_REJECT_STREAK = 30  # rejected steps in a row that end a run
_BAD_FIELD = "field '{}' evaluation produced non-finite values"


# The body of dopri5, the one Dormand-Prince core: each line "k?0, k?1 = FIELD"
# becomes the field's pair (dx/dt, dy/dt) at the stage state (x, y), a call or
# the field's own expressions (_stepper_source).  It returns the mesh as lists:
# the times, and the states as (x, y) pairs, and raises each failure where it
# first sees it, naming the field it was given.
_DOPRI5_BODY = """
    t = 0.0
    isfinite, sqrt = math.isfinite, math.sqrt
    y0, y1 = float(u0[0]), float(u0[1])
    x, y = y0, y1
    k10, k11 = FIELD
    if not (isfinite(y0) and isfinite(y1) and isfinite(k10) and isfinite(k11)):
        raise NumericsError(_BAD_FIELD.format(getattr(rhs, "__name__", rhs)))

    # starter step: scipy-style two-probe estimate
    sc0 = atol + rtol * abs(y0)
    sc1 = atol + rtol * abs(y1)
    d0 = sqrt(0.5 * ((y0 / sc0) ** 2 + (y1 / sc1) ** 2))
    d1 = sqrt(0.5 * ((k10 / sc0) ** 2 + (k11 / sc1) ** 2))
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, t_end)
    x, y = y0 + h0 * k10, y1 + h0 * k11
    f0, f1 = FIELD
    if not (isfinite(f0) and isfinite(f1)):
        raise NumericsError(_BAD_FIELD.format(getattr(rhs, "__name__", rhs)))
    d2 = sqrt(0.5 * (((f0 - k10) / sc0) ** 2
                     + ((f1 - k11) / sc1) ** 2)) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    h = min(100.0 * h0, h1, t_end)

    ts = [t]
    ys = [(y0, y1)]
    ts_append, ys_append = ts.append, ys.append
    rejected = 0
    streak = 0
    errold = 1e-4
    cross = False
    hits = []
    a0, a1 = abs(y0), abs(y1)   # |y| at the last accepted state

    # comparisons stand in for min, max and abs calls, same floats (t >= 0)
    while t < t_end:
        if h < 1e-14 * (t if t > 1.0 else 1.0):
            raise NumericsError("step size underflow (stiff or singular field)")
        h = t_end - t if t_end - t < h else h

        x, y = y0 + h * (A21 * k10), y1 + h * (A21 * k11)
        k20, k21 = FIELD
        x, y = (y0 + h * (A31 * k10 + A32 * k20),
                y1 + h * (A31 * k11 + A32 * k21))
        k30, k31 = FIELD
        x, y = (y0 + h * (A41 * k10 + A42 * k20 + A43 * k30),
                y1 + h * (A41 * k11 + A42 * k21 + A43 * k31))
        k40, k41 = FIELD
        x, y = (y0 + h * (A51 * k10 + A52 * k20 + A53 * k30 + A54 * k40),
                y1 + h * (A51 * k11 + A52 * k21 + A53 * k31 + A54 * k41))
        k50, k51 = FIELD
        x, y = (y0 + h * (A61 * k10 + A62 * k20 + A63 * k30 + A64 * k40
                          + A65 * k50),
                y1 + h * (A61 * k11 + A62 * k21 + A63 * k31 + A64 * k41
                          + A65 * k51))
        k60, k61 = FIELD
        yn0 = y0 + h * (B1 * k10 + B3 * k30 + B4 * k40 + B5 * k50 + B6 * k60)
        yn1 = y1 + h * (B1 * k11 + B3 * k31 + B4 * k41 + B5 * k51 + B6 * k61)
        x, y = yn0, yn1
        k70, k71 = FIELD
        if not (isfinite(yn0) and isfinite(yn1) and isfinite(k70) and isfinite(k71)):
            raise NumericsError(_BAD_FIELD.format(getattr(rhs, "__name__", rhs)))

        e0 = h * (E1 * k10 + E3 * k30 + E4 * k40 + E5 * k50 + E6 * k60
                  + E7 * k70)
        e1 = h * (E1 * k11 + E3 * k31 + E4 * k41 + E5 * k51 + E6 * k61
                  + E7 * k71)
        an0 = -yn0 if yn0 < 0.0 else yn0
        an1 = -yn1 if yn1 < 0.0 else yn1
        s0 = atol + rtol * (an0 if an0 > a0 else a0)
        s1 = atol + rtol * (an1 if an1 > a1 else a1)
        err = sqrt(0.5 * ((e0 / s0) ** 2 + (e1 / s1) ** 2))

        if err <= 1.0:
            if stop is not None:
                # a sign change of x - x_sec over the step, or x on the line at
                # its start from the first accepted step on (t > 0)
                a = y0 - stop[0]
                cross = (a == 0.0 and t > 0.0) or a * (yn0 - stop[0]) < 0.0
            if cross:
                q0, q1 = yn0 - y0, yn1 - y1
                b0, b1 = h * k10 - q0, h * k11 - q1
                row = (y0, y1, q0, q1, b0, b1,
                       q0 - h * k70 - b0, q1 - h * k71 - b1,
                       h * (D1 * k10 + D3 * k30 + D4 * k40 + D5 * k50
                            + D6 * k60 + D7 * k70),
                       h * (D1 * k11 + D3 * k31 + D4 * k41 + D5 * k51
                            + D6 * k61 + D7 * k71))
            t_old, t = t, t + h
            y0, y1 = yn0, yn1
            a0, a1 = an0, an1
            k10, k11 = k70, k71
            ts_append(t)
            ys_append((y0, y1))
            if err == 0.0:
                fac = 10.0
            else:
                fac = 0.9 * err ** (-0.17) * errold ** 0.04
                fac = 10.0 if fac > 10.0 else 0.2 if fac < 0.2 else fac
            h = h * fac
            errold = 1e-4 if err < 1e-4 else err
            streak = 0
            if cross:
                hit = section_crossing(rhs, t_old, t, row,
                                       stop[0], stop[1], a)
                if hit is not None and stop[2] in (0.0, hit[2]):
                    hits.append(hit)
                    if len(hits) >= stop[3]:
                        break
        else:
            h = h * min(0.9, max(0.1, 0.9 * err ** (-0.2)))
            rejected += 1
            streak += 1
            if streak >= _MAX_REJECT_STREAK:
                raise NumericsError("persistent step rejection")

    # 2 starter evaluations, then 6 per attempted step, accepted or rejected
    steps = len(ts) - 1
    return ts, ys, (steps, rejected, 2 + 6 * (steps + rejected)), hits
"""

# The tableau names of _DOPRI5_BODY.  Each is written into the generated
# source as its repr in parentheses: repr reads back to the same double, and
# the compiler folds "(-3.7...)" into one constant, where a name would be a
# global lookup at each use.
_TABLEAU = ("A21", "A31", "A32", "A41", "A42", "A43", "A51", "A52", "A53", "A54",
            "A61", "A62", "A63", "A64", "A65", "B1", "B3", "B4", "B5", "B6",
            "E1", "E3", "E4", "E5", "E6", "E7", "D1", "D3", "D4", "D5", "D6", "D7")
_FOLDED_BODY = re.sub(r"\b(%s)\b" % "|".join(_TABLEAU),
                      lambda name: f"({globals()[name[1]]!r})", _DOPRI5_BODY)

# steppers kept per field source: two per model, one per direction, and one
# that every field without a source shares
_STEPPER_CACHE = 16


def define(source: str, name: str, env: dict):
    """The object that Python source binds to name when run with globals env:
    the package's one run of generated code, for its generated kernels."""
    namespace: dict = {}
    exec(source, env, namespace)
    return namespace[name]


def _stepper_source(source) -> str:
    """The source of the stepper dopri5(rhs, u0, t_end, rtol, atol, stop)
    for a field source: for None, one that calls rhs at each stage; for
    (names, f_src, g_src), one that binds names to rhs.params once and
    evaluates the two expressions in place.  Either way the tableau enters
    as literals (_TABLEAU).  DomainError on a name that the body uses
    itself."""
    head = "def dopri5(rhs, u0, t_end, rtol, atol, stop):"
    if source is None:
        return head + _FOLDED_BODY.replace(" = FIELD\n", " = rhs(x, y)\n")
    names, f_src, g_src = source
    code = _stepper(None).__code__
    for name in names:
        if name in code.co_varnames or name in code.co_names:
            raise DomainError(f"field parameter name {name!r} is not free in the stepper")
    bind = f"\n    {''.join(f'{name}, ' for name in names)}= rhs.params"
    return head + bind + _FOLDED_BODY.replace(" = FIELD\n", f" = ({f_src}), ({g_src})\n")


@functools.lru_cache(maxsize=_STEPPER_CACHE)
def _stepper(source):
    """The stepper of _stepper_source(source), generated once per source."""
    return define(_stepper_source(source), "dopri5", globals())


def source_field(name: str, names: tuple, *srcs: str):
    """The maker of the function name(x, y) = (srcs[0], srcs[1], ...) over the
    parameters names, compiled from that text: maker(values) is the function
    closed over the values, carrying source = (names, *srcs) and params =
    values.  A field's srcs are (f_src, g_src), which dopri5 evaluates in
    place."""
    make = define(f"def make({', '.join(names)}):\n"
                  f"    def {name}(x, y):\n"
                  f"        return {', '.join(f'({src})' for src in srcs)}\n"
                  f"    return {name}", "make", {})

    def maker(values):
        field = make(*values)
        field.source, field.params = (names, *srcs), tuple(values)
        return field
    return maker


def dopri5(rhs, u0, t_end, rtol, atol, stop=None):
    """Integrate (x, y)' = rhs(x, y) from u0 = (x, y) over [0, t_end].

    Returns (ts, ys, counts, hits): the accepted mesh as the stepper's
    lists, the n+1 times ts and the n+1 states ys as (x, y) pairs of
    floats; counts = (accepted steps, rejected steps, rhs evaluations);
    and hits.  With stop = (x_sec, y_base, want, limit)
    every accepted step is searched for a crossing of x = x_sec as by
    section_crossing, each crossing (t, y, xdir) whose x-direction is
    want (either for want = 0.0) is appended to hits, and the run ends
    at the limit-th; without a stop hits is empty.  A field carrying a
    source is evaluated from it in place, with the floats its call gives;
    rhs evaluations count those.

    Each failure is a NumericsError raised where the run first meets it:
    a non-finite value, checked on the start values and the starter probe,
    then on each step's new state and last stage, names rhs by its
    __name__; a step size below 1e-14 of max(t, 1) is an underflow;
    _MAX_REJECT_STREAK rejected steps in a row are a persistent rejection;
    and a crossing that runs along the section is tangential.  A
    ZeroDivisionError or OverflowError in the field or in the stepper's
    arithmetic on its values passes through."""
    return _stepper(getattr(rhs, "source", None))(rhs, u0, t_end, rtol, atol, stop)


def bisect(g, lo, hi, g_lo, narrow, max_iter=None):
    """Bisection on a sign change of g over [lo, hi], where g_lo = g(lo)
    and g(hi) has the other sign.  Halves the bracket until narrow(lo, hi)
    holds or max_iter midpoints were evaluated, and returns the midpoint
    of the final bracket; a midpoint where g is exactly 0 is returned at
    once."""
    n = 0
    while not narrow(lo, hi) and (max_iter is None or n < max_iter):
        mid = 0.5 * (lo + hi)
        g_mid = g(mid)
        if g_mid == 0.0:
            return mid
        if math.copysign(1.0, g_mid) == math.copysign(1.0, g_lo):
            lo, g_lo = mid, g_mid
        else:
            hi = mid
        n += 1
    return 0.5 * (lo + hi)


def interpolate(row, j, theta):
    """Component j of the interpolant at fraction theta of a step whose
    coefficients row holds flat in (order, component) order."""
    t1 = 1.0 - theta
    return row[j] + theta * (row[2 + j] + t1 * (
        row[4 + j] + theta * (row[6 + j] + t1 * row[8 + j])))


def tangential(v0, v1):
    """The one tangency rule: the velocity (v0, v1) runs along a vertical line."""
    return abs(v0) <= 1e-12 * (abs(v1) + 1.0)


def section_crossing(rhs, t0, t1, row, x_sec, y_base, a):
    """The crossing of the line x = x_sec within the step [t0, t1] with
    interpolant coefficients row, where a = x(t0) - x_sec: at t0 itself
    when a == 0, else bisected on the interpolant to a time width of
    1e-10.  Returns (t, y, xdir) with xdir the sign of the orbit's
    x-velocity there, or None for a crossing at t <= 1e-12 or at or below
    y_base.  A tangential crossing raises NumericsError."""
    h = t1 - t0
    theta = 0.0 if a == 0.0 else bisect(
        lambda th: interpolate(row, 0, th) - x_sec, 0.0, 1.0, a,
        lambda lo, hi: (hi - lo) * h <= 1e-10)
    t_hit = t0 + theta * h
    if t_hit <= 1e-12:
        return None
    y_hit = interpolate(row, 1, theta)
    if y_hit <= y_base:
        return None
    v0, v1 = rhs(interpolate(row, 0, theta), y_hit)
    if tangential(v0, v1):
        raise NumericsError(f"tangential section crossing at t={t_hit}")
    return float(t_hit), float(y_hit), math.copysign(1.0, v0)
