"""The hand-written Dormand-Prince 5(4) body that canard._kernels.dopri5
replaced with a template instantiated per field source: the bit-for-bit
reference the generated steppers are held to, on opaque callables and on
inlined field sources alike.  It keeps the dense-output mode (store_dense)
and the stop at the first crossing in one direction that the generated
stepper had then, and section_crossings is canard.dynamics.section_crossings
as it was on that mode: the orbit integrated to t_max, then its mesh scanned
for crossings."""

import math

import numpy as np

from canard import _kernels
from canard._kernels import (
    A21, A31, A32, A41, A42, A43, A51, A52, A53, A54, A61, A62, A63, A64, A65,
    B1, B3, B4, B5, B6, D1, D3, D4, D5, D6, D7, E1, E3, E4, E5, E6, E7,
    section_crossing)
from canard.dynamics import _oriented, _typed_arithmetic
from canard.errors import NumericsError

# how a run of the reference ends; where it is not STATUS_OK the core raises
# failure(status, field) instead
STATUS_OK = 0
STATUS_UNDERFLOW = 1
STATUS_STIFF = 2
STATUS_BAD_FIELD = 3


def failure(status, field):
    """The NumericsError the core raises where the reference ends with
    status (not STATUS_OK), for the field the caller gave."""
    if status == STATUS_BAD_FIELD:
        name = getattr(field, "__name__", field)
        return NumericsError(f"field '{name}' evaluation produced non-finite values")
    return NumericsError({STATUS_UNDERFLOW: "step size underflow (stiff or singular field)",
                          STATUS_STIFF: "persistent step rejection"}[status])


def dopri5(rhs, u0, t_end, rtol, atol, store_dense, stop=None):
    """Integrate (x, y)' = rhs(x, y) from u0 = (x, y) over [0, t_end].

    Returns (status, ts, ys, rcont, counts, hit): how the run ended, a
    STATUS_* code; the accepted mesh ts (n+1,) and ys (n+1, 2), up to a
    failure; the per-step interpolant coefficients rcont
    (n, 5, 2), or None without store_dense (the mesh is the same either
    way); counts = (accepted steps, rejected steps, rhs evaluations); and
    hit.  With stop = (x_sec, y_base, want) every accepted step is
    searched for a crossing of x = x_sec as by section_crossing, and the
    run ends at the first crossing whose x-direction is want, returned as
    hit = (t, y, xdir); otherwise hit is None.  Finiteness is checked on
    the start values and the starter probe, then on each step's new state
    and last stage."""
    t = 0.0
    y0, y1 = float(u0[0]), float(u0[1])
    k10, k11 = rhs(y0, y1)
    if not (math.isfinite(y0) and math.isfinite(y1)
            and math.isfinite(k10) and math.isfinite(k11)):
        return (STATUS_BAD_FIELD, np.array([t]), np.array([[y0, y1]]),
                np.empty((0, 5, 2)) if store_dense else None, (0, 0, 1), None)

    # starter step: scipy-style two-probe estimate
    sc0 = atol + rtol * abs(y0)
    sc1 = atol + rtol * abs(y1)
    d0 = math.sqrt(0.5 * ((y0 / sc0) ** 2 + (y1 / sc1) ** 2))
    d1 = math.sqrt(0.5 * ((k10 / sc0) ** 2 + (k11 / sc1) ** 2))
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, t_end)
    f0, f1 = rhs(y0 + h0 * k10, y1 + h0 * k11)
    if not (math.isfinite(f0) and math.isfinite(f1)):
        return (STATUS_BAD_FIELD, np.array([t]), np.array([[y0, y1]]),
                np.empty((0, 5, 2)) if store_dense else None, (0, 0, 2), None)
    d2 = math.sqrt(0.5 * (((f0 - k10) / sc0) ** 2
                          + ((f1 - k11) / sc1) ** 2)) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    h = min(100.0 * h0, h1, t_end)
    nfev = 2

    ts = [t]
    ys = [y0, y1]
    rc = []
    n = 0
    rejected = 0
    streak = 0
    errold = 1e-4
    status = STATUS_OK
    cross = False
    hit = None
    a0, a1 = abs(y0), abs(y1)   # |y| at the last accepted state

    # comparisons stand in for min, max and abs calls, same floats (t >= 0)
    while t < t_end:
        if h < 1e-14 * (t if t > 1.0 else 1.0):
            status = STATUS_UNDERFLOW
            break
        h = t_end - t if t_end - t < h else h

        k20, k21 = rhs(y0 + h * (A21 * k10), y1 + h * (A21 * k11))
        k30, k31 = rhs(y0 + h * (A31 * k10 + A32 * k20),
                       y1 + h * (A31 * k11 + A32 * k21))
        k40, k41 = rhs(y0 + h * (A41 * k10 + A42 * k20 + A43 * k30),
                       y1 + h * (A41 * k11 + A42 * k21 + A43 * k31))
        k50, k51 = rhs(
            y0 + h * (A51 * k10 + A52 * k20 + A53 * k30 + A54 * k40),
            y1 + h * (A51 * k11 + A52 * k21 + A53 * k31 + A54 * k41))
        k60, k61 = rhs(
            y0 + h * (A61 * k10 + A62 * k20 + A63 * k30 + A64 * k40
                      + A65 * k50),
            y1 + h * (A61 * k11 + A62 * k21 + A63 * k31 + A64 * k41
                      + A65 * k51))
        yn0 = y0 + h * (B1 * k10 + B3 * k30 + B4 * k40 + B5 * k50 + B6 * k60)
        yn1 = y1 + h * (B1 * k11 + B3 * k31 + B4 * k41 + B5 * k51 + B6 * k61)
        k70, k71 = rhs(yn0, yn1)
        nfev += 6
        if not (math.isfinite(yn0) and math.isfinite(yn1)
                and math.isfinite(k70) and math.isfinite(k71)):
            status = STATUS_BAD_FIELD
            break

        e0 = h * (E1 * k10 + E3 * k30 + E4 * k40 + E5 * k50 + E6 * k60
                  + E7 * k70)
        e1 = h * (E1 * k11 + E3 * k31 + E4 * k41 + E5 * k51 + E6 * k61
                  + E7 * k71)
        an0 = -yn0 if yn0 < 0.0 else yn0
        an1 = -yn1 if yn1 < 0.0 else yn1
        s0 = atol + rtol * (an0 if an0 > a0 else a0)
        s1 = atol + rtol * (an1 if an1 > a1 else a1)
        err = math.sqrt(0.5 * ((e0 / s0) ** 2 + (e1 / s1) ** 2))

        if err <= 1.0:
            if stop is not None:
                # the test and step order of dynamics.section_crossings
                a = y0 - stop[0]
                cross = (a == 0.0 and n > 0) or a * (yn0 - stop[0]) < 0.0
            if store_dense or cross:
                q0, q1 = yn0 - y0, yn1 - y1
                b0, b1 = h * k10 - q0, h * k11 - q1
                row = (y0, y1, q0, q1, b0, b1,
                       q0 - h * k70 - b0, q1 - h * k71 - b1,
                       h * (D1 * k10 + D3 * k30 + D4 * k40 + D5 * k50
                            + D6 * k60 + D7 * k70),
                       h * (D1 * k11 + D3 * k31 + D4 * k41 + D5 * k51
                            + D6 * k61 + D7 * k71))
                if store_dense:
                    rc.extend(row)
            t_old, t = t, t + h
            y0, y1 = yn0, yn1
            a0, a1 = an0, an1
            k10, k11 = k70, k71
            n += 1
            ts.append(t)
            ys.append(y0)
            ys.append(y1)
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
                if hit is not None and hit[2] == stop[2]:
                    break
                hit = None
        else:
            h = h * min(0.9, max(0.1, 0.9 * err ** (-0.2)))
            rejected += 1
            streak += 1
            if streak >= _kernels._MAX_REJECT_STREAK:
                status = STATUS_STIFF
                break

    return (status, np.array(ts), np.array(ys).reshape(-1, 2),
            np.array(rc).reshape(-1, 5, 2) if store_dense else None,
            (n, rejected, nfev), hit)


def section_crossings(field, start, section, opts, limit=64):
    """The first limit crossings of the section ray by the orbit of start, in
    either direction, as (t, y, xdot_sign): the whole orbit to opts.t_max
    with dense output in one run at opts.rel_tol and opts.abs_tol, with
    canard.dynamics._run's errors, then each step whose x - section.x
    changes sign (or is 0 at its start, after the first) located by
    section_crossing on its row."""
    rhs = _oriented(field, opts.direction)
    with _typed_arithmetic(field):
        status, ts, ys, rcont, _, _ = dopri5(rhs, start, opts.t_max, opts.rel_tol,
                                             opts.abs_tol, True)
    if status != STATUS_OK:
        raise failure(status, field)
    g = ys[:, 0] - section.x
    hits = []
    for i in range(len(ts) - 1):
        a = g[i]
        if (a == 0.0 and i > 0) or a * g[i + 1] < 0.0:
            with _typed_arithmetic(field):
                hit = section_crossing(rhs, ts[i], ts[i + 1], rcont[i].ravel().tolist(),
                                       section.x, section.y_base, a)
            if hit is not None:
                hits.append(hit)
                if len(hits) >= limit:
                    break
    return hits
