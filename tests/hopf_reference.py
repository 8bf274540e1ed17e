"""The Hopf solve of canard.blowup as it was before one generated kernel took a
whole Newton iterate: a PlanarPolySystem built for the start, the equilibrium
series read off the hatted tables, and three one-table partials kernels per
iterate (table_partials).  It is the bit-for-bit reference the solve is held
to; hatted_tables serves the tests of the series, and hopf_system, whose rows
the solve matches bit for bit, the tests of the Jacobian and of one Newton
step."""

import math

from canard import blowup
from canard.blowup import (
    EquilibriumSeries,
    PlanarPolySystem,
    _ORDER1,
    _ORDER2,
    _finite,
    _m_table,
    _kernel,
    _n_table,
    _partials_source,
)
from canard.errors import DomainError, NumericsError
from canard.normalform import rho_coefficients

# r-grading of the blown-up coefficients: m_ij = r^mu_ij * O(1),
# n_ij = r^nu_ij * O(1).  Dividing by these powers gives the hatted
# values the equilibrium series is written in.
MU = {(1, 0): 1, (0, 1): 0, (2, 0): 0, (1, 1): 1, (0, 2): 2,
      (3, 0): 1, (2, 1): 2, (1, 2): 3, (0, 3): 4}
NU = {(0, 0): 0, (1, 0): 0, (0, 1): 1, (2, 0): 1, (1, 1): 2,
      (0, 2): 3, (3, 0): 2, (2, 1): 3, (1, 2): 4, (0, 3): 5}
_MAX_GRADE = max(*MU.values(), *NU.values())
# the record field that holds each lambda1 slope of the n-table
_SLOPE_NAMES = {ij: f"e{ij[0]}{ij[1]}" for ij in NU if any(ij)}
# the sums of m and of n that hopf_system reads
_HOPF_SUMS = (_ORDER2[:5], _ORDER1 + _ORDER2[4:])


def hatted_tables(fx, fy, r):
    rk = [r ** k for k in range(_MAX_GRADE + 1)]
    m = {ij: fx.get(ij, 0.0) / rk[mu] for ij, mu in MU.items()}
    n = {ij: fy.get(ij, 0.0) / rk[nu] for ij, nu in NU.items()}
    return m, n


def equilibrium_series(sys, r):
    """Series coefficients of the equilibrium near the origin of a system
    blown up at radius r; NumericsError if a coefficient overflows."""
    try:
        m, n = hatted_tables(sys.fx, sys.fy, r)
        m10, m01, m20, m11, m02 = m[(1, 0)], m[(0, 1)], m[(2, 0)], m[(1, 1)], m[(0, 2)]
        m30, m21, m12 = m[(3, 0)], m[(2, 1)], m[(1, 2)]
        n00, n10, n01, n20, n11, n02 = (n[(0, 0)], n[(1, 0)], n[(0, 1)],
                                        n[(2, 0)], n[(1, 1)], n[(0, 2)])
        n30, n21 = n[(3, 0)], n[(2, 1)]
        if n10 == 0.0:
            raise DomainError("slow linear coefficient n10 must be nonzero")
        if m01 == 0.0:
            raise DomainError("fast linear coefficient m01 must be nonzero")

        p0 = -n00 / n10
        q0 = -m20 * n00 ** 2 / (m01 * n10 ** 2)
        p1 = -(p0 ** 2 * n20 + q0 * n01) / n10
        q1 = -p0 * (p0 ** 2 * (m30 * n10 - 2 * m20 * n20)
                    + q0 * (m11 * n10 - 2 * m20 * n01)
                    + m10 * n10) / (m01 * n10)
        p2 = -(p0 * (p0 ** 2 * n30 + 2 * p1 * n20 + q0 * n11) + q1 * n01) / n10
        q2 = (p0 ** 2 * (p1 * (4 * m20 * n20 - 3 * m30 * n10)
                         + q0 * (2 * m20 * n11 - m21 * n10))
              + p0 * q1 * (2 * m20 * n01 - m11 * n10)
              - n10 * (p1 * q0 * m11 + p1 * (p1 * m20 + m10) + q0 ** 2 * m02)
              + 2 * p0 ** 4 * m20 * n30) / (m01 * n10)
        p3 = -(p0 * q1 * n11 + q0 * (p0 ** 2 * n21 + p1 * n11)
               + 3 * p1 * p0 ** 2 * n30 + 2 * p2 * p0 * n20 + p1 ** 2 * n20
               + q2 * n01 + q0 ** 2 * n02) / n10
        q3 = (2 * p0 ** 3 * m20 * (3 * p1 * n30 + q0 * n21)
              + p0 ** 2 * (p2 * (4 * m20 * n20 - 3 * m30 * n10)
                           + q1 * (2 * m20 * n11 - m21 * n10))
              + p0 * (2 * p1 * q0 * (m20 * n11 - m21 * n10)
                      + p1 ** 2 * (2 * m20 * n20 - 3 * m30 * n10)
                      + q2 * (2 * m20 * n01 - m11 * n10)
                      + q0 ** 2 * (2 * m20 * n02 - m12 * n10))
              - n10 * (p1 * q1 * m11 + q0 * (p2 * m11 + 2 * q1 * m02)
                       + p2 * (2 * p1 * m20 + m10))) / (m01 * n10)
    except (OverflowError, ZeroDivisionError):
        raise NumericsError("equilibrium series coefficient overflowed") from None

    for v in (p0, p1, p2, p3, q0, q1, q2, q3):
        if not math.isfinite(v):
            raise NumericsError("equilibrium series coefficient overflowed")
    return EquilibriumSeries((p0, p1, p2, p3), (q0, q1, q2, q3))


def lambda1_slopes(nf, r):
    """dn_ij/dlambda1 of the n-table at radius r; it does not depend on lambda1."""
    dn = {ij: -r ** (NU[ij] + 1) * getattr(nf, name) for ij, name in _SLOPE_NAMES.items()}
    dn[(0, 0)] = -1.0
    return dn


def table_partials(coeffs, x, y, sums=_ORDER2):
    """The derivatives sums of one table at (x, y): the partials kernel
    generated for that table alone."""
    return _kernel(_partials_source, tuple(coeffs), (sums,), len(coeffs))(coeffs, x, y)


def hopf_system(m, n, dn, x, y):
    """The Hopf defining system F = (fx, fy, trace) at (x, y) and its Jacobian
    rows in (x, y, lambda1), from three table_partials calls."""
    fx, j11, j12, fxx, fxy = table_partials(m, x, y, _HOPF_SUMS[0])
    fy, j21, j22, gxy, gyy = table_partials(n, x, y, _HOPF_SUMS[1])
    p, _, p_y = table_partials(dn, x, y, _ORDER1)
    return ((fx, fy, j11 + j22),
            ((j11, j12, 0.0), (j21, j22, p), (fxx + gxy, fxy + gyy, p_y)))


def hopf_point(nf, r):
    """(lambda1, equilibrium, (fast table, slow table)) at the Hopf point for
    radius r, as canard.blowup._hopf_point returns them."""
    if not 0.0 < r <= 0.2:
        raise DomainError(f"r must lie in (0, 0.2], got {r}")
    lam = rho_coefficients(nf).rho1 * r
    dn = lambda1_slopes(nf, r)
    start = PlanarPolySystem(_m_table(nf, r), _n_table(nf, r, lam))
    m, n = start.fx, start.fy
    x, y = equilibrium_series(start, r).predict(r)
    for _ in range(blowup._MAX_ITER):
        (f, g, t), ((a, b, _), (c, d, p), (e, h, k)) = hopf_system(m, n, dn, x, y)
        converged = max(abs(f), abs(g), abs(t)) < blowup._TOL
        minor = d * k - p * h
        det = a * minor - b * (c * k - p * e)
        if det == 0.0 or not math.isfinite(det):
            raise NumericsError("singular Jacobian in Hopf location")
        x -= (f * minor - b * (g * k - p * t)) / det
        y -= (a * (g * k - p * t) - f * (c * k - p * e)) / det
        lam -= (a * (d * t - g * h) - b * (c * t - g * e) + f * (c * h - d * e)) / det
        n = _finite({k: float(c) for k, c in _n_table(nf, r, lam).items() if c != 0.0})
        if converged:
            return lam, (x, y), (m, n)
    raise NumericsError(f"Hopf location did not reach residual {blowup._TOL} "
                        f"in {blowup._MAX_ITER} iterations")
