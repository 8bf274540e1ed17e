"""Numeric oracle for the closed-form Hopf quantities.

The pipeline mechanically reproduces the construction that the closed
forms in `normalform` summarize: rescale to the family chart (x = r*x1,
y = r^2*y1, lam = r*lam1, eps = r^2, time divided by r), locate the Hopf
point (the equilibrium and lam1 together, by one Newton iteration on the
defining system f = 0, trace = 0), translate the equilibrium to the
origin, bring the linear part to rotation form in the one frame the
closed forms are stated in (pivot m01), and apply the planar
first-Lyapunov-coefficient formula.
Everything here is independent of the omega/rho polynomials, so a fit of
l1_blowup over an r-grid is an end-to-end check of those polynomials.

Every stage reads and writes plain (i, j) -> c term tables: the
coefficient of x^i y^j, absent terms meaning 0.  The two coordinate
changes after the Hopf location run on private kernels: _recenter
(translate_to_equilibrium) and _linear_powers plus _substitute_linear
(normalize_linear).  Each repeats the float operations of the generic jet
op it stands for (jet_recenter, jet_compose with linear substitutions,
jet_scale, jet_add) in the same order, so their tables equal the jet
path's bit for bit; the tests check them against those ops.
blow_up_via_jets keeps to the generic jet ops as an independent
cross-check of the closed-form tables and is the only place here that
builds a Jet.

A PlanarPolySystem carries the two tables, the blow-up radius r and the
degree bound, and no stage tag: lyapunov_DF's |trace| < 1e-12 gate is the
one check that a system sits on the Hopf curve.  A Hopf solve builds one
system, at its final lam1: its Newton iterates evaluate the fast table,
built once since it does not depend on lam1, and a slow table rebuilt per
iterate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, NumericsError
from .jet import Jet, jet_add, jet_compose, jet_mul, jet_scale
from .normalform import COEFF_NAMES, NormalFormCoefficients, rho_coefficients

_DEGREE = 4  # cubic stages plus one guard order
_MAX_ITER = 50  # Newton steps allowed to the equilibrium and to the Hopf point

# sample_record's acceptance test: 4N - M^2 > _DISC_FLOOR at the Hopf point
# for r = _R_CHECK, within _MAX_TRIES draws
_R_CHECK = 0.1
_DISC_FLOOR = 0.05
_MAX_TRIES = 200

Terms = Dict[Tuple[int, int], float]

# r-grading of the blown-up coefficients: m_ij = r^mu_ij * O(1),
# n_ij = r^nu_ij * O(1).  Dividing by these powers gives the hatted
# values the equilibrium series is written in.
_MU = {(1, 0): 1, (0, 1): 0, (2, 0): 0, (1, 1): 1, (0, 2): 2,
       (3, 0): 1, (2, 1): 2, (1, 2): 3, (0, 3): 4}
_NU = {(0, 0): 0, (1, 0): 0, (0, 1): 1, (2, 0): 1, (1, 1): 2,
       (0, 2): 3, (3, 0): 2, (2, 1): 3, (1, 2): 4, (0, 3): 5}


@functools.lru_cache(maxsize=None)
def _terms_within(degree: int) -> Dict[Tuple[int, int], Tuple[int, int]]:
    """Every (i, j) with i, j >= 0 and i + j <= degree, mapped to itself: a key
    equal to one of them, such as (1.0, 0), looks up its int pair."""
    return {(i, n - i): (i, n - i) for n in range(degree + 1) for i in range(n + 1)}


def _clean_terms(terms: Terms, degree: int) -> Terms:
    """The nonzero terms as floats at int (i, j) keys, in insertion order;
    DomainError on a term beyond degree or a non-finite value (overflow never
    passes)."""
    allowed = _terms_within(degree)
    try:
        clean = {allowed[k]: float(c) for k, c in terms.items() if c != 0.0}
    except KeyError as exc:
        raise DomainError(f"term {exc.args[0]} is not a monomial of degree <= {degree}") from None
    for k, c in clean.items():
        if not math.isfinite(c):
            raise DomainError(f"non-finite coefficient at {k}")
    return clean


@dataclass(frozen=True)
class PlanarPolySystem:
    """Planar polynomial vector field as two term tables, truncated at total
    degree `degree`."""

    fx: Terms
    fy: Terms
    r: float
    degree: int = _DEGREE

    def __post_init__(self):
        if self.degree < 3:
            raise DomainError(f"system degree bound must be at least 3, got {self.degree}")
        if self.r <= 0.0:
            raise DomainError(f"r must be positive, got {self.r}")
        object.__setattr__(self, "fx", _clean_terms(self.fx, self.degree))
        object.__setattr__(self, "fy", _clean_terms(self.fy, self.degree))


@dataclass(frozen=True)
class EquilibriumSeries:
    """Equilibrium of the blown-up system as a series in r.

    The coefficients are O(1); the prediction is (sum p_k r^k,
    sum q_k r^k), accurate to O(r^4)."""

    p: Tuple[float, float, float, float]
    q: Tuple[float, float, float, float]

    def predict(self, r: float) -> Tuple[float, float]:
        x = ((self.p[3] * r + self.p[2]) * r + self.p[1]) * r + self.p[0]
        y = ((self.q[3] * r + self.q[2]) * r + self.q[1]) * r + self.q[0]
        return (x, y)


def _m_table(nf: NormalFormCoefficients, r: float) -> Terms:
    """Fast component of the rescaled system at radius r; it does not depend
    on lambda1."""
    r2 = r * r
    return {
        (1, 0): r * nf.c10,
        (0, 1): -1.0 + r2 * nf.c01,
        (2, 0): 1.0 + r2 * nf.c20,
        (1, 1): r * (r2 * nf.c11 - nf.a10),
        (0, 2): r2 * (r2 * nf.c02 - nf.a01),
        (3, 0): r * (nf.b10 + r2 * nf.c30),
        (2, 1): r2 * (r2 * nf.c21 - nf.a20),
        (1, 2): r2 * r * (r2 * nf.c12 - nf.a11),
        (0, 3): r2 * r2 * (r2 * nf.c03 - nf.a02),
    }


def _n_table(nf: NormalFormCoefficients, r: float, lambda1: float) -> Terms:
    """Slow component of the rescaled system at radius r and lambda1."""
    r2 = r * r
    return {
        (0, 0): -lambda1,
        (1, 0): 1.0 - lambda1 * r * nf.e10,
        (0, 1): r * (nf.f00 - lambda1 * r * nf.e01),
        (2, 0): r * (nf.d10 - lambda1 * r * nf.e20),
        (1, 1): r2 * (nf.f10 - lambda1 * r * nf.e11),
        (0, 2): r2 * r * (nf.f01 - lambda1 * r * nf.e02),
        (3, 0): r2 * (nf.d20 - lambda1 * r * nf.e30),
        (2, 1): r2 * r * (nf.f20 - lambda1 * r * nf.e21),
        (1, 2): r2 * r2 * (nf.f11 - lambda1 * r * nf.e12),
        (0, 3): r2 * r2 * r * (nf.f02 - lambda1 * r * nf.e03),
    }


def blow_up(nf: NormalFormCoefficients, r: float, lambda1: float) -> PlanarPolySystem:
    """Rescaled system at radius r, from closed-form coefficient tables."""
    return PlanarPolySystem(_m_table(nf, r), _n_table(nf, r, lambda1), r)


def _template_jets(nf: NormalFormCoefficients, lam: float, eps: float) -> Tuple[Jet, Jet]:
    """The source system as 2-variable jets at numeric (lam, eps)."""
    h1 = {(0, 0): 1.0, (1, 0): nf.a10, (0, 1): nf.a01,
          (2, 0): nf.a20, (1, 1): nf.a11, (0, 2): nf.a02}
    h2 = {(0, 0): 1.0, (1, 0): nf.b10}
    h3 = {(1, 0): nf.c10, (0, 1): nf.c01, (2, 0): nf.c20, (1, 1): nf.c11,
          (0, 2): nf.c02, (3, 0): nf.c30, (2, 1): nf.c21, (1, 2): nf.c12,
          (0, 3): nf.c03}
    h4 = {(0, 0): 1.0, (1, 0): nf.d10, (2, 0): nf.d20}
    h5 = {(0, 0): 1.0, (1, 0): nf.e10, (0, 1): nf.e01, (2, 0): nf.e20,
          (1, 1): nf.e11, (0, 2): nf.e02, (3, 0): nf.e30, (2, 1): nf.e21,
          (1, 2): nf.e12, (0, 3): nf.e03}
    h6 = {(0, 0): nf.f00, (1, 0): nf.f10, (0, 1): nf.f01, (2, 0): nf.f20,
          (1, 1): nf.f11, (0, 2): nf.f02}

    def build(d):
        return Jet(2, _DEGREE, d)

    x = Jet(2, _DEGREE, {(1, 0): 1.0})
    y = Jet(2, _DEGREE, {(0, 1): 1.0})
    fx = jet_add(
        jet_add(jet_scale(jet_mul(y, build(h1)), -1.0),
                jet_mul(jet_mul(x, x), build(h2))),
        jet_scale(build(h3), eps))
    fy = jet_add(
        jet_add(jet_mul(x, build(h4)), jet_scale(build(h5), -lam)),
        jet_mul(y, build(h6)))
    fy = jet_scale(fy, eps)
    return fx, fy


def blow_up_via_jets(nf: NormalFormCoefficients, r: float, lambda1: float) -> PlanarPolySystem:
    """Same rescaling done by jet composition; cross-checks the tables.

    Substitutes x = r*x1, y = r^2*y1 at numeric r into the source jets,
    then divides the fast component by r^2 and the slow one by r^3
    (the time rescaling)."""
    if r <= 0.0:
        raise DomainError(f"r must be positive, got {r}")
    lam = r * lambda1
    eps = r * r
    fx, fy = _template_jets(nf, lam, eps)
    sub_x = Jet(2, _DEGREE, {(1, 0): r})
    sub_y = Jet(2, _DEGREE, {(0, 1): eps})
    fx1 = jet_scale(jet_compose(fx, [sub_x, sub_y]), r ** -2)
    fy1 = jet_scale(jet_compose(fy, [sub_x, sub_y]), r ** -3)
    return PlanarPolySystem(fx1.coeffs, fy1.coeffs, r)


def _partials(coeffs: Terms, x: float, y: float, degree: int
              ) -> Tuple[float, float, float, float, float, float]:
    """(v, v_x, v_y, v_xx, v_xy, v_yy) of sum c x^i y^j at (x, y), in one pass over
    the flat terms.  The power tables lead with two zeros: px[i + 2 - k] = x^(i-k), 0 if i < k."""
    px, py = [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]
    for _ in range(degree):
        px.append(px[-1] * x)
        py.append(py[-1] * y)
    v = vx = vy = vxx = vxy = vyy = 0.0
    for (i, j), c in coeffs.items():
        v += c * px[i + 2] * py[j + 2]
        vx += i * c * px[i + 1] * py[j + 2]
        vy += j * c * px[i + 2] * py[j + 1]
        vxx += i * (i - 1) * c * px[i] * py[j + 2]
        vxy += i * j * c * px[i + 1] * py[j + 1]
        vyy += j * (j - 1) * c * px[i + 2] * py[j]
    return v, vx, vy, vxx, vxy, vyy


def _hatted_tables(fx: Terms, fy: Terms, r: float) -> Tuple[Dict, Dict]:
    m = {ij: fx.get(ij, 0.0) / r ** mu for ij, mu in _MU.items()}
    n = {ij: fy.get(ij, 0.0) / r ** nu for ij, nu in _NU.items()}
    return m, n


def equilibrium_series(sys: PlanarPolySystem) -> EquilibriumSeries:
    """Series coefficients of the blown-up equilibrium near the origin."""
    return _equilibrium_series(sys.fx, sys.fy, sys.r)


def _equilibrium_series(fx: Terms, fy: Terms, r: float) -> EquilibriumSeries:
    """equilibrium_series of the system with tables fx, fy at radius r."""
    m, n = _hatted_tables(fx, fy, r)
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

    for v in (p0, p1, p2, p3, q0, q1, q2, q3):
        if not math.isfinite(v):
            raise NumericsError("equilibrium series coefficient overflowed")
    return EquilibriumSeries((p0, p1, p2, p3), (q0, q1, q2, q3))


def find_equilibrium(sys: PlanarPolySystem,
                     guess: Optional[Tuple[float, float]] = None,
                     tol: float = 1e-12) -> Tuple[float, float]:
    """Newton refinement of the equilibrium, seeded by the series head."""
    if guess is None:
        guess = equilibrium_series(sys).predict(sys.r)
    x, y = float(guess[0]), float(guess[1])
    for _ in range(_MAX_ITER):
        fx, j11, j12 = _partials(sys.fx, x, y, sys.degree)[:3]
        fy, j21, j22 = _partials(sys.fy, x, y, sys.degree)[:3]
        # one extra step after meeting tol polishes the root to the
        # floating-point floor (downstream trace gates need the margin)
        converged = max(abs(fx), abs(fy)) < tol
        det = j11 * j22 - j12 * j21
        if det == 0.0 or not math.isfinite(det):
            raise NumericsError("singular Jacobian in equilibrium refinement")
        x -= (j22 * fx - j12 * fy) / det
        y -= (-j21 * fx + j11 * fy) / det
        if converged:
            return (x, y)
    raise NumericsError(f"equilibrium refinement did not reach {tol} in {_MAX_ITER} iterations")


_BINOM = [[1.0]]  # _BINOM[n][k] = comb(n, k), grown to the largest degree recentered


def _recenter(coeffs: Terms, x0: float, y0: float, degree: int) -> Terms:
    """Terms of sum c (x + x0)^i (y + y0)^j without the constant term: the float
    operations and the term order of jet_recenter, then (0, 0) dropped."""
    while len(_BINOM) <= degree:
        n = len(_BINOM)
        _BINOM.append([float(math.comb(n, k)) for k in range(n + 1)])
    hx = [x0 ** n for n in range(degree + 1)]
    hy = [y0 ** n for n in range(degree + 1)]
    out: Terms = {}
    for (i, j), c in coeffs.items():
        bi, bj = _BINOM[i], _BINOM[j]
        for k in range(i + 1):
            cx = c * (bi[k] * hx[i - k])
            for l in range(j + 1):
                out[(k, l)] = out.get((k, l), 0.0) + cx * (bj[l] * hy[j - l])
    out.pop((0, 0), None)
    return out


def translate_to_equilibrium(sys: PlanarPolySystem, eq: Tuple[float, float]) -> PlanarPolySystem:
    """Recenter the system at eq; requires eq to be an equilibrium."""
    if len(eq) != 2:
        raise DomainError(f"point length {len(eq)} != nvars 2")
    x0, y0 = float(eq[0]), float(eq[1])
    f = abs(_partials(sys.fx, x0, y0, sys.degree)[0])
    g = abs(_partials(sys.fy, x0, y0, sys.degree)[0])
    res = max(f, g) if g == g else g  # max() keeps a NaN only in first place
    if not res <= 1e-10:  # a NaN residual fails too
        raise DomainError(f"residual at proposed equilibrium is {res:.3e} > 1e-10")
    return PlanarPolySystem(_recenter(sys.fx, x0, y0, sys.degree),
                            _recenter(sys.fy, x0, y0, sys.degree), sys.r, sys.degree)


def _linear_powers(a: float, b: float, degree: int) -> list:
    """X[e][p], the u^p v^(e-p) coefficient of (a u + b v)^e for e <= degree, by
    jet_mul's recurrence X^e[p] = X^(e-1)[p] b + X^(e-1)[p-1] a."""
    X = [[1.0]]
    for e in range(1, degree + 1):
        prev = X[-1]
        X.append([prev[0] * b] + [prev[p] * b + prev[p - 1] * a for p in range(1, e)]
                 + [prev[e - 1] * a])
    return X


def _substitute_linear(coeffs: Terms, X: list, Y: list) -> Terms:
    """Terms of sum k x^i y^j at x = a u + b v, y = c u + d v, given the
    _linear_powers X, Y of the two forms, with the float operations and order of
    jet_compose: each term sums the products (k X^i[p]) Y^j[q], p and q
    descending, into its own u-exponents, and the terms are added in the order
    of coeffs."""
    out: Terms = {}
    for (i, j), k in coeffs.items():
        xi, yj = X[i], Y[j]
        t = [0.0] * (i + j + 1)
        for p in range(i, -1, -1):
            kx = k * xi[p]
            for q in range(j, -1, -1):
                t[p + q] += kx * yj[q]
        n = i + j
        for s in range(n, -1, -1):
            out[(s, n - s)] = out.get((s, n - s), 0.0) + t[s]
    return out


def normalize_linear(sys: PlanarPolySystem) -> PlanarPolySystem:
    """Linear change of variables making the linear part a scaled rotation.

    After the transform the linear part is a*I + b*R with
    R = [[0, -1], [1, 0]], where a = trace/2 and b is read off the
    x-coefficient of the second component; eigenvalues are a +/- i*b.
    The transform pivots on m01, the frame the closed-form series are
    stated in; requires complex eigenvalues and m01 != 0."""
    m10 = sys.fx.get((1, 0), 0.0)
    m01 = sys.fx.get((0, 1), 0.0)
    n10 = sys.fy.get((1, 0), 0.0)
    n01 = sys.fy.get((0, 1), 0.0)
    M = -(m10 + n01)
    N = m10 * n01 - m01 * n10
    disc = 4.0 * N - M * M
    if disc <= 0.0:
        raise DomainError(f"4*N - M^2 = {disc:.3e} must be positive (complex eigenvalues)")
    if m01 == 0.0:
        raise DomainError("the rotation frame requires m01 != 0")
    s = math.sqrt(disc)
    rt2 = math.sqrt(2.0)
    (t00, t01), (t10, t11) = ((rt2 * (n01 - m10) / 2.0, -rt2 * m01),
                              (rt2 / 2.0 * s, 0.0))
    # T^-1 = [[0, 1/t10], [1/t01, -t00/(t01*t10)]]: det T = -t01*t10 = m01*s != 0
    X = _linear_powers(0.0, 1.0 / t10, sys.degree)
    Y = _linear_powers(1.0 / t01, -t00 / (t01 * t10), sys.degree)
    z1 = _substitute_linear(sys.fx, X, Y)
    z2 = _substitute_linear(sys.fy, X, Y)
    keys = {**z1, **z2}  # z1's terms in order, then those only z2 has
    g1 = {k: t00 * z1.get(k, 0.0) + t01 * z2.get(k, 0.0) for k in keys}
    g2 = {k: t10 * z1.get(k, 0.0) + t11 * z2.get(k, 0.0) for k in keys}
    return PlanarPolySystem(g1, g2, sys.r, sys.degree)


def _lambda1_slopes(nf: NormalFormCoefficients, r: float) -> Terms:
    """dn_ij/dlambda1 of the n-table at radius r; it does not depend on lambda1."""
    dn = {ij: -r ** (nu + 1) * getattr(nf, f"e{ij[0]}{ij[1]}") for ij, nu in _NU.items() if any(ij)}
    dn[(0, 0)] = -1.0
    return dn


def _hopf_system(m: Terms, n: Terms, dn: Terms, x: float, y: float
                 ) -> Tuple[Tuple[float, float, float], Tuple[Tuple[float, float, float], ...]]:
    """The Hopf defining system F = (fx, fy, trace) at (x, y) of the tables
    m, n (fast and slow component), and its Jacobian rows in (x, y, lambda1).
    The n-table is affine in lambda1 with slopes dn (_lambda1_slopes), so
    dF/dlambda1 = (0, p, p_y) with p = sum dn_ij x^i y^j."""
    fx, j11, j12, fxx, fxy, fyy = _partials(m, x, y, _DEGREE)
    fy, j21, j22, gxx, gxy, gyy = _partials(n, x, y, _DEGREE)
    p, _, p_y = _partials(dn, x, y, _DEGREE)[:3]
    return ((fx, fy, j11 + j22),
            ((j11, j12, 0.0), (j21, j22, p), (fxx + gxy, fxy + gyy, p_y)))


def _hopf_point(nf: NormalFormCoefficients, r: float, tol: float = 1e-12
                ) -> Tuple[float, Tuple[float, float], PlanarPolySystem]:
    """(lambda1, equilibrium, blown-up system) at the Hopf point for radius r.

    Newton iteration on the defining system (fx, fy, trace) = 0 in
    (x, y, lambda1), the bordered 3x3 Jacobian solved by Cramer's rule, seeded
    by lambda1 = rho1*r and the equilibrium series head.  The fast table does
    not depend on lambda1 and is built once; only the slow table is rebuilt
    per iterate, through the same checks as a system's.  One system is built,
    by blow_up at the final lambda1, when the solve returns."""
    if not 0.0 < r <= 0.2:
        raise DomainError(f"r must lie in (0, 0.2], got {r}")
    lam = rho_coefficients(nf).rho1 * r
    dn = _lambda1_slopes(nf, r)
    m = _clean_terms(_m_table(nf, r), _DEGREE)
    n = _clean_terms(_n_table(nf, r, lam), _DEGREE)
    x, y = _equilibrium_series(m, n, r).predict(r)
    for _ in range(_MAX_ITER):
        (f, g, t), ((a, b, _), (c, d, p), (e, h, k)) = _hopf_system(m, n, dn, x, y)
        # one extra step after meeting tol polishes the residual to the
        # floating-point floor (the Lyapunov gate needs the margin)
        converged = max(abs(f), abs(g), abs(t)) < tol
        minor = d * k - p * h
        det = a * minor - b * (c * k - p * e)
        if det == 0.0 or not math.isfinite(det):
            raise NumericsError("singular Jacobian in Hopf location")
        x -= (f * minor - b * (g * k - p * t)) / det
        y -= (a * (g * k - p * t) - f * (c * k - p * e)) / det
        lam -= (a * (d * t - g * h) - b * (c * t - g * e) + f * (c * h - d * e)) / det
        if converged:
            return lam, (x, y), blow_up(nf, r, lam)
        n = _clean_terms(_n_table(nf, r, lam), _DEGREE)
    raise NumericsError(f"Hopf location did not reach residual {tol} in {_MAX_ITER} iterations")


def hopf_lambda1(nf: NormalFormCoefficients, r: float, tol: float = 1e-12) -> float:
    """The value of lambda1 putting the blown-up equilibrium on the Hopf
    curve (zero linear trace) at radius r: one joint Newton iteration on
    (equilibrium, zero trace) in (x, y, lambda1), seeded by the series head
    rho1*r, stopped once the residual is below tol and one more step taken."""
    return _hopf_point(nf, r, tol)[0]


def lyapunov_DF(sys: PlanarPolySystem) -> float:
    """First Lyapunov coefficient of a system whose linear part is a
    scaled rotation (zero trace).  Uses the classical planar formula on
    the stored coefficients; beta0 is the rotation speed, read off
    the x-coefficient of the second component."""
    g1, g2 = sys.fx.get, sys.fy.get
    trace = g1((1, 0), 0.0) + g2((0, 1), 0.0)
    if abs(trace) >= 1e-12:
        raise DomainError(f"|linear trace| = {abs(trace):.3e} must be < 1e-12")
    beta0 = g2((1, 0), 0.0)
    if beta0 == 0.0:
        raise DomainError("rotation coefficient beta0 must be nonzero")
    fxx = 2.0 * g1((2, 0), 0.0)
    fxy = g1((1, 1), 0.0)
    fyy = 2.0 * g1((0, 2), 0.0)
    gxx = 2.0 * g2((2, 0), 0.0)
    gxy = g2((1, 1), 0.0)
    gyy = 2.0 * g2((0, 2), 0.0)
    fxxx = 6.0 * g1((3, 0), 0.0)
    fxyy = 2.0 * g1((1, 2), 0.0)
    gxxy = 2.0 * g2((2, 1), 0.0)
    gyyy = 6.0 * g2((0, 3), 0.0)
    cubic = fxxx + fxyy + gxxy + gyyy
    mixed = (fxy * (fxx + fyy) - gxy * (gxx + gyy) - fxx * gxx + fyy * gyy) / beta0
    return (cubic + mixed) / 16.0


def l1_blowup(nf: NormalFormCoefficients, r: float) -> float:
    """Blown-up first Lyapunov coefficient at radius r, on the Hopf curve.

    Normalized in normalize_linear's m01-pivot frame, the frame of the
    closed-form series L1(r) = (omega1/16) r + (omega2/32) r^3.  A frame
    pivoting on n10 instead rescales L1 by the positive factor
    |m01_bar / n10_bar| = 1 + O(r), which would contaminate the fits."""
    _, eq, sys = _hopf_point(nf, r)
    return lyapunov_DF(normalize_linear(translate_to_equilibrium(sys, eq)))


def fit_odd_series(samples: Sequence[Tuple[float, float]],
                   powers: Sequence[int]) -> Tuple[np.ndarray, float]:
    """Least-squares fit of v(r) = sum_k c_k r^(powers[k]).

    Returns (coefficients aligned with powers, max abs residual).
    Columns are scaled to unit infinity-norm before solving, since the
    plain Vandermonde in r << 1 is badly conditioned."""
    powers = list(powers)
    if len(samples) < 2 * len(powers):
        raise DomainError(
            f"need >= {2 * len(powers)} samples for {len(powers)} powers, got {len(samples)}")
    rs = np.array([float(r) for r, _ in samples])
    vs = np.array([float(v) for _, v in samples])
    if len(set(rs.tolist())) != len(rs):
        raise DomainError("sample radii must be distinct")
    A = np.column_stack([rs ** p for p in powers])
    scale = np.max(np.abs(A), axis=0)
    if np.any(scale == 0.0):
        raise NumericsError("design matrix has a zero column (rank-deficient)")
    sol, _, rank, _ = np.linalg.lstsq(A / scale, vs, rcond=None)
    if rank < len(powers):
        raise NumericsError("rank-deficient design matrix in series fit")
    coeffs = sol / scale
    residual = float(np.max(np.abs(A @ coeffs - vs)))
    return coeffs, residual


def sample_record(rng: np.random.Generator,
                  constrain_omega1: bool = False) -> NormalFormCoefficients:
    """Random coefficient record, uniform on [-1, 1] per entry, rejected
    unless the rotation stays well-defined (4N - M^2 > _DISC_FLOOR) at the
    Hopf point for r = _R_CHECK.  With constrain_omega1 the a10 entry is
    overwritten to force omega1 = 0 (the degenerate stratum).  The linear
    part at the equilibrium is the gradient of each component there."""
    for _ in range(_MAX_TRIES):
        vals = dict(zip(COEFF_NAMES, rng.uniform(-1.0, 1.0, len(COEFF_NAMES)).tolist()))
        if constrain_omega1:
            vals["a10"] = 3.0 * vals["b10"] - 2.0 * vals["d10"] - 2.0 * vals["f00"]
        nf = NormalFormCoefficients(**vals)
        try:
            lam = hopf_lambda1(nf, _R_CHECK)
            sys = blow_up(nf, _R_CHECK, lam)
            x, y = find_equilibrium(sys)
        except (DomainError, NumericsError):
            continue
        m10, m01 = _partials(sys.fx, x, y, sys.degree)[1:3]
        n10, n01 = _partials(sys.fy, x, y, sys.degree)[1:3]
        disc = 4.0 * (m10 * n01 - m01 * n10) - (m10 + n01) ** 2
        if _DISC_FLOOR < disc < math.inf:
            return nf
    raise NumericsError(f"no acceptable record in {_MAX_TRIES} draws")
