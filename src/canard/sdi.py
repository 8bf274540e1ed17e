"""Slow divergence integral along canard segments of the Allee model.

A canard cycle at depth s follows the attracting branch of the critical
curve from height y_M - s up to the fold, then the repelling branch back
down to the same height.  The accumulated fast divergence along that
slow passage,

    I(s) = integral of d f / d x in slow time,

controls the stability and the number of limit cycles such a canard can
spawn: I is smooth in s and its sign is pinned by an affine function
Phi(y), so I vanishes at most once and at most one cycle can bifurcate.

The integrals use fixed-order Gauss-Legendre rules, evaluated in array
passes over all depths at once; a 2N-node value is accepted only where
the N-node rule agrees with it."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

import numpy as np

from .allee import (
    AlleeParams,
    _preimages,
    critical_height,
    critical_slope,
    equilibria,
    fold_point,
    model_jacobian,
    require_coincidence,
)
from .errors import DomainError, NumericsError, require_count


def _first(values, flags) -> float:
    """The first of values (a float or an array) where flags holds, for
    error messages."""
    flags = np.asarray(flags, dtype=bool)
    return float(np.broadcast_to(values, flags.shape)[flags].flat[0])


def branch_inverse(y: float, p: AlleeParams) -> Tuple[float, float]:
    """Preimages of height y under the critical curve: F(x) = F(sigma) = y
    with sigma <= x_M <= x, the roots of x^2 + (y+n+m-1)x + m(n+y) = 0
    (allee._preimages).  Their discriminant is d (d + 4 sqrt(m)) with
    d = y_M - y, nonnegative for every 0 <= y <= y_M.  Elementwise over an
    array of heights too."""
    _, yM = fold_point(p.m, p.n)
    bad = np.logical_not((0.0 <= y) & (y <= yM))
    if np.any(bad):
        raise DomainError(f"requires 0 <= y <= y_M = {yM:.8g}, got y={_first(y, bad)}")
    _, sigma, x = _preimages(y, p.m, p.n)
    for xi in (x, sigma):
        bad = np.abs(critical_height(xi, p.m, p.n) - y) > 1e-12
        if np.any(bad):
            raise NumericsError(f"branch inverse at y={_first(y, bad)} fails the F(x) = y check")
    return (x, sigma)


def h_slow(x: float, p: AlleeParams) -> float:
    """Fast divergence per unit slow height on the critical curve:
    f_x(x, F(x)) / [F(x) (alpha x - beta - gamma F(x))], with f_x from
    allee.model_jacobian, equal to x F'(x) there.  Elementwise over an
    array of x too."""
    F = critical_height(x, p.m, p.n)
    denom = F * (p.alpha * x - p.beta - p.gamma * F)
    if np.any(denom == 0.0):
        raise NumericsError(f"slow flow vanishes at x={_first(x, denom == 0.0)}: "
                            "h is singular there")
    return model_jacobian(p)(x, F)[0] / denom


def phi(y: float, p: AlleeParams) -> float:
    """Affine sign function of the integrand:
    (alpha+gamma) y + gamma + n (alpha+gamma) - sqrt(m) alpha - m (alpha+gamma)."""
    ag = p.alpha + p.gamma
    return ag * y + p.gamma + p.n * ag - math.sqrt(p.m) * p.alpha - p.m * ag


def phi_root(p: AlleeParams) -> float:
    """The unique zero y0 of phi (phi is increasing with slope alpha+gamma)."""
    ag = p.alpha + p.gamma
    return (math.sqrt(p.m) * p.alpha + (p.m - p.n) * ag - p.gamma) / ag


def _depth_ceiling(p: AlleeParams) -> Tuple[float, float]:
    """(y_hat, s_max): admissible canard depths are 0 < s < s_max with
    s_max = y_M - y_hat, where y_hat is the height of the interior
    equilibrium on the repelling branch when it exists (the slow flow
    dies there), else 0."""
    _, yM = fold_point(p.m, p.n)
    rep = equilibria(p)
    yhat = rep.E3.point[1] if rep.E3 is not None else 0.0
    return (yhat, yM - yhat)


_NODES = 48      # N; the accepted value comes from the 2N-node rule
_QUAD_TOL = 1e-8  # allowed |Q_N - Q_2N|, relative to the 2N integral of |f|


@lru_cache(maxsize=None)
def _rules():
    """Nodes on [0, 1] of the N- and the 2N-node Gauss-Legendre rule, side
    by side, and the weights of each."""
    tn, wn = np.polynomial.legendre.leggauss(_NODES)
    t2, w2 = np.polynomial.legendre.leggauss(2 * _NODES)
    return 0.5 * (np.concatenate([tn, t2]) + 1.0), 0.5 * wn, 0.5 * w2


def _gauss_legendre(fn, lo, hi, what):
    """Integrals of fn over [lo_k, hi_k] for 1-d arrays lo, hi, with one
    call of fn on the nodes of every interval.  Returns the 2N-node
    values; raises NumericsError where fn is not finite or where the
    N-node rule differs from them by more than _QUAD_TOL times the
    integral of |fn|."""
    nodes, wn, w2 = _rules()
    lo = np.asarray(lo, dtype=float)[:, None]
    width = np.asarray(hi, dtype=float)[:, None] - lo
    vals = fn(lo + width * nodes) * width
    if not np.all(np.isfinite(vals)):
        raise NumericsError(f"{what} quadrature met a non-finite integrand")
    coarse = vals[:, :_NODES] @ wn
    fine = vals[:, _NODES:] @ w2
    if np.any(np.abs(fine - coarse) > _QUAD_TOL * (np.abs(vals[:, _NODES:]) @ w2)):
        raise NumericsError(f"{what} quadrature did not converge: the {_NODES}- and "
                            f"{2 * _NODES}-node rules disagree")
    return fine


def _integral_y(p: AlleeParams, s, smax: float) -> np.ndarray:
    """I(s) for a 1-d array of depths by the height form, under
    y = y_M - v^2 and v = sqrt(s_max) - e^w.  In v the branches are
    smooth through the fold; in w the deep end is spread out, where
    h has a 1/(y - y_hat) pole (F = 0, or the slow flow dying at E3)
    that nears the window as s -> s_max."""
    _, yM = fold_point(p.m, p.n)
    root = math.sqrt(smax)

    def integrand(w):
        e = np.exp(w)
        v = root - e
        x, sigma = branch_inverse(yM - v * v, p)
        return (h_slow(x, p) - h_slow(sigma, p)) * 2.0 * v * e

    lo = np.log(root - np.sqrt(np.asarray(s, dtype=float)))
    return _gauss_legendre(integrand, lo, np.full(lo.shape, math.log(root)),
                           "slow divergence (height form)")


def slow_divergence_integral(p: AlleeParams, s: float) -> float:
    """I(s) via the height parametrization: the integral over
    y in (y_M - s, y_M) of h(x(y)) - h(sigma(y)), which runs up the
    attracting branch and back down the repelling one.  This form avoids
    the F'(x_M) = 0 turning point of the x parametrization."""
    _, smax = _depth_ceiling(p)
    if not (0.0 < s < smax):
        raise DomainError(f"requires 0 < s < {smax:.8g} (fold height minus y_hat), got s={s}")
    return float(_integral_y(p, [s], smax)[0])


def slow_divergence_integral_x(p: AlleeParams, s: float) -> float:
    """Cross-check of I(s) in the x parametrization:
    -integral of h(x) F'(x) dx over (sigma_s, x_s), split at the fold
    where the integrand has a removable zero.  Each piece runs from the
    fold to its end under x = c + d e^w, centred on the preimage c of
    y_hat on its branch (d = +1 on the repelling, -1 on the attracting
    one), which spreads out the ends as they near the poles of h at
    deep s."""
    xM, yM = fold_point(p.m, p.n)
    yhat, smax = _depth_ceiling(p)
    if not (0.0 < s < smax):
        raise DomainError(f"requires 0 < s < {smax:.8g} (fold height minus y_hat), got s={s}")
    x_s, sigma_s = branch_inverse(yM - s, p)
    c_att, c_rep = branch_inverse(yhat, p)
    centre = np.array([[c_rep], [c_att]])
    side = np.array([[1.0], [-1.0]])

    def integrand(w):
        e = np.exp(w)
        x = centre + side * e
        return h_slow(x, p) * critical_slope(x, p.m, p.n) * e

    lo = np.log(np.abs(np.array([sigma_s, x_s]) - centre[:, 0]))
    hi = np.log(np.abs(xM - centre[:, 0]))
    pieces = _gauss_legendre(integrand, lo, hi, "slow divergence (x form)")
    return -float(pieces[0] + pieces[1])


@dataclass(frozen=True)
class SdiProfile:
    s_grid: Tuple[float, ...]
    values: Tuple[float, ...]
    zero_count: int
    case: str

    def __post_init__(self):
        if len(self.s_grid) != len(self.values):
            raise DomainError("s_grid and values must have equal length")
        if any(b <= a for a, b in zip(self.s_grid, self.s_grid[1:])):
            raise DomainError("s_grid must be strictly increasing")


def _count_sign_changes(values) -> int:
    signs = [v for v in (math.copysign(1.0, v) if v != 0.0 else 0.0 for v in values)
             if v != 0.0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def cyclicity_report(p: AlleeParams, grid_size: int) -> SdiProfile:
    """Profile of I(s) over a uniform depth grid, with the count of sign
    changes between its nonzero values and the case tag
    from the phi analysis.  Requires gamma = gamma_star within
    allee.COINCIDENCE_TOL (allee.require_coincidence, which needs y_M > 0,
    so delta1 > 0); 1 - m - n > 0 follows from admissibility, and the zero
    count is at most one.  DomainError unless grid_size >= 2 is an integer."""
    require_count("grid_size", grid_size, 2)
    require_coincidence(p)

    _, yM = fold_point(p.m, p.n)
    _, smax = _depth_ceiling(p)
    grid = [smax * i / (grid_size + 1) for i in range(1, grid_size + 1)]
    values = _integral_y(p, grid, smax).tolist()
    zero_count = _count_sign_changes(values)

    y0 = phi_root(p)
    if y0 >= yM:
        case = "phi-negative"
    elif y0 <= 0.0:
        case = "phi-positive"
    else:
        case = "phi-sign-change"
    return SdiProfile(tuple(grid), tuple(values), zero_count, case)
