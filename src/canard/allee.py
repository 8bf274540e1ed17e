"""Predator-prey model with a strong Allee effect in the prey.

Dimensionless fast-time form with predator time scale eps:

    dx/dt = f(x, y) = x*(x/(m+x) - n - x - y)
    dy/dt = eps * g(x, y) = eps * y*(alpha*x - beta - gamma*y)

The prey nullcline y = F(x) = x/(m+x) - n - x is the curved part of the
critical set; it has a fold at M = (x_M, y_M) with x_M = sqrt(m) - m,
y_M = 1 - n + m - 2*sqrt(m), which lies in the open first quadrant iff

    0 < n < 1   and   0 < m < (1 - sqrt(n))^2.

model_field(p) is the model as a planar field (x, y) -> (f, eps*g), the
one place f and g are written; _jacobian holds its derivatives.  This
module computes equilibria, the critical branches, the reduction of
the model to the canonical slow-fast normal form near M in closed form,
the criticality case analysis in m, and the Hopf/canard bifurcation
curves.  The *_columns functions evaluate the closed forms elementwise
over parameter arrays (a sweep grid); their scalar counterparts check
one point and call them.  admissible_columns is the array pre-check of
AlleeParams and require_closed_forms: it clears, with a margin, the
points both would pass, so a sweep runs the scalar checks only on the
points it leaves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Dict, Optional, Tuple

import numpy as np

from .errors import DomainError, NumericsError
from .normalform import (
    COEFF_NAMES,
    NormalFormCoefficients,
    lambda_c,
    lambda_H,
    omega_coefficients,
)

PARAM_NAMES = ("m", "n", "alpha", "beta", "gamma", "eps")


def _require_admissible(m: float, n: float, allow_boundary: bool = False) -> None:
    if not (0.0 < n < 1.0):
        raise DomainError(f"requires 0 < n < 1, got n={n}")
    bound = (1.0 - math.sqrt(n)) ** 2
    if allow_boundary:
        if not (0.0 < m <= bound):
            raise DomainError(
                f"requires 0 < m <= (1 - sqrt(n))^2 = {bound:.6g}, got m={m}")
    elif not (0.0 < m < bound):
        raise DomainError(
            f"requires 0 < m < (1 - sqrt(n))^2 = {bound:.6g}, got m={m}")


@dataclass(frozen=True)
class AlleeParams:
    m: float
    n: float
    alpha: float
    beta: float
    gamma: float
    eps: float

    def __post_init__(self):
        for name in PARAM_NAMES:
            v = getattr(self, name)
            if not math.isfinite(v):
                raise DomainError(f"parameter {name} is not finite")
        for name in ("alpha", "beta", "gamma"):
            if getattr(self, name) <= 0.0:
                raise DomainError(f"requires {name} > 0, got {getattr(self, name)}")
        if not (0.0 < self.eps <= 0.1):
            raise DomainError(f"requires 0 < eps <= 0.1, got eps={self.eps}")
        # boundary m = (1 - sqrt(n))^2 is allowed: it is the collision
        # of the fold with the prey-only pair (y_M = 0, delta1 = 0)
        _require_admissible(self.m, self.n, allow_boundary=True)


def critical_height(x: float, m: float, n: float) -> float:
    """F(x) = x/(m+x) - n - x, the curved critical branch."""
    return x / (m + x) - n - x


def critical_slope(x: float, m: float, n: float) -> float:
    """F'(x) = m/(m+x)^2 - 1."""
    return m / (m + x) ** 2 - 1.0


def _F_derivative(x: float, m: float, k: int) -> float:
    """k-th derivative of F for k >= 2: (-1)^(k+1) k! m / (m+x)^(k+1)."""
    return (-1.0) ** (k + 1) * math.factorial(k) * m / (m + x) ** (k + 1)


def fold_point(m: float, n: float) -> Tuple[float, float]:
    """Fold (x_M, y_M) of the curved critical branch."""
    _require_admissible(m, n, allow_boundary=True)
    xM = math.sqrt(m) - m
    yM = 1.0 - n + m - 2.0 * math.sqrt(m)
    if (m + xM) ** 3 == 0.0:
        raise DomainError(f"m={m} is too small: (m + x_M)^3 underflows to 0")
    if abs(critical_slope(xM, m, n)) > 1e-10:
        raise NumericsError("fold point fails the F'(x_M) = 0 check")
    if _F_derivative(xM, m, 2) >= 0.0:
        raise NumericsError("fold point fails the F''(x_M) < 0 check")
    return (xM, yM)


def boundary_roots(m: float, n: float) -> Tuple[float, Optional[float], Optional[float]]:
    """Roots of F(x) = 0, i.e. x^2 + (m+n-1)x + mn = 0.

    Returns (delta1, x1, x2) with x1 <= x2; a double root is returned in
    both slots, and (delta1, None, None) when the roots are complex."""
    delta1 = (1.0 - m - n) ** 2 - 4.0 * m * n
    if delta1 < 0.0:
        return (delta1, None, None)
    root = math.sqrt(delta1)
    x1 = ((1.0 - m - n) - root) / 2.0
    x2 = ((1.0 - m - n) + root) / 2.0
    return (delta1, x1, x2)


@dataclass(frozen=True)
class Equilibrium:
    point: Tuple[float, float]
    kind: str


@dataclass(frozen=True)
class EquilibriaReport:
    E0: Equilibrium
    E1: Optional[Equilibrium]
    E2: Optional[Equilibrium]
    E3: Optional[Equilibrium]
    E4: Optional[Equilibrium]
    delta1: float
    delta2: float
    fold: Tuple[float, float]


def model_field(p: AlleeParams):
    """The model in fast time as a planar field: a function (x, y) ->
    (f, eps*g) closed over the parameters, the one place f and g are
    written."""
    m, n, alpha, beta, gamma, eps = (float(getattr(p, k)) for k in PARAM_NAMES)

    def allee(x, y):
        return (x * (x / (m + x) - n - x - y),
                eps * (y * (alpha * x - beta - gamma * y)))

    return allee


def _jacobian(x: float, y: float, p: AlleeParams):
    fx = (2.0 * x * p.m + x * x) / (p.m + x) ** 2 - p.n - 2.0 * x - y
    fy = -x
    gx = p.eps * p.alpha * y
    gy = p.eps * (p.alpha * x - p.beta - 2.0 * p.gamma * y)
    return fx, fy, gx, gy


def _classify_point(x: float, y: float, p: AlleeParams) -> str:
    fx, fy, gx, gy = _jacobian(x, y, p)
    tr = fx + gy
    det = fx * gy - fy * gx
    if det < 0.0:
        return "saddle"
    disc = tr * tr - 4.0 * det
    shape = "node" if disc >= 0.0 else "focus"
    if tr < 0.0:
        return f"stable {shape}"
    if tr > 0.0:
        return f"unstable {shape}"
    return f"neutral {shape}"


def _checked(x: float, y: float, p: AlleeParams, kind: Optional[str] = None) -> Equilibrium:
    f, g = model_field(p)(x, y)
    if max(abs(f), abs(g)) > 1e-10:
        raise NumericsError(f"equilibrium candidate ({x}, {y}) has residual > 1e-10")
    return Equilibrium((x, y), kind if kind is not None else _classify_point(x, y, p))


def equilibria(p: AlleeParams) -> EquilibriaReport:
    """All equilibria of the model with Jacobian-based type tags.

    The extinction state E0 = (0, 0) always exists.  The prey-only pair
    E1, E2 exists when the boundary quadratic has real roots; a double
    root is reported once, as E1 tagged degenerate.  The interior pair
    E3, E4 comes from the second quadratic, gated on x > 0, y >= 0."""
    E0 = _checked(0.0, 0.0, p, "stable node")
    delta1, x1, x2 = boundary_roots(p.m, p.n)
    E1 = E2 = None
    if x1 is not None and delta1 == 0.0:
        E1 = Equilibrium((x1, 0.0), "degenerate (boundary collision)")
    elif x1 is not None:
        E1 = _checked(x1, 0.0, p)
        E2 = _checked(x2, 0.0, p)

    ag = p.alpha + p.gamma
    b = (p.alpha * p.m - p.beta + p.gamma * (p.m + p.n - 1.0)) / ag
    c = p.m * (p.gamma * p.n - p.beta) / ag
    delta2 = b * b - 4.0 * c
    E3 = E4 = None
    if delta2 >= 0.0:
        root = math.sqrt(delta2)
        for slot, xr in (("E3", (-b - root) / 2.0), ("E4", (-b + root) / 2.0)):
            yr = (p.alpha * xr - p.beta) / p.gamma
            if xr > 0.0 and yr >= 0.0:
                eq = _checked(xr, yr, p)
                if slot == "E3":
                    E3 = eq
                else:
                    E4 = eq
    return EquilibriaReport(E0, E1, E2, E3, E4, delta1, delta2, fold_point(p.m, p.n))


def gamma_star(m: float, n: float, alpha: float, beta: float) -> float:
    """The gamma making the predator nullcline pass through the fold,
    i.e. the coincidence value solving beta + gamma*y_M = alpha*x_M."""
    xM, yM = fold_point(m, n)
    if yM == 0.0:
        raise DomainError("requires y_M > 0 (fold strictly inside the quadrant)")
    return (alpha * xM - beta) / yM


def _fold_columns(m, n, alpha):
    """(x_M, y_M, Q, sqrt(m) - 1) with Q = sqrt(alpha*x_M*y_M): the
    expressions of fold_point, elementwise over floats or arrays that
    broadcast together, without its checks."""
    rm = np.sqrt(m)
    xM = rm - m
    yM = 1.0 - n + m - 2.0 * rm
    return xM, yM, np.sqrt(alpha * xM * yM), rm - 1.0


def _require_fold_scale(p: AlleeParams) -> None:
    """The fold-point sanity checks and Q^2 = alpha*x_M*y_M > 0."""
    xM, yM = fold_point(p.m, p.n)
    q2 = p.alpha * xM * yM
    if q2 <= 0.0:
        raise DomainError(f"requires alpha*x_M*y_M > 0, got {q2}")


def require_coincidence(p: AlleeParams) -> None:
    """The coincidence configuration: gamma = gamma_star within 1e-6,
    delta1 > 0 and 1 - m - n > 0, checked in that order."""
    gs = gamma_star(p.m, p.n, p.alpha, p.beta)
    if abs(p.gamma - gs) > 1e-6:
        raise DomainError(
            f"requires gamma = gamma_star within 1e-6 (gamma={p.gamma}, gamma_star={gs:.8g})")
    delta1, _, _ = boundary_roots(p.m, p.n)
    if delta1 <= 0.0:
        raise DomainError(f"requires delta1 > 0, got {delta1}")
    if 1.0 - p.m - p.n <= 0.0:
        raise DomainError(f"requires 1 - m - n > 0, got {1.0 - p.m - p.n}")


def beta_star_conversion(p: AlleeParams) -> Tuple[float, float]:
    """(beta*, conversion) with beta* = alpha*x_M - gamma*y_M and conversion
    = alpha*Q/(sqrt(m) - 1): the template unfolding parameter lambda is the
    model's beta = beta* + lambda * conversion."""
    _require_fold_scale(p)
    xM, yM, Q, s = (float(v) for v in _fold_columns(p.m, p.n, p.alpha))
    return p.alpha * xM - p.gamma * yM, p.alpha * Q / s


def require_closed_forms(p: AlleeParams) -> None:
    """The checks behind model_columns and psi_columns at one parameter
    set, in the order normal_form_coeffs and psi_case_analysis make them:
    the fold-point sanity checks, alpha*x_M*y_M > 0, then
    0 < m < (1 - sqrt(n))^2."""
    _require_fold_scale(p)
    _require_admissible(p.m, p.n)


def admissible_columns(m, n, alpha, beta, gamma, eps):
    """True where AlleeParams(m, n, alpha, beta, gamma, eps) and
    require_closed_forms would both pass, elementwise over floats or
    arrays that broadcast together.  False is no verdict: check such a
    point with those scalar checks.

    The range checks on the inputs, x_M, y_M and the sign of
    alpha*x_M*y_M are the scalar checks' own IEEE operations and compare
    exactly.  The bound (1 - sqrt(n))^2 and the fold checks, which the
    scalar code evaluates with powers, must hold by a relative margin, so
    a one-ulp rounding difference can never clear a point the scalar
    checks reject.  NaN fails every comparison."""
    m, n, alpha, beta, gamma, eps = (np.asarray(v, dtype=float)
                                      for v in (m, n, alpha, beta, gamma, eps))
    tol = 1e-12   # far above the ulp by which numpy and math may round a power apart
    with np.errstate(all="ignore"):
        rm = np.sqrt(m)
        gap = 1.0 - np.sqrt(n)
        xM = rm - m
        yM = 1.0 - n + m - 2.0 * rm
        s = m + xM
        cube = s * s * s
        q = m / (s * s)   # F'(x_M) = q - 1
        return ((np.isfinite(m) & np.isfinite(n) & np.isfinite(alpha)
                 & np.isfinite(beta) & np.isfinite(gamma) & np.isfinite(eps))
                & (alpha > 0.0) & (beta > 0.0) & (gamma > 0.0)
                & (eps > 0.0) & (eps <= 0.1) & (n > 0.0) & (n < 1.0) & (m > 0.0)
                & (m < gap * gap * (1.0 - tol))
                & (np.abs(q - 1.0) < 1e-10 - tol * (q + 1.0))
                # F''(x_M) = -2m/s^3 < 0, with s^3 normal: fold_point
                # rejects an s^3 that underflows to 0 with a DomainError
                & (cube >= np.finfo(float).tiny) & (-2.0 * m / cube < 0.0)
                & (alpha * xM * yM > 0.0))


def normal_form_columns(m, n, alpha, gamma) -> SimpleNamespace:
    """Closed-form coefficient record of the model reduced to the
    canonical slow-fast template near the fold, elementwise over floats
    or arrays that broadcast together; unchecked (normal_form_coeffs
    checks one point).

    The reduction translates the fold to the origin and rescales
    X = (x - x_M)/s_x, Y = (y - y_M)/s_y, tau = Q*t with
    Q = sqrt(alpha*x_M*y_M), s_x = Q/(sqrt(m)-1), s_y = alpha*y_M/(sqrt(m)-1).
    The unfolding parameter absorbs beta - beta*, so the record does not
    depend on beta.  With F''(x_M)/2 = -1/sqrt(m) and F'''(x_M)/6 = 1/m,
    six entries are nonzero; the template structure makes every other
    entry 0 (the fast field has no eps block, so every c entry is 0)."""
    xM, yM, Q, s = _fold_columns(m, n, alpha)
    rec = SimpleNamespace(**dict.fromkeys(COEFF_NAMES, 0.0))
    rec.a10 = alpha * yM / (Q * s)
    rec.b10 = -Q / (s * s)
    rec.e01 = alpha / s
    rec.f00 = -gamma * yM / Q
    rec.f10 = alpha / s
    rec.f01 = gamma * alpha * yM / (-s * Q)
    return rec


def normal_form_coeffs(p: AlleeParams) -> NormalFormCoefficients:
    """Coefficient record of the model near the fold (normal_form_columns
    at one checked point)."""
    _require_fold_scale(p)
    return NormalFormCoefficients.from_dict(vars(normal_form_columns(p.m, p.n, p.alpha, p.gamma)))


def model_columns(m, n, alpha, beta, gamma, eps) -> Dict[str, object]:
    """A (= omega1), omega2, the damping a5 and the leading-order Hopf and
    canard curves lambda_h, lambda_c of the model, elementwise over floats
    or arrays that broadcast together.  Unchecked: validate each point
    with AlleeParams and require_closed_forms first."""
    rec = normal_form_columns(m, n, alpha, gamma)
    om = omega_coefficients(rec)
    xM, yM, Q, _ = _fold_columns(m, n, alpha)
    a5 = (alpha * xM - beta - 2.0 * gamma * yM) / Q
    return {"A": om.omega1, "omega1": om.omega1, "omega2": om.omega2, "a5": a5,
            "lambda_h": lambda_H(rec.c10, a5, eps),
            "lambda_c": lambda_c(rec.c10, a5, om.omega1, eps)}


@dataclass(frozen=True)
class PsiCaseReport:
    """Sign analysis of the criticality constant A = Psi(m)*y_M/(Q*(1-sqrt(m))).

    Psi(m) = 2*gamma*(1-sqrt(m)) + alpha - 3*alpha*sqrt(m) is strictly
    decreasing with root m* = ((alpha+2*gamma)/(3*alpha+2*gamma))^2, so
    the sign of A is the sign of Psi: positive below m*, negative above,
    zero at m*.  When n exceeds (2*alpha/(3*alpha+2*gamma))^2 every
    admissible m is below m*, hence A > 0 throughout."""

    psi: float
    m_star: float
    n_threshold: float
    tag: str
    predicted_sign: int


PSI_TAGS = ("mstar-outside-range", "m-at-mstar", "m-below-mstar", "m-above-mstar")
_PSI_SIGNS = (1, 0, 1, -1)


def psi_columns(m, n, alpha, gamma):
    """(psi, m_star, n_threshold, case) elementwise over floats or arrays
    that broadcast together, where case indexes PSI_TAGS: the one home of
    the case rule.  Unchecked (psi_case_analysis checks one point)."""
    rm = np.sqrt(m)
    psi = 2.0 * gamma * (1.0 - rm) + alpha - 3.0 * alpha * rm
    ratio = (alpha + 2.0 * gamma) / (3.0 * alpha + 2.0 * gamma)
    m_star = ratio * ratio
    root = 2.0 * alpha / (3.0 * alpha + 2.0 * gamma)
    n_threshold = root * root
    gap = 1.0 - np.sqrt(n)
    tol = 1e-12 * (alpha + gamma)
    case = np.select([(n > n_threshold) | (m_star >= gap * gap), np.abs(psi) <= tol,
                      m < m_star], [0, 1, 2], 3)
    return psi, m_star, n_threshold, case


def psi_case_analysis(m: float, n: float, alpha: float, gamma: float) -> PsiCaseReport:
    _require_admissible(m, n)
    if alpha <= 0.0 or gamma <= 0.0:
        raise DomainError("requires alpha > 0 and gamma > 0")
    psi, m_star, n_threshold, case = psi_columns(m, n, alpha, gamma)
    case = int(case)
    return PsiCaseReport(float(psi), float(m_star), float(n_threshold),
                         PSI_TAGS[case], _PSI_SIGNS[case])


def omega2_at_degeneracy(alpha: float, gamma: float, yM: float) -> float:
    """Closed form of omega2 on the degenerate stratum omega1 = 0.

    Evaluates gamma*(3a+2g)^2*sqrt(2*(a+2g)*yM)*(9*(3a+2g)*yM+4a)
    / (8*a^2*(a+2g)), which is positive for positive inputs; it agrees
    with omega_coefficients applied to the model record at m = m*."""
    if alpha <= 0.0 or gamma <= 0.0 or yM <= 0.0:
        raise DomainError("requires alpha, gamma, yM > 0")
    s = 3.0 * alpha + 2.0 * gamma
    t = alpha + 2.0 * gamma
    return (gamma * s * s * math.sqrt(2.0 * t * yM) * (9.0 * s * yM + 4.0 * alpha)
            / (8.0 * alpha * alpha * t))


@dataclass(frozen=True)
class ModelCurves:
    """Hopf and canard-explosion curves of the model near the fold.

    lambda_h, lambda_c are in template units; beta_h, beta_c are their
    model-space equivalents via beta = beta* + lambda * conversion, with
    conversion = alpha*Q/(sqrt(m)-1) (negative for m < 1: increasing
    lambda moves beta below beta*)."""

    lambda_h: float
    lambda_c: float
    beta_star: float
    beta_h: float
    beta_c: float
    conversion: float
    A: float


def model_bifurcation_curves(p: AlleeParams) -> ModelCurves:
    require_coincidence(p)
    beta_star, conversion = beta_star_conversion(p)
    cols = model_columns(p.m, p.n, p.alpha, p.beta, p.gamma, p.eps)
    lam_h, lam_c, A = (float(cols[k]) for k in ("lambda_h", "lambda_c", "A"))
    return ModelCurves(
        lambda_h=lam_h,
        lambda_c=lam_c,
        beta_star=beta_star,
        beta_h=beta_star + lam_h * conversion,
        beta_c=beta_star + lam_c * conversion,
        conversion=conversion,
        A=A,
    )
