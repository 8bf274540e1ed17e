"""Predator-prey model with a strong Allee effect in the prey.

Dimensionless fast-time form with predator time scale eps:

    dx/dt = f(x, y) = x*(x/(m+x) - n - x - y)
    dy/dt = eps * g(x, y) = eps * y*(alpha*x - beta - gamma*y)

The prey nullcline y = F(x) = x/(m+x) - n - x is the curved part of the
critical set; it has a fold at M = (x_M, y_M) with x_M = sqrt(m) - m,
y_M = 1 - n + m - 2*sqrt(m), which lies in the open first quadrant iff

    0 < n < 1   and   0 < m < (1 - sqrt(n))^2.

Admissible means the fold is on or above the axis: 0 < m < 1 and the
computed y_M >= 0, so delta1 = y_M (y_M + 4 sqrt(m)) and every preimage
discriminant below the fold are >= 0 by construction.  Within ulps of the
bound the sign of y_M decides, not the rounded (1 - sqrt(n))^2; a rejection
shows y_M.

model_field(p) is the model as a planar field (x, y) -> (f, eps*g),
compiled from MODEL_SOURCE, the one place f and g are written, and
carrying that source for the integrator to evaluate in place;
model_jacobian(p) is its Jacobian, compiled from JACOBIAN_SOURCE beside
it.  This module computes equilibria, the critical branches, the
reduction of the model to the canonical slow-fast normal form near M in
closed form, the criticality case analysis in m, and the Hopf/canard
bifurcation curves.  The *_columns functions evaluate the closed forms
elementwise over parameter arrays (a sweep grid); their scalar
counterparts check one point and call them.  Given floats they run on
math (normalform.xp_of), so a scalar path loads no numpy: this module
imports it only where it checks a grid.

Each parameter check is written once, as a rule (holds, error class,
message naming the values it shows).  Each scalar entry point runs its
ordered list of rules on one point, with math; check_grid runs those of
AlleeParams and require_closed_forms over a sweep grid, with numpy.  Both
evaluate the same expressions, so a point and a grid agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Dict, Optional, Tuple

from ._kernels import bisect, source_field
from .errors import DomainError, NumericsError
from .normalform import (
    COEFF_NAMES,
    NormalFormCoefficients,
    lambda_c,
    lambda_H,
    omega_coefficients,
    xp_of,
)

PARAM_NAMES = ("m", "n", "alpha", "beta", "gamma", "eps")


def _point(xp, m=math.nan, n=math.nan, alpha=math.nan, **values) -> SimpleNamespace:
    """The values the rules read: the given ones (floats with xp = math,
    arrays that broadcast together with xp = numpy) and those derived
    from them, each written once for a point and a grid, and the sqrt
    that derives them.  A derived value is NaN where it is undefined; a
    rule before every rule that reads it fails there."""
    sqrt = (lambda x: math.sqrt(x) if x >= 0.0 else math.nan) if xp is math else xp.sqrt
    gap, rm = 1.0 - sqrt(n), sqrt(m)
    xM, yM = rm - m, 1.0 - n + m - 2.0 * rm
    s = m + xM
    q2 = alpha * xM * yM
    return SimpleNamespace(xp=xp, sqrt=sqrt, m=m, n=n, alpha=alpha, **values, bound=gap * gap,
                           rm=rm, xM=xM, yM=yM, s=s, cube=s * s * s, q2=q2, Q=sqrt(q2))


def _finite(name):
    return (lambda p: p.xp.isfinite(getattr(p, name)), DomainError,
            f"parameter {name} is not finite")


_N = (lambda p: (0.0 < p.n) & (p.n < 1.0), DomainError, "requires 0 < n < 1, got n={n}")
# for 0 < m < 1 the bound on m is the sign of y_M; AlleeParams and fold_point
# allow y_M = 0, the collision of the fold with the prey-only pair
_M_CLOSED = (lambda p: (0.0 < p.m) & (p.m < 1.0) & (p.yM >= 0.0), DomainError,
             "requires 0 < m <= (1 - sqrt(n))^2 = {bound:.6g}, got m={m}, y_M={yM}")
_M_OPEN = (lambda p: (0.0 < p.m) & (p.m < 1.0) & (p.yM > 0.0), DomainError,
           "requires 0 < m < (1 - sqrt(n))^2 = {bound:.6g}, got m={m}, y_M={yM}")
_PARAM_RULES = ([_finite(k) for k in PARAM_NAMES]
                + [(lambda p, k=k: getattr(p, k) > 0.0, DomainError,
                    f"requires {k} > 0, got {{{k}}}") for k in ("alpha", "beta", "gamma")]
                + [(lambda p: (0.0 < p.eps) & (p.eps <= 0.1), DomainError,
                    "requires 0 < eps <= 0.1, got eps={eps}"), _N, _M_CLOSED])
_FOLD_RULES = [
    _N, _M_CLOSED,
    (lambda p: p.cube != 0.0, DomainError, "m={m} is too small: (m + x_M)^3 underflows to 0")]
# past these, F'(x_M) = m/s^2 - 1 = 0 to 1e-10 and F''(x_M) = -2m/s^3 < 0 hold
# at every float (m, n), so neither is checked
# the fold checks and Q^2 > 0, behind the closed forms' scale Q
_SCALE_RULES = _FOLD_RULES + [(lambda p: p.q2 > 0.0, DomainError,
                               "requires alpha*x_M*y_M > 0, got {q2}")]
_PSI_RULES = [_N, _M_OPEN, _finite("alpha"), _finite("gamma"),
              (lambda p: min(p.alpha, p.gamma) > 0.0, DomainError,
               "requires alpha > 0 and gamma > 0")]
_OMEGA2_RULES = [_finite("alpha"), _finite("gamma"), _finite("yM"),
                 (lambda p: min(p.alpha, p.gamma, p.yM) > 0.0, DomainError,
                  "requires alpha, gamma, yM > 0")]


def _check(rules, p: SimpleNamespace) -> SimpleNamespace:
    """Run rules in order on the point p and raise the error of the first
    that fails; returns p."""
    for holds, error, message in rules:
        if not holds(p):
            raise error(message.format_map(vars(p)))
    return p


def check_grid(m, n, alpha, beta, gamma, eps) -> None:
    """The rules of AlleeParams, then of require_closed_forms, over a grid
    of floats or arrays that broadcast together.  Raises the error of the
    first failing rule at the first failing point in C order, with that
    point's values in its message: the error the scalar checks raise
    there."""
    import numpy as np

    values = dict(zip(PARAM_NAMES, np.broadcast_arrays(m, n, alpha, beta, gamma, eps)))
    rules = _PARAM_RULES + _SCALE_RULES
    with np.errstate(all="ignore"):
        grid = _point(np, **values)
        held = np.array([holds(grid) for holds, _, _ in rules]).reshape(len(rules), -1)
    failing = ~held.all(axis=0)
    if failing.any():
        i = int(np.argmax(failing))
        _, error, message = rules[int(np.argmin(held[:, i]))]
        point = _point(math, **{k: float(v.flat[i]) for k, v in values.items()})
        raise error(message.format_map(vars(point)))


@dataclass(frozen=True)
class AlleeParams:
    m: float
    n: float
    alpha: float
    beta: float
    gamma: float
    eps: float

    def __post_init__(self):
        _check(_PARAM_RULES, _point(math, **vars(self)))


def critical_height(x: float, m: float, n: float) -> float:
    """F(x) = x/(m+x) - n - x, the curved critical branch."""
    return x / (m + x) - n - x


def critical_slope(x: float, m: float, n: float) -> float:
    """F'(x) = m/(m+x)^2 - 1."""
    return m / (m + x) ** 2 - 1.0


def fold_point(m: float, n: float) -> Tuple[float, float]:
    """Fold (x_M, y_M) of the curved critical branch."""
    p = _check(_FOLD_RULES, _point(math, m=m, n=n))
    return (p.xM, p.yM)


def _preimages(y, m, n):
    """(disc, sigma, x): the roots x_M + (d -+ sqrt(disc))/2 of x^2 + (y+n+m-1)x
    + m(n+y) = 0, elementwise over arrays of y too, with disc = d (d + 4 sqrt(m))
    and d = y_M - y: for y <= y_M, disc >= 0 and sigma <= x_M <= x, the
    preimages of y; a negative disc gives NaN roots."""
    fold = _point(xp_of(y, m, n), m=m, n=n)
    d = fold.yM - y
    disc = d * (d + 4.0 * fold.rm)
    root = fold.sqrt(disc)
    return disc, fold.xM + 0.5 * (d - root), fold.xM + 0.5 * (d + root)


def boundary_roots(m: float, n: float) -> Tuple[float, Optional[float], Optional[float]]:
    """Roots of F(x) = 0, i.e. x^2 + (m+n-1)x + mn = 0: the preimages of y = 0,
    with delta1 = y_M (y_M + 4 sqrt(m)), which has the sign of y_M for m > 0.

    Returns (delta1, x1, x2) with x1 <= x2; a double root is returned in
    both slots, and (delta1, None, None) when the roots are complex.
    DomainError unless m >= 0 and delta1 is finite."""
    delta1, x1, x2 = map(float, _preimages(0.0, m, n))
    if not math.isfinite(delta1):
        raise DomainError(f"requires m >= 0 and a finite delta1, got m={m}, n={n}")
    return (delta1, x1, x2) if delta1 >= 0.0 else (delta1, None, None)


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


# the model in fast time, f and eps*g over (x, y) and PARAM_NAMES, and its
# Jacobian entries fx, fy, gx, gy: the one place each is written
MODEL_SOURCE = ("x * (x / (m + x) - n - x - y)",
                "eps * (y * (alpha * x - beta - gamma * y))")
JACOBIAN_SOURCE = ("(2.0 * x * m + x * x) / (m + x) ** 2 - n - 2.0 * x - y",
                   "-x",
                   "eps * alpha * y",
                   "eps * (alpha * x - beta - 2.0 * gamma * y)")
_model = source_field("allee", PARAM_NAMES, *MODEL_SOURCE)
_jacobian = source_field("jacobian", PARAM_NAMES, *JACOBIAN_SOURCE)


def model_field(p: AlleeParams):
    """The model in fast time as a planar field: the function allee(x, y) ->
    (f, eps*g) compiled from MODEL_SOURCE, closed over the parameters.  It
    carries that source and the parameter tuple, so dopri5 evaluates the
    model in place; one compiled stepper serves every parameter set."""
    return _model(tuple(float(getattr(p, k)) for k in PARAM_NAMES))


def model_jacobian(p: AlleeParams):
    """The Jacobian of model_field(p), jacobian(x, y) -> (fx, fy, gx, gy),
    compiled from JACOBIAN_SOURCE; elementwise over arrays x, y too."""
    return _jacobian(tuple(float(getattr(p, k)) for k in PARAM_NAMES))


def _classify_point(x: float, y: float, jacobian) -> str:
    fx, fy, gx, gy = jacobian(x, y)
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


def _checked(x: float, y: float, field, jacobian, kind: Optional[str] = None) -> Equilibrium:
    """The candidate (x, y) as an Equilibrium of field, its kind read off
    jacobian unless given."""
    f, g = field(x, y)
    if max(abs(f), abs(g)) > 1e-10:
        raise NumericsError(f"equilibrium candidate ({x}, {y}) has residual > 1e-10")
    return Equilibrium((x, y), kind if kind is not None else _classify_point(x, y, jacobian))


def equilibria(p: AlleeParams) -> EquilibriaReport:
    """All equilibria of the model with Jacobian-based type tags.

    The extinction state E0 = (0, 0) always exists.  The prey-only pair
    E1, E2 exists, as admissibility gives delta1 >= 0; at delta1 = 0 the
    double root is reported once, as E1 tagged degenerate.  The interior pair
    E3, E4 comes from the second quadratic, gated on x > 0, y >= 0."""
    field, jacobian = model_field(p), model_jacobian(p)
    E0 = _checked(0.0, 0.0, field, jacobian, "stable node")
    fold = fold_point(p.m, p.n)
    delta1, x1, x2 = boundary_roots(p.m, p.n)
    if delta1 > 0.0:
        E1, E2 = _checked(x1, 0.0, field, jacobian), _checked(x2, 0.0, field, jacobian)
    else:
        E1, E2 = Equilibrium((x1, 0.0), "degenerate (boundary collision)"), None

    ag = p.alpha + p.gamma
    b = (p.alpha * p.m - p.beta + p.gamma * (p.m + p.n - 1.0)) / ag
    c = p.m * (p.gamma * p.n - p.beta) / ag
    delta2 = b * b - 4.0 * c
    interior = {}
    if delta2 >= 0.0:
        root = math.sqrt(delta2)
        for slot, xr in (("E3", (-b - root) / 2.0), ("E4", (-b + root) / 2.0)):
            yr = (p.alpha * xr - p.beta) / p.gamma
            if xr > 0.0 and yr >= 0.0:
                interior[slot] = _checked(xr, yr, field, jacobian)
    return EquilibriaReport(E0, E1, E2, interior.get("E3"), interior.get("E4"),
                            delta1, delta2, fold)


def trace_at(p: AlleeParams, point: Tuple[float, float]) -> float:
    """Jacobian trace fx + gy of the model at point."""
    fx, _, _, gy = model_jacobian(p)(*point)
    return fx + gy


@dataclass(frozen=True)
class HopfOnset:
    beta_onset: float
    lambda_onset: float
    beta_predicted: float
    lambda_predicted: float


def hopf_onset(p: AlleeParams) -> HopfOnset:
    """The beta where the E4 trace vanishes, its template unfolding
    parameter, and their leading-order predictions from lambda_H(c10, f00,
    eps) of the normal-form record; the result does not depend on p.beta.

    On the prey nullcline y = F(x) the trace is h(x) = x F'(x) - eps*gamma*F(x),
    free of beta; beta = alpha*x - gamma*F(x) picks the x of E4.  h > 0 at the
    left prey-only root x1 and h < 0 at the fold x_M; for eps*gamma < 1,
    (m + x)^2 h has no other positive root, and it is E4 when its beta > 0.
    DomainError for eps*gamma >= 1, y_M = 0 or a Hopf beta <= 0."""
    m, n, gamma = p.m, p.n, p.gamma
    eg = p.eps * gamma
    if eg >= 1.0:
        raise DomainError(f"requires eps*gamma < 1, got {eg}")

    def h(x):
        return x * critical_slope(x, m, n) - eg * critical_height(x, m, n)

    xM, yM = fold_point(m, n)
    _, x1, _ = boundary_roots(m, n)
    # near y_M = 0 rounding can merge x1 into x_M
    if not (yM > 0.0 and h(x1) > 0.0 > h(xM)):
        raise DomainError(f"the E4 trace does not change sign on [x1, x_M] (y_M = {yM})")
    x = bisect(h, x1, xM, h(x1), lambda lo, hi: hi - lo <= 1e-15 * max(1.0, abs(hi)))
    beta = p.alpha * x - gamma * critical_height(x, m, n)
    if not beta > 0.0:
        raise DomainError(f"the Hopf point needs beta > 0, got {beta}")
    beta_star, conversion = beta_star_conversion(p)
    rec = normal_form_columns(m, n, p.alpha, gamma)
    lambda_pred = float(lambda_H(rec.c10, rec.f00, p.eps))
    return HopfOnset(beta_onset=beta, lambda_onset=(beta - beta_star) / conversion,
                     beta_predicted=beta_star + lambda_pred * conversion,
                     lambda_predicted=lambda_pred)


def model_l1(p: AlleeParams) -> float:
    """First Lyapunov coefficient of the model at E4, for p on the Hopf
    curve (beta from hopf_onset).

    The field times (m + x), a positive time rescaling on x > -m that keeps
    orbits, equilibria, the Hopf beta, and the sign and zero of L1, is the
    exact cubic
        f~ = -nm x + (1-n-m) x^2 - x^3 - m xy - x^2 y,
        g~ = eps (-m beta y + (m alpha - beta) xy - m gamma y^2 + alpha x^2 y - gamma xy^2),
    passed as written (zeros kept) to blowup._lyapunov_at, the one pass of
    translate_to_equilibrium -> normalize_linear -> lyapunov_DF, bit for bit.
    Only the sign and the zero are frame-free: the magnitude depends on the
    time rescaling and on normalize_linear's m01-pivot frame.  DomainError
    without E4, or off the Hopf curve (lyapunov_DF's trace gate)."""
    # imported here, so that importing allee loads neither blowup nor jet
    from .blowup import _lyapunov_at

    E4 = equilibria(p).E4
    if E4 is None:
        raise DomainError(f"E4 does not exist at beta={p.beta}")
    m, n, alpha, beta, gamma, eps = (getattr(p, k) for k in PARAM_NAMES)
    fx = {(1, 0): -n * m, (2, 0): 1.0 - n - m, (3, 0): -1.0, (1, 1): -m, (2, 1): -1.0}
    fy = {(0, 1): -eps * m * beta, (1, 1): eps * (m * alpha - beta), (0, 2): -eps * m * gamma,
          (2, 1): eps * alpha, (1, 2): -eps * gamma}
    return _lyapunov_at(fx, fy, E4.point)


def gamma_star(m: float, n: float, alpha: float, beta: float) -> float:
    """The gamma making the predator nullcline pass through the fold,
    i.e. the coincidence value solving beta + gamma*y_M = alpha*x_M."""
    xM, yM = fold_point(m, n)
    if yM == 0.0:
        raise DomainError("requires y_M > 0 (fold strictly inside the quadrant)")
    return (alpha * xM - beta) / yM


COINCIDENCE_TOL = 1e-6


def require_coincidence(p: AlleeParams) -> None:
    """The coincidence configuration: gamma = gamma_star within
    COINCIDENCE_TOL.  gamma_star requires y_M > 0, which gives delta1 =
    y_M (y_M + 4 sqrt(m)) > 0; 1 - m - n = y_M + 2 x_M > 0 holds at every
    admissible point, since 0 < m < 1 makes x_M = sqrt(m) - m > 0."""
    gs = gamma_star(p.m, p.n, p.alpha, p.beta)
    if abs(p.gamma - gs) > COINCIDENCE_TOL:
        raise DomainError(f"requires gamma = gamma_star within {COINCIDENCE_TOL:g} "
                          f"(gamma={p.gamma}, gamma_star={gs:.8g})")


def beta_star_conversion(p: AlleeParams) -> Tuple[float, float]:
    """(beta*, conversion) with beta* = alpha*x_M - gamma*y_M and conversion
    = alpha*Q/(sqrt(m) - 1): the template unfolding parameter lambda is the
    model's beta = beta* + lambda * conversion."""
    q = _check(_SCALE_RULES, _point(math, **vars(p)))
    return p.alpha * q.xM - p.gamma * q.yM, p.alpha * q.Q / (q.rm - 1.0)


def require_closed_forms(p: AlleeParams) -> None:
    """The checks behind model_columns and psi_columns at one parameter
    set: the fold-point sanity checks, then alpha*x_M*y_M > 0, which
    leaves y_M > 0, that is 0 < m < (1 - sqrt(n))^2."""
    _check(_SCALE_RULES, _point(math, **vars(p)))


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
    fold = _point(xp_of(m, n, alpha), m=m, n=n, alpha=alpha)
    yM, Q, s = fold.yM, fold.Q, fold.rm - 1.0
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
    _check(_SCALE_RULES, _point(math, **vars(p)))
    rec = normal_form_columns(p.m, p.n, p.alpha, p.gamma)
    return NormalFormCoefficients(**{k: float(v) for k, v in vars(rec).items()})


def model_columns(m, n, alpha, beta, gamma, eps) -> Dict[str, object]:
    """A (= omega1), omega2, the damping a5 and the leading-order Hopf and
    canard curves lambda_h, lambda_c of the model, elementwise over floats
    or arrays that broadcast together.  Unchecked: validate a point with
    AlleeParams and require_closed_forms first, or a grid with check_grid."""
    rec = normal_form_columns(m, n, alpha, gamma)
    om = omega_coefficients(rec)
    fold = _point(xp_of(m, n, alpha), m=m, n=n, alpha=alpha)
    a5 = (alpha * fold.xM - beta - 2.0 * gamma * fold.yM) / fold.Q
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
    xp = xp_of(m, n, alpha, gamma)
    p = _point(xp, m=m, n=n)
    psi = 2.0 * gamma * (1.0 - p.rm) + alpha - 3.0 * alpha * p.rm
    ratio = (alpha + 2.0 * gamma) / (3.0 * alpha + 2.0 * gamma)
    m_star = ratio * ratio
    root = 2.0 * alpha / (3.0 * alpha + 2.0 * gamma)
    n_threshold = root * root
    tol = 1e-12 * (alpha + gamma)
    # the index of the first condition that holds, 3 if none does
    holds = [(n > n_threshold) | (m_star >= p.bound), abs(psi) <= tol, m < m_star]
    case = [*holds, True].index(True) if xp is math else xp.select(holds, [0, 1, 2], 3)
    return psi, m_star, n_threshold, case


def psi_case_analysis(m: float, n: float, alpha: float, gamma: float) -> PsiCaseReport:
    _check(_PSI_RULES, _point(math, m=m, n=n, alpha=alpha, gamma=gamma))
    psi, m_star, n_threshold, case = psi_columns(m, n, alpha, gamma)
    return PsiCaseReport(float(psi), float(m_star), float(n_threshold),
                         PSI_TAGS[case], _PSI_SIGNS[case])


def omega2_at_degeneracy(alpha: float, gamma: float, yM: float) -> float:
    """Closed form of omega2 on the degenerate stratum omega1 = 0.

    Evaluates gamma*(3a+2g)^2*sqrt(2*(a+2g)*yM)*(9*(3a+2g)*yM+4a)
    / (8*a^2*(a+2g)), which is positive for positive inputs; it agrees
    with omega_coefficients applied to the model record at m = m*."""
    _check(_OMEGA2_RULES, SimpleNamespace(xp=math, alpha=alpha, gamma=gamma, yM=yM))
    s = 3.0 * alpha + 2.0 * gamma
    t = alpha + 2.0 * gamma
    return (gamma * s * s * math.sqrt(2.0 * t * yM) * (9.0 * s * yM + 4.0 * alpha)
            / (8.0 * alpha * alpha * t))
