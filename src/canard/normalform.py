"""Coefficient record of the canonical planar slow-fast normal form and
the closed-form bifurcation quantities derived from it.

The template system, in fast time with small parameter eps and unfolding
parameter lam, is

    x' = -y*h1(x,y) + x^2*h2(x) + eps*h3(x,y)
    y' = eps*(x*h4(x) - lam*h5(x,y) + y*h6(x,y))

with h1 = 1 + a10 x + a01 y + a20 x^2 + a11 xy + a02 y^2, h2 = 1 + b10 x,
h3 = sum c_ij x^i y^j (1 <= i+j <= 3), h4 = 1 + d10 x + d20 x^2,
h5 = 1 + sum e_ij x^i y^j, h6 = f00 + f10 x + f01 y + f20 x^2 + f11 xy
+ f02 y^2.  The record stores the constants a10 .. f02.

Derived quantities:
  * A: the leading-order criticality constant of the singular Hopf point;
  * rho1, rho3: coefficients of the Hopf curve lam1*(r) = rho1 r + rho3 r^3
    in the blow-up radius r = sqrt(eps) (the r^2 coefficient vanishes;
    in original parameters the curve reads lam*(eps) = rho1 eps + rho3 eps^2);
  * omega1, omega2: coefficients of the first Lyapunov coefficient series
    L1(r) = (omega1/16) r + (omega2/32) r^3 along the Hopf curve.

omega1 coincides with A.  The classification rules: omega1 < 0 means a
supercritical singular Hopf (stable cycle), omega1 > 0 subcritical; when
omega1 = 0 the sign of omega2 decides, with the Degenerate* labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from typing import Dict, NamedTuple, Optional

import numpy as np

from .errors import DomainError


@dataclass(frozen=True, slots=True)
class NormalFormCoefficients:
    a10: float = 0.0
    a01: float = 0.0
    a20: float = 0.0
    a11: float = 0.0
    a02: float = 0.0
    b10: float = 0.0
    c10: float = 0.0
    c01: float = 0.0
    c20: float = 0.0
    c11: float = 0.0
    c02: float = 0.0
    c30: float = 0.0
    c21: float = 0.0
    c12: float = 0.0
    c03: float = 0.0
    d10: float = 0.0
    d20: float = 0.0
    e10: float = 0.0
    e01: float = 0.0
    e20: float = 0.0
    e11: float = 0.0
    e02: float = 0.0
    e30: float = 0.0
    e21: float = 0.0
    e12: float = 0.0
    e03: float = 0.0
    f00: float = 0.0
    f10: float = 0.0
    f01: float = 0.0
    f20: float = 0.0
    f11: float = 0.0
    f02: float = 0.0

    def __post_init__(self):
        for name in COEFF_NAMES:
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"coefficient {name} is not finite")

    @classmethod
    def from_dict(cls, data: Dict[str, float]) -> "NormalFormCoefficients":
        """Record from a name -> number mapping; absent names read as 0."""
        unknown = sorted(set(data) - set(COEFF_NAMES))
        if unknown:
            raise DomainError(f"unknown coefficient keys: {', '.join(unknown)}")
        vals = {}
        for k, v in data.items():
            try:
                if isinstance(v, bool):  # float(True) would read as 1.0
                    raise TypeError
                vals[k] = float(v)
            except (TypeError, ValueError):
                raise DomainError(f"coefficient {k} is not a number: {v!r}") from None
        return cls(**vals)


COEFF_NAMES = tuple(f.name for f in fields(NormalFormCoefficients))


class Criticality(str, Enum):
    SUPERCRITICAL = "Supercritical"
    SUBCRITICAL = "Subcritical"
    DEGENERATE_SUPERCRITICAL = "DegenerateSupercritical"
    DEGENERATE_SUBCRITICAL = "DegenerateSubcritical"
    UNDETERMINED = "Undetermined"


class RhoCoefficients(NamedTuple):
    rho1: float
    rho3: float
    rho31: float
    rho32: float


class OmegaCoefficients(NamedTuple):
    omega1: float
    omega2: float


@dataclass(frozen=True)
class HopfAnalysis:
    A: float
    omega1: float
    omega2: float
    rho1: float
    rho3: float
    classification: Criticality


def compute_A(nf: NormalFormCoefficients) -> float:
    """Leading-order criticality constant -a10 + 3 b10 - 2 d10 - 2 f00."""
    return -nf.a10 + 3.0 * nf.b10 - 2.0 * nf.d10 - 2.0 * nf.f00


def _require_positive_eps(eps) -> None:
    if not np.all(np.isfinite(eps) & np.greater(eps, 0.0)):
        raise DomainError(f"eps must be finite and positive, got {eps}")


def lambda_H(a1: float, a5: float, eps: float) -> float:
    """Leading-order singular Hopf curve -(a1 + a5)/2 * eps (elementwise
    over arrays too)."""
    _require_positive_eps(eps)
    return -(a1 + a5) / 2.0 * eps


def lambda_c(a1: float, a5: float, A: float, eps: float) -> float:
    """Leading-order canard-explosion curve -((a1 + a5)/2 + A/8) * eps
    (elementwise over arrays too)."""
    _require_positive_eps(eps)
    return -((a1 + a5) / 2.0 + A / 8.0) * eps


def rho_coefficients(nf: NormalFormCoefficients) -> RhoCoefficients:
    """Coefficients of the Hopf curve lam1*(r) = rho1 r + rho3 r^3.

    rho3 = (rho1/2) * (rho31 + rho1 * rho32).  The prefactor rho1/2 is
    forced by the blow-up oracle fit (see the acceptance suite); the
    sub-expressions rho31, rho32 are returned for inspection.
    """
    rho1 = -(nf.c10 + nf.f00) / 2.0
    rho31 = (nf.a10 * nf.c10 + 2.0 * nf.c10 * nf.f00 - 2.0 * nf.c20
             + nf.e01 - nf.f10)
    rho32 = nf.a10 - 3.0 * nf.b10 + 2.0 * (nf.d10 - nf.e10 + nf.f00)
    rho3 = rho1 / 2.0 * (rho31 + rho1 * rho32)
    return RhoCoefficients(rho1, rho3, rho31, rho32)


def omega2_term_groups(nf: NormalFormCoefficients) -> tuple:
    """The cubic-order coefficient omega2 split into its eight additive
    groups, one per source line of the transcription.  Kept separate so a
    transcription slip is localized by the per-group unit tests.  Powers
    are written as products, so a record of floats and a record of
    arrays (elementwise) round alike."""
    a10, a01, a20, a11 = nf.a10, nf.a01, nf.a20, nf.a11
    b10 = nf.b10
    c10, c01, c20, c11, c30 = nf.c10, nf.c01, nf.c20, nf.c11, nf.c30
    d10, d20 = nf.d10, nf.d20
    e10, e01, e20 = nf.e10, nf.e01, nf.e20
    f00, f10, f20 = nf.f00, nf.f10, nf.f20
    return (
        6*a10*b10*c10 + 6*a10*b10*f00 - 4*a10*c10*d10 + a10*c10*e10 - 4*a10*c10*f00,
        -4*a10*c01 - 2*a10*a10*c10 + 2*a20*c10 - 2*a10*c20 - 6*a10*d10*f00 + a10*e10*f00,
        -12*a10*f00*f00 - 4*a10*a10*f00 + 6*a20*f00 + 2*a01*(a10 + 2*f00) - 2*a11 + 2*f20,
        12*b10*c10*d10 - 3*b10*c10*e10 + 12*b10*c10*f00 + 6*b10*c01 + 12*b10*d10*f00,
        -3*b10*e10*f00 + 18*b10*f00*f00 + 4*c10*d10*e10 - 8*c10*d10*f00 - 8*c10*d10*d10 - 4*c01*d10,
        -4*c20*d10 + 6*c10*d20 + 4*c10*e10*f00 - 2*c10*e01 - 2*c10*e20 - 8*c01*f00,
        -8*c20*f00 + 2*c10*f10 + 2*c11 + 6*c30 + 4*d10*e10*f00 - 16*d10*f00*f00 - 8*d10*d10*f00,
        6*d20*f00 - 2*d10*f10 + 4*e10*f00*f00 - 2*e01*f00 - 2*e20*f00 - 8*f00*f00*f00 + 4*f10*f00,
    )


def omega_coefficients(nf: NormalFormCoefficients) -> OmegaCoefficients:
    """Coefficients of L1(r) = (omega1/16) r + (omega2/32) r^3.

    omega1 is the same arithmetic expression as compute_A, so the two are
    bit-identical, not merely close.  omega2 sums the term groups left to
    right, one fixed order, so a record of arrays (see
    allee.normal_form_columns) gives elementwise the values of the
    scalar records."""
    groups = omega2_term_groups(nf)
    omega2 = groups[0]
    for g in groups[1:]:
        omega2 = omega2 + g
    return OmegaCoefficients(compute_A(nf), omega2)


def classify_hopf(omega1: float, omega2: float, tol: Optional[float] = None) -> Criticality:
    if tol is None:
        # noise floor for sign decisions in a double-precision pipeline
        tol = 1e-9 * max(1.0, abs(omega1) + abs(omega2))
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tol must be finite and positive, got {tol}")
    if omega1 < -tol:
        return Criticality.SUPERCRITICAL
    if omega1 > tol:
        return Criticality.SUBCRITICAL
    if omega2 < -tol:
        return Criticality.DEGENERATE_SUPERCRITICAL
    if omega2 > tol:
        return Criticality.DEGENERATE_SUBCRITICAL
    return Criticality.UNDETERMINED


def l1_series(omega1: float, omega2: float, eps: float) -> float:
    """Two-term truncation sqrt(eps) * (omega1/16 + omega2*eps/32)."""
    _require_positive_eps(eps)
    return math.sqrt(eps) * (omega1 / 16.0 + omega2 * eps / 32.0)


def lambda_star_series(rho1: float, rho3: float, eps: float) -> float:
    """Hopf curve in the original small parameter: rho1*eps + rho3*eps^2.

    Equivalent to r*(rho1 + rho3 r^2) at r = sqrt(eps), i.e. the blown-up
    curve lam1*(r) mapped back through lam = r*lam1."""
    _require_positive_eps(eps)
    return rho1 * eps + rho3 * eps * eps


def analyze_record(nf: NormalFormCoefficients, tol: Optional[float] = None) -> HopfAnalysis:
    """Bundle A, rho, omega and the classification for one record."""
    A = compute_A(nf)
    rho = rho_coefficients(nf)
    om = omega_coefficients(nf)
    cls = classify_hopf(om.omega1, om.omega2, tol)
    return HopfAnalysis(A=A, rho1=rho.rho1, rho3=rho.rho3,
                        omega1=om.omega1, omega2=om.omega2, classification=cls)
