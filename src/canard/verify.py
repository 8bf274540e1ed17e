"""Seeded verification suite for the blow-up pipeline.

Each stage refits a quantity from independently computed samples (series
fits of l1_blowup or hopf_lambda1 over a radius grid) and compares it
against the closed-form coefficient read off the record.  Stage failures
are recorded in the report and the run continues.  The omega2_offset
hook shifts the expected cubic constant and must make the omega2 stage
fail; it exists as a negative control for the suite itself."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from .allee import (
    AlleeParams,
    fold_point,
    normal_form_coeffs,
    omega2_at_degeneracy,
    psi_case_analysis,
)
from .blowup import (
    blow_up,
    equilibrium_series,
    find_equilibrium,
    fit_odd_series,
    hopf_lambda1,
    l1_blowup,
    sample_record,
)
from .errors import DomainError, NumericsError, require_count
from .normalform import (
    Criticality,
    NormalFormCoefficients,
    classify_hopf,
    compute_A,
    omega_coefficients,
    rho_coefficients,
)

OMEGA1_GRID = tuple(round(0.02 + 0.01 * k, 2) for k in range(9))
OMEGA2_GRID = (0.02, 0.04, 0.06, 0.08, 0.10, 0.12, 0.14, 0.16)
RHO_GRID = tuple(round(0.005 * k, 3) for k in range(1, 11))
SERIES_GRID = (0.1, 0.05, 0.025)

DEGENERACY_ALPHA = 0.8
DEGENERACY_GAMMA = 0.4424
DEGENERACY_N = 0.1
DEGENERACY_M_STAR = 0.263075

# records fitted by the omega1, omega2 and rho stages
OMEGA1_RECORDS = 20
OMEGA2_RECORDS = 10
RHO_RECORDS = 10


@dataclass(frozen=True)
class StageResult:
    name: str
    passed: bool
    message: str
    details: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class VerifyReport:
    seed: int
    omega2_offset: float
    all_passed: bool = field(init=False)
    stages: List[StageResult]

    def __post_init__(self):
        object.__setattr__(self, "all_passed", all(s.passed for s in self.stages))

    def lines(self) -> List[str]:
        out = []
        for s in self.stages:
            out.append(f"[{'PASS' if s.passed else 'FAIL'}] {s.name}: {s.message}")
        return out


def fit_l1_omega1(nf: NormalFormCoefficients, grid=OMEGA1_GRID):
    """Fitted linear coefficient of L1(r) on odd powers (1, 3, 5); the
    closed form predicts omega1/16.  The r^5 column absorbs series
    content beyond the two closed-form terms."""
    samples = [(r, l1_blowup(nf, r)) for r in grid]
    coeffs = fit_odd_series(samples, (1, 3, 5))
    return float(coeffs[0])


def fit_l1_omega2(nf: NormalFormCoefficients, grid=OMEGA2_GRID):
    """Fitted cubic coefficient of L1(r) on odd powers (1,3,5,7), plus
    the even residual coefficients (r^0, r^2) refitted on what the odd
    model leaves behind.  On the omega1 = 0 stratum the closed form
    predicts c3 = omega2/32 and no even content."""
    samples = [(r, l1_blowup(nf, r)) for r in grid]
    coeffs = fit_odd_series(samples, (1, 3, 5, 7))
    rs = np.array([r for r, _ in samples])
    vals = np.array([v for _, v in samples])
    model = sum(c * rs ** p for c, p in zip(coeffs, (1, 3, 5, 7)))
    even = fit_odd_series(list(zip(rs, vals - model)), (0, 2))
    return float(coeffs[1]), float(even[0]), float(even[1])


def fit_rho(nf: NormalFormCoefficients, grid=RHO_GRID):
    """Fitted (constant, r^1, r^2) content of hopf_lambda1(r)/r; the
    closed forms predict (rho1, 0, rho3).  The r^4 and r^6 columns
    absorb higher even content so it cannot leak into the low ones."""
    samples = [(r, hopf_lambda1(nf, r) / r) for r in grid]
    coeffs = fit_odd_series(samples, (0, 1, 2, 4, 6))
    return float(coeffs[0]), float(coeffs[1]), float(coeffs[2])


def series_order_slope(nf: NormalFormCoefficients) -> float:
    """Log-log slope of the gap between the Newton equilibrium and the
    cubic series prediction at lambda1 = 0.1 over SERIES_GRID; the series
    is accurate to O(r^4)."""
    gaps = []
    for r in SERIES_GRID:
        sys = blow_up(nf, r, 0.1)
        px, py = equilibrium_series(sys, r).predict(r)
        ex, ey = find_equilibrium(sys, (px, py))
        gap = math.hypot(ex - px, ey - py)
        if gap == 0.0:
            raise NumericsError("zero series gap cannot be fitted on a log scale")
        gaps.append(gap)
    logs_r = np.log(np.asarray(SERIES_GRID))
    logs_g = np.log(np.asarray(gaps))
    slope, _ = np.polyfit(logs_r, logs_g, 1)
    return float(slope)


def _stage_canonical():
    nf = NormalFormCoefficients()
    worst_l1 = max(abs(l1_blowup(nf, r)) for r in OMEGA1_GRID)
    worst_lam = max(abs(hopf_lambda1(nf, r)) for r in RHO_GRID)
    om = omega_coefficients(nf)
    rho = rho_coefficients(nf)
    closed = max(abs(om.omega1), abs(om.omega2), abs(rho.rho1), abs(rho.rho3))
    passed = worst_l1 < 1e-10 and worst_lam < 1e-10 and closed == 0.0
    return (
        passed,
        f"max |L1| = {worst_l1:.2e}, max |lambda1| = {worst_lam:.2e} on the "
        "plain template (all closed forms are zero)",
        {"max_l1": worst_l1, "max_lambda1": worst_lam})


def _stage_omega1(rng: np.random.Generator):
    worst = 0.0
    for _ in range(OMEGA1_RECORDS):
        nf = sample_record(rng)
        fitted = fit_l1_omega1(nf)
        expected = omega_coefficients(nf).omega1 / 16.0
        rel = abs(fitted - expected) / max(abs(expected), 1e-30)
        worst = max(worst, rel)
    passed = worst < 1e-3
    return (
        passed,
        f"worst relative error {worst:.2e} over {OMEGA1_RECORDS} records "
        "(tolerance 1e-3)",
        {"worst_rel": worst, "records": float(OMEGA1_RECORDS)})


def _stage_omega2(rng: np.random.Generator, offset: float):
    worst_rel = 0.0
    worst_even = 0.0
    for _ in range(OMEGA2_RECORDS):
        nf = sample_record(rng, constrain_omega1=True)
        c3, even0, even2 = fit_l1_omega2(nf)
        expected = (omega_coefficients(nf).omega2 + offset) / 32.0
        rel = abs(c3 - expected) / max(abs(expected), 1e-30)
        worst_rel = max(worst_rel, rel)
        worst_even = max(worst_even, abs(even0), abs(even2))
    passed = worst_rel < 1e-2 and worst_even < 1e-6
    return (
        passed,
        f"worst relative error {worst_rel:.2e} (tolerance 1e-2), worst even "
        f"coefficient {worst_even:.2e} (tolerance 1e-6) over {OMEGA2_RECORDS} "
        "records on the omega1 = 0 stratum",
        {"worst_rel": worst_rel, "worst_even": worst_even,
         "records": float(OMEGA2_RECORDS)})


def _stage_rho(rng: np.random.Generator):
    worst1 = worst3 = worst_mid = 0.0
    for _ in range(RHO_RECORDS):
        nf = sample_record(rng)
        c0, c1, c2 = fit_rho(nf)
        rho = rho_coefficients(nf)
        worst1 = max(worst1, abs(c0 - rho.rho1) / max(abs(rho.rho1), 1e-30))
        worst3 = max(worst3, abs(c2 - rho.rho3) / max(abs(rho.rho3), 1e-30))
        worst_mid = max(worst_mid, abs(c1))
    passed = worst1 < 1e-6 and worst3 < 1e-3 and worst_mid < 1e-6
    return (
        passed,
        f"worst rho1 rel {worst1:.2e} (tol 1e-6), rho3 rel {worst3:.2e} "
        f"(tol 1e-3), |r^1 content| {worst_mid:.2e} (tol 1e-6) over "
        f"{RHO_RECORDS} records",
        {"worst_rho1_rel": worst1, "worst_rho3_rel": worst3,
         "worst_mid": worst_mid, "records": float(RHO_RECORDS)})


def _stage_series_order(rng: np.random.Generator):
    nf = sample_record(rng)
    slope = series_order_slope(nf)
    passed = abs(slope - 4.0) < 0.3
    return (
        passed,
        f"log-log residual slope {slope:.3f} (expected 4 +- 0.3)",
        {"slope": slope})


def _stage_degeneracy():
    case = psi_case_analysis(m=0.2, n=DEGENERACY_N, alpha=DEGENERACY_ALPHA,
                             gamma=DEGENERACY_GAMMA)
    m_star = case.m_star
    p = AlleeParams(m=m_star, n=DEGENERACY_N, alpha=DEGENERACY_ALPHA,
                    beta=0.13, gamma=DEGENERACY_GAMMA, eps=0.01)
    a_val = compute_A(normal_form_coeffs(p))
    _, y_m = fold_point(m_star, DEGENERACY_N)
    om2 = omega2_at_degeneracy(DEGENERACY_ALPHA, DEGENERACY_GAMMA, y_m)
    verdict = classify_hopf(0.0, om2)
    passed = (abs(m_star - DEGENERACY_M_STAR) < 1e-6 and abs(a_val) < 1e-6
              and om2 > 0.0 and verdict is Criticality.DEGENERATE_SUBCRITICAL)
    return (
        passed,
        f"m* = {m_star:.9f} (printed 0.263075), |A(m*)| = {abs(a_val):.2e}, "
        f"omega2 at degeneracy = {om2:.6f} > 0, verdict {verdict.value}",
        {"m_star": m_star, "abs_A": abs(a_val), "omega2": om2})


def run_all(seed: int = 2025, omega2_offset: float = 0.0) -> VerifyReport:
    """Run every stage with one seeded generator; deterministic in
    (seed, offset).  A stage returns (passed, message, details).
    DomainError unless seed is an integer >= 0."""
    require_count("seed", seed, 0)
    stages: List[StageResult] = []
    rng = np.random.default_rng(seed)
    plan = [
        ("canonical-smoke", _stage_canonical),
        ("omega1-linear-fit", lambda: _stage_omega1(rng)),
        ("omega2-cubic-fit", lambda: _stage_omega2(rng, omega2_offset)),
        ("rho-series-fit", lambda: _stage_rho(rng)),
        ("equilibrium-series-order", lambda: _stage_series_order(rng)),
        ("allee-degeneracy", _stage_degeneracy),
    ]
    for name, fn in plan:
        try:
            stages.append(StageResult(name, *fn()))
        except (DomainError, NumericsError) as exc:
            stages.append(StageResult(name, False, f"stage error: {exc}"))
    return VerifyReport(seed, omega2_offset, stages)
