"""Acceptance suite: every criterion asserted at its stated tolerance.

Each test emits exactly one [PASS]/[FAIL] line for its criterion (run
with `pytest tests/test_acceptance.py -s` to see the lines as they are
produced; on failure the line is repeated in the assertion message).
"""

import math
import time

import numpy as np

from canard.allee import AlleeParams, equilibria, fold_point
from canard.blowup import PlanarPolySystem, lyapunov_DF
from canard.dynamics import (
    REVERSED,
    IntegratorOptions,
    Section,
    allee_field,
    bracket_from_crossings,
    find_cycle,
    region_excursion,
)
from canard.sdi import (
    cyclicity_report,
    slow_divergence_integral,
    slow_divergence_integral_x,
)
from canard.verify import (
    _stage_degeneracy,
    _stage_omega1,
    _stage_omega2,
    _stage_rho,
    _stage_series_order,
)
from examples import EX1, EX2


def _report(criterion: str, passed: bool, detail: str) -> None:
    line = f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}"
    print(line, flush=True)
    assert passed, line


def test_c01_omega1_oracle():
    t0 = time.perf_counter()
    passed, message, _ = _stage_omega1(np.random.default_rng(2025))
    elapsed = time.perf_counter() - t0
    ok = passed and elapsed < 30.0
    _report("C1 omega1 oracle",
            ok, f"{message}; elapsed {elapsed:.1f}s (budget 30s)")


def test_c02_omega2_oracle():
    passed, message, _ = _stage_omega2(np.random.default_rng(2125), 0.0)
    _report("C2 omega2 oracle", passed, message)


def test_c03_rho_oracle():
    passed, message, _ = _stage_rho(np.random.default_rng(2225))
    _report("C3 rho oracle", passed, message)


def test_c04_equilibrium_series_order():
    passed, message, _ = _stage_series_order(np.random.default_rng(2325))
    _report("C4 equilibrium-series order", passed, message)


def test_c05_allee_degeneracy():
    passed, message, _ = _stage_degeneracy()
    _report("C5 Allee degeneracy", passed, message)


def _cycle_options(direction=None):
    kw = {"rel_tol": 1e-10, "abs_tol": 1e-12, "t_max": 1500.0}
    if direction is not None:
        kw["direction"] = direction
    return IntegratorOptions(**kw)


def test_c06_example1_stable_cycle():
    p = AlleeParams(**EX1)
    field = allee_field(p)
    x4, _ = equilibria(p).E4.point
    section = Section(x4, 0.0)
    opts = _cycle_options()
    bracket = bracket_from_crossings(field, [(0.2644, 0.0961)], section, opts)
    res = find_cycle(field, bracket, section, opts)
    ok = res.converged and res.stability == "Stable" and res.multiplier < 1.0
    _report("C6 example-1 cycle", ok,
            f"converged={res.converged}, multiplier={res.multiplier:.6f} < 1, "
            f"verdict {res.stability}, period {res.period:.1f}")


def test_c07_example2_unstable_cycle_reversed():
    p = AlleeParams(**EX2)
    field = allee_field(p)
    x4, _ = equilibria(p).E4.point
    section = Section(x4, 0.0)
    opts = _cycle_options(REVERSED)
    bracket = bracket_from_crossings(field, [(0.25, 0.1375), (0.25, 0.13)],
                                     section, opts)
    res = find_cycle(field, bracket, section, opts)
    ok = res.converged and res.stability == "Unstable" and res.multiplier > 1.0
    _report("C7 example-2 cycle", ok,
            f"reversed bisection converged={res.converged}, forward "
            f"multiplier={res.multiplier:.6f} > 1, verdict {res.stability}")


def test_c08_invariant_region():
    p = AlleeParams(**EX2)
    excursion = region_excursion(p, n_starts=100, seed=2025, t_max=1e4)
    ok = excursion < 1e-9
    _report("C8 invariant region", ok,
            f"max excursion {excursion:.3e} over 100 starts, t <= 1e4 "
            "(tolerance 1e-9)")


def _random_cyclicity_params(rng):
    """Admissible coincidence sets satisfying the cyclicity hypotheses:
    predator nullcline through the fold, delta1 > 0, 1 - m - n > 0."""
    while True:
        n = float(rng.uniform(0.05, 0.5))
        bound = (1.0 - math.sqrt(n)) ** 2
        m = float(rng.uniform(0.3 * bound, 0.9 * bound))
        if (1.0 - m - n) ** 2 - 4.0 * m * n <= 0.0 or 1.0 - m - n <= 0.0:
            continue
        alpha = float(rng.uniform(0.3, 1.5))
        gamma = float(rng.uniform(0.1, 1.0))
        xM, yM = fold_point(m, n)
        beta = alpha * xM - gamma * yM
        if beta > 1e-3:
            return AlleeParams(m=m, n=n, alpha=alpha, beta=beta, gamma=gamma,
                               eps=0.01)


def test_c09_sdi_cyclicity():
    rng = np.random.default_rng(2425)
    worst_zero = 0
    worst_rel = 0.0
    for _ in range(10):
        p = _random_cyclicity_params(rng)
        profile = cyclicity_report(p, 24)
        worst_zero = max(worst_zero, profile.zero_count)
        _, yM = fold_point(p.m, p.n)
        for frac in (0.2, 0.5, 0.8):
            s = frac * profile.s_grid[-1]
            iy = slow_divergence_integral(p, s)
            ix = slow_divergence_integral_x(p, s)
            worst_rel = max(worst_rel, abs(iy - ix) / max(abs(iy), 1e-12))
    ok = worst_zero <= 1 and worst_rel <= 1e-6
    _report("C9 SDI cyclicity", ok,
            f"max zero_count {worst_zero} (bound 1); worst x/y-form relative "
            f"gap {worst_rel:.2e} (tolerance 1e-6) over 10 seeded sets")


def test_c10_lyapunov_unit_checks():
    sigma = 0.7
    cubic = PlanarPolySystem({(0, 1): -1.0, (3, 0): sigma}, {(1, 0): 1.0})
    center = PlanarPolySystem({(0, 1): -1.0}, {(1, 0): 1.0})
    got = lyapunov_DF(cubic)
    want = 3.0 * sigma / 8.0
    err_cubic = abs(got - want) / abs(want)
    err_center = abs(lyapunov_DF(center))
    ok = err_cubic < 1e-14 and err_center <= 1e-14
    _report("C10 Lyapunov unit checks", ok,
            f"cubic term: L1 = {got} vs 3*sigma/8 (rel err {err_cubic:.1e}); "
            f"linear center: |L1| = {err_center:.1e} (tolerance 1e-14)")
