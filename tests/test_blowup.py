import json
import math
import re
from dataclasses import asdict, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from canard import blowup
from canard.blowup import (
    PlanarPolySystem,
    blow_up,
    blow_up_via_jets,
    equilibrium_series,
    find_equilibrium,
    fit_odd_series,
    hopf_lambda1,
    l1_blowup,
    lyapunov_DF,
    normalize_linear,
    sample_record,
    translate_to_equilibrium,
    _DEGREE,
    _HOPF_SUMS,
    _KERNEL_CACHE,
    _ORDER1,
    _ORDER2,
    _TERMS,
    _hopf_kernel,
    _hopf_point,
    _kernel,
    _lambda1_slopes,
    _linear_powers,
    _lyapunov_at,
    _partials,
    _recenter,
    _substitute_linear,
)
from canard.errors import DomainError, NumericsError
from canard.jet import (
    Jet,
    jet_add,
    jet_compose,
    jet_scale,
)
import hopf_reference
from hopf_reference import hatted_tables, hopf_system
from jet_reference import jet_eval, jet_recenter
from canard.normalform import (
    COEFF_NAMES,
    NormalFormCoefficients,
    omega_coefficients,
    rho_coefficients,
)
from canard.verify import fit_l1_omega1, fit_l1_omega2, fit_rho, run_all

CANONICAL = NormalFormCoefficients()
_FLOAT_MAX = float.fromhex("0x1.fffffffffffffp+1023")


def _linear_part(sys):
    return np.array([[sys.fx.get((1, 0), 0.0), sys.fx.get((0, 1), 0.0)],
                     [sys.fy.get((1, 0), 0.0), sys.fy.get((0, 1), 0.0)]])


def random_record(rng):
    return NormalFormCoefficients.from_dict(
        {name: float(rng.uniform(-1.0, 1.0)) for name in COEFF_NAMES})


def centered_series_tables(m, n, es, r):
    """Recentered coefficients predicted through O(r^3) from the hatted
    tables and the equilibrium series.  Every symbol here is the hatted
    (O(1)) value; the return approximates the actual recentered jet
    coefficients with O(r^4) error."""
    P0, P1, P2, P3 = es.p
    Q0, Q1, Q2, Q3 = es.q
    m10, m01, m20, m11, m02 = m[(1, 0)], m[(0, 1)], m[(2, 0)], m[(1, 1)], m[(0, 2)]
    m30, m21, m12 = m[(3, 0)], m[(2, 1)], m[(1, 2)]
    n10, n01, n20, n11, n02 = n[(1, 0)], n[(0, 1)], n[(2, 0)], n[(1, 1)], n[(0, 2)]
    n30, n21 = n[(3, 0)], n[(2, 1)]
    mbar = {
        (1, 0): (2 * P0 * m20
                 + (m10 + Q0 * m11 + 2 * P1 * m20 + 3 * P0 ** 2 * m30) * r
                 + (Q1 * m11 + 2 * P2 * m20 + 2 * P0 * Q0 * m21 + 6 * P0 * P1 * m30) * r ** 2
                 + (m12 * Q0 ** 2 + Q2 * m11 + 2 * P3 * m20
                    + 2 * (P1 * Q0 + P0 * Q1) * m21
                    + (3 * P1 ** 2 + 6 * P0 * P2) * m30) * r ** 3),
        (0, 1): (m01 + P0 * m11 * r
                 + (P0 ** 2 * m21 + P1 * m11 + 2 * Q0 * m02) * r ** 2
                 + (2 * P0 * Q0 * m12 + P2 * m11 + 2 * P0 * P1 * m21 + 2 * Q1 * m02) * r ** 3),
        (2, 0): (m20 + 3 * P0 * m30 * r + (Q0 * m21 + 3 * P1 * m30) * r ** 2
                 + (Q1 * m21 + 3 * P2 * m30) * r ** 3),
        (1, 1): m11 * r + 2 * P0 * m21 * r ** 2 + (2 * P1 * m21 + 2 * Q0 * m12) * r ** 3,
        (0, 2): m02 * r ** 2 + P0 * m12 * r ** 3,
        (3, 0): m30 * r,
        (2, 1): m21 * r ** 2,
        (1, 2): m12 * r ** 3,
        (0, 3): 0.0,
    }
    nbar = {
        (1, 0): (n10 + 2 * P0 * n20 * r
                 + (3 * P0 ** 2 * n30 + 2 * P1 * n20 + Q0 * n11) * r ** 2
                 + (2 * P0 * Q0 * n21 + 2 * P2 * n20 + 6 * P0 * P1 * n30 + Q1 * n11) * r ** 3),
        (0, 1): (n01 * r + P0 * n11 * r ** 2
                 + (n21 * P0 ** 2 + 2 * Q0 * n02 + P1 * n11) * r ** 3),
        (2, 0): n20 * r + 3 * P0 * n30 * r ** 2 + (3 * P1 * n30 + Q0 * n21) * r ** 3,
        (1, 1): n11 * r ** 2 + 2 * P0 * n21 * r ** 3,
        (0, 2): n02 * r ** 3,
        (3, 0): n30 * r ** 2,
        (2, 1): n21 * r ** 3,
        (1, 2): 0.0,
        (0, 3): 0.0,
    }
    return mbar, nbar


def series_equilibrium(sys, r):
    """find_equilibrium seeded, as the oracle seeds it, by the series head at r."""
    return find_equilibrium(sys, equilibrium_series(sys, r).predict(r))


def centered_table_error(nf, r):
    sys = blow_up(nf, r, 0.1)
    eq = series_equilibrium(sys, r)
    centered = translate_to_equilibrium(sys, eq)
    m, n = hatted_tables(sys.fx, sys.fy, r)
    es = equilibrium_series(sys, r)
    mbar, nbar = centered_series_tables(m, n, es, r)
    err = 0.0
    for ij, want in mbar.items():
        err = max(err, abs(centered.fx.get(ij, 0.0) - want))
    for ij, want in nbar.items():
        err = max(err, abs(centered.fy.get(ij, 0.0) - want))
    return err


class TestBlowUp:
    def test_canonical_coefficients(self):
        sys = blow_up(CANONICAL, 0.1, 0.2)
        assert sys.fx.get((2, 0), 0.0) == 1.0
        assert sys.fx.get((0, 1), 0.0) == -1.0
        assert sys.fy.get((1, 0), 0.0) == 1.0
        assert sys.fy.get((0, 0), 0.0) == -0.2
        assert sys.fx.get((1, 0), 0.0) == 0.0

    def test_fast_forcing_linear_term(self):
        nf = NormalFormCoefficients(c10=0.5)
        sys = blow_up(nf, 0.1, 0.0)
        assert sys.fx.get((1, 0), 0.0) == pytest.approx(0.05)

    def test_slow_y_coefficient(self):
        nf = NormalFormCoefficients(f00=2.0, e01=1.0)
        sys = blow_up(nf, 0.1, 0.3)
        assert sys.fy.get((0, 1), 0.0) == pytest.approx(0.197)

    def test_jets_are_normalized(self):
        # the tables must equal what the public jet constructor builds:
        # float values, int indices, no zeros
        rng = np.random.default_rng(808)
        for _ in range(20):
            sys = blow_up(random_record(rng), np.float64(rng.uniform(0.02, 0.2)),
                          np.float64(rng.uniform(-1.0, 1.0)))
            for terms in (sys.fx, sys.fy):
                assert terms == Jet(2, _DEGREE, terms).coeffs
                assert all(type(c) is float and c != 0.0 for c in terms.values())
                assert all(type(e) is int for mi in terms for e in mi)

    def test_nonfinite_table_value_raises(self):
        with pytest.raises(DomainError):
            blow_up(NormalFormCoefficients(c03=1e308), 100.0, 0.0)

    def test_positive_r_required(self):
        with pytest.raises(DomainError):
            blow_up(CANONICAL, 0.0, 0.1)
        with pytest.raises(DomainError):
            blow_up_via_jets(CANONICAL, -0.1, 0.1)

    def test_two_path_agreement(self):
        rng = np.random.default_rng(424242)
        for _ in range(50):
            nf = random_record(rng)
            r = float(rng.uniform(0.02, 0.15))
            lam = float(rng.uniform(-1.0, 1.0))
            a = blow_up(nf, r, lam)
            b = blow_up_via_jets(nf, r, lam)
            keys = set(a.fx) | set(b.fx) | set(a.fy) | set(b.fy)
            for k in keys:
                for ja, jb in ((a.fx, b.fx), (a.fy, b.fy)):
                    va, vb = ja.get(k, 0.0), jb.get(k, 0.0)
                    denom = max(abs(va), abs(vb))
                    if denom == 0.0:
                        continue
                    assert abs(va - vb) <= 1e-13 * denom, (k, va, vb)


class TestPlanarPolySystem:
    def test_drops_zeros_keeps_order_and_coerces(self):
        fx = {(0, 3): np.float64(0.5), (1, 0): 0.0, (0, 1): -1.0, (2, 0): np.float64(-0.0)}
        sys = PlanarPolySystem(fx, {(1, 0): 1.0, (0, 0): 0.0})
        assert list(sys.fx.items()) == [((0, 3), 0.5), ((0, 1), -1.0)]
        assert all(type(c) is float for c in sys.fx.values())
        assert sys.fy == {(1, 0): 1.0}
        assert fx[(1, 0)] == 0.0  # the input table is left as it was

    def test_keys_become_int_pairs(self):
        fx = {(0, 1): -1.0, (2.0, np.int64(0)): 1.0}
        sys = PlanarPolySystem(fx, {(1, 0): 1.0, (0, 0): -0.1})
        assert list(sys.fx) == [(0, 1), (2, 0)]
        assert all(type(e) is int for k in sys.fx for e in k)
        assert find_equilibrium(sys, (0.0, 0.0)) == pytest.approx((0.1, 0.01))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_rejected(self, value):
        # the message names the first non-finite term in the table's order
        with pytest.raises(DomainError, match=r"^non-finite coefficient at \(2, 1\)$"):
            PlanarPolySystem({(0, 1): -1.0}, {(1, 0): 1.0, (2, 1): value, (0, 3): math.nan})

    @pytest.mark.parametrize("value", [True, False, "x", None])
    def test_value_must_be_a_number(self, value):
        # float(True) would store the bool as 1.0
        with pytest.raises(DomainError, match=rf"^coefficient at \(0, 0\) is not a number: {value!r}$"):
            PlanarPolySystem({(0, 0): value}, {})

    def test_integer_past_the_float_range_is_not_finite(self):
        with pytest.raises(DomainError, match=r"^non-finite coefficient at \(0, 0\)$"):
            PlanarPolySystem({(0, 1): -1.0}, {(0, 0): 10 ** 400})

    def test_cycling_newton_is_refused(self):
        # Newton on x^3 - 2x + 2 from 0 goes 0 -> 1 -> 0 -> ...; y' = y sits at 0
        sys = PlanarPolySystem({(3, 0): 1.0, (1, 0): -2.0, (0, 0): 2.0}, {(0, 1): 1.0})
        with pytest.raises(NumericsError, match="^equilibrium refinement did not reach"):
            find_equilibrium(sys, (0.0, 0.0))

    @pytest.mark.parametrize("term", [(5, 0), (2, 3), (0, 5), (-1, 2), (2, -1)])
    def test_term_outside_degree_rejected(self, term):
        with pytest.raises(DomainError, match="not a monomial"):
            PlanarPolySystem({term: 1.0}, {(1, 0): 1.0})


class TestEquilibriumSeries:
    def test_canonical_head(self):
        sys = blow_up(CANONICAL, 0.07, 0.2)
        es = equilibrium_series(sys, 0.07)
        assert es.p[0] == pytest.approx(0.2, rel=1e-14)
        assert es.q[0] == pytest.approx(0.04, rel=1e-14)
        for k in (1, 2, 3):
            assert es.p[k] == pytest.approx(0.0, abs=1e-14)
            assert es.q[k] == pytest.approx(0.0, abs=1e-14)

    def test_canonical_prediction(self):
        sys = blow_up(CANONICAL, 0.05, 0.2)
        assert equilibrium_series(sys, 0.05).predict(0.05) == pytest.approx((0.2, 0.04))

    def test_order_four_accuracy(self):
        rng = np.random.default_rng(777)
        nf = random_record(rng)

        def gap(r):
            sys = blow_up(nf, r, 0.1)
            px, py = equilibrium_series(sys, r).predict(r)
            ex, ey = find_equilibrium(sys, (px, py))
            return math.hypot(ex - px, ey - py)

        ratio = gap(0.05) / gap(0.025)
        assert 10.0 < ratio < 24.0  # 2^4 = 16 up to higher-order drift

    @pytest.mark.parametrize("r", [1e-70, 1e-90])
    def test_underflowing_power_of_r_fails(self, r):
        # r^5 (and at 1e-90 r^4) underflows to 0: the hatting of n03 (and of
        # m03, n12) divides by zero, though the series reads none of them
        nf = _drawn_record(4, False)
        message = "^equilibrium series coefficient overflowed$"
        with pytest.raises(NumericsError, match=message):
            equilibrium_series(blow_up(nf, r, 0.1), r)
        with pytest.raises(NumericsError, match=message):
            hopf_lambda1(nf, r)

    def test_overflowing_power_of_r_fails(self):
        # r^4 is past the float range, and ** raises where * would give inf
        sys = blow_up(_drawn_record(4, False), 0.1, 0.1)
        with pytest.raises(NumericsError, match="^equilibrium series coefficient overflowed$"):
            equilibrium_series(sys, 1e100)

    def test_coefficient_past_the_range_fails(self):
        # p0 = -n00/n10 = -1e310 is past the float range: / gives -inf where a
        # power would raise, so only the finiteness test sees it
        sys = PlanarPolySystem({(0, 1): -1.0, (2, 0): 1.0}, {(0, 0): 1e150, (1, 0): 1e-160})
        with pytest.raises(NumericsError, match="^equilibrium series coefficient overflowed$"):
            equilibrium_series(sys, 0.1)

    @pytest.mark.parametrize("r", [0.0, -0.1, math.nan, math.inf])
    def test_radius_must_be_positive_and_finite(self, r):
        # r = 0 and NaN used to fail as a NumericsError in the hatting, and
        # r = -0.1 and r = inf to return a finite series
        sys = blow_up(_drawn_record(4, False), 0.1, 0.1)
        with pytest.raises(DomainError, match=r"^r must be positive and finite, got "):
            equilibrium_series(sys, r)

    def test_vanishing_denominator(self):
        fx = {(0, 1): -1.0, (2, 0): 1.0}
        fy = {(0, 1): 1.0}  # no x term: n10 = 0
        sys = PlanarPolySystem(fx, fy)
        with pytest.raises(DomainError):
            equilibrium_series(sys, 0.1)


class TestTranslate:
    def test_canonical_at_origin_unchanged(self):
        sys = blow_up(CANONICAL, 0.1, 0.0)
        centered = translate_to_equilibrium(sys, (0.0, 0.0))
        assert centered.fx == sys.fx
        assert centered.fy == sys.fy

    def test_linear_head_after_shift(self):
        sys = blow_up(CANONICAL, 0.1, 0.2)
        centered = translate_to_equilibrium(sys, (0.2, 0.04))
        # d/dx (-y + x^2) at x = 0.2
        assert centered.fx.get((1, 0), 0.0) == pytest.approx(0.4, rel=1e-13)

    def test_residual_gate(self):
        sys = blow_up(CANONICAL, 0.1, 0.2)
        with pytest.raises(DomainError):
            translate_to_equilibrium(sys, (0.21, 0.04))

    def test_point_must_have_two_entries(self):
        sys = blow_up(CANONICAL, 0.1, 0.2)
        with pytest.raises(DomainError, match=r"^point length 3 != nvars 2$"):
            translate_to_equilibrium(sys, (0.2, 0.04, 0.0))

    def test_centered_tables_order_r4(self):
        rng = np.random.default_rng(31337)
        nf = random_record(rng)
        e1 = centered_table_error(nf, 0.05)
        e2 = centered_table_error(nf, 0.025)
        assert e1 / e2 > 10.0
        assert e1 < 1e-3


class TestNormalizeLinear:
    def test_canonical_rotation(self):
        sys = blow_up(CANONICAL, 0.01, 0.0)
        centered = translate_to_equilibrium(sys, (0.0, 0.0))
        rot = normalize_linear(centered)
        assert abs(np.trace(_linear_part(rot))) < 1e-12
        assert rot.fx.get((1, 0), 0.0) == pytest.approx(0.0, abs=1e-14)
        # rotation speed (x-coefficient of the slow component)
        assert rot.fy.get((1, 0), 0.0) == pytest.approx(-1.0, rel=1e-12)

    def test_trace_and_det_preserved(self):
        rng = np.random.default_rng(999)
        for _ in range(10):
            nf = random_record(rng)
            r = float(rng.uniform(0.02, 0.1))
            sys = blow_up(nf, r, float(rng.uniform(-0.5, 0.5)))
            centered = translate_to_equilibrium(sys, series_equilibrium(sys, r))
            J0 = _linear_part(centered)
            J1 = _linear_part(normalize_linear(centered))
            assert np.trace(J1) == pytest.approx(np.trace(J0), abs=1e-12)
            assert np.linalg.det(J1) == pytest.approx(np.linalg.det(J0), rel=1e-12)

    def test_rotation_structure_and_eigenvalues(self):
        rng = np.random.default_rng(1001)
        nf = random_record(rng)
        r = 0.06
        sys = blow_up(nf, r, 0.05)
        centered = translate_to_equilibrium(sys, series_equilibrium(sys, r))
        J = _linear_part(normalize_linear(centered))
        scale = abs(J[0, 1]) + abs(J[1, 0])
        assert abs(J[0, 0] - J[1, 1]) < 1e-12 * scale
        assert abs(J[0, 1] + J[1, 0]) < 1e-12 * scale
        a, b = J[0, 0], J[1, 0]
        eig = sorted(np.linalg.eigvals(J), key=lambda z: z.imag)
        want = sorted([complex(a, b), complex(a, -b)], key=lambda z: z.imag)
        for got, w in zip(eig, want):
            assert abs(got - w) < 1e-10 * max(1.0, abs(w))

    def test_real_eigenvalues_rejected(self):
        sys = PlanarPolySystem({(1, 0): 1.0}, {(0, 1): 1.0})
        with pytest.raises(DomainError):
            normalize_linear(sys)

    def test_zero_m01_pivot_rejected(self):
        # with m01 = 0 the discriminant is -(m10 - n01)^2 <= 0, but with m10
        # and n01 adjacent floats it rounds to a positive value
        sys = PlanarPolySystem({(1, 0): 1.6510223091108869},
                               {(1, 0): 1.0, (0, 1): 1.651022309110887})
        with pytest.raises(DomainError, match="m01 != 0"):
            normalize_linear(sys)


class TestHopfLambda1:
    def test_canonical_is_zero(self):
        for r in (0.02, 0.1, 0.2):
            assert abs(hopf_lambda1(CANONICAL, r)) < 1e-12

    def test_pure_c10_tends_to_rho1(self):
        nf = NormalFormCoefficients(c10=1.0)
        lam = hopf_lambda1(nf, 0.01)
        assert lam / 0.01 == pytest.approx(-0.5, abs=1e-3)

    def test_even_coefficient_vanishes(self):
        # power 5 in the basis keeps the O(r^5) tail out of the r^2 slot
        rng = np.random.default_rng(2024)
        nf = random_record(rng)
        rs = [0.02 + 0.01 * k for k in range(9)]
        samples = [(r, hopf_lambda1(nf, r)) for r in rs]
        coeffs, _ = fit_odd_series(samples, [1, 2, 3, 5])
        assert abs(coeffs[1]) < 1e-6 * max(1.0, abs(coeffs[0]))
        rho = rho_coefficients(nf)
        assert coeffs[0] == pytest.approx(rho.rho1, rel=1e-6)
        assert coeffs[2] == pytest.approx(rho.rho3, rel=1e-3)

    def test_r_range_enforced(self):
        with pytest.raises(DomainError):
            hopf_lambda1(CANONICAL, 0.0)
        with pytest.raises(DomainError):
            hopf_lambda1(CANONICAL, 0.25)


class TestLyapunovDF:
    def test_cubic_fast_term(self):
        sigma = 0.7
        sys = PlanarPolySystem({(0, 1): -1.0, (3, 0): sigma}, {(1, 0): 1.0})
        assert lyapunov_DF(sys) == pytest.approx(6.0 * sigma / 16.0, rel=1e-14)

    def test_linear_center(self):
        sys = PlanarPolySystem({(0, 1): -1.0}, {(1, 0): 1.0})
        assert lyapunov_DF(sys) == 0.0

    def test_quadratic_cross_terms(self):
        sys = PlanarPolySystem({(0, 1): -1.0, (2, 0): 1.0, (1, 1): 1.0}, {(1, 0): 1.0})
        assert lyapunov_DF(sys) == pytest.approx(0.125, rel=1e-14)

    def test_trace_gate(self):
        sys = PlanarPolySystem({(1, 0): 1e-6, (0, 1): -1.0}, {(1, 0): 1.0})
        with pytest.raises(DomainError):
            lyapunov_DF(sys)

    def test_zero_rotation_rejected(self):
        sys = PlanarPolySystem({(0, 1): -1.0}, {(0, 2): 1.0})
        with pytest.raises(DomainError):
            lyapunov_DF(sys)

    def test_overflow_raises(self):
        # finite coefficients whose quadratic products pass the float range
        sys = PlanarPolySystem({(0, 1): -1.0, (2, 0): 1e300, (1, 1): 1e300}, {(1, 0): 1.0})
        with pytest.raises(NumericsError, match="overflowed"):
            lyapunov_DF(sys)


class TestL1Blowup:
    def test_canonical_vanishes(self):
        for r in (0.05, 0.1):
            assert abs(l1_blowup(CANONICAL, r)) < 1e-13

    def test_pure_b10_leading_coefficient(self):
        nf = NormalFormCoefficients(b10=1.0)
        grid = (0.02, 0.04, 0.06, 0.08, 0.10)
        samples = [(r, l1_blowup(nf, r)) for r in grid]
        coeffs, _ = fit_odd_series(samples, [1, 3])
        assert coeffs[0] == pytest.approx(3.0 / 16.0, rel=1e-3)

    def test_branch_ratio_identity(self):
        # a frame pivoting on n10 (built by the jet ops) rescales L1 by
        # |m01_bar / n10_bar|; the two frames' values are not equal
        rng = np.random.default_rng(60601)
        nf = sample_record(rng)
        r = 0.08
        lam = hopf_lambda1(nf, r)
        sys = blow_up(nf, r, lam)
        centered = translate_to_equilibrium(sys, series_equilibrium(sys, r))
        l1_m01 = lyapunov_DF(normalize_linear(centered))
        fx, fy = _reference_rotated(centered, pivot="n10")
        l1_n10 = lyapunov_DF(PlanarPolySystem(fx.coeffs, fy.coeffs))
        ratio = abs(centered.fx[(0, 1)] / centered.fy[(1, 0)])
        assert l1_n10 / l1_m01 == pytest.approx(ratio, rel=1e-9)
        assert l1_n10 / l1_m01 > 0.0

    def test_degenerate_record_cubic_coefficient(self):
        rng = np.random.default_rng(88)
        nf = sample_record(rng, constrain_omega1=True)
        om = omega_coefficients(nf)
        assert abs(om.omega1) < 1e-15
        grid = [0.02 * k for k in range(1, 9)]
        samples = [(r, l1_blowup(nf, r)) for r in grid]
        coeffs, _ = fit_odd_series(samples, [1, 3, 5, 7])
        assert coeffs[1] == pytest.approx(om.omega2 / 32.0, rel=1e-2)


class TestFitOddSeries:
    def test_exact_linear(self):
        samples = [(r, 2.0 * r) for r in (0.1, 0.2, 0.3, 0.4)]
        coeffs, residual = fit_odd_series(samples, [1, 3])
        assert coeffs[0] == pytest.approx(2.0, rel=1e-13)
        assert abs(coeffs[1]) < 1e-12
        assert residual < 1e-14

    def test_exact_cubic(self):
        samples = [(r, r + 0.5 * r ** 3) for r in (0.05, 0.1, 0.15, 0.2, 0.25)]
        coeffs, _ = fit_odd_series(samples, [1, 3])
        assert coeffs[0] == pytest.approx(1.0, rel=1e-12)
        assert coeffs[1] == pytest.approx(0.5, rel=1e-10)

    def test_noise_robustness(self):
        rng = np.random.default_rng(5)
        rs = np.linspace(0.05, 0.4, 12)
        samples = [(float(r), float(0.7 * r - 0.3 * r ** 3 + rng.normal(0.0, 1e-10)))
                   for r in rs]
        coeffs, _ = fit_odd_series(samples, [1, 3])
        assert coeffs[0] == pytest.approx(0.7, abs=1e-8)
        assert coeffs[1] == pytest.approx(-0.3, abs=1e-7)

    def test_sample_count_gate(self):
        with pytest.raises(DomainError):
            fit_odd_series([(0.1, 0.1), (0.2, 0.2), (0.3, 0.3)], [1, 3])

    def test_distinct_r_required(self):
        with pytest.raises(DomainError):
            fit_odd_series([(0.1, 0.1), (0.1, 0.2), (0.3, 0.3), (0.4, 0.4)], [1, 3])

    def test_rank_deficiency(self):
        samples = [(r, r) for r in (0.1, 0.2, 0.3, 0.4)]
        with pytest.raises(NumericsError):
            fit_odd_series(samples, [1, 1])

    def test_underflowing_column(self):
        # r^3 of radii near 1e-200 underflows to 0: no scale can restore that column
        samples = [(k * 1e-200, k * 1e-200) for k in (1.0, 2.0, 3.0, 4.0)]
        with pytest.raises(NumericsError, match=r"^design matrix has a zero column"):
            fit_odd_series(samples, [1, 3])


class TestSampleRecord:
    def test_deterministic_and_well_conditioned(self):
        nf1 = sample_record(np.random.default_rng(3))
        nf2 = sample_record(np.random.default_rng(3))
        assert nf1 == nf2
        lam = hopf_lambda1(nf1, 0.1)
        sys = blow_up(nf1, 0.1, lam)
        centered = translate_to_equilibrium(sys, series_equilibrium(sys, 0.1))
        J = _linear_part(centered)
        disc = 4.0 * np.linalg.det(J) - np.trace(J) ** 2
        assert disc > 0.05

    def test_constrained_sampling(self):
        nf = sample_record(np.random.default_rng(17), constrain_omega1=True)
        assert abs(omega_coefficients(nf).omega1) < 1e-15

    @staticmethod
    def _per_coefficient_draws(rng, constrain_omega1):
        """sample_record as it was written, with one generator call per
        coefficient and a second solve for its acceptance test (hopf_lambda1,
        blow_up, find_equilibrium): the reference for its single vector draw
        and for its reading of the linear part off the Hopf solve itself."""
        for _ in range(200):
            vals = {name: float(rng.uniform(-1.0, 1.0)) for name in COEFF_NAMES}
            if constrain_omega1:
                vals["a10"] = 3.0 * vals["b10"] - 2.0 * vals["d10"] - 2.0 * vals["f00"]
            nf = NormalFormCoefficients.from_dict(vals)
            try:
                lam = hopf_lambda1(nf, 0.1)
                sys = blow_up(nf, 0.1, lam)
                x, y = series_equilibrium(sys, 0.1)
            except (DomainError, NumericsError):
                continue
            m10, m01 = _partials(sys.fx, x, y)[1:3]
            n10, n01 = _partials(sys.fy, x, y)[1:3]
            disc = 4.0 * (m10 * n01 - m01 * n10) - (m10 + n01) ** 2
            if 0.05 < disc < math.inf:
                return nf
        raise NumericsError("no acceptable record in 200 draws")

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), constrained=st.booleans())
    def test_vector_draw_equals_per_coefficient_draws(self, seed, constrained):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        nf = sample_record(rng, constrain_omega1=constrained)
        assert asdict(nf) == asdict(self._per_coefficient_draws(ref_rng, constrained))
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("constrained", [False, True])
    def test_one_draw_and_no_hopf_solve(self, constrained, monkeypatch):
        # a record is one generator call and the constructor: no solve or
        # other stage runs, and a draw whose Hopf solve would fail is the
        # record all the same; the next record is the generator's next draw
        def stage(*args):
            raise AssertionError("sample_record ran a stage")

        for name in ("_hopf_point", "_partials", "find_equilibrium", "equilibrium_series",
                     "hopf_lambda1", "blow_up"):
            monkeypatch.setattr(f"canard.blowup.{name}", stage)
        huge = np.full(len(COEFF_NAMES), 1e300)
        rng = _ScriptedDraws([huge], np.random.default_rng(3))
        nf = sample_record(rng, constrained)
        a10 = 3.0 * 1e300 - 2.0 * 1e300 - 2.0 * 1e300 if constrained else 1e300
        assert asdict(nf) == dict(zip(COEFF_NAMES, huge.tolist()), a10=a10)
        assert _outcome(_hopf_point, nf, 0.1) in (DomainError, NumericsError)
        assert sample_record(rng, constrained) == _drawn_record(3, constrained)
        assert rng.draws == 2

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.one_of(st.floats(-1.0, 1.0), st.sampled_from((-1.0, 1.0))),
                           min_size=len(COEFF_NAMES), max_size=len(COEFF_NAMES)),
           constrained=st.booleans())
    # the corners of both strata, and the corner of smallest 4N - M^2 (3.753)
    # that a local search over the corners found
    @example(values=[1.0] * len(COEFF_NAMES), constrained=False)
    @example(values=[-1.0] * len(COEFF_NAMES), constrained=True)
    @example(values=[1.0 if name[0] == "e" or name in ("c01", "c11", "c02", "c21", "c12", "c03")
                     else -1.0 for name in COEFF_NAMES], constrained=False)
    def test_every_draw_of_the_box_has_a_well_posed_hopf_point(self, values, constrained):
        # what sample_record's acceptance test checked: the r = 0.1 Hopf solve
        # succeeds, with complex eigenvalues clear of a double root
        nf = sample_record(_ScriptedDraws([np.array(values)], None), constrained)
        _, (x, y), (fx, fy) = _hopf_point(nf, 0.1)
        m10, m01 = _partials(fx, x, y, _ORDER1)[1:]
        n10, n01 = _partials(fy, x, y, _ORDER1)[1:]
        assert 4.0 * (m10 * n01 - m01 * n10) - (m10 + n01) ** 2 > 0.05


class _ScriptedDraws:
    """A generator whose uniform() gives the scripted draws, then those of rng;
    draws counts the calls."""

    def __init__(self, script, rng):
        self.script, self.rng, self.draws = list(script), rng, 0

    def uniform(self, low, high, size):
        self.draws += 1
        return self.script.pop(0) if self.script else self.rng.uniform(low, high, size)


with open(Path(__file__).parent / "data" / "golden_oracle.json", "r",
          encoding="utf-8") as _fh:
    GOLDEN_ORACLE = json.load(_fh)
with open(Path(__file__).parent / "data" / "golden_oracle_bits.json", "r",
          encoding="utf-8") as _fh:
    GOLDEN_BITS = json.load(_fh)


def _golden_record(index):
    return NormalFormCoefficients.from_dict(GOLDEN_ORACLE["records"][index]["coeffs"])


def _rel(got, want):
    return abs(got - want) / abs(want)


class TestGoldenOracle:
    """The oracle against outputs recorded with the nested solvers it has since
    replaced, a central-difference Newton in lambda1 around a Horner-evaluated
    equilibrium Newton; the one joint Newton in (x, y, lambda1) must match them."""

    def test_records_are_the_verify_draws(self):
        rng = np.random.default_rng(GOLDEN_ORACLE["seed"])
        for rec in GOLDEN_ORACLE["records"]:
            nf = sample_record(rng, constrain_omega1=(rec["kind"] == "omega2"))
            assert asdict(nf) == rec["coeffs"]

    @pytest.mark.parametrize("index", range(len(GOLDEN_ORACLE["records"])))
    def test_fits(self, index):
        rec = GOLDEN_ORACLE["records"][index]
        nf, want = _golden_record(index), rec["fit"]
        if rec["kind"] == "omega1":
            assert _rel(fit_l1_omega1(nf), want["c1"]) < 1e-9
        elif rec["kind"] == "omega2":
            c3, even0, even2 = fit_l1_omega2(nf)
            assert _rel(c3, want["c3"]) < 1e-9
            # noise-level terms: absolute
            assert abs(even0 - want["even0"]) < 1e-12
            assert abs(even2 - want["even2"]) < 1e-12
        else:
            c0, c1, c2 = fit_rho(nf)
            assert _rel(c0, want["c0"]) < 1e-9
            assert abs(c1 - want["c1"]) < 1e-12
            assert _rel(c2, want["c2"]) < 1e-9

    def test_bits_of_the_per_iterate_solve(self):
        # float.hex pins recorded when the Hopf solve built one system per Newton
        # iterate: the oracle's float operations and their order must not move
        assert len(GOLDEN_BITS["points"]) == len(GOLDEN_ORACLE["points"])
        for pt, want in zip(GOLDEN_ORACLE["points"], GOLDEN_BITS["points"]):
            assert (want["record"], want["r"]) == (pt["record"], pt["r"])
            nf = _golden_record(pt["record"])
            assert float.hex(hopf_lambda1(nf, pt["r"])) == want["hopf_lambda1"]
            assert float.hex(l1_blowup(nf, pt["r"])) == want["l1_blowup"]
        fits = {"omega1": lambda nf: [fit_l1_omega1(nf)], "omega2": fit_l1_omega2,
                "rho": fit_rho}
        assert len(GOLDEN_BITS["fits"]) == len(GOLDEN_ORACLE["records"])
        for index, (rec, want) in enumerate(zip(GOLDEN_ORACLE["records"],
                                                GOLDEN_BITS["fits"])):
            assert want["kind"] == rec["kind"]
            got = fits[rec["kind"]](_golden_record(index))
            assert [float.hex(v) for v in got] == want["values"]

    def test_hopf_and_l1_points(self):
        assert len(GOLDEN_ORACLE["points"]) == 40
        for pt in GOLDEN_ORACLE["points"]:
            nf = _golden_record(pt["record"])
            assert _rel(hopf_lambda1(nf, pt["r"]), pt["hopf_lambda1"]) < 1e-12
            assert _rel(l1_blowup(nf, pt["r"]), pt["l1_blowup"]) < 1e-12


def _drawn_record(seed, constrained):
    return sample_record(np.random.default_rng(seed), constrain_omega1=constrained)


class TestNewtonProperties:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), constrained=st.booleans(),
           r=st.floats(0.005, 0.2), offset=st.floats(-1.0, 1.0))
    # fxy + gyy cancels to -6.2e-8 from addends of 2.4e-3
    @example(seed=325894, constrained=False, r=0.10841460844238206, offset=0.0)
    # fx's x-partial cancels to -2.4e-8 from addends of 0.14
    @example(seed=3051, constrained=False, r=0.07983811675154238, offset=-1.0)
    def test_joint_jacobian_matches_central_difference(self, seed, constrained,
                                                       r, offset):
        nf = _drawn_record(seed, constrained)
        lam = rho_coefficients(nf).rho1 * r + offset * r * r
        dn = _lambda1_slopes(nf, r)
        sys = blow_up(nf, r, lam)
        point = [*equilibrium_series(sys, r).predict(r), lam]

        def residual(x, y, lam):
            at = blow_up(nf, r, lam)
            return hopf_system(at.fx, at.fy, dn, x, y)[0]
        jac = hopf_system(sys.fx, sys.fy, dn, *point[:2])[1]
        # the x and y entries are sums that can cancel: those of rows 0 and 1
        # over the table's terms, the trace row's fxx + gxy and fxy + gyy; the
        # central difference's error scales with their addends, for rows 0 and
        # 1 the partials of the |coefficient| table at (|x|, |y|)
        _, _, _, fxx, fxy, _ = _partials(sys.fx, *point[:2])
        _, _, _, _, gxy, gyy = _partials(sys.fy, *point[:2])
        size = {(2, 0): abs(fxx) + abs(gxy), (2, 1): abs(fxy) + abs(gyy)}
        for row, table in enumerate((sys.fx, sys.fy)):
            addends = _partials({k: abs(c) for k, c in table.items()},
                                abs(point[0]), abs(point[1]))
            size[row, 0], size[row, 1] = addends[1:3]
        if (seed, r) == (3051, 0.07983811675154238):
            # the wider allowance must not hide a wrong entry: the cancelling
            # entry is the exact partial to a few ulps of its addend sum
            x, y = (Fraction(v) for v in point[:2])
            exact = sum(i * Fraction(c) * x ** (i - 1) * y ** j
                        for (i, j), c in sys.fx.items() if i)
            assert abs(Fraction(jac[0][0]) - exact) <= 4 * Fraction(math.ulp(size[0, 0]))
        # F is affine in lambda1, the trace quadratic in (x, y) and the y^3 terms
        # of fx, fy O(r^4): the wider y and lambda1 steps add no truncation error
        # to speak of and keep rounding off the small entries, p_y = O(r^2)
        for col, step in enumerate((1e-6, 1e-4, 1e-2)):
            h = step * max(1.0, abs(point[col]))
            up, down = list(point), list(point)
            up[col] += h
            down[col] -= h
            for row, (fu, fd) in enumerate(zip(residual(*up), residual(*down))):
                central = (fu - fd) / (2.0 * h)
                allowed = 1e-6 * size.get((row, col), abs(central))
                assert abs(jac[row][col] - central) <= allowed

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), constrained=st.booleans(),
           r=st.floats(0.005, 0.2))
    def test_hopf_lambda1_is_a_hopf_point(self, seed, constrained, r):
        nf = _drawn_record(seed, constrained)
        lam = hopf_lambda1(nf, r)
        sys = blow_up(nf, r, lam)
        centered = translate_to_equilibrium(sys, series_equilibrium(sys, r))
        assert abs(np.trace(_linear_part(centered))) / 2.0 < 1e-12
        rotated = normalize_linear(centered)
        assert abs(np.trace(_linear_part(rotated))) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), constrained=st.booleans(),
           r=st.floats(0.005, 0.2))
    def test_hopf_point_is_the_equilibrium_of_its_table(self, seed, constrained, r):
        # l1_blowup reuses the solver's (x, y) and table: they must be the root
        # find_equilibrium gives at the returned lambda1, not some other root
        nf = _drawn_record(seed, constrained)
        lam, (x, y), tables = _hopf_point(nf, r)
        sys = blow_up(nf, r, lam)
        assert [list(t.items()) for t in tables] == [list(sys.fx.items()), list(sys.fy.items())]
        ex, ey = series_equilibrium(sys, r)
        assert abs(x - ex) < 1e-12 and abs(y - ey) < 1e-12
        fx, fy = Jet(2, _DEGREE, sys.fx), Jet(2, _DEGREE, sys.fy)
        assert max(abs(jet_eval(fx, (x, y))), abs(jet_eval(fy, (x, y)))) < 1e-12
        centered = translate_to_equilibrium(sys, (x, y))
        assert abs(np.trace(_linear_part(centered))) < 1e-12

    def test_singular_bordered_jacobian_raises(self):
        # m20 = 1 + r^2 c20 = 0 exactly at r = 1/8: the fast nullcline has no
        # fold, so j11 = fxx + gxy = fxy + gyy = 0 and the determinant vanishes
        nf = NormalFormCoefficients(c20=-64.0)
        with pytest.raises(NumericsError, match="singular Jacobian"):
            hopf_lambda1(nf, 0.125)

    @pytest.mark.parametrize("r", [0.005, 0.05, 0.1])
    def test_non_finite_iterate_raises(self, r):
        # the seed's tables are finite, but the first Newton step sends lambda1
        # past the float range: the rebuilt slow table is checked like a system's
        nf = replace(_drawn_record(3, False), f02=1e300)
        blow_up(nf, r, rho_coefficients(nf).rho1 * r)
        with pytest.raises(DomainError, match=r"non-finite coefficient at \(0, 0\)"):
            hopf_lambda1(nf, r)

    @pytest.mark.parametrize("coeffs", [{"c10": 1e300}, {"f00": 1e200}])
    def test_huge_record_raises_numerics_error(self, coeffs):
        # a float power in the equilibrium series passes the float range
        with pytest.raises(NumericsError, match="equilibrium series"):
            hopf_lambda1(NormalFormCoefficients(**coeffs), 0.005)

    @settings(max_examples=100, deadline=None)
    @given(coeffs=st.dictionaries(
               st.sampled_from(COEFF_NAMES),
               st.builds(lambda sign, e: sign * 10.0 ** e,
                         st.sampled_from((-1.0, 1.0)), st.floats(10.0, 300.0)),
               min_size=1, max_size=3),
           r=st.floats(0.0, 0.2, exclude_min=True))
    def test_extreme_records_fail_typed(self, coeffs, r):
        nf = NormalFormCoefficients(**coeffs)
        for oracle in (hopf_lambda1, l1_blowup):
            try:
                value = oracle(nf, r)
            except (DomainError, NumericsError):
                continue
            assert math.isfinite(value)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), constrained=st.booleans(),
           r=st.floats(0.005, 0.2), offset=st.floats(-1.0, 1.0))
    def test_equilibrium_residual(self, seed, constrained, r, offset):
        nf = _drawn_record(seed, constrained)
        sys = blow_up(nf, r, rho_coefficients(nf).rho1 * r + offset * r * r)
        eq = series_equilibrium(sys, r)
        fx, fy = Jet(2, _DEGREE, sys.fx), Jet(2, _DEGREE, sys.fy)
        assert max(abs(jet_eval(fx, eq)), abs(jet_eval(fy, eq))) < 1e-12

    def test_equilibrium_polishes_after_meeting_tol(self, monkeypatch):
        # with _TOL = 1 the guess already passes, so only the polishing step moves it
        monkeypatch.setattr("canard.blowup._TOL", 1.0)
        nf = _drawn_record(11, False)
        sys = blow_up(nf, 0.1, 0.05)
        guess = equilibrium_series(sys, 0.1).predict(0.1)
        eq = find_equilibrium(sys, guess)
        fx, fy = Jet(2, _DEGREE, sys.fx), Jet(2, _DEGREE, sys.fy)

        def res(p):
            return max(abs(jet_eval(fx, p)), abs(jet_eval(fy, p)))
        assert eq != guess
        assert res(eq) < 1e-3 * res(guess)

    def test_hopf_lambda1_polishes_after_meeting_tol(self, monkeypatch):
        # with _TOL = 1 the seed (rho1*r, series head) already passes; the answer
        # is one joint Newton step on
        monkeypatch.setattr("canard.blowup._TOL", 1.0)
        nf = _drawn_record(11, False)
        r = 0.1
        dn = _lambda1_slopes(nf, r)
        lam0 = rho_coefficients(nf).rho1 * r
        sys0 = blow_up(nf, r, lam0)
        seed = equilibrium_series(sys0, r).predict(r)
        f0, jac = hopf_system(sys0.fx, sys0.fy, dn, *seed)
        step = np.linalg.solve(np.array(jac), np.array(f0))
        lam, (x, y), (fx, fy) = _hopf_point(nf, r)
        assert hopf_lambda1(nf, r) == lam
        assert [x, y, lam] == pytest.approx([seed[0] - step[0], seed[1] - step[1],
                                             lam0 - step[2]], rel=1e-12, abs=0.0)
        f1 = hopf_system(fx, fy, dn, x, y)[0]
        assert max(map(abs, f1)) < 1e-3 * max(map(abs, f0))


def _reference_centered(sys, eq):
    """translate_to_equilibrium's terms by the generic jet op."""
    return [[(k, v) for k, v in jet_recenter(Jet(2, _DEGREE, f), eq).coeffs.items()
             if k != (0, 0)] for f in (sys.fx, sys.fy)]


def _reference_rotated(sys, pivot="m01", invert=None):
    """normalize_linear's jets by jet_compose, jet_scale and jet_add, with the
    same T, T^-1 and rejections as normalize_linear, or T^-1 = invert(T).
    pivot="n10" gives the rotation form in the other frame, the one
    normalize_linear does not use, with T^-1 from np.linalg.inv."""
    m10, m01 = sys.fx.get((1, 0), 0.0), sys.fx.get((0, 1), 0.0)
    n10, n01 = sys.fy.get((1, 0), 0.0), sys.fy.get((0, 1), 0.0)
    # x * x, not x ** 2: pow() is not always correctly rounded
    disc = 4.0 * (m10 * n01 - m01 * n10) - (m10 + n01) * (m10 + n01)
    if disc <= 0.0 or (n10 if pivot == "n10" else m01) == 0.0:
        raise DomainError("no rotation form in this frame")
    s = math.sqrt(disc)
    rt2 = math.sqrt(2.0)
    if pivot == "n10":
        T = np.array([[-rt2 * n10, rt2 * (m10 - n01) / 2.0], [0.0, rt2 / 2.0 * s]])
        invert = invert or np.linalg.inv
    else:
        T = np.array([[rt2 * (n01 - m10) / 2.0, -rt2 * m01], [rt2 / 2.0 * s, 0.0]])
    Tinv = invert(T) if invert else np.array(
        [[0.0, 1.0 / T[1, 0]], [1.0 / T[0, 1], -T[0, 0] / (T[0, 1] * T[1, 0])]])
    subs = [Jet(2, _DEGREE, {(1, 0): Tinv[i, 0], (0, 1): Tinv[i, 1]}) for i in (0, 1)]
    fz1, fz2 = (jet_compose(Jet(2, _DEGREE, f), subs) for f in (sys.fx, sys.fy))
    return [jet_add(jet_scale(fz1, T[i, 0]), jet_scale(fz2, T[i, 1])) for i in (0, 1)]


def _assert_kernels_match(sys, eq):
    centered = translate_to_equilibrium(sys, eq)
    got = [list(f.items()) for f in (centered.fx, centered.fy)]
    assert got == _reference_centered(sys, eq)
    try:
        want = _reference_rotated(centered)
    except DomainError:
        with pytest.raises(DomainError):
            normalize_linear(centered)
        return
    rotated = normalize_linear(centered)
    assert rotated.fx == want[0].coeffs
    assert rotated.fy == want[1].coeffs


def _random_planar_system(seed, sparse=False):
    """Two planar jets with every monomial up to _DEGREE populated by a uniform
    coefficient (with sparse, about a third of the nonlinear ones), in a random
    insertion order, a linear part with complex eigenvalues, and a random centre
    that the constant terms put on the zero set of both components."""
    rng = np.random.default_rng(seed)
    x0, y0 = (float(v) for v in rng.uniform(-1.5, 1.5, 2))
    rot, diag = rng.uniform(0.5, 2.0, 2), rng.uniform(-0.4, 0.4, 2)
    keys = [(i, n - i) for n in range(_DEGREE + 1) for i in range(n + 1) if n != 1]
    tables = []
    for linear in ({(1, 0): diag[0], (0, 1): -rot[0]}, {(1, 0): rot[1], (0, 1): diag[1]}):
        items = [(keys[k], float(rng.uniform(-2.0, 2.0))) for k in rng.permutation(len(keys))]
        if sparse:
            items = [item for item, keep in zip(items, rng.random(len(items)) < 0.35) if keep]
        at = int(rng.integers(0, len(items) + 1))
        items[at:at] = [(k, float(v)) for k, v in linear.items()]
        f = dict(items)
        f[(0, 0)] = 0.0
        f[(0, 0)] = -jet_eval(Jet(2, _DEGREE, f), (x0, y0))
        tables.append(f)
    return PlanarPolySystem(tables[0], tables[1]), (x0, y0)


class TestFlatKernels:
    """translate_to_equilibrium and normalize_linear run on private flat kernels;
    their jets must equal those of the generic jet ops bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), constrained=st.booleans(),
           r=st.floats(0.005, 0.2), offset=st.floats(-1.0, 1.0))
    def test_drawn_records(self, seed, constrained, r, offset):
        nf = _drawn_record(seed, constrained)
        sys = blow_up(nf, r, rho_coefficients(nf).rho1 * r + offset * r * r)
        _assert_kernels_match(sys, series_equilibrium(sys, r))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_random_jets_and_centres(self, seed):
        sys, centre = _random_planar_system(seed)
        _assert_kernels_match(sys, centre)
        # the rotation on the system itself, whose linear part is the drawn one
        want = _reference_rotated(sys)
        got = normalize_linear(sys)
        assert (got.fx, got.fy) == (want[0].coeffs, want[1].coeffs)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_sparse_jets_and_centres(self, seed):
        # a sparse layout's first output keys can come from any term, not the
        # linear ones
        sys, centre = _random_planar_system(seed, sparse=True)
        _assert_kernels_match(sys, centre)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_explicit_inverse_is_lapacks_to_rounding(self, seed):
        # normalize_linear writes T^-1 out; np.linalg.inv(T) differs from it
        # by rounding only
        sys, _ = _random_planar_system(seed)
        got = normalize_linear(sys)
        want = _reference_rotated(sys, invert=np.linalg.inv)
        for g, w in ((got.fx, want[0].coeffs), (got.fy, want[1].coeffs)):
            scale = max(abs(v) for v in w.values())
            assert g.keys() == w.keys()
            assert all(abs(g[k] - w[k]) <= 1e-13 * scale for k in w)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_substitution_kernel_with_two_full_forms(self, seed):
        # normalize_linear's T^-1 has a zero entry, so one of its linear forms
        # is a monomial; full forms show the summation order of jet_compose too.
        # With the monomial form 0 u + b v each power has one nonzero entry and
        # the kernel skips the products of the others
        sys, _ = _random_planar_system(seed)
        a, b, c, d = (float(v) for v in np.random.default_rng([seed, 1]).uniform(-2.0, 2.0, 4))
        for first in ((a, b), (0.0, b)):
            subs = [Jet(2, _DEGREE, {(1, 0): first[0], (0, 1): first[1]}),
                    Jet(2, _DEGREE, {(1, 0): c, (0, 1): d})]
            got = _substitute_linear(sys.fy, _linear_powers(*first), _linear_powers(c, d))
            if first[0] == 0.0:
                # the sums that got only skipped products stay +0.0; the jet drops them
                assert all(math.copysign(1.0, v) == 1.0 for v in got.values() if v == 0.0)
                got = {k: v for k, v in got.items() if v != 0.0}
            assert got == jet_compose(Jet(2, _DEGREE, sys.fy), subs).coeffs

    def test_recentering_overflow_raises(self):
        # the residual is exactly 0, but the (0, 1) term of the recentred fast
        # component, 2.5 * 2^1023, overflows
        big = 2.0 ** 1023
        fx = {(0, 0): -1.5625 * big, (0, 2): big}
        fy = {(1, 0): 1.0}
        sys = PlanarPolySystem(fx, fy)
        with pytest.raises(DomainError, match="non-finite"):
            jet_recenter(Jet(2, 4, fx), (0.0, 1.25))
        with pytest.raises(DomainError, match="non-finite"):
            translate_to_equilibrium(sys, (0.0, 1.25))

    def test_recentring_power_overflow_raises(self):
        # the residual at (0, 1e100) is exactly 0; the centre's fourth power
        # overflows, but no term needs it, so the kernel agrees with the jet op
        sys = PlanarPolySystem({(1, 0): 1.0}, {(1, 0): 1.0})
        centered = translate_to_equilibrium(sys, (0.0, 1e100))
        got = [list(f.items()) for f in (centered.fx, centered.fy)]
        assert got == _reference_centered(sys, (0.0, 1e100))
        # a power a term needs overflows in the kernel's float pow, but the
        # public paths never get there: the residual gate takes the power as
        # a product, which is inf, and fails first
        sys = PlanarPolySystem({(0, 3): 1.0}, {(1, 0): 1.0})
        with pytest.raises(OverflowError):
            _recenter(sys.fx, 0.0, 1e150)
        for path in (translate_to_equilibrium, _one_pass):
            with pytest.raises(DomainError,
                               match=r"^residual at proposed equilibrium is inf > 1e-10$"):
                path(sys, (0.0, 1e150))

    @pytest.mark.parametrize("e", [2, 3, 4])
    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_residual_gate_meets_every_overflowing_power_first(self, e, axis, sign):
        # every centre within 256 ulps of where the e-th power leaves the float
        # range, in a table whose constant cancels the power's product form so
        # that the residual is 0 wherever that product is finite: the centre's
        # pow overflows only where the product does, so the public path
        # recentres or fails its residual gate, and never meets the overflow
        v = sign * _FLOAT_MAX ** (1.0 / e)
        for _ in range(256):
            v = math.nextafter(v, 0.0)
        for _ in range(512):
            p = v * v if e == 2 else v * v * v if e == 3 else v * v * v * v
            term = (e, 0) if axis == 0 else (0, e)
            centre = (v, 0.0) if axis == 0 else (0.0, v)
            fx = {(0, 0): -0.5 * p, term: 0.5} if math.isfinite(p) else {term: 0.5}
            sys = PlanarPolySystem(fx, {(1, 0): 1.0})
            try:
                v ** e
            except OverflowError:
                with pytest.raises(DomainError, match="^residual at proposed equilibrium"):
                    translate_to_equilibrium(sys, centre)
            else:  # recentred, or a typed error
                _outcome(translate_to_equilibrium, sys, centre)
            v = math.nextafter(v, math.copysign(math.inf, v))

    def test_rotation_overflow_raises(self):
        # small pivots make T^-1 large, and the cubic terms overflow under it
        fx = {(0, 1): -1e-3, (3, 0): 1e307, (1, 2): 1e307}
        fy = {(1, 0): 1e-3, (0, 3): 1e307}
        sys = PlanarPolySystem(fx, fy)
        with pytest.raises(DomainError, match="non-finite"):
            _reference_rotated(sys)
        with pytest.raises(DomainError, match="non-finite"):
            normalize_linear(sys)

    @pytest.mark.parametrize("point", [(math.nan, 0.0), (0.0, math.nan),
                                       (math.inf, 0.0), (0.0, -math.inf)])
    def test_residual_gate_rejects_non_finite_points(self, point):
        sys = blow_up(_drawn_record(5, False), 0.1, 0.0)
        with pytest.raises(DomainError, match="residual at proposed equilibrium"):
            translate_to_equilibrium(sys, point)


def _full_partials(coeffs, x, y, sums=_ORDER2):
    """The sums of _partials, picked from all six, over every term with every
    multiplier, zero or not, from power tables that lead with two zeros:
    px[i + 2 - k] = x^(i-k), 0 if i < k."""
    px, py = [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]
    for _ in range(_DEGREE):
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
    full = dict(zip(_ORDER2, (v, vx, vy, vxx, vxy, vyy)))
    return tuple(full[d] for d in sums)


def _bits(values):
    return [float.hex(v) for v in values]


def _outcome(fn, *args):
    """repr of what fn returns, or the type of the typed error it raises."""
    try:
        return repr(fn(*args))
    except (DomainError, NumericsError) as exc:
        return type(exc)


def _full_hopf_kernel(m, n, dn):
    """The Hopf solve's step kernel from _full_partials."""
    def kernel(m, n, dn, x, y):
        return tuple(v for table, sums in zip((m, n, dn), _HOPF_SUMS)
                     for v in _full_partials(table, x, y, sums))
    return kernel


def _outcome_with_full_sums(fn, *args):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("canard.blowup._partials", _full_partials)
        mp.setattr("canard.blowup._hopf_kernel", _full_hopf_kernel)
        return _outcome(fn, *args)


_POINT_COORD = st.one_of(st.floats(-3.0, 3.0), st.sampled_from((0.0, -0.0)))
_NON_FINITE_POINTS = [(math.nan, 0.0), (0.0, math.nan), (math.nan, math.nan),
                      (math.inf, 0.0), (0.0, -math.inf), (-math.inf, math.inf),
                      (1e200, 0.5), (0.5, -1e200)]


class TestSkippedSums:
    """_partials leaves out the sums whose integer multiplier is 0; its values
    must be those of the full sums bit for bit, and where a power of the point
    is not finite the callers must fail with the same error type."""

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), x=_POINT_COORD, y=_POINT_COORD,
           zeros=st.integers(0, 2 ** 15 - 1))
    def test_kernels_equal_the_full_sums(self, seed, x, y, zeros):
        sys, centre = _random_planar_system(seed)
        # every monomial up to degree 4, with the terms picked by the bits of
        # zeros set to +0.0 or -0.0 (a cleaned table has none; the kernels take any)
        for table in (sys.fx, sys.fy):
            raw = {k: (0.0 if n % 2 else -0.0) if zeros >> n & 1 else c
                   for n, (k, c) in enumerate(table.items())}
            for point in (centre, (x, y)):
                assert _bits(_partials(raw, *point)) == _bits(_full_partials(raw, *point))

    @pytest.mark.parametrize("point", _NON_FINITE_POINTS)
    def test_non_finite_points_fail_as_with_full_sums(self, point):
        systems = [blow_up(_drawn_record(5, False), 0.1, 0.0),
                   blow_up(_drawn_record(6, True), 0.05, 0.01),
                   _random_planar_system(7)[0]]
        for sys in systems:
            for fn, error in ((find_equilibrium, NumericsError),
                              (translate_to_equilibrium, DomainError)):
                assert _outcome(fn, sys, point) is error
                assert _outcome_with_full_sums(fn, sys, point) is error

    @pytest.mark.parametrize("point", _NON_FINITE_POINTS)
    def test_hopf_solve_seeded_at_a_non_finite_point(self, point, monkeypatch):
        cases = ((_drawn_record(5, False), 0.1), (_drawn_record(6, True), 0.02),
                 (NormalFormCoefficients(c20=-64.0), 0.125))
        monkeypatch.setattr("canard.blowup.EquilibriumSeries.predict", lambda self, r: point)
        for nf, r in cases:
            assert _outcome(_hopf_point, nf, r) is NumericsError
            assert _outcome_with_full_sums(_hopf_point, nf, r) is NumericsError

    @settings(max_examples=100, deadline=None)
    @given(fx=st.dictionaries(st.sampled_from(sorted(_TERMS)), st.floats(-2.0, 2.0), min_size=1),
           fy=st.dictionaries(st.sampled_from(sorted(_TERMS)), st.floats(-2.0, 2.0), min_size=1),
           point=st.sampled_from(_NON_FINITE_POINTS))
    def test_sparse_tables_at_non_finite_points(self, fx, fy, point):
        # few terms leave the full sums' Jacobian finite or NaN in ways the
        # skipped sums need not follow; the typed error must
        sys = PlanarPolySystem(fx, fy)
        assert (_outcome(translate_to_equilibrium, sys, point)
                == _outcome_with_full_sums(translate_to_equilibrium, sys, point))
        got = _outcome(find_equilibrium, sys, point)
        want = _outcome_with_full_sums(find_equilibrium, sys, point)
        # the full sums can step to a NaN point and call it converged; the
        # residual check of find_equilibrium refuses it
        assert got == want or (got is NumericsError and ("nan" in want or "inf" in want))

    @pytest.mark.parametrize("fx, fy, point", [
        # the full sums' Jacobian is NaN here (0 * inf, 0 * NaN) and the skipped
        # sums' is not: without the residual check the step would land on NaN
        # and count as converged
        ({(1, 0): 1e-300}, {(4, 0): 1.0, (0, 4): -1.0}, (1e100, 1e100)),
        ({(1, 0): 1e-300}, {(1, 0): 1.0, (0, 1): 2.0}, (1e-200, math.nan)),
    ])
    def test_non_finite_residual_raises(self, fx, fy, point):
        sys = PlanarPolySystem(fx, fy)
        assert _outcome_with_full_sums(find_equilibrium, sys, point) is NumericsError
        with pytest.raises(NumericsError, match="non-finite residual"):
            find_equilibrium(sys, point)

    @settings(max_examples=60, deadline=None)
    @given(coeffs=st.dictionaries(
               st.sampled_from(COEFF_NAMES),
               st.builds(lambda sign, e: sign * 10.0 ** e,
                         st.sampled_from((-1.0, 1.0)), st.floats(-5.0, 300.0)),
               min_size=1, max_size=3),
           r=st.floats(0.0, 0.2, exclude_min=True))
    def test_extreme_records_as_with_full_sums(self, coeffs, r):
        # the Newton iterates of extreme records overflow; values and error
        # types must be those of the full sums
        nf = NormalFormCoefficients(**coeffs)
        for oracle in (_hopf_point, l1_blowup):
            assert _outcome(oracle, nf, r) == _outcome_with_full_sums(oracle, nf, r)


def _loop_recenter(coeffs, x0, y0):
    """_recenter as the loop it was before its kernels were generated, the
    reference the generated kernels must equal bit for bit; a power of the
    centre past the float range raises OverflowError, as in the kernel."""
    hx = [x0 ** n for n in range(max((i for i, _ in coeffs), default=0) + 1)]
    hy = [y0 ** n for n in range(max((j for _, j in coeffs), default=0) + 1)]
    out = {}
    for (i, j), c in coeffs.items():
        bi = [float(math.comb(i, k)) for k in range(i + 1)]
        bj = [float(math.comb(j, l)) for l in range(j + 1)]
        for k in range(i + 1):
            cx = c * (bi[k] * hx[i - k])
            for l in range(0 if k else 1, j + 1):
                out[(k, l)] = out.get((k, l), 0.0) + cx * (bj[l] * hy[j - l])
    return out


def _loop_substitute_linear(coeffs, X, Y):
    """_substitute_linear as the loop it was before its kernels were generated."""
    out = {}
    for (i, j), k in coeffs.items():
        xi, yj = X[i], Y[j]
        t = [0.0] * (i + j + 1)
        for p in range(i, -1, -1):
            kx = k * xi[p]
            if kx == 0.0:
                continue
            for q in range(j, -1, -1):
                t[p + q] += kx * yj[q]
        n = i + j
        for s in range(n, -1, -1):
            out[(s, n - s)] = out.get((s, n - s), 0.0) + t[s]
    return out


def _hex_items(fn, *args):
    """fn's table as (key, float.hex) items in insertion order, or the type of
    the typed error or float overflow it raises."""
    try:
        return [(k, float.hex(v)) for k, v in fn(*args).items()]
    except (DomainError, NumericsError, OverflowError) as exc:
        return type(exc)


_KEYS = sorted(_TERMS)
# (key pool, range of the number of keys drawn from it; None: all of them)
_LAYOUT_KINDS = {
    "dense": (_KEYS, None),
    "sparse": (_KEYS, (2, len(_KEYS) - 1)),
    "no (1, 0)": ([k for k in _KEYS if k != (1, 0)], (1, len(_KEYS) - 1)),
    "no (0, 1)": ([k for k in _KEYS if k != (0, 1)], (1, len(_KEYS) - 1)),
    "one term": (_KEYS, (1, 1)),
    "empty": ([], None),
    "degree 4 only": ([k for k in _KEYS if sum(k) == _DEGREE], None),
}
_ENTRY = st.one_of(st.floats(-2.0, 2.0), st.sampled_from((0.0, -0.0)))
# the last five overflow at some power up to the fourth, or are not finite
_CENTRE = st.one_of(st.floats(-3.0, 3.0), st.sampled_from(
    (0.0, -0.0, 1e77, -1e100, 1e200, math.nan, math.inf, -math.inf)))
_FORM = st.one_of(st.floats(-2.0, 2.0), st.sampled_from(
    (0.0, -0.0, 1e100, -1e200, math.nan, math.inf)))


class TestGeneratedKernels:
    """_recenter and _substitute_linear run kernels generated per table layout;
    they must equal the loops they replace by float.hex and in item order, or
    raise the same error type (for _recenter at a centre whose needed power
    leaves the float range, the OverflowError of float pow)."""

    @pytest.mark.parametrize("kind", _LAYOUT_KINDS)
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_kernels_equal_the_loops(self, kind, data):
        pool, size = _LAYOUT_KINDS[kind]
        keys = data.draw(st.permutations(pool), label="keys")
        if size is not None:
            keys = keys[:data.draw(st.integers(*size), label="size")]
        values = data.draw(st.lists(_ENTRY, min_size=len(keys), max_size=len(keys)))
        table = dict(zip(keys, values))
        # the same key set in a second order is a second layout and kernel
        second = {k: table[k] for k in data.draw(st.permutations(keys), label="order")}
        centre = data.draw(st.tuples(_CENTRE, _CENTRE), label="centre")
        a, b, c, d = data.draw(st.tuples(_FORM, _FORM, _FORM, _FORM), label="forms")
        Y = _linear_powers(c, d)
        for coeffs in (table, second):
            assert (_hex_items(_recenter, coeffs, *centre)
                    == _hex_items(_loop_recenter, coeffs, *centre))
            # the monomial form 0 u + b v that normalize_linear uses, and a full one
            for X in (_linear_powers(0.0, b), _linear_powers(a, b)):
                assert (_hex_items(_substitute_linear, coeffs, X, Y)
                        == _hex_items(_loop_substitute_linear, coeffs, X, Y))

    @pytest.mark.parametrize("key", [(5, 0), (0, 5), (2, 3), (-1, 0), (1.5, 0), (0, 0, 1), "x"])
    def test_keys_beyond_the_degree_bound_raise(self, key):
        coeffs = {(1, 0): 1.0, key: 2.0}
        X = Y = _linear_powers(1.0, 2.0)
        with pytest.raises(DomainError, match=re.escape(f"term {key} is not a monomial")):
            _recenter(coeffs, 0.5, 0.25)
        with pytest.raises(DomainError, match=re.escape(f"term {key} is not a monomial")):
            _substitute_linear(coeffs, X, Y)

    def test_keys_equal_to_int_pairs_are_those_pairs(self):
        # (2.0, 1) is the key (2, 1): the kernel of the int layout serves it
        X, Y = _linear_powers(0.0, 1.5), _linear_powers(0.5, -2.0)
        coeffs = {(2, 1): 1.25, (0, 1): -0.5}
        same = {(2.0, 1): 1.25, (0, True): -0.5}
        assert _hex_items(_recenter, same, 0.5, 0.25) == _hex_items(_recenter, coeffs, 0.5, 0.25)
        assert (_hex_items(_substitute_linear, same, X, Y)
                == _hex_items(_substitute_linear, coeffs, X, Y))
        assert all(type(e) is int for k in _recenter(same, 0.5, 0.25) for e in k)


def _loop_linear_powers(a, b):
    """_linear_powers as the loop it was before it was unrolled."""
    X = [[1.0]]
    for e in range(1, _DEGREE + 1):
        prev = X[-1]
        X.append([prev[0] * b] + [prev[p] * b + prev[p - 1] * a for p in range(1, e)]
                 + [prev[e - 1] * a])
    return X


class TestGeneratedPartials:
    """_partials runs a kernel generated per layout and set of sums (the first
    and second order, and the sums the Hopf step reads of each table, which one
    kernel, _hopf_kernel's, gives it for all three); it must equal the full sums bit for bit,
    and the verify runs must fit in the kernel cache."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), x=_POINT_COORD, y=_POINT_COORD)
    def test_orders_equal_the_full_sums(self, data, x, y):
        keys = data.draw(st.permutations(_KEYS), label="keys")
        keys = keys[:data.draw(st.integers(0, len(keys)), label="size")]
        values = data.draw(st.lists(_ENTRY, min_size=len(keys), max_size=len(keys)))
        # some keys as the float pairs equal to them, such as (1.0, 0)
        floats = data.draw(st.lists(st.booleans(), min_size=len(keys), max_size=len(keys)))
        table = {((float(i), j) if f else (i, j)): c for (i, j), f, c in zip(keys, floats, values)}
        for sums in (_ORDER1, _ORDER2, *_HOPF_SUMS):
            got = _partials(table, x, y, sums)
            assert _bits(got) == _bits(_full_partials(dict(zip(keys, values)), x, y, sums))
            assert len(got) == len(sums)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), x=_POINT_COORD, y=_POINT_COORD)
    def test_hopf_system_is_the_full_sums(self, data, x, y):
        # one kernel for the three tables: each block is the full sums of its
        # table, whatever the other two tables' layouts
        tables = []
        for label in ("m", "n", "dn"):
            keys = data.draw(st.permutations(_KEYS), label=label)
            keys = keys[:data.draw(st.integers(0, len(keys)), label=f"{label} size")]
            values = data.draw(st.lists(_ENTRY, min_size=len(keys), max_size=len(keys)))
            tables.append(dict(zip(keys, values)))
        want = [v for table, sums in zip(tables, _HOPF_SUMS)
                for v in _full_partials(table, x, y, sums)]
        assert _bits(_hopf_kernel(*tables)(*tables, x, y)) == _bits(want)

    def test_keys_beyond_the_degree_bound_raise(self):
        for key in [(5, 0), (2, 3), (1.5, 0)]:
            with pytest.raises(DomainError, match="not a monomial"):
                _partials({(1, 0): 1.0, key: 2.0}, 0.5, 0.25, _ORDER1)
            for at in range(3):
                tables = [{(1, 0): 1.0}, {(0, 1): 1.0}, {(0, 0): -1.0}]
                tables[at] = {**tables[at], key: 2.0}
                with pytest.raises(DomainError, match="not a monomial"):
                    _hopf_kernel(*tables)(*tables, 0.5, 0.25)

    def test_verify_runs_fit_in_the_kernel_cache(self):
        # every layout and order the oracle meets in ten verify runs is compiled
        # once: no kernel is evicted and built again
        _kernel.cache_clear()
        for seed in range(10):
            run_all(seed)
        assert _kernel.cache_info().misses <= _KERNEL_CACHE

    @settings(max_examples=100, deadline=None)
    @given(a=_FORM, b=_FORM)
    def test_unrolled_linear_powers_are_the_loop(self, a, b):
        assert ([_bits(row) for row in _linear_powers(a, b)]
                == [_bits(row) for row in _loop_linear_powers(a, b)])


def _staged(sys, eq):
    return lyapunov_DF(normalize_linear(translate_to_equilibrium(sys, eq)))


def _one_pass(sys, eq):
    return _lyapunov_at(sys.fx, sys.fy, eq)


def _hex_or_error(fn, *args):
    """float.hex of what fn returns, or the type and message of its typed error."""
    try:
        return float.hex(fn(*args))
    except (DomainError, NumericsError) as exc:
        return type(exc), str(exc)


_NONLINEAR = [k for k in _KEYS if sum(k) >= 2]


class TestOnePass:
    """_lyapunov_at, the one pass of l1_blowup and model_l1, keeps the exact
    zeros that the systems of the staged path drop; its value must be the
    staged path's bit for bit, and each failure the same error."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), w=st.tuples(st.floats(0.25, 2.0), st.floats(0.25, 2.0)),
           centre=st.tuples(_POINT_COORD, _POINT_COORD))
    def test_pass_is_the_stages_on_tables_with_zeros(self, data, w, centre):
        # a zero-trace rotation plus nonlinear terms, some of them +-0.0, moved
        # to centre: recentring there gives the system back to rounding, and
        # a centre coordinate 0.0 leaves exact-zero sums in the recentred tables
        tables = []
        for linear in ({(0, 1): -w[0]}, {(1, 0): w[1]}):
            keys = data.draw(st.lists(st.sampled_from(_NONLINEAR), unique=True))
            values = data.draw(st.lists(_ENTRY, min_size=len(keys), max_size=len(keys)))
            g = Jet(2, _DEGREE, {**linear, **dict(zip(keys, values))})
            tables.append(jet_recenter(g, (-centre[0], -centre[1])).coeffs)
        sys = PlanarPolySystem(*tables)
        assert _hex_or_error(_one_pass, sys, centre) == _hex_or_error(_staged, sys, centre)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), zeros=st.integers(0, 2 ** 15 - 1),
           centre=st.tuples(_POINT_COORD, _POINT_COORD))
    def test_pass_is_the_stages_off_the_hopf_curve(self, seed, zeros, centre):
        # dense random tables with some terms zeroed, at their own centre and at
        # a point that is no equilibrium: mostly the trace and residual gates
        sys, own = _random_planar_system(seed)
        sys = PlanarPolySystem(*({k: 0.0 if zeros >> n & 1 else c
                                  for n, (k, c) in enumerate(t.items())}
                                 for t in (sys.fx, sys.fy)))
        for eq in (own, centre):
            assert _hex_or_error(_one_pass, sys, eq) == _hex_or_error(_staged, sys, eq)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), constrained=st.booleans(),
           r=st.floats(0.005, 0.2))
    def test_pass_is_the_stages_at_hopf_points(self, seed, constrained, r):
        _, eq, tables = _hopf_point(_drawn_record(seed, constrained), r)
        sys = PlanarPolySystem(*tables)
        assert _hex_or_error(_one_pass, sys, eq) == _hex_or_error(_staged, sys, eq)

    @pytest.mark.parametrize("fx, fy, centre, error", [
        # the centre's cube passes the float range; the residual gate, which
        # takes the power as products, sees it first as an inf residual
        ({(0, 1): -1.0, (0, 3): 1.0}, {(1, 0): 1.0}, (0.0, 1e103), DomainError),
        # residual > 1e-10
        ({(0, 0): 1e-9, (0, 1): -1.0}, {(1, 0): 1.0}, (0.0, 0.0), DomainError),
        # 4N - M^2 <= 0
        ({(1, 0): 1.0}, {(0, 1): 1.0}, (0.0, 0.0), DomainError),
        # m01 = 0, the discriminant positive by rounding
        ({(1, 0): 1.6510223091108869}, {(1, 0): 1.0, (0, 1): 1.651022309110887},
         (0.0, 0.0), DomainError),
        # |trace| >= 1e-12
        ({(1, 0): 1e-6, (0, 1): -1.0}, {(1, 0): 1.0}, (0.0, 0.0), DomainError),
        # L1 overflows from finite coefficients
        ({(0, 1): -1.0, (2, 0): 1e300, (1, 1): 1e300}, {(1, 0): 1.0}, (0.0, 0.0),
         NumericsError),
        # a recentred coefficient overflows (the residual is exactly 0)
        ({(0, 0): -1.5625 * 2.0 ** 1023, (0, 2): 2.0 ** 1023, (1, 0): 1.0}, {(1, 0): 1.0},
         (0.0, 1.25), DomainError),
        # a rotated coefficient overflows
        ({(0, 1): -1e-3, (3, 0): 1e307, (1, 2): 1e307}, {(1, 0): 1e-3, (0, 3): 1e307},
         (0.0, 0.0), DomainError),
    ])
    def test_each_failure_is_the_stages_error(self, fx, fy, centre, error):
        sys = PlanarPolySystem(fx, fy)
        got = _hex_or_error(_one_pass, sys, centre)
        assert got == _hex_or_error(_staged, sys, centre)
        assert got[0] is error


def _solve_bits(nf, r, solve=_hopf_point):
    """float.hex of a Hopf solve's lambda1 and equilibrium, and its two tables
    item by item in order, or the type and message of its typed error."""
    try:
        lam, (x, y), tables = solve(nf, r)
    except (DomainError, NumericsError) as exc:
        return type(exc), str(exc)
    return _bits((lam, x, y)), [[(k, float.hex(c)) for k, c in t.items()] for t in tables]


def _reference_l1(nf, r):
    _, eq, (fx, fy) = hopf_reference.hopf_point(nf, r)
    return _lyapunov_at(fx, fy, eq)


def _assert_solve_is_the_reference(nf, r):
    assert _solve_bits(nf, r) == _solve_bits(nf, r, hopf_reference.hopf_point)
    assert _hex_or_error(l1_blowup, nf, r) == _hex_or_error(_reference_l1, nf, r)


_RADIUS = st.one_of(st.floats(0.0, 0.2, exclude_min=True),
                    st.sampled_from((1e-70, 1e-90, 1e-300, 5e-324, 0.2)))


class TestHopfReference:
    """The Hopf solve looks up one generated kernel, calls it once per Newton
    iterate and builds no system; it must be hopf_reference.hopf_point, the
    solve with a starting system, the hatted series and three _partials calls
    per iterate, bit for bit, and fail where that fails with the same error."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), constrained=st.booleans(),
           zeros=st.integers(0, 2 ** len(COEFF_NAMES) - 1), r=_RADIUS)
    def test_drawn_records_with_zeroed_fields(self, seed, constrained, zeros, r):
        nf = replace(_drawn_record(seed, constrained),
                     **{name: 0.0 for n, name in enumerate(COEFF_NAMES) if zeros >> n & 1})
        _assert_solve_is_the_reference(nf, r)

    @pytest.mark.parametrize("r", [5e-324, 1e-300, 1e-90, 1e-70, 1e-8, 0.05, 0.2])
    def test_zero_record(self, r):
        assert set(asdict(CANONICAL).values()) == {0.0}
        _assert_solve_is_the_reference(CANONICAL, r)

    @pytest.mark.parametrize("seed, r", [(0, 0.2), (3, 0.1), (4, 1e-3)])
    def test_one_step_kernel_per_solve(self, seed, r, monkeypatch):
        # d10 = lambda1 r e20 at the seed lambda1 = rho1 r: the starting slow
        # table's (2, 0) entry is 0, every iterate's is not, and the solve
        # still looks its kernel up once, for the table as _n_table writes it
        nf = _drawn_record(seed, False)
        lam0 = rho_coefficients(nf).rho1 * r
        nf = replace(nf, e20=0.5, d10=lam0 * r * 0.5)
        assert (2, 0) not in blow_up(nf, r, lam0).fy
        calls = []

        def kernel(m, n, dn):
            calls.append(dict(n))
            return hopf_kernel(m, n, dn)
        hopf_kernel = blowup._hopf_kernel
        monkeypatch.setattr("canard.blowup._hopf_kernel", kernel)
        _assert_solve_is_the_reference(nf, r)
        assert len(calls) == 2  # the solves of _solve_bits and l1_blowup
        calls.clear()
        assert (2, 0) in _hopf_point(nf, r)[2][1]
        assert len(calls) == 1 and calls[0][(2, 0)] == 0.0

    @pytest.mark.parametrize("nf, r", [
        (CANONICAL, 0.0), (CANONICAL, 0.25), (CANONICAL, -0.1), (CANONICAL, math.nan),
        (NormalFormCoefficients(c01=64.0), 0.125),  # m01 = -1 + r^2 c01 = 0
        (NormalFormCoefficients(c10=-2.0, e10=64.0), 0.125),  # n10 = 1 - rho1 r^2 e10 = 0
        (NormalFormCoefficients(c20=-64.0), 0.125),  # singular Jacobian
        (replace(_drawn_record(3, False), f02=1e300), 0.05),  # non-finite iterate
        (NormalFormCoefficients(c10=1e300), 0.005),  # series overflow
        (NormalFormCoefficients(a10=-1.79e308, c11=1.79e308), 0.2),  # fast table at (1, 1)
        (NormalFormCoefficients(c10=1e308, f00=1e308), 0.2),  # slow table: lambda1 = -inf
    ])
    def test_each_failure(self, nf, r):
        want = _solve_bits(nf, r, hopf_reference.hopf_point)
        assert want[0] in (DomainError, NumericsError)
        _assert_solve_is_the_reference(nf, r)

    def test_iteration_limit(self, monkeypatch):
        monkeypatch.setattr("canard.blowup._MAX_ITER", 2)
        want = (NumericsError, "Hopf location did not reach residual 1e-12 in 2 iterations")
        assert _solve_bits(_drawn_record(5, False), 0.2) == want
        _assert_solve_is_the_reference(_drawn_record(5, False), 0.2)
