import json
import math
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    _hatted_tables,
    _hopf_point,
    _hopf_system,
    _lambda1_slopes,
    _linear_powers,
    _partials,
    _substitute_linear,
)
from canard.errors import DomainError, NumericsError
from canard.jet import (
    Jet,
    jet_add,
    jet_compose,
    jet_eval,
    jet_recenter,
    jet_scale,
)
from canard.normalform import (
    COEFF_NAMES,
    NormalFormCoefficients,
    omega_coefficients,
    rho_coefficients,
)
from canard.verify import fit_l1_omega1, fit_l1_omega2, fit_rho

CANONICAL = NormalFormCoefficients()


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


def centered_table_error(nf, r):
    sys = blow_up(nf, r, 0.1)
    eq = find_equilibrium(sys)
    centered = translate_to_equilibrium(sys, eq)
    m, n = _hatted_tables(sys.fx, sys.fy, sys.r)
    es = equilibrium_series(sys)
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
                assert terms == Jet(2, sys.degree, terms).coeffs
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
        sys = PlanarPolySystem(fx, {(1, 0): 1.0, (0, 0): 0.0}, 0.1)
        assert list(sys.fx.items()) == [((0, 3), 0.5), ((0, 1), -1.0)]
        assert all(type(c) is float for c in sys.fx.values())
        assert sys.fy == {(1, 0): 1.0}
        assert fx[(1, 0)] == 0.0  # the input table is left as it was

    def test_keys_become_int_pairs(self):
        fx = {(0, 1): -1.0, (2.0, np.int64(0)): 1.0}
        sys = PlanarPolySystem(fx, {(1, 0): 1.0, (0, 0): -0.1}, 0.1)
        assert list(sys.fx) == [(0, 1), (2, 0)]
        assert all(type(e) is int for k in sys.fx for e in k)
        assert find_equilibrium(sys) == pytest.approx((0.1, 0.01))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_rejected(self, value):
        with pytest.raises(DomainError, match="non-finite coefficient at"):
            PlanarPolySystem({(0, 1): -1.0}, {(2, 1): value}, 0.1)

    @pytest.mark.parametrize("term", [(5, 0), (2, 3), (0, 5), (-1, 2), (2, -1)])
    def test_term_outside_degree_rejected(self, term):
        with pytest.raises(DomainError, match="not a monomial"):
            PlanarPolySystem({term: 1.0}, {(1, 0): 1.0}, 0.1)

    def test_degree_bound_is_the_system_field(self):
        sys = PlanarPolySystem({(6, 0): 1.0}, {(1, 0): 1.0}, 0.1, degree=6)
        assert sys.degree == 6 and sys.fx == {(6, 0): 1.0}
        with pytest.raises(DomainError, match="at least 3"):
            PlanarPolySystem({(0, 1): 1.0}, {(1, 0): 1.0}, 0.1, degree=2)


class TestEquilibriumSeries:
    def test_canonical_head(self):
        sys = blow_up(CANONICAL, 0.07, 0.2)
        es = equilibrium_series(sys)
        assert es.p[0] == pytest.approx(0.2, rel=1e-14)
        assert es.q[0] == pytest.approx(0.04, rel=1e-14)
        for k in (1, 2, 3):
            assert es.p[k] == pytest.approx(0.0, abs=1e-14)
            assert es.q[k] == pytest.approx(0.0, abs=1e-14)

    def test_canonical_prediction(self):
        sys = blow_up(CANONICAL, 0.05, 0.2)
        assert equilibrium_series(sys).predict(0.05) == pytest.approx((0.2, 0.04))

    def test_order_four_accuracy(self):
        rng = np.random.default_rng(777)
        nf = random_record(rng)

        def gap(r):
            sys = blow_up(nf, r, 0.1)
            ex, ey = find_equilibrium(sys)
            px, py = equilibrium_series(sys).predict(r)
            return math.hypot(ex - px, ey - py)

        ratio = gap(0.05) / gap(0.025)
        assert 10.0 < ratio < 24.0  # 2^4 = 16 up to higher-order drift

    def test_vanishing_denominator(self):
        fx = {(0, 1): -1.0, (2, 0): 1.0}
        fy = {(0, 1): 1.0}  # no x term: n10 = 0
        sys = PlanarPolySystem(fx, fy, 0.1)
        with pytest.raises(DomainError):
            equilibrium_series(sys)


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
            centered = translate_to_equilibrium(sys, find_equilibrium(sys))
            J0 = _linear_part(centered)
            J1 = _linear_part(normalize_linear(centered))
            assert np.trace(J1) == pytest.approx(np.trace(J0), abs=1e-12)
            assert np.linalg.det(J1) == pytest.approx(np.linalg.det(J0), rel=1e-12)

    def test_rotation_structure_and_eigenvalues(self):
        rng = np.random.default_rng(1001)
        nf = random_record(rng)
        r = 0.06
        sys = blow_up(nf, r, 0.05)
        centered = translate_to_equilibrium(sys, find_equilibrium(sys))
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
        sys = PlanarPolySystem({(1, 0): 1.0}, {(0, 1): 1.0}, 0.1)
        with pytest.raises(DomainError):
            normalize_linear(sys)

    def test_zero_m01_pivot_rejected(self):
        # with m01 = 0 the discriminant is -(m10 - n01)^2 <= 0, but with m10
        # and n01 adjacent floats it rounds to a positive value
        sys = PlanarPolySystem({(1, 0): 1.6510223091108869},
                               {(1, 0): 1.0, (0, 1): 1.651022309110887}, 0.1)
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
    def lemma_system(self, fx_terms, fy_terms):
        return PlanarPolySystem(fx_terms, fy_terms, 1.0)

    def test_cubic_fast_term(self):
        sigma = 0.7
        sys = self.lemma_system({(0, 1): -1.0, (3, 0): sigma}, {(1, 0): 1.0})
        assert lyapunov_DF(sys) == pytest.approx(6.0 * sigma / 16.0, rel=1e-14)

    def test_linear_center(self):
        sys = self.lemma_system({(0, 1): -1.0}, {(1, 0): 1.0})
        assert lyapunov_DF(sys) == 0.0

    def test_quadratic_cross_terms(self):
        sys = self.lemma_system({(0, 1): -1.0, (2, 0): 1.0, (1, 1): 1.0}, {(1, 0): 1.0})
        assert lyapunov_DF(sys) == pytest.approx(0.125, rel=1e-14)

    def test_trace_gate(self):
        sys = self.lemma_system({(1, 0): 1e-6, (0, 1): -1.0}, {(1, 0): 1.0})
        with pytest.raises(DomainError):
            lyapunov_DF(sys)

    def test_zero_rotation_rejected(self):
        sys = self.lemma_system({(0, 1): -1.0}, {(0, 2): 1.0})
        with pytest.raises(DomainError):
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
        centered = translate_to_equilibrium(sys, find_equilibrium(sys))
        l1_m01 = lyapunov_DF(normalize_linear(centered))
        fx, fy = _reference_rotated(centered, pivot="n10")
        l1_n10 = lyapunov_DF(PlanarPolySystem(fx.coeffs, fy.coeffs, r, centered.degree))
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


class TestSampleRecord:
    def test_deterministic_and_well_conditioned(self):
        nf1 = sample_record(np.random.default_rng(3))
        nf2 = sample_record(np.random.default_rng(3))
        assert nf1 == nf2
        lam = hopf_lambda1(nf1, 0.1)
        sys = blow_up(nf1, 0.1, lam)
        centered = translate_to_equilibrium(sys, find_equilibrium(sys))
        J = _linear_part(centered)
        disc = 4.0 * np.linalg.det(J) - np.trace(J) ** 2
        assert disc > 0.05

    def test_constrained_sampling(self):
        nf = sample_record(np.random.default_rng(17), constrain_omega1=True)
        assert abs(omega_coefficients(nf).omega1) < 1e-15

    @staticmethod
    def _per_coefficient_draws(rng, constrain_omega1):
        """sample_record as it was written with one generator call per
        coefficient: the reference for its single vector draw."""
        for _ in range(200):
            vals = {name: float(rng.uniform(-1.0, 1.0)) for name in COEFF_NAMES}
            if constrain_omega1:
                vals["a10"] = 3.0 * vals["b10"] - 2.0 * vals["d10"] - 2.0 * vals["f00"]
            nf = NormalFormCoefficients.from_dict(vals)
            try:
                lam = hopf_lambda1(nf, 0.1)
                sys = blow_up(nf, 0.1, lam)
                x, y = find_equilibrium(sys)
            except (DomainError, NumericsError):
                continue
            m10, m01 = _partials(sys.fx, x, y, sys.degree)[1:3]
            n10, n01 = _partials(sys.fy, x, y, sys.degree)[1:3]
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
    def test_joint_jacobian_matches_central_difference(self, seed, constrained,
                                                       r, offset):
        nf = _drawn_record(seed, constrained)
        lam = rho_coefficients(nf).rho1 * r + offset * r * r
        dn = _lambda1_slopes(nf, r)
        sys = blow_up(nf, r, lam)
        point = [*equilibrium_series(sys).predict(r), lam]

        def residual(x, y, lam):
            at = blow_up(nf, r, lam)
            return _hopf_system(at.fx, at.fy, dn, x, y)[0]
        jac = _hopf_system(sys.fx, sys.fy, dn, *point[:2])[1]
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
                assert abs(jac[row][col] - central) <= 1e-6 * abs(central)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), constrained=st.booleans(),
           r=st.floats(0.005, 0.2))
    def test_hopf_lambda1_is_a_hopf_point(self, seed, constrained, r):
        nf = _drawn_record(seed, constrained)
        lam = hopf_lambda1(nf, r)
        sys = blow_up(nf, r, lam)
        centered = translate_to_equilibrium(sys, find_equilibrium(sys))
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
        lam, (x, y), sys = _hopf_point(nf, r)
        assert sys == blow_up(nf, r, lam)
        ex, ey = find_equilibrium(sys)
        assert abs(x - ex) < 1e-12 and abs(y - ey) < 1e-12
        fx, fy = Jet(2, sys.degree, sys.fx), Jet(2, sys.degree, sys.fy)
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

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), constrained=st.booleans(),
           r=st.floats(0.005, 0.2), offset=st.floats(-1.0, 1.0))
    def test_equilibrium_residual(self, seed, constrained, r, offset):
        nf = _drawn_record(seed, constrained)
        sys = blow_up(nf, r, rho_coefficients(nf).rho1 * r + offset * r * r)
        eq = find_equilibrium(sys)
        fx, fy = Jet(2, sys.degree, sys.fx), Jet(2, sys.degree, sys.fy)
        assert max(abs(jet_eval(fx, eq)), abs(jet_eval(fy, eq))) < 1e-12

    def test_equilibrium_polishes_after_meeting_tol(self):
        # with tol = 1 the guess already passes, so only the polishing step moves it
        nf = _drawn_record(11, False)
        sys = blow_up(nf, 0.1, 0.05)
        guess = equilibrium_series(sys).predict(0.1)
        eq = find_equilibrium(sys, guess=guess, tol=1.0)
        fx, fy = Jet(2, sys.degree, sys.fx), Jet(2, sys.degree, sys.fy)

        def res(p):
            return max(abs(jet_eval(fx, p)), abs(jet_eval(fy, p)))
        assert eq != guess
        assert res(eq) < 1e-3 * res(guess)

    def test_hopf_lambda1_polishes_after_meeting_tol(self):
        # with tol = 1 the seed (rho1*r, series head) already passes; the answer
        # is one joint Newton step on
        nf = _drawn_record(11, False)
        r = 0.1
        dn = _lambda1_slopes(nf, r)
        lam0 = rho_coefficients(nf).rho1 * r
        sys0 = blow_up(nf, r, lam0)
        seed = equilibrium_series(sys0).predict(r)
        f0, jac = _hopf_system(sys0.fx, sys0.fy, dn, *seed)
        step = np.linalg.solve(np.array(jac), np.array(f0))
        lam, (x, y), sys = _hopf_point(nf, r, tol=1.0)
        assert hopf_lambda1(nf, r, tol=1.0) == lam
        assert [x, y, lam] == pytest.approx([seed[0] - step[0], seed[1] - step[1],
                                             lam0 - step[2]], rel=1e-12, abs=0.0)
        f1 = _hopf_system(sys.fx, sys.fy, dn, x, y)[0]
        assert max(map(abs, f1)) < 1e-3 * max(map(abs, f0))


def _reference_centered(sys, eq):
    """translate_to_equilibrium's terms by the generic jet op."""
    return [[(k, v) for k, v in jet_recenter(Jet(2, sys.degree, f), eq).coeffs.items()
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
    deg = sys.degree
    subs = [Jet(2, deg, {(1, 0): Tinv[i, 0], (0, 1): Tinv[i, 1]}) for i in (0, 1)]
    fz1, fz2 = (jet_compose(Jet(2, deg, f), subs) for f in (sys.fx, sys.fy))
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


def _random_planar_system(seed, degree):
    """Two planar jets with uniform coefficients in a random insertion order,
    zeros left out, a linear part with complex eigenvalues, and a random centre
    that the constant terms put on the zero set of both components."""
    rng = np.random.default_rng(seed)
    x0, y0 = (float(v) for v in rng.uniform(-1.5, 1.5, 2))
    rot, diag = rng.uniform(0.5, 2.0, 2), rng.uniform(-0.4, 0.4, 2)
    keys = [(i, n - i) for n in range(degree + 1) for i in range(n + 1) if n != 1]
    tables = []
    for linear in ({(1, 0): diag[0], (0, 1): -rot[0]}, {(1, 0): rot[1], (0, 1): diag[1]}):
        order = rng.permutation(len(keys))[:rng.integers(0, len(keys) + 1)]
        items = [(keys[k], float(rng.uniform(-2.0, 2.0))) for k in order]
        at = int(rng.integers(0, len(items) + 1))
        items[at:at] = [(k, float(v)) for k, v in linear.items()]
        f = dict(items)
        f[(0, 0)] = 0.0
        f[(0, 0)] = -jet_eval(Jet(2, degree, f), (x0, y0))
        tables.append(f)
    return PlanarPolySystem(tables[0], tables[1], 0.1, degree=degree), (x0, y0)


class TestFlatKernels:
    """translate_to_equilibrium and normalize_linear run on private flat kernels;
    their jets must equal those of the generic jet ops bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), constrained=st.booleans(),
           r=st.floats(0.005, 0.2), offset=st.floats(-1.0, 1.0))
    def test_drawn_records(self, seed, constrained, r, offset):
        nf = _drawn_record(seed, constrained)
        sys = blow_up(nf, r, rho_coefficients(nf).rho1 * r + offset * r * r)
        _assert_kernels_match(sys, find_equilibrium(sys))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), degree=st.integers(3, 6))
    def test_random_jets_and_centres(self, seed, degree):
        sys, centre = _random_planar_system(seed, degree)
        _assert_kernels_match(sys, centre)
        # the rotation on a system whose own linear part is the drawn one
        centered = PlanarPolySystem(sys.fx, sys.fy, 0.1, degree=degree)
        want = _reference_rotated(centered)
        got = normalize_linear(centered)
        assert (got.fx, got.fy) == (want[0].coeffs, want[1].coeffs)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), degree=st.integers(3, 6))
    def test_explicit_inverse_is_lapacks_to_rounding(self, seed, degree):
        # normalize_linear writes T^-1 out; np.linalg.inv(T) differs from it
        # by rounding only
        sys, _ = _random_planar_system(seed, degree)
        centered = PlanarPolySystem(sys.fx, sys.fy, 0.1, degree=degree)
        got = normalize_linear(centered)
        want = _reference_rotated(centered, invert=np.linalg.inv)
        for g, w in ((got.fx, want[0].coeffs), (got.fy, want[1].coeffs)):
            scale = max(abs(v) for v in w.values())
            assert g.keys() == w.keys()
            assert all(abs(g[k] - w[k]) <= 1e-13 * scale for k in w)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), degree=st.integers(3, 6))
    def test_substitution_kernel_with_two_full_forms(self, seed, degree):
        # normalize_linear's T^-1 has a zero entry, so one of its linear forms
        # is a monomial; full forms show the summation order of jet_compose too
        sys, _ = _random_planar_system(seed, degree)
        a, b, c, d = (float(v) for v in np.random.default_rng([seed, 1]).uniform(-2.0, 2.0, 4))
        subs = [Jet(2, degree, {(1, 0): a, (0, 1): b}),
                Jet(2, degree, {(1, 0): c, (0, 1): d})]
        got = _substitute_linear(sys.fy, _linear_powers(a, b, degree),
                                 _linear_powers(c, d, degree))
        assert got == jet_compose(Jet(2, degree, sys.fy), subs).coeffs

    def test_recentering_overflow_raises(self):
        # the residual is exactly 0, but the (0, 1) term of the recentred fast
        # component, 2.5 * 2^1023, overflows
        big = 2.0 ** 1023
        fx = {(0, 0): -1.5625 * big, (0, 2): big}
        fy = {(1, 0): 1.0}
        sys = PlanarPolySystem(fx, fy, 0.1)
        with pytest.raises(DomainError, match="non-finite"):
            jet_recenter(Jet(2, 4, fx), (0.0, 1.25))
        with pytest.raises(DomainError, match="non-finite"):
            translate_to_equilibrium(sys, (0.0, 1.25))

    def test_rotation_overflow_raises(self):
        # small pivots make T^-1 large, and the cubic terms overflow under it
        fx = {(0, 1): -1e-3, (3, 0): 1e307, (1, 2): 1e307}
        fy = {(1, 0): 1e-3, (0, 3): 1e307}
        sys = PlanarPolySystem(fx, fy, 0.1)
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
