import dataclasses
import json
import math

import numpy as np
import pytest

from canard.errors import DomainError, NumericsError
from canard.normalform import (
    COEFF_NAMES,
    Criticality,
    NormalFormCoefficients,
    analyze_record,
    classify_hopf,
    compute_A,
    l1_series,
    lambda_H,
    lambda_c,
    lambda_star_series,
    omega2_term_groups,
    omega_coefficients,
    rho_coefficients,
)

# Reference record: alternating-sign rationals over the canonical name order.
# The digits below were frozen from a 50-digit evaluation of the same
# expressions, so any transcription slip in a term group shows up as a
# mismatch far above double rounding.
REF_RECORD = NormalFormCoefficients.from_dict(
    {name: (-1.0) ** k * (k + 1) / 37.0 for k, name in enumerate(COEFF_NAMES)})

REF_GROUPS = (
    -0.032732513375318342448,
    0.082206384616903243638,
    -1.3859396284524115057,
    0.67020709533492586816,
    -1.7472607742878013148,
    1.9461038832843069512,
    -0.98608177205693641048,
    -4.9571792391368724459,
)
REF_OMEGA1 = -1.1081081081081081081
REF_OMEGA2 = -6.4106765640732039563
REF_RHO1 = -0.45945945945945945946
REF_RHO31 = 1.0650109569028487947
REF_RHO32 = 2.0810810810810810811
REF_RHO3 = -0.02500345487927664699


def random_record(rng):
    return NormalFormCoefficients.from_dict(
        {name: float(rng.uniform(-1.0, 1.0)) for name in COEFF_NAMES})


class TestRecordLayout:
    def test_slotted(self):
        assert not hasattr(REF_RECORD, "__dict__")
        assert NormalFormCoefficients.__slots__ == COEFF_NAMES
        with pytest.raises(dataclasses.FrozenInstanceError):
            REF_RECORD.a10 = 1.0

    def test_round_trips(self):
        assert NormalFormCoefficients.from_dict(dataclasses.asdict(REF_RECORD)) == REF_RECORD
        text = json.dumps(dataclasses.asdict(REF_RECORD))
        assert NormalFormCoefficients.from_dict(json.loads(text)) == REF_RECORD

    def test_replace(self):
        nf = dataclasses.replace(REF_RECORD, b10=0.25)
        assert nf.b10 == 0.25
        assert dataclasses.asdict(nf) == {**dataclasses.asdict(REF_RECORD), "b10": 0.25}

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_nonfinite_rejected(self, value):
        with pytest.raises(DomainError):
            NormalFormCoefficients(c21=value)
        with pytest.raises(DomainError):
            dataclasses.replace(REF_RECORD, f02=value)
        with pytest.raises(DomainError):
            NormalFormCoefficients.from_dict({"e03": value})


class TestComputeA:
    def test_all_zero(self):
        assert compute_A(NormalFormCoefficients()) == 0.0

    def test_two_terms(self):
        nf = NormalFormCoefficients(a10=1.0, b10=1.0)
        assert compute_A(nf) == 2.0

    def test_four_terms(self):
        nf = NormalFormCoefficients(a10=1.0, b10=2.0, d10=3.0, f00=4.0)
        assert compute_A(nf) == -9.0


class TestLambdaCurves:
    def test_lambda_H_values(self):
        assert lambda_H(0.0, -2.0, 1.0) == 1.0
        assert lambda_H(0.0, 0.0, 0.5) == 0.0
        assert lambda_H(1.0, 1.0, 0.01) == pytest.approx(-0.01)

    def test_lambda_c_values(self):
        assert lambda_c(0.0, 0.0, 8.0, 1.0) == -1.0
        assert lambda_c(0.3, -0.7, 0.0, 0.2) == lambda_H(0.3, -0.7, 0.2)
        assert lambda_c(0.0, -2.0, 8.0, 0.1) == pytest.approx(0.0, abs=1e-15)

    def test_positive_eps_required(self):
        with pytest.raises(DomainError):
            lambda_H(1.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            lambda_c(1.0, 1.0, 1.0, -0.1)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, np.array([0.01, math.nan])])
    def test_non_finite_eps_rejected(self, eps):
        # NaN fails every comparison, so a gate written as eps <= 0 lets it through
        with pytest.raises(DomainError, match="finite and positive"):
            lambda_H(1.0, 1.0, eps)
        with pytest.raises(DomainError, match="finite and positive"):
            lambda_c(1.0, 1.0, 1.0, eps)
        with pytest.raises(DomainError, match="finite and positive"):
            lambda_star_series(0.4, -0.2, eps)


class TestRho:
    def test_rho1_direct(self):
        nf = NormalFormCoefficients(c10=1.0, f00=3.0)
        assert rho_coefficients(nf).rho1 == -2.0

    def test_rho3_vanishes_for_pure_c10(self):
        nf = NormalFormCoefficients(c10=1.0)
        rho = rho_coefficients(nf)
        assert rho.rho31 == 0.0
        assert rho.rho32 == 0.0
        assert rho.rho3 == 0.0

    def test_all_zero(self):
        rho = rho_coefficients(NormalFormCoefficients())
        assert (rho.rho1, rho.rho3) == (0.0, 0.0)

    def test_reference_record(self):
        rho = rho_coefficients(REF_RECORD)
        assert rho.rho1 == pytest.approx(REF_RHO1, rel=1e-14)
        assert rho.rho31 == pytest.approx(REF_RHO31, rel=1e-13)
        assert rho.rho32 == pytest.approx(REF_RHO32, rel=1e-13)
        assert rho.rho3 == pytest.approx(REF_RHO3, rel=1e-12)

    def test_rho1_is_lemma_identification(self):
        # rho1 = -(a1 + a5)/2 with a1 = c10, a5 = f00
        rng = np.random.default_rng(11)
        for _ in range(20):
            nf = random_record(rng)
            assert rho_coefficients(nf).rho1 == pytest.approx(
                -(nf.c10 + nf.f00) / 2.0, rel=1e-15, abs=1e-15)


class TestOmega:
    def test_all_zero(self):
        assert omega_coefficients(NormalFormCoefficients()) == (0.0, 0.0)

    def test_omega1_four_terms(self):
        nf = NormalFormCoefficients(a10=1.0, b10=2.0, d10=3.0, f00=4.0)
        assert omega_coefficients(nf).omega1 == -9.0

    def test_omega1_equals_A(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            nf = random_record(rng)
            assert omega_coefficients(nf).omega1 == compute_A(nf)

    def test_term_groups_against_frozen_values(self):
        groups = omega2_term_groups(REF_RECORD)
        assert len(groups) == 8
        for got, want in zip(groups, REF_GROUPS):
            assert got == pytest.approx(want, rel=1e-13)

    def test_omega2_total(self):
        om = omega_coefficients(REF_RECORD)
        assert om.omega1 == pytest.approx(REF_OMEGA1, rel=1e-14)
        assert om.omega2 == pytest.approx(REF_OMEGA2, rel=1e-13)


class TestClassify:
    def test_supercritical(self):
        assert classify_hopf(-1.0, 123.0) is Criticality.SUPERCRITICAL

    def test_degenerate_subcritical(self):
        assert classify_hopf(0.0, 5.0, tol=1e-9) is Criticality.DEGENERATE_SUBCRITICAL

    def test_undetermined(self):
        assert classify_hopf(0.0, 0.0) is Criticality.UNDETERMINED

    def test_subcritical_and_degenerate_supercritical(self):
        assert classify_hopf(1.0, 0.0) is Criticality.SUBCRITICAL
        assert classify_hopf(0.0, -3.0) is Criticality.DEGENERATE_SUPERCRITICAL

    def test_scale_consistency(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            w1 = float(rng.uniform(-2, 2))
            w2 = float(rng.uniform(-2, 2))
            s = float(rng.uniform(0.1, 100.0))
            base = classify_hopf(w1, w2)
            assert classify_hopf(s * w1, s * w2) is base

    def test_tol_must_be_positive(self):
        with pytest.raises(DomainError):
            classify_hopf(1.0, 1.0, tol=0.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
    def test_tol_must_be_finite(self, tol):
        with pytest.raises(DomainError, match="finite and positive"):
            classify_hopf(0.0, 0.0, tol=tol)

    @pytest.mark.parametrize("tol", [None, 1e-5])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_omega_has_no_sign(self, value, tol):
        # a NaN compares false both ways and would read as Undetermined
        with pytest.raises(DomainError, match=f"^omega1 must be finite, got {value}$"):
            classify_hopf(value, 0.0, tol)
        with pytest.raises(DomainError, match=f"^omega2 must be finite, got {value}$"):
            classify_hopf(0.0, value, tol)


class TestL1Series:
    def test_values(self):
        assert l1_series(16.0, 0.0, 0.04) == pytest.approx(0.2)
        assert l1_series(0.0, 32.0, 0.04) == pytest.approx(0.008)
        assert l1_series(0.0, 0.0, 1.0) == 0.0

    def test_positive_eps_required(self):
        with pytest.raises(DomainError):
            l1_series(1.0, 1.0, 0.0)

    def test_lambda_star_both_readings(self):
        # original-parameter curve equals the blown-up curve via lam = r*lam1
        rho1, rho3, eps = 0.4, -0.2, 0.03
        r = math.sqrt(eps)
        assert lambda_star_series(rho1, rho3, eps) == pytest.approx(
            r * (rho1 * r + rho3 * r ** 3), rel=1e-15)


class TestSerialization:
    def test_unknown_key_rejected(self):
        with pytest.raises(DomainError):
            NormalFormCoefficients.from_dict({"a10": 1.0, "z99": 2.0})

    def test_missing_keys_default_zero(self):
        nf = NormalFormCoefficients.from_dict({"b10": 2.5})
        assert nf.b10 == 2.5
        assert nf.a10 == 0.0
        assert nf.f02 == 0.0

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            NormalFormCoefficients(a10=float("inf"))

    def test_non_number_rejected(self):
        # an int beyond the float range is not finite, as cli._as_float reads it
        for value, problem in (("abc", "a10 is not a number"), (10 ** 400, "a10 is not finite")):
            with pytest.raises(DomainError, match=problem):
                NormalFormCoefficients.from_dict({"a10": value})

    @pytest.mark.parametrize("value", [True, False])
    def test_boolean_rejected(self, value):
        # float(True) is 1.0: a JSON true must not pass as a coefficient
        with pytest.raises(DomainError, match="a10 is not a number"):
            NormalFormCoefficients.from_dict({"a10": value})

    def test_key_order_covers_all_fields(self):
        assert len(COEFF_NAMES) == 32
        assert tuple(dataclasses.asdict(REF_RECORD)) == COEFF_NAMES


class TestAnalyze:
    @pytest.mark.parametrize("coeffs, name, value", [
        (dict(a10=-1e308, b10=1e308), "A", "inf"),
        (dict(a10=1e300, b10=1e300, f00=1e300, c10=-1e300), "omega2", "nan"),
        (dict(c10=1e200, e10=1.0), "rho3", "-inf"),
    ], ids=["A", "omega2", "rho3"])
    def test_overflowing_closed_form_is_named(self, coeffs, name, value):
        # a finite record whose closed forms leave the float range: the first
        # non-finite value of A, omega2, rho1, rho3 is named
        with pytest.raises(NumericsError,
                           match=f"^closed form {name} is not finite \\({value}\\) for this record$"):
            analyze_record(NormalFormCoefficients(**coeffs))

    def test_bundle_consistency(self):
        res = analyze_record(REF_RECORD)
        assert res.A == compute_A(REF_RECORD)
        assert res.omega1 == res.A
        assert res.classification is Criticality.SUPERCRITICAL
