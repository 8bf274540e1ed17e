import json
from dataclasses import asdict

import numpy as np
import pytest

from canard import verify
from canard.blowup import sample_record
from canard.errors import DomainError, NumericsError
from canard.normalform import NormalFormCoefficients, omega_coefficients, rho_coefficients
from canard.verify import (
    StageResult,
    VerifyReport,
    fit_l1_omega1,
    fit_l1_omega2,
    fit_rho,
    run_all,
    series_order_slope,
)

STAGE_NAMES = (
    "canonical-smoke",
    "omega1-linear-fit",
    "omega2-cubic-fit",
    "rho-series-fit",
    "equilibrium-series-order",
    "allee-degeneracy",
)


class TestFitHelpers:
    def test_omega1_fit_matches_closed_form(self):
        nf = sample_record(np.random.default_rng(404))
        fitted = fit_l1_omega1(nf)
        assert fitted == pytest.approx(omega_coefficients(nf).omega1 / 16.0,
                                       rel=1e-3)

    def test_omega2_fit_on_degenerate_stratum(self):
        nf = sample_record(np.random.default_rng(405), constrain_omega1=True)
        c3, even0, even2 = fit_l1_omega2(nf)
        assert c3 == pytest.approx(omega_coefficients(nf).omega2 / 32.0,
                                   rel=1e-2)
        assert abs(even0) < 1e-6 and abs(even2) < 1e-6

    def test_rho_fit_matches_closed_forms(self):
        nf = sample_record(np.random.default_rng(406))
        c0, c1, c2 = fit_rho(nf)
        rho = rho_coefficients(nf)
        assert c0 == pytest.approx(rho.rho1, rel=1e-6)
        assert c2 == pytest.approx(rho.rho3, rel=1e-3)
        assert abs(c1) < 1e-6

    def test_series_order_slope_near_four(self):
        nf = sample_record(np.random.default_rng(407))
        assert abs(series_order_slope(nf) - 4.0) < 0.3

    def test_zero_series_gap_is_a_numerics_error(self):
        # on the plain template the series predicts the equilibrium exactly,
        # and a zero gap has no logarithm to fit
        with pytest.raises(NumericsError,
                           match="^zero series gap cannot be fitted on a log scale$"):
            series_order_slope(NormalFormCoefficients())


class TestRunAll:
    @pytest.mark.parametrize("seed", [-1, 2.5, True])
    def test_seed_is_a_count(self, seed):
        # numpy alone would raise a bare ValueError, a bare TypeError, or run True as 1
        with pytest.raises(DomainError, match=f"requires an integer seed >= 0, got {seed!r}$"):
            run_all(seed)

    def test_default_seed_all_pass(self):
        report = run_all(seed=2025)
        assert report.all_passed
        assert tuple(s.name for s in report.stages) == STAGE_NAMES

    def test_negative_control_fails_only_omega2(self):
        report = run_all(seed=2025, omega2_offset=0.5)
        assert not report.all_passed
        by_name = {s.name: s.passed for s in report.stages}
        assert by_name["omega2-cubic-fit"] is False
        for name in STAGE_NAMES:
            if name != "omega2-cubic-fit":
                assert by_name[name] is True

    @pytest.mark.parametrize("error", [DomainError, NumericsError])
    def test_raising_stage_is_recorded_as_failed(self, monkeypatch, error):
        # the run records the stage's error and goes on to the next stage
        def broken():
            raise error("no record")
        monkeypatch.setattr(verify, "_stage_canonical", broken)
        report = run_all(seed=2025)
        assert report.stages[0] == StageResult("canonical-smoke", False, "stage error: no record")
        assert tuple(s.name for s in report.stages) == STAGE_NAMES
        assert all(s.passed for s in report.stages[1:]) and not report.all_passed

    def test_deterministic_in_seed(self):
        a = run_all(seed=5)
        b = run_all(seed=5)
        assert asdict(a) == asdict(b)

    def test_json_roundtrip(self):
        report = run_all(seed=5)
        data = json.loads(json.dumps(asdict(report)))
        assert data["seed"] == 5
        assert len(data["stages"]) == len(STAGE_NAMES)
        assert data["all_passed"] == report.all_passed

    def test_lines_format(self):
        report = VerifyReport(1, 0.0, [
            StageResult("a", True, "fine"),
            StageResult("b", False, "broken"),
        ])
        lines = report.lines()
        assert lines[0].startswith("[PASS] a:")
        assert lines[1].startswith("[FAIL] b:")
        assert not report.all_passed
