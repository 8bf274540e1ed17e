import dataclasses
import math

import numpy as np
import pytest

from canard.allee import (
    AlleeParams,
    critical_height,
    fold_point,
    psi_case_analysis,
)
from canard import sdi
from canard.errors import DomainError, NumericsError
from canard.sdi import (
    SdiProfile,
    branch_inverse,
    cyclicity_report,
    h_slow,
    phi,
    phi_root,
    slow_divergence_integral,
    slow_divergence_integral_x,
)


def coincident(m, n, alpha, gamma, eps=0.01):
    """Parameters with the predator nullcline through the fold."""
    xM, yM = fold_point(m, n)
    beta = alpha * xM - gamma * yM
    if beta <= 0.0:
        raise ValueError("inadmissible combination")
    return AlleeParams(m=m, n=n, alpha=alpha, beta=beta, gamma=gamma, eps=eps)


# a coincidence set whose phi changes sign inside (0, y_M)
P_CHANGE = coincident(0.28, 0.02, 0.8, 0.6)
# m above m*(0.8, 0.4) = 0.25: phi < 0 throughout
P_NEG = coincident(0.35, 0.1, 0.8, 0.4)


def random_coincident(rng, **kw):
    while True:
        n = float(rng.uniform(0.05, 0.5))
        bound = (1.0 - math.sqrt(n)) ** 2
        m = float(rng.uniform(0.3 * bound, 0.9 * bound))
        alpha = float(rng.uniform(0.3, 1.5))
        gamma = float(rng.uniform(0.1, 1.0))
        xM, yM = fold_point(m, n)
        beta = alpha * xM - gamma * yM
        if beta > 1e-3:
            return AlleeParams(m=m, n=n, alpha=alpha, beta=beta, gamma=gamma,
                               eps=0.01, **kw)


def psi_aux(x, p):
    """(x - x_M) / [(m+x)^2 (alpha x - beta - gamma F(x)) F(x)], the factor
    through which h(sigma) - h(x) factorizes."""
    F = critical_height(x, p.m, p.n)
    denom = (p.m + x) ** 2 * (p.alpha * x - p.beta - p.gamma * F) * F
    if denom == 0.0:
        raise NumericsError(f"auxiliary factor singular at x={x}")
    return (p.m - math.sqrt(p.m) + x) / denom


def factorization_gap(y, p, exponent=1.5):
    """Both sides of the identity
    h(sigma) - h(x) = psi(sigma) psi(x) (sigma - x) m^exponent F(x) phi(y)
    at height y, for measuring the exponent.  The identity is exact (up
    to rounding) with exponent 3/2 when the predator nullcline passes
    through the fold (beta = alpha x_M - gamma y_M)."""
    x, sigma = branch_inverse(y, p)
    lhs = h_slow(sigma, p) - h_slow(x, p)
    rhs = (psi_aux(sigma, p) * psi_aux(x, p) * (sigma - x)
           * p.m ** exponent * critical_height(x, p.m, p.n) * phi(y, p))
    return lhs, rhs


class TestBranchInverse:
    def test_fold_height_double_root(self):
        xM, yM = fold_point(P_CHANGE.m, P_CHANGE.n)
        x, sigma = branch_inverse(yM, P_CHANGE)
        assert abs(x - xM) < 1e-7
        assert abs(sigma - xM) < 1e-7

    def test_preimages_bracket_fold(self):
        xM, yM = fold_point(P_CHANGE.m, P_CHANGE.n)
        for frac in (0.1, 0.5, 0.9):
            x, sigma = branch_inverse(frac * yM, P_CHANGE)
            assert sigma < xM < x

    def test_heights_recovered(self):
        rng = np.random.default_rng(3)
        _, yM = fold_point(P_CHANGE.m, P_CHANGE.n)
        for _ in range(40):
            y = float(rng.uniform(0.0, yM))
            x, sigma = branch_inverse(y, P_CHANGE)
            assert abs(critical_height(x, P_CHANGE.m, P_CHANGE.n) - y) < 1e-12
            assert abs(critical_height(sigma, P_CHANGE.m, P_CHANGE.n) - y) < 1e-12

    def test_arrays_match_points_and_keep_checks(self):
        _, yM = fold_point(P_CHANGE.m, P_CHANGE.n)
        ys = np.linspace(0.0, yM, 9)
        xs, sigmas = branch_inverse(ys, P_CHANGE)
        for y, x, sigma in zip(ys, xs, sigmas):
            assert (x, sigma) == branch_inverse(float(y), P_CHANGE)
        with pytest.raises(DomainError):
            branch_inverse(np.append(ys, yM + 0.01), P_CHANGE)
        with pytest.raises(DomainError):
            branch_inverse(np.append(ys, -0.01), P_CHANGE)

    def test_inaccurate_preimage_fails_the_check(self):
        # at m = 1e-8 the left root sigma of F = 0 sits where F' is about 1e8,
        # so the rounding of sigma shows in F(sigma) above the 1e-12 allowance
        p = AlleeParams(m=1e-8, n=0.1, alpha=0.8, beta=0.15, gamma=0.5, eps=0.01)
        with pytest.raises(NumericsError,
                           match=r"^branch inverse at y=0.0 fails the F\(x\) = y check$"):
            branch_inverse(0.0, p)

    def test_above_fold_rejected(self):
        _, yM = fold_point(P_CHANGE.m, P_CHANGE.n)
        with pytest.raises(DomainError):
            branch_inverse(yM + 0.01, P_CHANGE)
        with pytest.raises(DomainError):
            branch_inverse(-0.01, P_CHANGE)


class TestPhi:
    def test_slope(self):
        assert abs((phi(0.3, P_CHANGE) - phi(0.1, P_CHANGE)) / 0.2
                   - (P_CHANGE.alpha + P_CHANGE.gamma)) < 1e-12

    def test_root(self):
        assert abs(phi(phi_root(P_CHANGE), P_CHANGE)) < 1e-14

    def test_value_at_fold_height(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            p = random_coincident(rng)
            _, yM = fold_point(p.m, p.n)
            want = p.alpha + 2.0 * p.gamma - (3.0 * p.alpha + 2.0 * p.gamma) * math.sqrt(p.m)
            assert abs(phi(yM, p) - want) < 1e-12

    def test_near_zero_at_degenerate_parameters(self):
        # at m = m*(alpha, gamma) the fold height is the phi root; the
        # six-digit m below is the rounded m*, so phi(y_M) is only near 0
        p = coincident(0.263075, 0.1, 0.8, 0.4424)
        _, yM = fold_point(p.m, p.n)
        assert abs(phi(yM, p)) < 2e-4
        mstar = psi_case_analysis(0.2, 0.1, 0.8, 0.4424).m_star
        pstar = coincident(mstar, 0.1, 0.8, 0.4424)
        _, yMs = fold_point(pstar.m, pstar.n)
        assert abs(phi(yMs, pstar)) < 1e-12


class TestFactorization:
    def test_exact_with_three_halves(self):
        _, yM = fold_point(P_CHANGE.m, P_CHANGE.n)
        for frac in (0.2, 0.5, 0.8):
            lhs, rhs = factorization_gap(frac * yM, P_CHANGE, exponent=1.5)
            assert abs(lhs - rhs) < 1e-10 * abs(lhs)

    def test_other_exponent_fails(self):
        _, yM = fold_point(P_CHANGE.m, P_CHANGE.n)
        lhs, rhs = factorization_gap(0.5 * yM, P_CHANGE, exponent=2.0 / 3.0)
        assert abs(lhs - rhs) > 0.5 * abs(lhs)

    def test_pointwise_sign_opposes_phi(self):
        rng = np.random.default_rng(17)
        _, yM = fold_point(P_CHANGE.m, P_CHANGE.n)
        y0 = phi_root(P_CHANGE)
        for _ in range(20):
            y = float(rng.uniform(0.05 * yM, 0.98 * yM))
            if abs(y - y0) < 1e-3:
                continue
            x, sigma = branch_inverse(y, P_CHANGE)
            diff = h_slow(sigma, P_CHANGE) - h_slow(x, P_CHANGE)
            assert math.copysign(1.0, diff) == -math.copysign(1.0, phi(y, P_CHANGE))

    @pytest.mark.parametrize("x", [0.0, np.array([0.2, 0.0, 0.1])])
    def test_vanishing_slow_flow_is_refused(self, x):
        # at x = 0, alpha x - beta - gamma F = -0.05 + 0.5 * 0.1 is exactly 0
        p = AlleeParams(m=0.3, n=0.1, alpha=0.8, beta=0.05, gamma=0.5, eps=0.01)
        with pytest.raises(NumericsError, match="^slow flow vanishes at x=0.0: h is singular there$"):
            h_slow(x, p)


class TestIntegral:
    def test_vanishes_with_depth(self):
        assert abs(slow_divergence_integral(P_CHANGE, 1e-6)) < 1e-6

    def test_sign_follows_phi_positive_case(self):
        # y0 <= 0: phi > 0 on the whole height range
        p = coincident(0.2, 0.05, 0.8, 0.6)
        assert phi_root(p) <= 0.0
        _, yM = fold_point(p.m, p.n)
        for s in (0.1 * yM, 0.4 * yM, 0.8 * yM):
            assert slow_divergence_integral(p, s) > 0.0

    def test_sign_follows_phi_negative_case(self):
        _, yM = fold_point(P_NEG.m, P_NEG.n)
        assert phi_root(P_NEG) >= yM
        for s in (0.1 * yM, 0.4 * yM, 0.8 * yM):
            assert slow_divergence_integral(P_NEG, s) < 0.0

    def test_forms_agree(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            p = random_coincident(rng)
            _, yM = fold_point(p.m, p.n)
            s = float(rng.uniform(0.1, 0.9)) * yM
            iy = slow_divergence_integral(p, s)
            ix = slow_divergence_integral_x(p, s)
            assert abs(iy - ix) <= 1e-6 * max(abs(iy), 1e-12)

    def test_interior_equilibrium_on_segment_is_flagged(self):
        # off the coincidence value the slow flow dies at E4 inside the
        # window, the integral genuinely diverges and quadrature says so
        from canard.errors import NumericsError

        with pytest.raises(NumericsError):
            slow_divergence_integral(dataclasses.replace(P_CHANGE, beta=P_CHANGE.beta + 1e-3),
                                     0.05)

    def test_deep_depths_agree_across_forms(self):
        # depths close to s_max, where h's pole at y_hat nears the window
        rng = np.random.default_rng(31)
        for p in (P_CHANGE, P_NEG, random_coincident(rng), random_coincident(rng)):
            smax = sdi._depth_ceiling(p)[1]
            for gap in (1e-2, 1e-3, 1e-5):
                iy = slow_divergence_integral(p, (1.0 - gap) * smax)
                ix = slow_divergence_integral_x(p, (1.0 - gap) * smax)
                assert abs(iy - ix) <= 1e-6 * abs(iy)

    def test_fine_grid_reaches_deep_depths(self):
        prof = cyclicity_report(P_CHANGE, 200)
        assert prof.zero_count == 1 and len(prof.values) == 200

    @pytest.mark.parametrize("form", [slow_divergence_integral, slow_divergence_integral_x])
    def test_nonfinite_integrand_raises(self, monkeypatch, form):
        monkeypatch.setattr(sdi, "h_slow", lambda x, p: np.full(np.shape(x), np.nan))
        with pytest.raises(NumericsError, match="non-finite"):
            form(P_CHANGE, 0.05)

    def test_rule_is_exact_for_polynomials_and_flags_poles(self):
        got = sdi._gauss_legendre(lambda x: 96.0 * x ** 95, [0.0, 0.0], [1.0, 0.5], "test")
        assert got[0] == pytest.approx(1.0, rel=1e-13)
        assert got[1] == pytest.approx(0.5 ** 96, rel=1e-13)
        with pytest.raises(NumericsError, match="disagree"):
            sdi._gauss_legendre(lambda x: 1.0 / (x - 0.3), [0.0], [1.0], "test")
        with pytest.raises(NumericsError, match="non-finite"):
            sdi._gauss_legendre(lambda x: np.where(x > 0.5, np.inf, 1.0), [0.0], [1.0], "test")

    def test_depth_range_enforced(self):
        _, yM = fold_point(P_CHANGE.m, P_CHANGE.n)
        with pytest.raises(DomainError):
            slow_divergence_integral(P_CHANGE, 0.0)
        with pytest.raises(DomainError):
            slow_divergence_integral(P_CHANGE, yM * 1.01)
        smax = sdi._depth_ceiling(P_CHANGE)[1]
        for s in (0.0, smax, yM * 1.01):
            with pytest.raises(DomainError, match=r"^requires 0 < s < .*, got s="):
                slow_divergence_integral_x(P_CHANGE, s)


class TestCyclicityReport:
    def test_sign_change_case(self):
        prof = cyclicity_report(P_CHANGE, 24)
        assert prof.case == "phi-sign-change"
        assert prof.zero_count == 1
        assert len(prof.s_grid) == 24

    def test_negative_case(self):
        prof = cyclicity_report(P_NEG, 16)
        assert prof.case == "phi-negative"
        assert prof.zero_count == 0
        assert all(v < 0.0 for v in prof.values)

    def test_positive_case(self):
        p = coincident(0.2, 0.05, 0.8, 0.6)
        prof = cyclicity_report(p, 16)
        assert prof.case == "phi-positive"
        assert prof.zero_count == 0
        assert all(v > 0.0 for v in prof.values)

    def test_zero_count_bounded_on_random_sets(self):
        rng = np.random.default_rng(2025)
        for _ in range(10):
            p = random_coincident(rng)
            prof = cyclicity_report(p, 12)
            assert prof.zero_count <= 1

    def test_profile_continuity_under_refinement(self):
        coarse = cyclicity_report(P_CHANGE, 10)
        fine = cyclicity_report(P_CHANGE, 21)
        # coarse grid point i sits at fine grid point 2i+1 (same s_max split)
        for i, s in enumerate(coarse.s_grid):
            j = 2 * i + 1
            assert abs(fine.s_grid[j] - s) < 1e-12
            assert abs(fine.values[j] - coarse.values[i]) < 1e-7 * max(
                1.0, abs(coarse.values[i]))

    def test_gates(self):
        with pytest.raises(DomainError):
            cyclicity_report(P_CHANGE, 1)
        off = AlleeParams(m=P_CHANGE.m, n=P_CHANGE.n, alpha=P_CHANGE.alpha,
                          beta=P_CHANGE.beta + 0.01, gamma=P_CHANGE.gamma, eps=0.01)
        with pytest.raises(DomainError):
            cyclicity_report(off, 8)

    @pytest.mark.parametrize("grid_size", [1, 0, True, 2.0, 3.5, "3"])
    def test_grid_size_is_an_integer_of_at_least_two(self, grid_size):
        # unchecked, a float grid_size reaches range() as a bare TypeError
        with pytest.raises(DomainError, match="requires an integer grid_size >= 2"):
            cyclicity_report(P_CHANGE, grid_size)

    def test_profile_validation(self):
        with pytest.raises(DomainError):
            SdiProfile((0.1, 0.05), (1.0, 2.0), 0, "phi-positive")
        with pytest.raises(DomainError):
            SdiProfile((0.1, 0.2), (1.0,), 0, "phi-positive")

    def test_zero_count_is_sign_changes_of_values(self):
        rng = np.random.default_rng(47)
        for p in [P_CHANGE, P_NEG] + [random_coincident(rng) for _ in range(40)]:
            for grid in (2, 5, 24):
                prof = cyclicity_report(p, grid)
                signs = [math.copysign(1.0, v) for v in prof.values if v != 0.0]
                assert prof.zero_count == sum(a != b for a, b in zip(signs, signs[1:]))

    def test_json_summary(self):
        import json

        prof = cyclicity_report(P_NEG, 6)
        data = json.loads(json.dumps(dataclasses.asdict(prof)))
        assert data["zero_count"] == 0
        assert data["case"] == "phi-negative"
        assert len(data["s_grid"]) == 6
