import math
import re
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from model_oracle import jet_reduced_record

from canard.allee import (
    PSI_TAGS,
    AlleeParams,
    _jacobian,
    boundary_roots,
    check_grid,
    critical_height,
    critical_slope,
    equilibria,
    fold_point,
    gamma_star,
    model_bifurcation_curves,
    model_columns,
    model_field,
    normal_form_coeffs,
    normal_form_columns,
    omega2_at_degeneracy,
    psi_case_analysis,
    psi_columns,
    require_closed_forms,
)
from canard.errors import DomainError, NumericsError
from canard.normalform import COEFF_NAMES, compute_A, lambda_c, lambda_H, omega_coefficients

EX1 = dict(m=0.3, n=0.1, alpha=0.849561, beta=0.2, gamma=0.1, eps=0.0099)
EX2 = dict(m=0.263075, n=0.1, alpha=0.8, beta=0.138485, gamma=0.4424, eps=0.01)


def random_admissible(rng, strict_margin=0.05):
    n = float(rng.uniform(0.05, 0.6))
    bound = (1.0 - math.sqrt(n)) ** 2
    m = float(rng.uniform(0.2 * bound, (1.0 - strict_margin) * bound))
    return m, n


class TestParams:
    def test_roundtrip(self):
        p = AlleeParams(**EX1)
        assert AlleeParams(**asdict(p)) == p

    def test_rejects_bad_values(self):
        with pytest.raises(DomainError):
            AlleeParams(**{**EX1, "alpha": -1.0})
        with pytest.raises(DomainError):
            AlleeParams(**{**EX1, "eps": 0.0})
        with pytest.raises(DomainError):
            AlleeParams(**{**EX1, "eps": 0.2})
        with pytest.raises(DomainError):
            AlleeParams(**{**EX1, "n": 1.0})
        with pytest.raises(DomainError):
            AlleeParams(**{**EX1, "m": 0.5})  # above (1-sqrt(0.1))^2
        with pytest.raises(DomainError):
            AlleeParams(**{**EX1, "m": float("nan")})

    def test_boundary_m_is_allowed(self):
        # m = (1-sqrt(n))^2 exactly: fold on the x-axis
        AlleeParams(m=0.25, n=0.25, alpha=1.0, beta=0.2, gamma=0.5, eps=0.01)


class TestFold:
    def test_quarter_example(self):
        xM, yM = fold_point(0.25, 0.1)
        assert abs(xM - 0.25) < 1e-12
        assert abs(yM - 0.15) < 1e-12

    def test_second_example(self):
        xM, yM = fold_point(0.3, 0.1)
        assert abs(xM - 0.2477226) < 1e-6
        assert abs(yM - 0.1045549) < 1e-6

    def test_boundary_gives_zero_height(self):
        n = 0.25
        xM, yM = fold_point((1.0 - math.sqrt(n)) ** 2, n)
        assert abs(yM) < 1e-12
        assert xM > 0.0

    def test_slope_vanishes(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            m, n = random_admissible(rng)
            xM, yM = fold_point(m, n)
            assert abs(critical_slope(xM, m, n)) < 1e-12
            assert abs(critical_height(xM, m, n) - yM) < 1e-12

    @pytest.mark.parametrize("m", [1e-216, 1e-300, 5e-324])
    def test_underflowing_cube_is_domain_error(self, m):
        # F''(x_M) divides by (m + x_M)^3 = m^1.5, which is 0 below m ~ 2e-216
        with pytest.raises(DomainError, match=f"^m={m} is too small"):
            fold_point(m, 0.1)

    def test_smallest_m_above_the_underflow(self):
        xM, yM = fold_point(1e-215, 0.1)
        assert xM > 0.0 and yM == pytest.approx(0.9)

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            fold_point(0.5, 0.1)
        with pytest.raises(DomainError):
            fold_point(0.1, 1.5)


class TestBoundaryRoots:
    def test_printed_roots(self):
        d1, x1, x2 = boundary_roots(0.1, 0.1)
        assert d1 > 0.0
        assert abs(x1 - 0.0127016) < 1e-6
        assert abs(x2 - 0.7872984) < 1e-6

    def test_vieta(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            m, n = random_admissible(rng)
            _, x1, x2 = boundary_roots(m, n)
            assert abs(x1 + x2 - (1.0 - m - n)) < 1e-12
            assert abs(x1 * x2 - m * n) < 1e-12

    def test_double_root(self):
        d1, x1, x2 = boundary_roots(0.25, 0.25)
        assert d1 == 0.0
        assert x1 == x2 == 0.25

    def test_complex_case(self):
        d1, x1, x2 = boundary_roots(0.5, 0.5)
        assert d1 < 0.0 and x1 is None and x2 is None


class TestCriticalBranches:
    def test_graph_interpolates_roots_and_fold(self):
        _, x1, x2 = boundary_roots(0.3, 0.1)
        assert abs(critical_height(x1, 0.3, 0.1)) < 1e-12
        assert abs(critical_height(x2, 0.3, 0.1)) < 1e-12
        xM, yM = fold_point(0.3, 0.1)
        assert abs(critical_height(xM, 0.3, 0.1) - yM) < 1e-12
        assert x1 < xM < x2

    def test_fast_eigenvalue_signs(self):
        # the fast eigenvalue f_x: positive on the repelling part (x1, x_M)
        # of the graph, negative on the attracting part (x_M, x2) and on
        # the y-axis
        p = AlleeParams(**EX1)
        _, x1, x2 = boundary_roots(p.m, p.n)
        xM, _ = fold_point(p.m, p.n)
        for t in (0.1, 0.5, 0.9):
            xr = x1 + t * (xM - x1)
            assert _jacobian(xr, critical_height(xr, p.m, p.n), p)[0] > 0.0
            xa = xM + t * (x2 - xM)
            assert _jacobian(xa, critical_height(xa, p.m, p.n), p)[0] < 0.0
        for y in (0.0, 0.3, 1.5):
            assert _jacobian(0.0, y, p)[0] < 0.0

    def test_eigenvalue_matches_finite_difference(self):
        # all four Jacobian entries, the fast eigenvalue f_x among them,
        # against central differences of the model field
        p = AlleeParams(**EX2)
        f = model_field(p)
        h = 1e-6
        for x, y in ((0.1, 0.05), (0.2, critical_height(0.2, p.m, p.n)),
                     (0.4, 0.3), (0.0, 0.7)):
            fd = [(f(x + h, y)[k] - f(x - h, y)[k]) / (2 * h) for k in (0, 1)]
            fd += [(f(x, y + h)[k] - f(x, y - h)[k]) / (2 * h) for k in (0, 1)]
            fx, fy, gx, gy = _jacobian(x, y, p)
            for got, want in zip((fx, gx, fy, gy), fd):
                assert abs(got - want) < 1e-9


class TestEquilibria:
    def test_example_one_layout(self):
        rep = equilibria(AlleeParams(**EX1))
        assert rep.E0.kind == "stable node"
        assert rep.E1.kind == "saddle"
        assert rep.E2.kind == "saddle"
        assert rep.E3 is None
        assert rep.E4 is not None
        x4, y4 = rep.E4.point
        assert rep.E4.kind == "stable focus"
        # interior point sits just right of the fold on the attracting branch
        assert x4 > rep.fold[0]
        assert abs(y4 - critical_height(x4, EX1["m"], EX1["n"])) < 1e-12

    def test_example_two_unstable(self):
        rep = equilibria(AlleeParams(**EX2))
        assert rep.E4 is not None
        assert rep.E4.kind == "unstable focus"
        assert rep.E4.point[0] < rep.fold[0]

    def test_residuals(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m, n = random_admissible(rng)
            p = AlleeParams(m=m, n=n, alpha=float(rng.uniform(0.3, 1.5)),
                            beta=float(rng.uniform(0.05, 0.5)),
                            gamma=float(rng.uniform(0.05, 1.0)), eps=0.01)
            rep = equilibria(p)
            for eq in (rep.E0, rep.E1, rep.E2, rep.E3, rep.E4):
                if eq is None:
                    continue
                f, g = model_field(p)(*eq.point)
                assert max(abs(f), abs(g)) < 1e-10

    def test_collision_reported_once(self):
        p = AlleeParams(m=0.25, n=0.25, alpha=1.0, beta=0.2, gamma=0.5, eps=0.01)
        rep = equilibria(p)
        assert rep.delta1 == 0.0
        assert rep.E1 is not None and "degenerate" in rep.E1.kind
        assert rep.E2 is None

    def test_json_roundtrip(self):
        import json

        rep = equilibria(AlleeParams(**EX1))
        data = json.loads(json.dumps(asdict(rep)))
        assert data["E3"] is None
        assert abs(data["E4"]["point"][0] - rep.E4.point[0]) == 0.0


class TestGammaStar:
    def test_printed_value(self):
        assert abs(gamma_star(0.25, 0.1, 1.0, 0.2) - 1.0 / 3.0) < 1e-12

    def test_two_closed_forms_agree(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            m, n = random_admissible(rng)
            alpha = float(rng.uniform(0.3, 1.5))
            beta = float(rng.uniform(0.05, 0.5))
            g1 = gamma_star(m, n, alpha, beta)
            g2 = (beta + alpha * m - alpha * math.sqrt(m)) / (
                -m + 2.0 * math.sqrt(m) + n - 1.0)
            assert abs(g1 - g2) < 1e-14 * max(1.0, abs(g1))

    def test_zero_at_matching_beta(self):
        xM, _ = fold_point(0.3, 0.1)
        assert abs(gamma_star(0.3, 0.1, 0.8, 0.8 * xM)) < 1e-14

    def test_boundary_rejected(self):
        with pytest.raises(DomainError):
            gamma_star(0.25, 0.25, 1.0, 0.2)


def closed_form_record(m, n, alpha, gamma):
    xM, yM = fold_point(m, n)
    Q = math.sqrt(alpha * xM * yM)
    rm = math.sqrt(m)
    return {
        "a10": alpha * yM / (Q * (rm - 1.0)),
        "b10": -Q / (rm - 1.0) ** 2,
        "e01": alpha / (rm - 1.0),
        "f00": -gamma * yM / Q,
        "f10": alpha / (rm - 1.0),
        "f01": gamma * alpha * yM / ((1.0 - rm) * Q),
    }


class TestNormalFormCoeffs:
    def test_matches_closed_forms(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            m, n = random_admissible(rng)
            alpha = float(rng.uniform(0.3, 1.5))
            gamma = float(rng.uniform(0.05, 1.0))
            p = AlleeParams(m=m, n=n, alpha=alpha, beta=0.2, gamma=gamma, eps=0.01)
            nf = normal_form_coeffs(p)
            for key, want in closed_form_record(m, n, alpha, gamma).items():
                assert abs(getattr(nf, key) - want) <= 1e-12 * max(1.0, abs(want))

    def test_structural_zeros(self):
        nf = normal_form_coeffs(AlleeParams(**EX2))
        for key in ("a01", "a20", "a11", "a02", "c10", "c01", "c20", "c30",
                    "d10", "d20", "e10", "e20", "e11", "e02", "e30",
                    "f20", "f11", "f02"):
            assert getattr(nf, key) == 0.0

    def test_record_is_beta_independent(self):
        p1 = AlleeParams(**EX2)
        p2 = AlleeParams(**{**EX2, "beta": 0.25})
        assert normal_form_coeffs(p1) == normal_form_coeffs(p2)

    def test_a5_matches_f00_at_coincidence(self):
        m, n, alpha, gamma = 0.263075, 0.1, 0.8, 0.4424
        xM, yM = fold_point(m, n)
        beta_star = alpha * xM - gamma * yM
        p = AlleeParams(m=m, n=n, alpha=alpha, beta=beta_star, gamma=gamma, eps=0.01)
        assert abs(model_columns(**asdict(p))["a5"] - normal_form_coeffs(p).f00) < 1e-14

    def test_example_one_damping_nonzero(self):
        p = AlleeParams(**EX1)
        a5 = model_columns(**asdict(p))["a5"]
        assert math.isfinite(a5) and abs(a5) > 1e-6

    def test_A_vanishes_at_computed_mstar(self):
        rep = psi_case_analysis(0.2, 0.1, 0.8, 0.4424)
        p = AlleeParams(m=rep.m_star, n=0.1, alpha=0.8, beta=0.15,
                        gamma=0.4424, eps=0.01)
        assert abs(compute_A(normal_form_coeffs(p))) < 1e-12

    def test_A_small_at_rounded_mstar(self):
        # the six-digit rounding of m* leaves |A| ~ 2.4e-6
        p = AlleeParams(**EX2)
        assert abs(compute_A(normal_form_coeffs(p))) < 5e-6


class TestClosedFormRecord:
    @settings(max_examples=200, deadline=None)
    @given(n=st.floats(0.02, 0.9), frac=st.floats(0.01, 0.99),
           alpha=st.floats(0.05, 3.0), beta=st.floats(0.01, 1.0), gamma=st.floats(0.05, 3.0))
    def test_equals_jet_reduction_on_every_field(self, n, frac, alpha, beta, gamma):
        m = frac * (1.0 - math.sqrt(n)) ** 2
        p = AlleeParams(m=m, n=n, alpha=alpha, beta=beta, gamma=gamma, eps=0.01)
        got, want = normal_form_coeffs(p), jet_reduced_record(p)
        for key in COEFF_NAMES:
            g, w = getattr(got, key), getattr(want, key)
            assert abs(g - w) <= 1e-12 * max(1.0, abs(w)), (key, g, w)
            assert (g == 0.0) == (w == 0.0), key

    def test_columns_equal_scalar_points_bitwise(self):
        # a one-cell sweep must print what analyze prints: arrays and
        # single points go through the same expressions and round alike
        rng = np.random.default_rng(53)
        pts = []
        for _ in range(40):
            m, n = random_admissible(rng)
            pts.append(AlleeParams(m=m, n=n, alpha=float(rng.uniform(0.3, 1.5)),
                                   beta=float(rng.uniform(0.05, 0.5)),
                                   gamma=float(rng.uniform(0.05, 1.0)),
                                   eps=float(rng.uniform(1e-3, 0.1))))
        cols = {k: np.array([getattr(p, k) for p in pts])
                for k in ("m", "n", "alpha", "beta", "gamma", "eps")}
        rec = normal_form_columns(cols["m"], cols["n"], cols["alpha"], cols["gamma"])
        out = model_columns(cols["m"], cols["n"], cols["alpha"], cols["beta"],
                            cols["gamma"], cols["eps"])
        psi, m_star, n_threshold, case = psi_columns(cols["m"], cols["n"], cols["alpha"],
                                                     cols["gamma"])
        for i, p in enumerate(pts):
            nf = normal_form_coeffs(p)
            for key in COEFF_NAMES:
                assert getattr(nf, key) == np.broadcast_to(getattr(rec, key), (40,))[i]
            om = omega_coefficients(nf)
            a5 = model_columns(**asdict(p))["a5"]
            assert out["A"][i] == compute_A(nf) == om.omega1 == out["omega1"][i]
            assert out["omega2"][i] == om.omega2
            assert out["a5"][i] == a5
            assert out["lambda_h"][i] == lambda_H(nf.c10, a5, p.eps)
            assert out["lambda_c"][i] == lambda_c(nf.c10, a5, om.omega1, p.eps)
            rep = psi_case_analysis(p.m, p.n, p.alpha, p.gamma)
            assert (rep.psi, rep.m_star, rep.n_threshold) == (psi[i], m_star[i], n_threshold[i])
            assert PSI_TAGS[case[i]] == rep.tag


def ulps(x, k):
    """x moved k ulps up (k > 0) or down (k < 0)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


NON_VALUES = [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0]
TINY = [ulps(0.0, 1), 1e-300]
# here C pow's (1 - sqrt(n))**2 is one ulp below the product (1 - sqrt(n))*(1 - sqrt(n)),
# and at m on either bound y_M still reads positive
N_POW_BELOW = 0.8885341369159843
# (name, value) moves of one coordinate onto or near a bound
PROBES = ([(name, v) for name in ("alpha", "beta", "gamma") for v in NON_VALUES + TINY]
          + [("n", v) for v in NON_VALUES + TINY + [1.0, ulps(1.0, -1), 0.25, N_POW_BELOW]]
          + [("eps", v) for v in NON_VALUES + TINY + [0.1, ulps(0.1, 1), ulps(0.1, -1)]])


def m_bound(n):
    """(1 - sqrt(n))^2, or 0.25 where n has no square root."""
    return (1.0 - math.sqrt(n)) ** 2 if 0.0 <= n <= 1.0 else 0.25


def m_probes(n):
    """m inside, at and one to three ulps around m_bound(n), just inside
    it by a few margins, and tiny or rejected values."""
    bound = m_bound(n)
    return ([0.5 * bound] + [ulps(bound, k) for k in range(-3, 4)]
            + [f * bound for f in (1.0 - 5e-13, 1.0 - 1e-12, 1.0 - 2e-12, 1.0 - 4e-12)]
            + NON_VALUES + TINY + [1e-200])


# A grid point is one of BASES interior base points, kept as it is or moved
# as a boundary point: up to two PROBES applied, and m from m_probes or at
# the base's own fraction of m_bound.  Each point is one integer drawn as an
# index into the fixed table of these choices, of shape MOVES: no strategy is
# built and no float drawn per point, and every probe and m probe is reachable.
BASES = 3
M_PROBE_COUNT = len(m_probes(0.1))  # one length for every n
MOVES = (BASES,
         6,  # kind: 0-2 keeps the base, 3-5 applies 0, 1 or 2 probes
         len(PROBES), len(PROBES),
         2 * M_PROBE_COUNT)  # an m probe, or in the upper half the base's fraction
MOVE_COUNT = math.prod(MOVES)
# hypothesis draws small integers far more often than large ones: a multiplier
# prime to MOVE_COUNT permutes the table so that they spread over all of it
SPREAD = 1_000_003
BASE_POINTS = st.lists(st.fixed_dictionaries(dict(
    n=st.floats(1e-6, 0.9), frac=st.floats(1e-6, 1.0 - 1e-6), alpha=st.floats(1e-6, 10.0),
    beta=st.floats(1e-6, 10.0), gamma=st.floats(1e-6, 10.0), eps=st.floats(1e-6, 0.1))),
    min_size=BASES, max_size=BASES)


def indexed_point(bases, move):
    """The point at index move of the MOVES table over the given base points."""
    base, kind, first, second, m_index = map(
        int, np.unravel_index(move * SPREAD % MOVE_COUNT, MOVES))
    pt = {k: v for k, v in bases[base].items() if k != "frac"}
    if kind >= 3:
        pt.update([PROBES[first], PROBES[second]][:kind - 3])
    if kind < 3 or m_index >= M_PROBE_COUNT:
        pt["m"] = bases[base]["frac"] * m_bound(pt["n"])
    else:
        pt["m"] = m_probes(pt["n"])[m_index]
    return pt


def verdict(check, *args, **kwargs):
    """(type, message) of the error check raises, or None if it passes."""
    try:
        check(*args, **kwargs)
    except (DomainError, NumericsError) as exc:
        return type(exc), str(exc)
    return None


def scalar_verdict(pt):
    """The verdict of AlleeParams, then require_closed_forms, at one point."""
    return verdict(lambda: require_closed_forms(AlleeParams(**pt)))


def first_verdict(points):
    """The scalar verdict of the first failing point, or None."""
    return next(filter(None, map(scalar_verdict, points)), None)


def grid_of(points, shape):
    """Each parameter of points as an array of the given shape, in C order."""
    return {k: np.array([pt[k] for pt in points]).reshape(shape) for k in points[0]}


class TestCheckGrid:
    """check_grid: the rules of AlleeParams and require_closed_forms over
    parameter columns, raising what the scalar checks raise at the first
    failing point in C order."""

    @settings(max_examples=600, deadline=None)
    @given(data=st.data(), shape=st.tuples(st.integers(1, 6), st.integers(1, 5)))
    def test_cleared_points_pass_the_scalar_checks(self, data, shape):
        # grids of 1x1 to 6x5 points, each a base point kept or moved onto a bound
        bases = data.draw(BASE_POINTS)
        moves = data.draw(st.lists(st.integers(0, MOVE_COUNT - 1),
                                   min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]))
        points = [indexed_point(bases, move) for move in moves]
        assert verdict(check_grid, **grid_of(points, shape)) == first_verdict(points)

    def test_every_move_is_drawable(self):
        # the spread is a permutation of the MOVES table: each base, kind,
        # probe pair and m probe is the point of some drawn integer
        assert math.gcd(SPREAD, MOVE_COUNT) == 1

    def test_every_single_probe(self):
        # each probe on its own, against every m probe at one interior point,
        # point by point and as one column
        base = dict(n=0.1, alpha=0.8, beta=0.138485, gamma=0.4424, eps=0.01)
        for name, value in [(None, None)] + PROBES:
            pt = dict(base) if name is None else dict(base, **{name: value})
            points = [dict(pt, m=m) for m in m_probes(pt["n"])]
            for point in points:
                assert verdict(check_grid, **point) == scalar_verdict(point), point
            assert verdict(check_grid, **grid_of(points, (len(points),))) == first_verdict(points)

    @settings(max_examples=200, deadline=None)
    @given(n=st.floats(1e-6, 0.9), frac=st.lists(st.floats(1e-9, 1.0 - 1e-9), min_size=1, max_size=5),
           alpha=st.floats(1e-3, 10.0), beta=st.floats(1e-3, 10.0),
           gamma=st.floats(1e-3, 10.0), eps=st.floats(1e-6, 0.1))
    def test_clears_interior_points(self, n, frac, alpha, beta, gamma, eps):
        assert check_grid(np.array(frac) * m_bound(n), n, alpha, beta, gamma, eps) is None

    def test_bound_is_one_product_on_both_paths(self):
        # the one verdict that moved when the bound became gap * gap on
        # both paths: m = gap**2 lies one ulp below it and is admissible
        gap = 1.0 - math.sqrt(N_POW_BELOW)
        assert gap ** 2 < gap * gap
        pt = dict(n=N_POW_BELOW, alpha=0.8, beta=0.1, gamma=0.4, eps=0.01)
        require_closed_forms(AlleeParams(m=gap ** 2, **pt))
        assert check_grid(m=gap ** 2, **pt) is None
        # m = gap * gap is the bound: AlleeParams allows it, the closed forms do not
        want = f"requires 0 < m < (1 - sqrt(n))^2 = {gap * gap:.6g}, got m={gap * gap}"
        with pytest.raises(DomainError, match=f"^{re.escape(want)}$"):
            require_closed_forms(AlleeParams(m=gap * gap, **pt))
        assert verdict(check_grid, m=gap * gap, **pt) == (DomainError, want)

    def test_elementwise_over_a_grid(self):
        m, beta = np.meshgrid([0.2, 0.25, 0.3], [-0.1, 0.1])
        pt = dict(n=0.25, alpha=0.8, gamma=0.4424, eps=0.01)
        assert verdict(check_grid, m=m, beta=beta, **pt) == (
            DomainError, "requires beta > 0, got -0.1")
        # rows swapped: (0.25, 0.1) fails first, its fold on the axis
        assert verdict(check_grid, m=m, beta=beta[::-1], **pt) == (
            DomainError, "requires alpha*x_M*y_M > 0, got 0.0")
        assert check_grid(m=m[1:, :1], beta=beta[1:, :1], **pt) is None


class TestPsiCase:
    def test_mstar_printed_value(self):
        rep = psi_case_analysis(0.2, 0.1, 0.8, 0.4424)
        assert abs(rep.m_star - 0.263075) < 1e-6

    def test_psi_root_and_monotonicity(self):
        rep = psi_case_analysis(0.2, 0.1, 0.8, 0.4424)
        at = psi_case_analysis(rep.m_star, 0.1, 0.8, 0.4424)
        assert at.tag == "m-at-mstar" and at.predicted_sign == 0
        below = psi_case_analysis(rep.m_star - 0.01, 0.1, 0.8, 0.4424)
        above = psi_case_analysis(rep.m_star + 0.01, 0.1, 0.8, 0.4424)
        assert below.psi > 0.0 > above.psi
        assert below.tag == "m-below-mstar" and below.predicted_sign == 1
        assert above.tag == "m-above-mstar" and above.predicted_sign == -1

    def test_large_n_case(self):
        rep0 = psi_case_analysis(0.2, 0.1, 0.8, 0.4424)
        n = rep0.n_threshold + 0.05
        bound = (1.0 - math.sqrt(n)) ** 2
        rep = psi_case_analysis(0.5 * bound, n, 0.8, 0.4424)
        assert rep.tag == "mstar-outside-range"
        assert rep.predicted_sign == 1

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["alpha", "gamma"])
    def test_non_finite_rate_is_domain_error(self, name, value):
        args = {**dict(m=0.2, n=0.1, alpha=0.8, gamma=0.4424), name: value}
        with pytest.raises(DomainError, match=f"^parameter {name} is not finite$"):
            psi_case_analysis(**args)

    def test_non_positive_rate_message(self):
        for alpha, gamma in ((0.0, 0.4), (0.8, -0.4)):
            with pytest.raises(DomainError, match="^requires alpha > 0 and gamma > 0$"):
                psi_case_analysis(0.2, 0.1, alpha, gamma)

    def test_sign_matches_record_A(self):
        rng = np.random.default_rng(37)
        checked = 0
        while checked < 50:
            m, n = random_admissible(rng)
            alpha = float(rng.uniform(0.3, 1.5))
            gamma = float(rng.uniform(0.05, 1.0))
            rep = psi_case_analysis(m, n, alpha, gamma)
            if abs(rep.psi) < 1e-8:
                continue
            p = AlleeParams(m=m, n=n, alpha=alpha, beta=0.2, gamma=gamma, eps=0.01)
            A = compute_A(normal_form_coeffs(p))
            assert math.copysign(1.0, A) == rep.predicted_sign
            checked += 1


class TestOmega2Degeneracy:
    def test_positive(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            assert omega2_at_degeneracy(
                float(rng.uniform(0.1, 2.0)),
                float(rng.uniform(0.1, 2.0)),
                float(rng.uniform(0.01, 0.5))) > 0.0

    def test_matches_general_formula_on_record(self):
        rep = psi_case_analysis(0.2, 0.1, 0.8, 0.4424)
        p = AlleeParams(m=rep.m_star, n=0.1, alpha=0.8, beta=0.15,
                        gamma=0.4424, eps=0.01)
        om = omega_coefficients(normal_form_coeffs(p))
        _, yM = fold_point(rep.m_star, 0.1)
        want = omega2_at_degeneracy(0.8, 0.4424, yM)
        assert abs(om.omega1) < 1e-12
        assert abs(om.omega2 - want) < 1e-12 * abs(want)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            omega2_at_degeneracy(0.0, 0.4, 0.1)
        with pytest.raises(DomainError):
            omega2_at_degeneracy(0.8, 0.4, -0.1)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["alpha", "gamma", "yM"])
    def test_non_finite_input_is_domain_error(self, name, value):
        args = {**dict(alpha=0.8, gamma=0.4, yM=0.1), name: value}
        with pytest.raises(DomainError, match=f"^parameter {name} is not finite$"):
            omega2_at_degeneracy(**args)


class TestModelCurves:
    def coincident_params(self, eps=0.01):
        # m = m*(alpha, gamma) and beta = beta* so that both the
        # degeneracy A = 0 and the gate gamma = gamma_star hold at once
        alpha, gamma, n = 0.8, 0.4424, 0.1
        m = psi_case_analysis(0.2, n, alpha, gamma).m_star
        xM, yM = fold_point(m, n)
        beta = alpha * xM - gamma * yM
        return AlleeParams(m=m, n=n, alpha=alpha, beta=beta, gamma=gamma, eps=eps)

    def test_gate_on_gamma(self):
        with pytest.raises(DomainError):
            model_bifurcation_curves(AlleeParams(**EX2))

    def test_curves_collapse_at_degeneracy(self):
        p = self.coincident_params()
        cur = model_bifurcation_curves(p)
        assert abs(cur.A) < 1e-12
        assert abs(cur.lambda_c - cur.lambda_h) < 1e-7 * p.eps
        assert abs(cur.beta_c - cur.beta_h) < 1e-7 * p.eps

    def test_offset_identity(self):
        m, n, alpha = 0.3, 0.1, 0.849561
        xM, yM = fold_point(m, n)
        beta = 0.2
        gamma = gamma_star(m, n, alpha, beta)
        p = AlleeParams(m=m, n=n, alpha=alpha, beta=beta, gamma=gamma, eps=0.0099)
        cur = model_bifurcation_curves(p)
        assert abs((cur.lambda_c - cur.lambda_h) - (-cur.A * p.eps / 8.0)) < 1e-15
        # model-space onset offset: beta_h - beta* = alpha*gamma*y_M*eps/(2*(sqrt(m)-1))
        want = alpha * gamma * yM * p.eps / (2.0 * (math.sqrt(m) - 1.0))
        got = cur.beta_h - cur.beta_star
        assert abs(got - want) < 1e-12
        assert cur.beta_h < cur.beta_star  # onset sits below the coincidence value

    def test_scales_linearly_with_eps(self):
        p1 = self.coincident_params(eps=0.01)
        p2 = self.coincident_params(eps=0.005)
        c1 = model_bifurcation_curves(p1)
        c2 = model_bifurcation_curves(p2)
        assert abs(c1.lambda_h - 2.0 * c2.lambda_h) < 1e-15
