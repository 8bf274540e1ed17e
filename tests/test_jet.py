import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canard.errors import DomainError
from canard.jet import (
    Jet,
    jet_add,
    jet_compose,
    jet_mul,
    jet_scale,
    jet_truncate,
)
from jet_reference import jet_eval, jet_recenter


def j1(degree, **terms):
    # 1-var helper: j1(3, c0=1, c1=2) = 1 + 2x at D=3
    coeffs = {}
    for key, val in terms.items():
        coeffs[(int(key[1:]),)] = val
    return Jet(1, degree, coeffs)


def random_jet(rng, nvars, degree):
    coeffs = {}
    for mi in itertools.product(range(degree + 1), repeat=nvars):
        if sum(mi) <= degree:
            coeffs[mi] = float(rng.uniform(-2.0, 2.0))
    return Jet(nvars, degree, coeffs)


def jets_close(a, b, tol=1e-12):
    assert a.nvars == b.nvars
    d = min(a.degree, b.degree)
    for mi in itertools.product(range(d + 1), repeat=a.nvars):
        if sum(mi) <= d:
            if abs(a.coeff(mi) - b.coeff(mi)) > tol:
                return False
    return True


class TestAdd:
    def test_cancellation(self):
        a = j1(2, c0=1.0, c1=1.0)
        b = j1(2, c0=1.0, c1=-1.0)
        s = jet_add(a, b)
        assert s.coeff((0,)) == 2.0
        assert s.coeff((1,)) == 0.0
        assert s.coeff((2,)) == 0.0

    def test_additive_identity(self):
        a = j1(2, c2=1.0)
        s = jet_add(a, Jet(1, 2))
        assert jets_close(s, a)

    def test_truncation_of_higher_order_operand(self):
        a = j1(2, c0=1.0, c1=1.0, c2=1.0)
        cubic = Jet(1, 3, {(3,): 1.0})
        s = jet_add(a, jet_truncate(cubic, 2))
        assert s.degree == 2
        assert s.coeff((0,)) == 1.0
        assert s.coeff((1,)) == 1.0
        assert s.coeff((2,)) == 1.0

    def test_nvars_mismatch(self):
        with pytest.raises(DomainError):
            jet_add(Jet(1, 2), Jet(2, 2))


class TestMul:
    def test_difference_of_squares(self):
        a = j1(2, c0=1.0, c1=1.0)
        b = j1(2, c0=1.0, c1=-1.0)
        p = jet_mul(a, b)
        assert p.coeff((0,)) == 1.0
        assert p.coeff((1,)) == 0.0
        assert p.coeff((2,)) == -1.0

    def test_truncation_drops_square(self):
        a = j1(1, c0=1.0, c1=1.0)
        p = jet_mul(a, a)
        assert p.degree == 1
        assert p.coeff((0,)) == 1.0
        assert p.coeff((1,)) == 2.0

    def test_two_vars(self):
        x = Jet(2, 2, {(1, 0): 1.0})
        y = Jet(2, 2, {(0, 1): 1.0})
        p = jet_mul(x, y)
        assert p.coeff((1, 1)) == 1.0
        assert jet_eval(p, (3.0, 4.0)) == 12.0

    def test_nvars_mismatch(self):
        with pytest.raises(DomainError):
            jet_mul(Jet(1, 2), Jet(3, 2))


class TestCompose:
    def test_scaling_a_square(self):
        # bound 4 holds the composed true degree: x^2 under x = r*u -> r^2 u^2
        f = Jet(1, 4, {(2,): 1.0})
        ru = Jet(2, 4, {(1, 1): 1.0})
        g = jet_compose(f, [ru])
        assert g.nvars == 2
        assert g.coeff((2, 2)) == pytest.approx(1.0)
        assert sum(abs(v) for v in g.coeffs.values()) == pytest.approx(1.0)

    def test_quasi_homogeneous_rescale(self):
        # f(x,y) = -y + x^2 under x = r*x1, y = r^2*y1 becomes r^2*(-y1 + x1^2)
        f = Jet(2, 4, {(0, 1): -1.0, (2, 0): 1.0})
        r = Jet(3, 4, {(1, 0, 0): 1.0})
        x1 = Jet(3, 4, {(0, 1, 0): 1.0})
        y1 = Jet(3, 4, {(0, 0, 1): 1.0})
        g = jet_compose(f, [jet_mul(r, x1), jet_mul(jet_mul(r, r), y1)])
        assert g.coeff((2, 0, 1)) == pytest.approx(-1.0)
        assert g.coeff((2, 2, 0)) == pytest.approx(1.0)
        # nothing else survives
        total = sum(abs(v) for v in g.coeffs.values())
        assert total == pytest.approx(2.0)

    def test_recenter_binomial(self):
        f = Jet(1, 2, {(2,): 1.0})
        g = jet_recenter(f, (0.5,))
        assert g.coeff((0,)) == pytest.approx(0.25)
        assert g.coeff((1,)) == pytest.approx(1.0)
        assert g.coeff((2,)) == pytest.approx(1.0)

    def test_constant_term_rejected(self):
        f = Jet(1, 3, {(3,): 1.0})
        shifted = j1(3, c0=1.0, c1=1.0)
        with pytest.raises(DomainError):
            jet_compose(f, [shifted])

    def test_arity_mismatch(self):
        f = Jet(2, 2)
        with pytest.raises(DomainError):
            jet_compose(f, [Jet(1, 2, {(1,): 1.0})])


class TestEval:
    def test_quadratic(self):
        f = j1(2, c0=1.0, c1=1.0, c2=1.0)
        assert jet_eval(f, (2.0,)) == 7.0

    def test_zero_jet(self):
        assert jet_eval(Jet(3, 4), (1.0, 2.0, 3.0)) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            jet_eval(Jet(2, 2), (1.0,))


class TestValidation:
    def test_degree_bound_enforced_on_construction(self):
        with pytest.raises(DomainError):
            Jet(1, 2, {(3,): 1.0})

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            Jet(1, 2, {(1,): float("nan")})

    def test_query_beyond_bound_rejected(self):
        f = Jet(1, 2)
        with pytest.raises(DomainError):
            f.coeff((3,))

    def test_absent_entry_is_zero(self):
        f = Jet(2, 3, {(1, 0): 2.0})
        assert f.coeff((0, 1)) == 0.0


class TestAlgebraProperties:
    def test_commutativity_and_associativity(self):
        rng = np.random.default_rng(20260814)
        for _ in range(25):
            nvars = int(rng.integers(1, 4))
            deg = int(rng.integers(1, 5))
            a = random_jet(rng, nvars, deg)
            b = random_jet(rng, nvars, deg)
            c = random_jet(rng, nvars, deg)
            assert jets_close(jet_add(a, b), jet_add(b, a))
            assert jets_close(jet_mul(a, b), jet_mul(b, a))
            assert jets_close(jet_add(jet_add(a, b), c), jet_add(a, jet_add(b, c)))
            assert jets_close(jet_mul(jet_mul(a, b), c), jet_mul(a, jet_mul(b, c)))

    def test_identity_composition(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            nvars = int(rng.integers(1, 4))
            deg = int(rng.integers(1, 5))
            f = random_jet(rng, nvars, deg)
            ident = [Jet(nvars, deg, {tuple(int(k == i) for k in range(nvars)): 1.0})
                     for i in range(nvars)]
            assert jets_close(jet_compose(f, ident), f)

    def test_eval_compose_consistency(self):
        # true degrees (2 outer, 2 inner -> 4 composed) fit the bound of 4,
        # so composition loses nothing and must agree with pointwise eval
        rng = np.random.default_rng(20240311)
        for _ in range(20):
            f = Jet(2, 4, random_jet(rng, 2, 2).coeffs)
            g0 = Jet(
                2, 4, {k: v for k, v in random_jet(rng, 2, 2).coeffs.items() if sum(k) > 0})
            g1 = Jet(
                2, 4, {k: v for k, v in random_jet(rng, 2, 2).coeffs.items() if sum(k) > 0})
            h = jet_compose(f, [g0, g1])
            p = (float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
            lhs = jet_eval(h, p)
            rhs = jet_eval(f, (jet_eval(g0, p), jet_eval(g1, p)))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_recenter_matches_eval(self):
        rng = np.random.default_rng(5150)
        for _ in range(10):
            f = random_jet(rng, 2, 3)
            c = (float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
            g = jet_recenter(f, c)
            u = (float(rng.uniform(-0.5, 0.5)), float(rng.uniform(-0.5, 0.5)))
            assert jet_eval(g, u) == pytest.approx(
                jet_eval(f, (c[0] + u[0], c[1] + u[1])), rel=1e-11, abs=1e-11)

    def test_scale(self):
        f = j1(2, c0=1.0, c1=2.0)
        g = jet_scale(f, -3.0)
        assert g.coeff((0,)) == -3.0
        assert g.coeff((1,)) == -6.0


class TestPublicConstructor:
    @pytest.mark.parametrize("mi", [(1,), (1, 0, 0), (-1, 1), (1.5, 0), (0, float("nan"))])
    def test_bad_multi_index(self, mi):
        with pytest.raises(DomainError):
            Jet(2, 3, {mi: 1.0})

    def test_integer_valued_entries_accepted(self):
        j = Jet(2, 3, {(np.int64(1), 1.0): 2.0})
        assert j.coeffs == {(1, 1): 2.0}
        assert all(type(e) is int for mi in j.coeffs for e in mi)

    @pytest.mark.parametrize("mi", [(1.5, 0), (0, 0.5), ("1", 0)])
    def test_coeff_rejects_non_integer_index(self, mi):
        with pytest.raises(DomainError):
            Jet(2, 3, {(1, 0): 1.0}).coeff(mi)

    def test_out_of_degree_term(self):
        with pytest.raises(DomainError):
            Jet(2, 2, {(2, 1): 1.0})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_value(self, value):
        with pytest.raises(DomainError):
            Jet(2, 3, {(1, 0): value})

    @pytest.mark.parametrize("value", [True, False, "x", None])
    def test_value_must_be_a_number(self, value):
        # float(True) would store the bool as 1.0
        with pytest.raises(DomainError, match=rf"^coefficient at \(0, 0\) is not a number: {value!r}$"):
            Jet(2, 2, {(0, 0): value})

    def test_integer_past_the_float_range_is_not_finite(self):
        with pytest.raises(DomainError, match=r"^non-finite coefficient at \(0, 0\)$"):
            Jet(2, 2, {(0, 0): 10 ** 400})

    def test_coeff_rejects_index_of_wrong_length(self):
        with pytest.raises(DomainError, match=r"^multi-index length 3 != nvars 2$"):
            Jet(2, 3, {(1, 0): 1.0}).coeff((1, 0, 0))

    def test_bad_shape(self):
        with pytest.raises(DomainError):
            Jet(5, 3, {})
        with pytest.raises(DomainError):
            Jet(2, -1, {})

    @pytest.mark.parametrize("nvars, degree, name", [
        (True, 3, "nvars"), (2.5, 3, "nvars"), (0, 3, "nvars"),
        (2, 2.5, "degree"), (2, True, "degree")])
    def test_counts_are_integers(self, nvars, degree, name):
        with pytest.raises(DomainError, match=f"requires an integer {name} >= "):
            Jet(nvars, degree, {})

    def test_numpy_integer_counts_accepted(self):
        j = Jet(np.int64(2), np.int64(3), {(1, 0): 1.0})
        assert j.coeff((1, 0)) == 1.0


class TestOpGuards:
    def test_mul_overflow_raises(self):
        big = Jet(2, 3, {(1, 0): 1e200})
        with pytest.raises(DomainError):
            jet_mul(big, big)

    def test_add_and_scale_overflow_raise(self):
        big = Jet(1, 2, {(1,): 1.5e308})
        with pytest.raises(DomainError):
            jet_add(big, big)
        with pytest.raises(DomainError):
            jet_scale(big, 10.0)

    def test_compose_rejects_substitutions_of_mixed_nvars(self):
        target = Jet(2, 3, {(1, 1): 1.0})
        with pytest.raises(DomainError, match="^substituted jets disagree on nvars$"):
            jet_compose(target, [Jet(2, 3, {(1, 0): 1.0}), Jet(3, 3, {(0, 0, 1): 1.0})])

    def test_truncate_rejects_negative_degree(self):
        with pytest.raises(DomainError):
            jet_truncate(Jet(2, 3), -1)

    def test_truncate_keeps_a_lower_degree_bound(self):
        # the terms past a jet's degree are unknown: truncating above it
        # keeps its bound and its terms
        j = Jet(2, 2, {(1, 0): 1.0})
        assert jet_truncate(j, 5) == j
        assert jet_truncate(j, 5).degree == 2

    @pytest.mark.parametrize("degree", [2.5, True])
    def test_truncate_degree_is_an_integer(self, degree):
        j = Jet(2, 3, {(1, 0): 1.0, (2, 1): 2.0})
        with pytest.raises(DomainError, match="requires an integer degree >= 0"):
            jet_truncate(j, degree)


@st.composite
def jets(draw, nvars, degree, const=True):
    mis = [mi for mi in itertools.product(range(degree + 1), repeat=nvars)
           if sum(mi) <= degree and (const or sum(mi) > 0)]
    vals = st.one_of(st.just(0.0), st.floats(-2.0, 2.0))
    return Jet(nvars, degree, {mi: draw(vals) for mi in mis})


def assert_normalized(out):
    """Op outputs must already be what the public constructor would build."""
    assert out == Jet(out.nvars, out.degree, out.coeffs)
    assert all(type(c) is float and c != 0.0 for c in out.coeffs.values())
    assert all(type(e) is int for mi in out.coeffs for e in mi)


class TestOpsBuildNormalizedJets:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), nvars=st.integers(1, 3), da=st.integers(0, 4),
           db=st.integers(0, 4), s=st.floats(-3.0, 3.0))
    def test_every_op(self, data, nvars, da, db, s):
        a = data.draw(jets(nvars, da))
        b = data.draw(jets(nvars, db))
        point = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=nvars, max_size=nvars))
        subs = [data.draw(jets(2, db, const=False)) for _ in range(nvars)]
        outs = [jet_add(a, b), jet_add(a, jet_scale(a, -1.0)), jet_scale(a, s),
                jet_scale(a, np.float64(s)), jet_mul(a, b),
                jet_compose(a, subs), jet_recenter(a, point),
                jet_truncate(a, db), jet_truncate(a, da + 1)]
        for out in outs:
            assert_normalized(out)
        assert outs[1].coeffs == {}
        assert outs[7].degree == min(db, da)
        assert outs[8].degree == da
