import functools
import json
import math
import re
import warnings
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from canard import _kernels, dynamics
from canard._kernels import _stepper, _stepper_source, bisect, dopri5, source_field
from canard.allee import (AlleeParams, boundary_roots, critical_slope, equilibria, fold_point,
                          hopf_onset, trace_at)
from canard.dynamics import (
    FORWARD,
    REVERSED,
    CycleResult,
    IntegratorOptions,
    Section,
    _first_return,
    _oriented,
    allee_field,
    bracket_from_crossings,
    find_cycle,
    integrate,
    region_excursion,
    return_map,
    section_crossings,
)
from canard.errors import DomainError, NumericsError
from dopri5_reference import (STATUS_BAD_FIELD, STATUS_OK, STATUS_STIFF, STATUS_UNDERFLOW,
                              failure)
from dopri5_reference import dopri5 as reference_dopri5
from dopri5_reference import section_crossings as reference_section_crossings
from examples import EX1, EX2

TWO_PI = 2.0 * math.pi


def center(x, y):
    return (-y, x)


def damped(a):
    """Focus with radial rate a."""
    def damped(x, y):
        return (a * x - y, a * y + x)
    return damped


def soft_cycle(x, y):
    # radial rate 0.05*(1-r^2): unit cycle, forward multiplier e^{-0.2 pi}
    g = 0.05 * (1.0 - x * x - y * y)
    return (g * x - y, g * y + x)


def tight(t_max, direction=FORWARD):
    return IntegratorOptions(rel_tol=1e-10, abs_tol=1e-12, t_max=t_max,
                             direction=direction)


class TestOptions:
    def test_defaults(self):
        o = IntegratorOptions()
        assert o.direction == FORWARD

    def test_rejects_bad_tolerances(self):
        with pytest.raises(DomainError):
            IntegratorOptions(rel_tol=0.0)
        with pytest.raises(DomainError):
            IntegratorOptions(abs_tol=1.0)

    def test_rejects_bad_time_and_direction(self):
        with pytest.raises(DomainError):
            IntegratorOptions(t_max=-1.0)
        with pytest.raises(DomainError):
            IntegratorOptions(t_max=math.inf)
        with pytest.raises(DomainError):
            IntegratorOptions(direction="Backward")


class TestIntegrate:
    def test_center_full_turn(self):
        tr = integrate(center, (1.0, 0.0), tight(TWO_PI))
        assert np.abs(tr.end_state - np.array([1.0, 0.0])).max() < 1e-6

    def test_energy_drift_100_periods(self):
        opts = IntegratorOptions(rel_tol=1e-9, abs_tol=1e-12, t_max=100 * TWO_PI)
        ys = np.asarray(integrate(center, (1.0, 0.0), opts).y)
        r2 = ys[:, 0] ** 2 + ys[:, 1] ** 2
        assert np.abs(r2 - 1.0).max() < 1e-4

    def test_damped_focus_matches_closed_form(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            a = rng.uniform(-0.3, 0.3)
            tr = integrate(damped(a), (1.0, 0.0), tight(3.0))
            expect = math.exp(3.0 * a) * np.array([math.cos(3.0), math.sin(3.0)])
            assert np.abs(tr.end_state - expect).max() < 1e-6

    def test_reverse_twice_recovers_start(self):
        fwd = integrate(center, (0.3, -0.7), tight(5.0))
        back = integrate(center, fwd.end_state, tight(5.0, REVERSED))
        assert np.abs(back.end_state - np.array([0.3, -0.7])).max() < 1e-7

    def test_non_finite_field_flagged(self):
        def bad(x, y):
            return (np.nan, 0.0)

        with pytest.raises(NumericsError, match="field 'bad'"):
            integrate(bad, (0.0, 0.0), tight(1.0))

    def test_unnamed_field_flagged(self):
        # a callable without __name__ still gets the typed error
        def shifted(x, y, a):
            return (np.nan, a)

        with pytest.raises(NumericsError, match="non-finite"):
            integrate(functools.partial(shifted, a=1.0), (0.1, 0.1),
                      IntegratorOptions(t_max=1.0))

    def test_field_turning_non_finite_after_steps(self):
        calls = [0]

        def edge(x, y):
            calls[0] += 1
            return (1.0, 0.0) if x < 0.5 else (np.nan, 0.0)

        with pytest.raises(NumericsError,
                           match="^field 'edge' evaluation produced non-finite values$"):
            dopri5(edge, (0.0, 0.0), 2.0, 1e-8, 1e-10)
        assert calls[0] > 2  # past the starter's two evaluations
        with pytest.raises(NumericsError, match="field 'edge' evaluation"):
            integrate(edge, (0.0, 0.0), tight(2.0))

    def test_finite_time_blowup_flagged(self):
        def blowup(x, y):
            # r' ~ r^3 escapes in finite time
            r2 = x * x + y * y
            return (x * r2 - y, y * r2 + x)

        with pytest.raises(NumericsError):
            integrate(blowup, (2.0, 0.0), tight(10.0))

    def test_rejects_bad_start(self):
        with pytest.raises(DomainError):
            integrate(center, (math.nan, 0.0), tight(1.0))

    @pytest.mark.parametrize("start", [(0.0, math.inf), (1.0,), (1.0, 0.0, 0.0), "12", None,
                                       ("a", 0.0), [[1.0, 0.0]], 1.0])
    def test_start_is_a_finite_pair_of_floats(self, start):
        # checked on floats, as the array check it replaced: a pair, each
        # value float-convertible and finite
        with pytest.raises(DomainError, match="^initial state must be a finite point, got "):
            integrate(center, start, tight(1.0))

    @pytest.mark.parametrize("start", [(1, 0), [1.0, 0.0], np.array([1.0, 0.0])])
    def test_start_pair_may_be_any_sequence(self, start):
        tr = integrate(center, start, tight(1.0))
        assert tr.y[0] == (1.0, 0.0) and all(type(v) is float for v in tr.y[0])

    def test_trajectory_monotone_time(self):
        tr = integrate(center, (1.0, 0.0), tight(3.0))
        assert tr.t[0] == 0.0 and tr.t[-1] == pytest.approx(3.0)
        assert np.all(np.diff(tr.t) > 0)


def _non_finite_field(where, direction, value):
    """A field that moves orbits from (0, 0.5) toward +x in the given
    direction and is value, NaN or infinite, at that start point
    ("start"), everywhere but there, so first at the starter probe
    ("probe"), or from x = 0.5 on, after some steps ("steps")."""
    s = -1.0 if direction == REVERSED else 1.0

    def bad(x, y):
        if where == "start" or (where == "probe" and (x, y) != (0.0, 0.5)) \
                or (where == "steps" and x >= 0.5):
            return (value, 0.0)
        return (s, 0.0)

    return bad


def _counted(field):
    """field(x, y) under the name "counted", with the count of its calls in
    counted.calls."""
    def counted(x, y):
        counted.calls += 1
        return field(x, y)
    counted.calls = 0
    return counted


class TestNonFiniteField:
    """A non-finite field value is a typed failure wherever it shows up,
    in both directions, and the message names the caller's field."""

    @pytest.mark.parametrize("direction", [FORWARD, REVERSED])
    @pytest.mark.parametrize("where, value, status, stepped", [
        ("start", np.nan, STATUS_BAD_FIELD, False),
        ("start", np.inf, STATUS_BAD_FIELD, False),
        ("probe", np.nan, STATUS_BAD_FIELD, False),
        ("probe", np.inf, STATUS_BAD_FIELD, False),
        ("steps", np.nan, STATUS_BAD_FIELD, True),
        ("steps", np.inf, STATUS_BAD_FIELD, True)])
    def test_core_status(self, where, value, status, stepped, direction):
        # the core raises where the reference stepper ends with status, after
        # the field evaluations of the reference's run: none after the check
        # that saw the value
        field = _counted(_non_finite_field(where, direction, value))
        f = _oriented(field, direction)
        got, ts, _, _, counts, _ = reference_dopri5(f, (0.0, 0.5), 2.0, 1e-8, 1e-10, False)
        assert got == status and ts[-1] < 0.5
        assert (counts[0] > 0) == stepped
        field.calls = 0
        with pytest.raises(NumericsError) as info:
            dopri5(f, (0.0, 0.5), 2.0, 1e-8, 1e-10)
        assert str(info.value) == "field 'counted' evaluation produced non-finite values"
        assert field.calls == counts[2]

    @pytest.mark.parametrize("bad_call, last_call", [
        (1, 1), (2, 2),  # the start value and the starter probe
        (8, 8), (62, 62),  # the last stage of the first and the tenth step
        (5, 8), (60, 62)])  # a stage within a step, checked at the step's end
    def test_raises_at_the_first_checked_non_finite_value(self, bad_call, last_call):
        # the field is NaN at its bad_call-th evaluation only; the core checks
        # the start value, the probe and each step's new state and last stage
        # (a step's other stages reach those through the state), and raises at
        # the first check that meets a NaN, with no evaluation after it
        field = _counted(lambda x, y: (math.nan if field.calls == bad_call else -y, x))
        with pytest.raises(NumericsError, match="^field 'counted' evaluation"):
            dopri5(field, (1.0, 0.0), 50.0, 1e-10, 1e-12)
        assert field.calls == last_call

    def test_finite_singular_field_underflows(self):
        # x' = 1/(1 - x) is finite short of x = 1, reached at t = 1/2 with
        # an unbounded slope: the step size, not the field, gives out, and
        # the core raises where the reference stepper stops
        field = _counted(lambda x, y: (1.0 / (1.0 - x), 0.0))
        got, ts, _, _, counts, _ = reference_dopri5(field, (0.0, 0.0), 2.0, 1e-8, 1e-10, False)
        assert got == STATUS_UNDERFLOW and abs(ts[-1] - 0.5) < 1e-6
        field.calls = 0
        with pytest.raises(NumericsError,
                           match=r"^step size underflow \(stiff or singular field\)$"):
            dopri5(field, (0.0, 0.0), 2.0, 1e-8, 1e-10)
        assert field.calls == counts[2]

    @pytest.mark.parametrize("named", [True, False])
    @pytest.mark.parametrize("direction", [FORWARD, REVERSED])
    @pytest.mark.parametrize("where, value", [
        ("start", np.nan), ("start", np.inf), ("probe", np.nan), ("probe", np.inf),
        ("steps", np.nan), ("steps", np.inf)])
    @pytest.mark.parametrize("entry", ["integrate", "return_map"])
    def test_raises_naming_the_field(self, entry, where, value, direction, named):
        bad = _non_finite_field(where, direction, value)
        field = bad if named else functools.partial(lambda x, y, f: f(x, y), f=bad)
        opts = tight(2.0, direction)
        with pytest.raises(NumericsError) as info:
            if entry == "integrate":
                integrate(field, (0.0, 0.5), opts)
            else:
                return_map(field, Section(0.0, 0.0), 0.5, opts)
        name = "bad" if named else repr(field)
        assert str(info.value) == (
            f"field '{name}' evaluation produced non-finite values")


class TestArithmeticFailures:
    """A division by zero or an overflow, in the field or in the stepper's
    arithmetic on its values, is a NumericsError naming the field from every
    entry point; dopri5 itself lets both through (see
    test_pole_at_minus_m_fails_alike)."""

    @pytest.mark.parametrize("direction", [FORWARD, REVERSED])
    def test_pole_at_minus_m(self, direction):
        # x / (m + x) divides by zero at the start point, and in return_map
        # already in the start-velocity check
        p = AlleeParams(**EX1)
        field, opts = allee_field(p), tight(1.0, direction)
        for call in (lambda: integrate(field, (-p.m, 0.1), opts),
                     lambda: return_map(field, Section(-p.m, 0.0), 0.1, opts)):
            with pytest.raises(NumericsError) as info:
                call()
            assert str(info.value) == (
                "field 'allee' failed in float arithmetic: float division by zero")

    def test_field_value_near_the_float_limit(self):
        # finite, but its square in the step-size norm overflows
        def huge(x, y):
            return (1e200, 0.0)

        with pytest.raises(NumericsError, match="field 'huge' failed in float arithmetic"):
            integrate(huge, (0.0, 0.0))

    @pytest.mark.parametrize("entry", ["integrate", "return_map"])
    def test_pole_reached_after_steps(self, entry):
        # fine at the start and short of x = 0.1, a division by zero beyond it
        def pole(x, y):
            return (1.0, 1.0 / (x < 0.1))

        with pytest.raises(NumericsError, match="field 'pole' failed in float arithmetic"):
            if entry == "integrate":
                integrate(pole, (0.0, 0.5), tight(2.0))
            else:
                return_map(pole, Section(0.0, 0.0), 0.5, tight(2.0))

    def test_pole_at_a_located_crossing(self):
        # the mesh misses the seam at x = 0.5; the crossing point found on the
        # interpolant is within 1e-9 of it
        def seam(x, y):
            return (1.0, 1.0 / (abs(x - 0.5) > 1e-9))

        opts = IntegratorOptions(t_max=2.0)
        assert integrate(seam, (0.0, 0.5), opts).t[-1] == 2.0
        with pytest.raises(NumericsError, match="field 'seam' failed in float arithmetic"):
            section_crossings(seam, (0.0, 0.5), Section(0.5, 0.0), opts)


class TestReturnMap:
    def test_center_is_identity(self):
        y1 = return_map(center, Section(0.0, 0.0), 1.0, tight(10.0))
        assert abs(y1 - 1.0) < 1e-6

    def test_damped_focus_contracts(self):
        y1 = return_map(damped(-0.1), Section(0.0, 0.0), 1.0, tight(10.0))
        assert abs(y1 - math.exp(-0.2 * math.pi)) < 1e-6

    def test_tangential_start_flagged(self):
        # the unit circle is tangent to x=1 at (1, 0)
        with pytest.raises(NumericsError):
            return_map(center, Section(1.0, -2.0), 0.0, tight(10.0))

    def test_no_return_flagged(self):
        def drift(x, y):
            return (1.0, 0.0)

        with pytest.raises(NumericsError):
            return_map(drift, Section(0.0, -1.0), 0.0, tight(5.0))

    def test_section_crossings_alternate_direction(self):
        crossings = section_crossings(center, (1.0, 0.0), Section(0.0, -2.0),
                                      tight(4 * TWO_PI))
        assert len(crossings) == 8
        dirs = [d for _, _, d in crossings]
        assert dirs == [-1.0, 1.0] * 4
        times = [t for t, _, _ in crossings]
        assert np.allclose(np.diff(times), math.pi, atol=1e-6)

    @pytest.mark.parametrize("limit", [0, -1, True, 2.5])
    def test_section_crossings_limit_is_a_positive_integer(self, limit):
        # the stepper compares the limit only after appending a crossing, so
        # unchecked, 0, -1 and True would return one crossing and 2.5 three
        with pytest.raises(DomainError, match="requires an integer limit >= 1"):
            section_crossings(center, (1.0, 0.0), Section(0.0, -2.0), tight(20.0), limit)

    def test_section_crossings_take_a_numpy_integer_limit(self):
        crossings = section_crossings(center, (1.0, 0.0), Section(0.0, -2.0), tight(20.0),
                                      np.int64(3))
        assert len(crossings) == 3

    def test_section_crossings_skip_the_line_below_the_base(self):
        crossings = section_crossings(center, (1.0, 0.0), Section(0.0, 0.0),
                                      tight(4 * TWO_PI))
        assert len(crossings) == 4
        assert all(d == -1.0 and abs(y - 1.0) < 1e-6 for _, y, d in crossings)

    def test_section_crossings_drop_a_crossing_at_the_start(self):
        # a crossing is located to a time width of 1e-10, so one in a first
        # step as short as [0, 1e-12] lands at t <= 1e-12 and counts as the
        # start's own; a step of 3e-12 puts it past
        def drift(x, y):
            return (1.0, 0.0)

        def crossings(t_max):
            return section_crossings(drift, (-5e-13, 1.0), Section(0.0, 0.0),
                                     IntegratorOptions(t_max=t_max))
        assert crossings(1e-12) == []
        assert crossings(3e-12) == [(1.5e-12, 1.0, 1.0)]


class TestFindCycle:
    def test_soft_cycle_forward(self):
        res = find_cycle(soft_cycle, (0.5, 1.5), Section(0.0, 0.0), tight(50.0))
        assert res.converged
        assert abs(res.section_point[1] - 1.0) < 1e-6
        assert abs(res.period - TWO_PI) < 1e-6
        assert abs(res.multiplier - math.exp(-0.2 * math.pi)) < 1e-4
        assert res.stability == "Stable"

    def test_soft_cycle_reversed_reciprocal_convention(self):
        # t_max stays below the reversed-time escape of the outer endpoint
        fwd = find_cycle(soft_cycle, (0.5, 1.2), Section(0.0, 0.0), tight(8.0))
        rev = find_cycle(soft_cycle, (0.5, 1.2), Section(0.0, 0.0),
                         tight(8.0, REVERSED))
        assert rev.stability == "Stable"
        assert abs(rev.section_point[1] - 1.0) < 1e-6
        assert abs(rev.multiplier - fwd.multiplier) < 1e-3

    def test_faint_cycle_is_neutral(self):
        # radial rate 2e-6*(1-r^2): the unit cycle's multiplier e^{-8e-6 pi}
        # lies within _NEUTRAL_BAND of 1
        def faint_cycle(x, y):
            g = 2e-6 * (1.0 - x * x - y * y)
            return (g * x - y, g * y + x)
        res = find_cycle(faint_cycle, (0.5, 1.5), Section(0.0, 0.0), tight(10.0))
        assert res.stability == "Neutral"
        assert abs(res.multiplier - math.exp(-8e-6 * math.pi)) < 1e-6
        assert abs(res.section_point[1] - 1.0) < 1e-3

    def test_bracket_needs_crossings_in_both_directions(self):
        # a uniform drift crosses the section once, left to right
        def drift(x, y):
            return (1.0, 0.0)
        with pytest.raises(DomainError, match="^seed orbits cross the section in one direction only$"):
            bracket_from_crossings(drift, [(-1.0, 0.5), (-1.0, 0.7)], Section(0.0, 0.0),
                                   tight(5.0))

    def test_no_sign_change_is_precondition_failure(self):
        # damped focus with no cycle: displacement is negative on the whole ray
        with pytest.raises(DomainError):
            find_cycle(damped(-0.1), (0.5, 1.5), Section(0.0, 0.0), tight(20.0))

    def test_invalid_bracket(self):
        with pytest.raises(DomainError):
            find_cycle(soft_cycle, (1.0, 1.0), Section(0.0, 0.0), tight(20.0))

    def test_result_requires_positive_period(self):
        with pytest.raises(DomainError):
            CycleResult((0.0, 1.0), -1.0, 0.5, "Stable", True)

    def test_json_roundtrip(self):
        res = CycleResult((0.0, 1.0), 6.28, 0.5, "Stable", True)
        d = json.loads(json.dumps(asdict(res)))
        assert d["stability"] == "Stable" and d["period"] == 6.28

    @pytest.mark.parametrize("end", [0, 1])
    def test_exact_zero_displacement_at_a_bracket_end(self, monkeypatch, end):
        # a return map that fixes a bracket end exactly: that end is the cycle,
        # found with no bisection, so the heights asked for are the two ends,
        # the first return at the root and its two finite-difference neighbours
        bracket = (0.25, 0.75)
        fixed = bracket[end]
        asked = _stub_first_return(monkeypatch, lambda y: fixed + 0.5 * (y - fixed))
        res = find_cycle(center, bracket, Section(0.0, 0.0), tight(5.0))
        delta = 1e-5 * 0.5
        assert res.section_point == (0.0, fixed) and res.converged
        assert asked == [0.25, 0.75, fixed, fixed + delta, fixed - delta]
        assert abs(res.multiplier - 0.5) < 1e-9 and res.stability == "Stable"

    def test_zero_reversed_time_multiplier(self, monkeypatch):
        # a constant return map has multiplier 0, which in reversed time has no
        # forward-time reciprocal; forward, it is a stable cycle
        _stub_first_return(monkeypatch, lambda y: 0.5)
        res = find_cycle(center, (0.25, 0.75), Section(0.0, 0.0), tight(5.0))
        assert res.section_point == (0.0, 0.5) and res.multiplier == 0.0
        with pytest.raises(NumericsError,
                           match="^zero reversed-time multiplier cannot be inverted$"):
            find_cycle(center, (0.25, 0.75), Section(0.0, 0.0), tight(5.0, REVERSED))


def _stub_first_return(monkeypatch, height):
    """Replace dynamics._first_return, the one return behind find_cycle and
    return_map, by (height(y0), 1.0); returns the list of the start heights
    it is asked for, in call order."""
    asked = []

    def first_return(field, section, y0, opts):
        asked.append(y0)
        return height(y0), 1.0
    monkeypatch.setattr(dynamics, "_first_return", first_return)
    return asked




class TestAlleeCycles:
    def test_model1_bisection_stable_verdict(self):
        p = AlleeParams(**EX1)
        f = allee_field(p)
        x4, y4 = equilibria(p).E4.point
        sec = Section(x4, 0.0)
        opts = tight(1500.0)
        lo, hi = bracket_from_crossings(f, [(0.2644, 0.0961)], sec, opts)
        assert lo < y4 < hi
        res = find_cycle(f, (lo, hi), sec, opts)
        assert res.converged
        assert res.stability == "Stable"
        assert res.multiplier < 1.0
        # the displacement fixed point here is the zero-amplitude orbit at
        # the focus; its multiplier is exp(trace/2 * T)
        assert abs(res.section_point[1] - y4) < 1e-6
        predicted = math.exp(0.5 * trace_at(p, (x4, y4)) * res.period)
        assert abs(res.multiplier - predicted) < 1e-3

    def test_model1_one_period_return(self):
        p = AlleeParams(**EX1)
        f = allee_field(p)
        x4, y4 = equilibria(p).E4.point
        sec = Section(x4, 0.0)
        opts = tight(1500.0)
        res = find_cycle(f, bracket_from_crossings(f, [(0.2644, 0.0961)], sec, opts),
                         sec, opts)
        tr = integrate(f, res.section_point, tight(res.period))
        assert np.abs(tr.end_state - np.asarray(res.section_point)).max() < 1e-6

    def test_model2_reversed_bisection_unstable_verdict(self):
        p = AlleeParams(**EX2)
        f = allee_field(p)
        x4, y4 = equilibria(p).E4.point
        sec = Section(x4, 0.0)
        opts = tight(1500.0, REVERSED)
        lo, hi = bracket_from_crossings(f, [(0.25, 0.1375), (0.25, 0.13)], sec, opts)
        assert lo < y4 < hi
        res = find_cycle(f, (lo, hi), sec, opts)
        assert res.converged
        assert res.stability == "Unstable"
        assert res.multiplier > 1.0
        assert abs(res.section_point[1] - y4) < 1e-6
        assert 300.0 < res.period < 500.0
        predicted = 1.0 / math.exp(-0.5 * trace_at(p, (x4, y4)) * res.period)
        assert abs(res.multiplier - predicted) < 1e-3

    def test_model1_upper_ray_has_no_cycle(self):
        # strictly above the equilibrium the displacement never changes
        # sign at these parameters: returns decay monotonically
        p = AlleeParams(**EX1)
        f = allee_field(p)
        x4, y4 = equilibria(p).E4.point
        with pytest.raises(DomainError):
            find_cycle(f, (y4 + 2e-4, y4 + 9e-4), Section(x4, y4), tight(1500.0))

    def test_model1_cycle_just_below_the_hopf_point(self):
        # 5e-5 below beta_H, inside the window of stable cycles, a real cycle
        # surrounds E4: bisection on the ray above E4 lands 6.5e-4 above it,
        # not on the focus (whose linear period here is 425.9 and multiplier
        # exp(trace/2 * T) = 1.0114, an unstable focus)
        p = AlleeParams(**EX1)
        p = replace(p, beta=hopf_onset(p).beta_onset - 5e-5)
        f = allee_field(p)
        x4, y4 = equilibria(p).E4.point
        sec = Section(x4, y4)
        opts = IntegratorOptions(rel_tol=1e-11, abs_tol=1e-13, t_max=1500.0)
        res = find_cycle(f, (y4 + 3e-4, y4 + 9e-4), sec, opts)
        assert res.converged and res.stability == "Stable"
        height = res.section_point[1] - y4
        assert height > 1e-4
        # the values of the first run, to the digits it was recorded with; the
        # multiplier's allowance is above the finite difference's own error,
        # which a ten times wider step bounds
        assert abs(res.period - 442.186) < 1e-3
        assert abs(res.multiplier - 0.973728) < 1e-6
        d = 1e-5 * 6e-4 * 10.0
        wide = (return_map(f, sec, res.section_point[1] + d, opts)
                - return_map(f, sec, res.section_point[1] - d, opts)) / (2.0 * d)
        assert abs(wide - res.multiplier) < 1e-6
        tr = integrate(f, res.section_point, IntegratorOptions(rel_tol=1e-11, abs_tol=1e-13,
                                                               t_max=res.period))
        assert np.abs(tr.end_state - np.asarray(res.section_point)).max() < 1e-9


class TestHopfOnset:
    def test_onset_matches_prediction(self):
        p = AlleeParams(**EX1)
        onset = hopf_onset(p)
        assert abs(onset.beta_onset - onset.beta_predicted) < 1e-6
        rel = abs(onset.lambda_onset - onset.lambda_predicted) / onset.lambda_predicted
        assert rel < 1e-3

    def test_error_shrinks_with_eps(self):
        errs = []
        for eps in (0.0099, 0.00495):
            p = AlleeParams(m=0.3, n=0.1, alpha=0.849561, beta=0.2, gamma=0.1,
                            eps=eps)
            onset = hopf_onset(p)
            errs.append(abs(onset.lambda_onset - onset.lambda_predicted))
        assert errs[0] / errs[1] >= 2.5

    def test_trace_flips_across_onset(self):
        p = AlleeParams(**EX1)
        onset = hopf_onset(p)
        lo = AlleeParams(m=0.3, n=0.1, alpha=0.849561,
                         beta=onset.beta_onset - 1e-4, gamma=0.1, eps=0.0099)
        hi = AlleeParams(m=0.3, n=0.1, alpha=0.849561,
                         beta=onset.beta_onset + 1e-4, gamma=0.1, eps=0.0099)
        assert (trace_at(lo, equilibria(lo).E4.point) > 0.0
                > trace_at(hi, equilibria(hi).E4.point))

    @pytest.mark.parametrize("params", [EX1, EX2], ids=["EX1", "EX2"])
    def test_e4_trace_matches_reduced_form(self, params):
        # on the critical curve fx + gy reduces to x4 F'(x4) - eps*gamma*y4
        p = AlleeParams(**params)
        x4, y4 = equilibria(p).E4.point
        reduced = x4 * critical_slope(x4, p.m, p.n) - p.eps * p.gamma * y4
        assert abs(trace_at(p, (x4, y4)) - reduced) < 1e-14

    def test_predicted_lambda_is_the_leading_hopf_curve(self):
        p = AlleeParams(**EX1)
        xM, yM = fold_point(p.m, p.n)
        Q = math.sqrt(p.alpha * xM * yM)
        onset = hopf_onset(p)
        assert onset.lambda_predicted == pytest.approx(p.gamma * yM * p.eps / (2.0 * Q),
                                                      rel=1e-14)

    @pytest.mark.parametrize("params, beta_h", [(EX1, 0.19990270682271832),
                                                (EX2, 0.13864499255002566)],
                             ids=["EX1", "EX2"])
    def test_beta_matches_the_trace_scan(self, params, beta_h):
        # beta_h from bisecting the E4 trace in beta over a scanned range
        p = AlleeParams(**params)
        onset = hopf_onset(p)
        assert abs(onset.beta_onset - beta_h) <= 1e-13 * beta_h
        assert hopf_onset(replace(p, beta=0.5)) == onset

    @pytest.mark.parametrize("change, match", [
        (dict(m=(1.0 - math.sqrt(0.1)) * (1.0 - math.sqrt(0.1))), "does not change sign"),
        (dict(eps=0.1, gamma=10.0), r"eps\*gamma < 1"),
        (dict(alpha=0.01), "beta > 0"),
    ], ids=["fold-on-axis", "eps-gamma", "negative-beta"])
    def test_rejected(self, change, match):
        with pytest.raises(DomainError, match=match):
            hopf_onset(AlleeParams(**{**EX1, **change}))

    @settings(max_examples=200, deadline=None)
    @given(n=st.floats(0.01, 0.9), m_frac=st.floats(0.001, 0.999),
           alpha=st.floats(0.2, 3.0), gamma=st.floats(0.01, 2.0), eps=st.floats(1e-4, 0.1))
    def test_onset_is_the_hopf_point_of_e4(self, n, m_frac, alpha, gamma, eps):
        bound = (1.0 - math.sqrt(n)) * (1.0 - math.sqrt(n))
        p = AlleeParams(m=m_frac * bound, n=n, alpha=alpha, beta=0.1, gamma=gamma, eps=eps)
        try:
            beta_h = hopf_onset(p).beta_onset
        except DomainError as exc:
            assume("beta > 0" not in str(exc))
            raise
        q = replace(p, beta=beta_h)
        x4 = equilibria(q).E4.point[0]
        assert boundary_roots(q.m, q.n)[1] < x4 < fold_point(q.m, q.n)[0]
        assert abs(trace_at(q, equilibria(q).E4.point)) <= 1e-13


class TestRegionExcursion:
    def test_short_run_stays_inside(self):
        p = AlleeParams(**EX2)
        exc = region_excursion(p, n_starts=5, seed=7, t_max=500.0)
        assert exc < 1e-9

    def test_deterministic_in_seed(self):
        p = AlleeParams(**EX2)
        a = region_excursion(p, n_starts=3, seed=11, t_max=200.0)
        b = region_excursion(p, n_starts=3, seed=11, t_max=200.0)
        assert a == b

    @pytest.mark.parametrize("n_starts", [0, -1, 2.0, True])
    def test_no_starts_is_a_domain_error(self, n_starts):
        # zero starts would report no excursion, a vacuous pass of the invariance check
        with pytest.raises(DomainError, match="requires an integer n_starts >= 1"):
            region_excursion(AlleeParams(**EX2), n_starts=n_starts, seed=0, t_max=10.0)

    @pytest.mark.parametrize("seed", [-1, -2 ** 70, 1.0, "3", None, False])
    def test_bad_seed_is_a_domain_error(self, seed):
        with pytest.raises(DomainError, match="requires an integer seed >= 0"):
            region_excursion(AlleeParams(**EX2), n_starts=1, seed=seed, t_max=10.0)

    def test_numpy_integer_seed_is_the_int_seed(self):
        p = AlleeParams(**EX2)
        assert (region_excursion(p, n_starts=np.int64(2), seed=np.int64(5), t_max=50.0)
                == region_excursion(p, n_starts=2, seed=5, t_max=50.0))

    def test_non_finite_field_raises_typed_error(self, monkeypatch):
        def allee(x, y):
            return (math.nan, 0.0)

        monkeypatch.setattr(dynamics, "allee_field", lambda p: allee)
        with pytest.raises(NumericsError,
                           match="field 'allee' evaluation produced non-finite"):
            region_excursion(AlleeParams(**EX2), n_starts=2, seed=0, t_max=10.0)


class TestAlleeField:
    @settings(max_examples=60, deadline=None)
    @given(x=st.floats(-2.0, 2.0), y=st.floats(-2.0, 2.0),
           beta=st.floats(0.01, 1.0), eps=st.floats(1e-4, 0.1))
    def test_is_the_written_out_model(self, x, y, beta, eps):
        m, n, alpha, gamma = 0.3, 0.1, 0.849561, 0.1
        p = AlleeParams(m=m, n=n, alpha=alpha, beta=beta, gamma=gamma, eps=eps)
        assume(m + x != 0.0)
        f, g = allee_field(p)(x, y)
        assert f == x * (x / (m + x) - n - x - y)
        assert g == eps * (y * (alpha * x - beta - gamma * y))
        assert allee_field(p).__name__ == "allee"


with open(Path(__file__).parent / "data" / "golden_dopri5.json", "r",
          encoding="utf-8") as _fh:
    GOLDEN = json.load(_fh)


class TestGoldenTrajectories:
    """The scalar core against trajectories recorded with the ndarray core
    it replaced: same steps, and the same mesh bit for bit.  The interpolant
    rows recorded for the dense cases are those of the reference stepper,
    which keeps the dense-output mode, on that same mesh."""

    @pytest.mark.parametrize(
        "case", GOLDEN["cases"],
        ids=lambda c: f"{c['example']}-{c['direction']}-"
                      f"{'dense' if c['dense'] else 'mesh'}")
    def test_matches_recorded_trajectory(self, case):
        p = AlleeParams(**{"EX1": EX1, "EX2": EX2}[case["example"]])
        f = _oriented(allee_field(p), case["direction"])
        args = (case["start"], case["t_max"], GOLDEN["rel_tol"], GOLDEN["abs_tol"])
        ts, ys, counts, hits = dopri5(f, *args)
        assert hits == []
        assert len(ts) - 1 == case["steps"] == counts[0]
        # the core's lists: the times, and the states as (x, y) pairs
        ts, ys = np.asarray(ts), np.asarray(ys)
        rows = case["rows"]

        same = np.testing.assert_array_equal
        same(ts[rows], case["t"])
        same(ys[rows], case["y"])
        same(np.abs(ts).sum(), case["abs_sum_t"])
        same(np.abs(ys).sum(axis=0), case["abs_sum_y"])
        if case["dense"]:
            _, ref_ts, ref_ys, rc, _, _ = reference_dopri5(f, *args, True)
            same(ref_ts, ts)
            same(ref_ys, ys)
            same(rc[case["rcont_rows"]], case["rcont"])
            same(np.abs(rc).sum(axis=0), case["abs_sum_rcont"])


with open(Path(__file__).parent / "data" / "golden_orbits.json", "r",
          encoding="utf-8") as _fh:
    GOLDEN_ORBITS = json.load(_fh)


class TestGoldenOrbits:
    """Return heights and region excursions against values recorded with
    the core that multiplied every stage by a direction sign, bit for
    bit: negating the field once gives the same floats."""

    @pytest.mark.parametrize("label", sorted(GOLDEN_ORBITS["examples"]))
    def test_matches_recorded_outputs(self, label):
        case = GOLDEN_ORBITS["examples"][label]
        p = AlleeParams(**case["params"])
        f = allee_field(p)
        x4, y4 = equilibria(p).E4.point
        opts = IntegratorOptions(rel_tol=GOLDEN_ORBITS["rel_tol"],
                                 abs_tol=GOLDEN_ORBITS["abs_tol"],
                                 t_max=GOLDEN_ORBITS["t_max"])
        dys = [float.fromhex(v) for v in GOLDEN_ORBITS["dy"]]
        runs = [("return_height", opts)]
        if "return_height_reversed" in case:
            runs.append(("return_height_reversed",
                         IntegratorOptions(**dict(asdict(opts), direction=REVERSED))))
        for key, o in runs:
            got = [return_map(f, Section(x4, y4), y4 + dy, o).hex() for dy in dys]
            assert got == case[key], key
        got = [region_excursion(p, 1, seed, 1e4).hex()
               for seed in GOLDEN_ORBITS["seeds"]]
        assert got == case["region_excursion"]


class TestSectionStop:
    """The stepper's section stop is the one crossing locator: a run with a
    stop walks integrate's mesh up to where it stops, and section_crossings
    on it gives what the old post-hoc scan of the whole orbit gave, bit for
    bit, up to its limit-th crossing."""

    @settings(max_examples=30, deadline=None)
    @given(example=st.sampled_from(["EX1", "EX2"]), reversed_time=st.booleans(),
           dx=st.floats(0.002, 0.02), left=st.booleans(), dy=st.floats(-0.02, 0.02),
           t_max=st.floats(1.0, 300.0), want=st.sampled_from([-1.0, 0.0, 1.0]),
           limit=st.sampled_from([1, 2, 8]))
    def test_stop_walks_the_integrate_mesh(self, example, reversed_time, dx, left, dy,
                                           t_max, want, limit):
        p = AlleeParams(**{"EX1": EX1, "EX2": EX2}[example])
        x4, y4 = equilibria(p).E4.point
        f = _oriented(allee_field(p), REVERSED if reversed_time else FORWARD)
        # off the section: orbits meet x = x4 tangentially only at E4
        start = (x4 - dx if left else x4 + dx, y4 + dy)
        # the run without a stop, as the reference stepper gives it (the core's
        # bit for bit, TestInlinedField), with its mesh up to a failure
        status, full_ts, full_ys, _, full_counts, _ = reference_dopri5(
            f, start, t_max, 1e-10, 1e-12, False)
        try:
            ts, ys, counts, hits = dopri5(f, start, t_max, 1e-10, 1e-12,
                                          (x4, y4 - 1.0, want, limit))
        except NumericsError as exc:
            # the orbit fails short of its limit-th crossing, as without a stop
            assert status != STATUS_OK and str(exc) == str(failure(status, f))
            return
        assert len(hits) <= limit
        assert all(want in (0.0, d) for _, _, d in hits)
        np.testing.assert_array_equal(ts, full_ts[:len(ts)])
        np.testing.assert_array_equal(ys, full_ys[:len(ts)])
        if len(hits) == limit:
            # ended in the step that holds the limit-th crossing
            assert ts[-2] <= hits[-1][0] <= ts[-1]
            assert counts[0] == len(ts) - 1 <= full_counts[0]
        else:
            assert status == STATUS_OK and (counts, len(ts)) == (full_counts, len(full_ts))

    @settings(max_examples=40, deadline=None)
    @given(example=st.sampled_from(["EX1", "EX2"]), reversed_time=st.booleans(),
           dx=st.floats(-0.02, 0.02), dy=st.floats(-0.02, 0.02),
           lowered=st.booleans(), limit=st.sampled_from([1, 2, 8, 64]),
           t_max=st.floats(50.0, 1500.0))
    # the one changed outcome: in reversed time this orbit crosses once and
    # then underflows; the run now ends at that crossing and returns it
    @example(example="EX1", reversed_time=True, dx=0.0, dy=-0.01, lowered=True, limit=1,
             t_max=600.0)
    def test_section_crossings_equal_the_post_hoc_scan(self, example, reversed_time, dx,
                                                       dy, lowered, limit, t_max):
        p = AlleeParams(**{"EX1": EX1, "EX2": EX2}[example])
        x4, y4 = equilibria(p).E4.point
        field = allee_field(p)
        section = Section(x4, y4 - 1.0 if lowered else y4)
        opts = IntegratorOptions(t_max=t_max, direction=REVERSED if reversed_time else FORWARD)
        start = (x4 + dx, y4 + dy)

        def outcome(locate, f=field):
            """the hexed crossings or the NumericsError"""
            try:
                hits = locate(f, start, section, opts, limit)
            except NumericsError as exc:
                return exc
            return [[float.hex(v) for v in hit] for hit in hits]

        expect = outcome(reference_section_crossings)
        got = outcome(section_crossings)
        if isinstance(expect, list):
            assert got == expect
            return
        if isinstance(got, list):
            # the run ended at the limit-th crossing, short of the failure
            # the reference ran on into
            assert len(got) == limit

            def field_calls(locate):
                calls = [0]

                def counted(x, y):
                    calls[0] += 1
                    return field(x, y)
                return outcome(locate, counted), calls[0]
            stopped, n_stopped = field_calls(section_crossings)
            failed, n_full = field_calls(reference_section_crossings)
            assert stopped == got and isinstance(failed, NumericsError)
            assert n_stopped < n_full


def _hexed(run):
    """The result of run(), a dopri5 call, with its mesh ts and ys (lists
    from the core, arrays from the reference) as arrays, each as its shape
    and the float.hex of its entries, or the type and message of what it
    raised."""
    try:
        ts, ys, counts, hits = run()
    except Exception as exc:
        return type(exc), str(exc)

    def hexed(a):
        a = np.asarray(a)
        return a.shape, [float.hex(float(v)) for v in a.ravel()]
    return (hexed(ts), hexed(ys), counts, [[float.hex(v) for v in hit] for hit in hits])


def _reference(rhs, u0, t_end, rtol, atol, stop=None):
    """The reference stepper's run, without dense output, as dopri5 returns
    it: its stop (x_sec, y_base, want) is dopri5's (x_sec, y_base, want, 1)
    for want = +-1, its hit, or None, is hits = [hit] or [], and a status
    other than STATUS_OK is raised as the core raises it."""
    if stop is not None:
        assert stop[2] != 0.0 and stop[3] == 1
        stop = stop[:3]
    status, ts, ys, _, counts, hit = reference_dopri5(rhs, u0, t_end, rtol, atol, False, stop)
    if status != STATUS_OK:
        raise failure(status, rhs)
    return ts, ys, counts, [] if hit is None else [hit]


def _opaque(field):
    """field as a plain callable under its name, without the source dopri5
    would inline."""
    def opaque(x, y):
        return field(x, y)
    opaque.__name__ = field.__name__
    return opaque


# a field from (0, 0.5) toward +x, with the value v in place of s at the start
# point ("start"), everywhere else ("probe") or from x = 0.5 on ("steps"), as
# _non_finite_field, but carrying its source
_bad_source = source_field(
    "bad", ("s", "v", "where"),
    "v if (where == 'start' or (where == 'probe' and (x, y) != (0.0, 0.5))"
    " or (where == 'steps' and x >= 0.5)) else s", "0.0")


class TestInlinedField:
    """dopri5 evaluates a field that carries its source in place: the same
    floats, counts and failures as calling it, and as the hand-written body
    the template replaced."""

    @settings(max_examples=30, deadline=None)
    @given(model=st.sampled_from(["EX1", "EX2"]), reversed_time=st.booleans(),
           stop=st.sampled_from([None, (-1.0, 1), (1.0, 1), (0.0, 1), (0.0, 3), (1.0, 2)]),
           dx=st.floats(-0.02, 0.02), dy=st.floats(-0.02, 0.02),
           t_max=st.floats(1.0, 300.0), tol=st.sampled_from([(1e-8, 1e-10), (1e-10, 1e-12)]))
    # stops at a crossing after 52 steps
    @example(model="EX2", reversed_time=False, stop=(-1.0, 1), dx=0.0, dy=-0.01,
             t_max=300.0, tol=(1e-8, 1e-10))
    def test_both_instantiations_equal_the_reference(self, model, reversed_time, stop,
                                                     dx, dy, t_max, tol):
        p = AlleeParams(**{"EX1": EX1, "EX2": EX2}[model])
        x4, y4 = equilibria(p).E4.point
        f = _oriented(allee_field(p), REVERSED if reversed_time else FORWARD)
        assert f.source is not None
        # the base below the orbit: a crossing in either direction may stop it
        stop = None if stop is None else (x4, y4 - 1.0, *stop)
        args = ((x4 + dx, y4 + dy), t_max, *tol, stop)
        expect = _hexed(lambda: dopri5(_opaque(f), *args))
        assert _hexed(lambda: dopri5(f, *args)) == expect
        if stop is None or (stop[2] != 0.0 and stop[3] == 1):
            # the stops the reference stepper has
            assert _hexed(lambda: _reference(f, *args)) == expect
        if not isinstance(expect[0], type):
            # 2 starter evaluations, then 6 per attempted step, in place too
            accepted, rejected, nfev = expect[2]
            assert nfev == 2 + 6 * (accepted + rejected)

    @pytest.mark.parametrize("direction", [FORWARD, REVERSED])
    def test_pole_at_minus_m_fails_alike(self, direction):
        # x / (m + x) divides by zero at x = -m, called or in place
        p = AlleeParams(**EX1)
        f = _oriented(allee_field(p), direction)
        args = ((-p.m, 0.1), 1.0, 1e-8, 1e-10)
        expect = _hexed(lambda: _reference(f, *args))
        assert expect == (ZeroDivisionError, "float division by zero")
        assert _hexed(lambda: dopri5(f, *args)) == expect
        assert _hexed(lambda: dopri5(_opaque(f), *args)) == expect

    @pytest.mark.parametrize("direction", [FORWARD, REVERSED])
    @pytest.mark.parametrize("where", ["start", "probe", "steps"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_source_is_a_bad_field(self, where, value, direction):
        s = -1.0 if direction == REVERSED else 1.0
        f = _oriented(_bad_source((s, value, where)), direction)
        args = ((0.0, 0.5), 2.0, 1e-8, 1e-10)
        expect = (NumericsError, "field 'bad' evaluation produced non-finite values")
        assert _hexed(lambda: _reference(f, *args)) == expect
        counts = reference_dopri5(f, *args, False)[4]
        # without a stop, and with one that records the crossing of x = 0.25
        # and runs on to the failure: in place and called alike, the call
        # count that of the reference's run, plus one for the located crossing
        for stop in (None, (0.25, 0.0, 0.0, 2)):
            assert _hexed(lambda: dopri5(f, *args, stop)) == expect
            assert _hexed(lambda: dopri5(_opaque(f), *args, stop)) == expect
            field = _counted(f)
            with pytest.raises(NumericsError, match="^field 'counted' evaluation"):
                dopri5(field, *args, stop)
            assert field.calls == counts[2] + (stop is not None and where == "steps")

    def test_one_stepper_per_source_and_direction(self):
        fields = [allee_field(AlleeParams(**ex)) for ex in (EX1, EX2)]
        fields.append(allee_field(AlleeParams(**dict(EX1, beta=0.21, eps=0.005))))
        for direction in (FORWARD, REVERSED):
            integrate(fields[0], (0.2, 0.3), tight(1.0, direction))
        misses = _stepper.cache_info().misses
        for f in fields:
            for direction in (FORWARD, REVERSED):
                integrate(f, (0.2, 0.3), tight(1.0, direction))
        assert _stepper.cache_info().misses == misses
        assert len({_oriented(f, d).source for f in fields for d in (FORWARD, REVERSED)}) == 2

    @settings(max_examples=30, deadline=None)
    @given(beta=st.floats(0.01, 1.0), eps=st.floats(1e-4, 0.1),
           reversed_time=st.booleans())
    def test_parameter_values_stay_out_of_the_source(self, beta, eps, reversed_time):
        direction = REVERSED if reversed_time else FORWARD
        p = AlleeParams(**dict(EX1, beta=beta, eps=eps))
        text = _stepper_source(_oriented(allee_field(p), direction).source)
        assert text == _stepper_source(_oriented(allee_field(AlleeParams(**EX2)),
                                                 direction).source)
        assert not any(repr(v) in text for v in (0.849561, 0.263075, 0.138485, 0.4424))

    @pytest.mark.parametrize("name", ["h", "steps", "math", "x", "sqrt", "isfinite"])
    def test_parameter_name_must_be_free_in_the_stepper(self, name):
        f = source_field("f", (name,), "1.0", "0.0")((1.0,))
        with pytest.raises(DomainError, match="is not free in the stepper"):
            dopri5(f, (0.0, 0.0), 1.0, 1e-8, 1e-10)

    def test_tableau_is_folded_into_constants(self):
        # the floats of _kernels are the tableau: no generated stepper looks
        # one up by name, and each stepper holds every one bit for bit
        tableau = {k: v for k, v in vars(_kernels).items() if type(v) is float}
        assert len(tableau) == 32
        for source in (None, allee_field(AlleeParams(**EX1)).source):
            assert not re.search(r"\bFIELD\b", _stepper_source(source))
            code = _stepper(source).__code__
            assert not set(tableau) & set(code.co_names)
            consts = {c.hex() for c in code.co_consts if type(c) is float}
            assert {v.hex() for v in tableau.values()} <= consts

    def test_field_source_keeps_a_tableau_name(self):
        # the tableau is folded into the template only, never into a field's text
        args = ((0.0, 0.0), 1.0, 1e-8, 1e-10)
        named = dopri5(source_field("f", ("A21",), "A21", "0.0")((3.0,)), *args)
        plain = dopri5(source_field("f", ("w",), "w", "0.0")((3.0,)), *args)
        assert _hexed(lambda: named) == _hexed(lambda: plain)


class TestCounters:
    def test_fsal_identity_on_ex2_orbit(self):
        # first-same-as-last: 2 starter evaluations, then 6 per attempted step
        tr = integrate(allee_field(AlleeParams(**EX2)), (0.25, 0.13), tight(3000.0))
        assert tr.n_accepted == len(tr.t) - 1
        assert tr.n_rejected > 0
        assert tr.nfev == 2 + 6 * (tr.n_accepted + tr.n_rejected)

    def test_nfev_counts_every_rhs_call(self):
        calls = [0]

        def counted(x, y):
            calls[0] += 1
            return soft_cycle(x, y)

        tr = integrate(counted, (0.3, 0.1), tight(30.0))
        assert tr.nfev == calls[0]


class TestStiffnessRetry:
    """A streak of rejected steps ends the one run with the core's typed
    failure: no retry and no warning."""

    def test_persistent_stiffness_raises(self, monkeypatch):
        # with a streak limit of 1 the first rejected step of this orbit (after
        # 763 accepted ones) ends the run, where the reference stepper stops,
        # after its field evaluations: one run, at the tolerances asked
        monkeypatch.setattr(_kernels, "_MAX_REJECT_STREAK", 1)
        field = _counted(soft_cycle)
        got, *_, counts, _ = reference_dopri5(field, (0.3, 0.1), 30.0, 1e-10, 1e-12, False)
        assert got == STATUS_STIFF and counts[:2] == (763, 1)
        field.calls = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericsError, match="^persistent step rejection$"):
                integrate(field, (0.3, 0.1), tight(30.0))
        assert field.calls == counts[2]


class TestBisect:
    @settings(max_examples=200, deadline=None)
    @given(root=st.floats(-10.0, 10.0), slope=st.floats(0.01, 100.0),
           flip=st.booleans(), below=st.floats(1e-3, 5.0), above=st.floats(1e-3, 5.0),
           width=st.sampled_from([1e-12, 1e-9, 1e-6, 1e-2]))
    def test_affine_root_within_stop_width(self, root, slope, flip, below, above, width):
        k = -slope if flip else slope

        def g(t):
            return k * (t - root)

        lo, hi = root - below, root + above
        assume(lo < root < hi)
        x = bisect(g, lo, hi, g(lo), lambda a, b: b - a <= width)
        assert abs(x - root) <= width

    def test_exact_zero_midpoint_returned(self):
        seen = []

        def g(t):
            seen.append(t)
            return t - 0.375

        assert bisect(g, 0.0, 1.0, -0.375, lambda a, b: False, max_iter=60) == 0.375
        assert seen == [0.5, 0.25, 0.375]

    @pytest.mark.parametrize("cap", [0, 1, 7, 40])
    def test_cap_honoured(self, cap):
        seen = []

        def g(t):
            seen.append(t)
            return t - 1.0 / 3.0

        x = bisect(g, 0.0, 1.0, -1.0 / 3.0, lambda a, b: False, max_iter=cap)
        assert len(seen) == cap
        assert abs(x - 1.0 / 3.0) <= 0.5 ** (cap + 1)


def _first_same_direction(field, section, y0, opts):
    """(height, time) of the first same-direction return, scanned on the
    orbit integrated all the way to t_max by the reference stepper; None
    when there is none."""
    sign = -1.0 if opts.direction == REVERSED else 1.0
    want = math.copysign(1.0, sign * field(section.x, y0)[0])
    for t, y, d in reference_section_crossings(field, (section.x, y0), section, opts,
                                               limit=10 ** 6):
        if d == want:
            return y, t
    return None


def _section_case(name):
    """(field, anchor x, anchor y, t_max): the anchor is the enclosed
    equilibrium, E4 for EX1 and the origin otherwise."""
    if name == "EX1":
        p = AlleeParams(**EX1)
        x4, y4 = equilibria(p).E4.point
        return allee_field(p), x4, y4, 1500.0
    field = {"center": center, "soft": soft_cycle, "damped": damped(-0.1)}[name]
    return field, 0.0, 0.0, 20.0


class TestEarlyStop:
    """return_map stops at the first same-direction crossing; it must give
    what a scan of the orbit integrated to t_max gives."""

    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(["center", "soft", "damped", "EX1"]),
           dy=st.floats(1e-5, 1e-3),
           reversed_time=st.booleans(),
           lowered=st.booleans())
    def test_matches_full_orbit_scan(self, name, dy, reversed_time, lowered):
        # a lowered base puts the opposite-direction crossing on the section
        field, x_c, y_c, t_max = _section_case(name)
        if name == "EX1":
            reversed_time = False
        section = Section(x_c, y_c - 1.0 if lowered else y_c)
        opts = tight(t_max, REVERSED if reversed_time else FORWARD)
        y0 = y_c + dy
        expect = _first_same_direction(field, section, y0, opts)
        assert expect is not None
        assert return_map(field, section, y0, opts) == expect[0]
        assert _first_return(field, section, y0, opts) == expect

    @settings(max_examples=30, deadline=None)
    @given(name=st.sampled_from(["center", "soft", "damped"]),
           t_max=st.floats(0.5, 12.0))
    def test_no_return_within_t_max(self, name, t_max):
        field, _, _, _ = _section_case(name)
        section = Section(0.0, 0.0)
        opts = tight(t_max)
        expect = _first_same_direction(field, section, 0.5, opts)
        if expect is None:
            with pytest.raises(NumericsError, match="no same-direction return"):
                return_map(field, section, 0.5, opts)
        else:
            assert _first_return(field, section, 0.5, opts) == expect

    @settings(max_examples=20, deadline=None)
    @given(x_sec=st.floats(-2.0, 2.0))
    def test_tangential_start(self, x_sec):
        # the center's orbits are tangent to every vertical line at y = 0
        with pytest.raises(NumericsError, match="tangential"):
            return_map(center, Section(x_sec, -3.0), 0.0, tight(10.0))
