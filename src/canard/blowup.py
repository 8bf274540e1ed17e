"""Numeric oracle for the closed-form Hopf quantities.

The pipeline mechanically reproduces the construction that the closed
forms in `normalform` summarize: rescale to the family chart (x = r*x1,
y = r^2*y1, lam = r*lam1, eps = r^2, time divided by r), locate the Hopf
point (the equilibrium and lam1 together, by one Newton iteration on the
defining system f = 0, trace = 0), translate the equilibrium to the
origin, bring the linear part to rotation form in the one frame the
closed forms are stated in (pivot m01), and apply the planar
first-Lyapunov-coefficient formula.
Everything here is independent of the omega/rho polynomials, so a fit of
l1_blowup over an r-grid is an end-to-end check of those polynomials.

Every stage reads and writes plain (i, j) -> c term tables: the
coefficient of x^i y^j, absent terms meaning 0.  Generated kernels do the
arithmetic on them, one call per stage for every table the stage reads:
the Hopf solve's three tables per Newton step (_hopf_kernel), both tables'
values and derivatives at a point (_partials), their recentring (_centred)
and their substitution into the rotation frame, which forms the rotated
tables in the same kernel (_rotated).  The generators _partials_source,
_recenter_source and _substitute_source share one form: the tables'
layouts in turn, split by their sizes.  _kernel generates each kernel as a
straight-line function through _kernels.define, as dataclasses generates
__init__, once per set of layouts (and sums; the Hopf step once per
fast-table layout, the slow and slope tables having fixed keys), and keeps
it in a bounded cache: one local per sum instead of dict lookups on tuple
keys.  A kernel is arithmetic on its arguments alone, with no branch on an
error: the checks are its callers'.  A layout is the table's keys in
insertion order: the order of the terms fixes the order in which each sum
adds them up, and so its rounding.  The keys are checked against the
monomials up to _DEGREE before any source is written.  The kernels repeat,
table by table, the float operations of the loops and jet ops they stand
for (jet_recenter, which lives with the tests as their reference,
jet_compose, jet_scale, jet_add), so their values are those bit for bit;
the tests check them.  blow_up_via_jets keeps to the generic jet ops as an
independent cross-check of the closed-form tables and is the only place
here that builds a Jet.

The kernels skip work whose result is known: a contribution whose integer
multiplier is 0 (the derivative sums of _partials_source), a product with
an exact 0.0 factor (the zero entries of the substitution's powers and of
normalize_linear's T), and the sums no caller reads (the recentred
constant, the derivatives _centred and the Hopf step do not use).  A
skipped term is +-0.0 when its other factors are finite, and it would be
added to a sum that starts at +0.0 and so never holds -0.0 (a + (-a) is
+0.0): adding it leaves the sum as it is.  A skipped 0 * inf would have
been NaN, but then a value the caller checks is already non-finite, and
the same error is raised.  Nor do they write a product with an exact 1.0
factor (an integer multiplier or a binomial 1, a power x^0, the
X^0 = Y^0 = [1.0] of the substitution): x * 1.0 is x for every float,
+-0.0, +-inf and NaN included.

A PlanarPolySystem is its two tables, cleaned by _clean_terms at the one
degree bound _DEGREE (int keys, floats, no zeros, all finite); lyapunov_DF's
|trace| < 1e-12 gate is the one check that a system sits on the Hopf curve.
A table written here from literal keys (_m_table's, and the slow tables of
the Hopf solve) is cleaned by _nonzero instead: the same floats, zero drop
and finiteness check, without the key remap.  The finiteness check,
_finite, scans a table for its first non-finite value only when the sum of
its values is not finite.
The stages after the Hopf location wrap one helper each (_centred, _rotated,
_first_lyapunov); l1_blowup and allee.model_l1 chain the helpers in one pass,
_lyapunov_at, that skips the cleaning of the two systems in between (key
remap, float(), zero drop) but makes every check of the stages, finiteness
included.  Its value is the same bit for bit: no table of the pass holds
-0.0 (the kernels' sums and _rotated's g1 start at +0.0, and g2 is z1 times
t10 > 0), so a kept zero reads as the 0.0 of an absent term, and
as a term of a kernel its products are +-0.0, or NaN where a power of the
substitution is not finite, and then the table's term of highest x-degree,
which the cleaning keeps, has a non-finite product too.  A Hopf solve builds
no system: it cleans the fast table (free of lam1) once, iterates on the slow
table as _n_table writes it, zeros kept by the same argument and checked only
for finiteness, and returns it so; l1_blowup, the one caller that reads it,
cleans it.

sample_record, the draw of verify's records, is one generator call and the
record constructor: over the whole draw box, corners and the omega1 = 0
stratum included, the r = 0.1 Hopf solve succeeds with complex eigenvalues,
so no draw needs a test or a retry (the tests check the box).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from ._kernels import define
from .errors import DomainError, NumericsError, require_number
from .jet import Jet, jet_add, jet_compose, jet_mul, jet_scale
from .normalform import COEFF_NAMES, NormalFormCoefficients, rho_coefficients

_DEGREE = 4  # cubic stages plus one guard order
_MAX_ITER = 50  # Newton steps allowed to the equilibrium and to the Hopf point
_TOL = 1e-12  # residual both Newton loops must get below (then take one more step)

Terms = Dict[Tuple[int, int], float]


# every (i, j) with i, j >= 0 and i + j <= _DEGREE, mapped to itself: a key
# equal to one of them, such as (1.0, 0), looks up its int pair
_TERMS = {(i, n - i): (i, n - i) for n in range(_DEGREE + 1) for i in range(n + 1)}
_BINOM = [[float(math.comb(n, k)) for k in range(n + 1)] for n in range(_DEGREE + 1)]


def _term_error(key) -> DomainError:
    return DomainError(f"term {key} is not a monomial of degree <= {_DEGREE}")


def _finite(terms: Terms) -> Terms:
    """terms, after a DomainError at its first non-finite value (overflow).
    A NaN or an inf among the values makes their sum NaN or inf, so a finite
    sum clears them all; only a table whose sum is not finite is scanned, and
    the scan passes one whose finite values overflowed the sum."""
    if not math.isfinite(sum(terms.values())):
        bad = next((k for k, c in terms.items() if not math.isfinite(c)), None)
        if bad is not None:
            raise DomainError(f"non-finite coefficient at {bad}")
    return terms


def _nonzero(terms: Terms) -> Terms:
    """The nonzero terms of a table written here, at its own int (i, j) keys,
    as floats, in insertion order; DomainError on a non-finite value."""
    return _finite({k: float(c) for k, c in terms.items() if c != 0.0})


def _clean_terms(terms: Terms) -> Terms:
    """The nonzero terms as floats at int (i, j) keys, in insertion order;
    DomainError on a term beyond _DEGREE or a non-finite value."""
    try:
        clean = {_TERMS[k]: float(c) for k, c in terms.items() if c != 0.0}
    except KeyError as exc:
        raise _term_error(exc.args[0]) from None
    return _finite(clean)


@dataclass(frozen=True)
class PlanarPolySystem:
    """Planar polynomial vector field as two term tables, truncated at total
    degree _DEGREE."""

    fx: Terms
    fy: Terms

    def __post_init__(self):
        for name in ("fx", "fy"):
            terms = getattr(self, name).items()
            object.__setattr__(self, name, _clean_terms(
                {k: require_number(f"coefficient at {k}", c) for k, c in terms}))


@dataclass(frozen=True)
class EquilibriumSeries:
    """Equilibrium of the blown-up system as a series in r.

    The coefficients are O(1); the prediction is (sum p_k r^k,
    sum q_k r^k), accurate to O(r^4)."""

    p: Tuple[float, float, float, float]
    q: Tuple[float, float, float, float]

    def predict(self, r: float) -> Tuple[float, float]:
        x = ((self.p[3] * r + self.p[2]) * r + self.p[1]) * r + self.p[0]
        y = ((self.q[3] * r + self.q[2]) * r + self.q[1]) * r + self.q[0]
        return (x, y)


def _m_table(nf: NormalFormCoefficients, r: float) -> Terms:
    """Fast component of the rescaled system at radius r; it does not depend
    on lambda1."""
    r2 = r * r
    return {
        (1, 0): r * nf.c10,
        (0, 1): -1.0 + r2 * nf.c01,
        (2, 0): 1.0 + r2 * nf.c20,
        (1, 1): r * (r2 * nf.c11 - nf.a10),
        (0, 2): r2 * (r2 * nf.c02 - nf.a01),
        (3, 0): r * (nf.b10 + r2 * nf.c30),
        (2, 1): r2 * (r2 * nf.c21 - nf.a20),
        (1, 2): r2 * r * (r2 * nf.c12 - nf.a11),
        (0, 3): r2 * r2 * (r2 * nf.c03 - nf.a02),
    }


def _n_table(nf: NormalFormCoefficients, r: float, lambda1: float) -> Terms:
    """Slow component of the rescaled system at radius r and lambda1."""
    r2 = r * r
    return {
        (0, 0): -lambda1,
        (1, 0): 1.0 - lambda1 * r * nf.e10,
        (0, 1): r * (nf.f00 - lambda1 * r * nf.e01),
        (2, 0): r * (nf.d10 - lambda1 * r * nf.e20),
        (1, 1): r2 * (nf.f10 - lambda1 * r * nf.e11),
        (0, 2): r2 * r * (nf.f01 - lambda1 * r * nf.e02),
        (3, 0): r2 * (nf.d20 - lambda1 * r * nf.e30),
        (2, 1): r2 * r * (nf.f20 - lambda1 * r * nf.e21),
        (1, 2): r2 * r2 * (nf.f11 - lambda1 * r * nf.e12),
        (0, 3): r2 * r2 * r * (nf.f02 - lambda1 * r * nf.e03),
    }


def blow_up(nf: NormalFormCoefficients, r: float, lambda1: float) -> PlanarPolySystem:
    """Rescaled system at radius r, from closed-form coefficient tables."""
    if r <= 0.0:
        raise DomainError(f"r must be positive, got {r}")
    return PlanarPolySystem(_m_table(nf, r), _n_table(nf, r, lambda1))


def _template_jets(nf: NormalFormCoefficients, lam: float, eps: float) -> Tuple[Jet, Jet]:
    """The source system as 2-variable jets at numeric (lam, eps)."""
    h1 = {(0, 0): 1.0, (1, 0): nf.a10, (0, 1): nf.a01,
          (2, 0): nf.a20, (1, 1): nf.a11, (0, 2): nf.a02}
    h2 = {(0, 0): 1.0, (1, 0): nf.b10}
    h3 = {(1, 0): nf.c10, (0, 1): nf.c01, (2, 0): nf.c20, (1, 1): nf.c11,
          (0, 2): nf.c02, (3, 0): nf.c30, (2, 1): nf.c21, (1, 2): nf.c12,
          (0, 3): nf.c03}
    h4 = {(0, 0): 1.0, (1, 0): nf.d10, (2, 0): nf.d20}
    h5 = {(0, 0): 1.0, (1, 0): nf.e10, (0, 1): nf.e01, (2, 0): nf.e20,
          (1, 1): nf.e11, (0, 2): nf.e02, (3, 0): nf.e30, (2, 1): nf.e21,
          (1, 2): nf.e12, (0, 3): nf.e03}
    h6 = {(0, 0): nf.f00, (1, 0): nf.f10, (0, 1): nf.f01, (2, 0): nf.f20,
          (1, 1): nf.f11, (0, 2): nf.f02}

    def build(d):
        return Jet(2, _DEGREE, d)

    x = Jet(2, _DEGREE, {(1, 0): 1.0})
    y = Jet(2, _DEGREE, {(0, 1): 1.0})
    fx = jet_add(
        jet_add(jet_scale(jet_mul(y, build(h1)), -1.0),
                jet_mul(jet_mul(x, x), build(h2))),
        jet_scale(build(h3), eps))
    fy = jet_add(
        jet_add(jet_mul(x, build(h4)), jet_scale(build(h5), -lam)),
        jet_mul(y, build(h6)))
    fy = jet_scale(fy, eps)
    return fx, fy


def blow_up_via_jets(nf: NormalFormCoefficients, r: float, lambda1: float) -> PlanarPolySystem:
    """Same rescaling done by jet composition; cross-checks the tables.

    Substitutes x = r*x1, y = r^2*y1 at numeric r into the source jets,
    then divides the fast component by r^2 and the slow one by r^3
    (the time rescaling)."""
    if r <= 0.0:
        raise DomainError(f"r must be positive, got {r}")
    lam = r * lambda1
    eps = r * r
    fx, fy = _template_jets(nf, lam, eps)
    sub_x = Jet(2, _DEGREE, {(1, 0): r})
    sub_y = Jet(2, _DEGREE, {(0, 1): eps})
    fx1 = jet_scale(jet_compose(fx, [sub_x, sub_y]), r ** -2)
    fy1 = jet_scale(jet_compose(fy, [sub_x, sub_y]), r ** -3)
    return PlanarPolySystem(fx1.coeffs, fy1.coeffs)


# derivatives (a, b) for _partials: (v, v_x, v_y), then v_xx, v_xy, v_yy
_ORDER1 = ((0, 0), (1, 0), (0, 1))
_ORDER2 = _ORDER1 + ((2, 0), (1, 1), (0, 2))
_VALUE = _ORDER1[:1]
# the sums the Hopf step reads of m, n and dn
_HOPF_SUMS = (_ORDER2[:5], _ORDER1 + _ORDER2[4:], _VALUE + _ORDER1[2:])


def _partials(fx: Terms, fy: Terms, x: float, y: float, sums: tuple) -> Tuple[float, ...]:
    """The derivatives sums of sum c x^i y^j at (x, y), fx's then fy's, by
    the one kernel _partials_source generates for the two layouts and those
    sums; DomainError on a key that is not a monomial of degree <= _DEGREE."""
    return _pair_kernel(_partials_source, fx, fy, (sums, sums))(fx, fy, x, y)


def equilibrium_series(sys: PlanarPolySystem, r: float) -> EquilibriumSeries:
    """Series coefficients of the equilibrium near the origin of a system
    blown up at radius r; DomainError unless 0 < r < inf, NumericsError if
    a coefficient overflows."""
    if not 0.0 < r < math.inf:
        raise DomainError(f"r must be positive and finite, got {r}")
    return _series(sys.fx, sys.fy, r)


def _series(fx: Terms, fy: Terms, r: float) -> EquilibriumSeries:
    """equilibrium_series of the tables fx, fy.  It reads the hatted values:
    by the r-grading m_ij = r^mu_ij O(1), n_ij = r^nu_ij O(1), each entry over
    its power of r (c / r ** 0 is c), those no formula reads too, so that a
    power underflowing to 0 fails wherever it stands."""
    m, n = fx.get, fy.get
    try:
        r1, r2, r3, r4, r5 = r ** 1, r ** 2, r ** 3, r ** 4, r ** 5
        m01, m20, n00, n10 = m((0, 1), 0.0), m((2, 0), 0.0), n((0, 0), 0.0), n((1, 0), 0.0)
        m10, m11, m30 = m((1, 0), 0.0) / r1, m((1, 1), 0.0) / r1, m((3, 0), 0.0) / r1
        m02, m21, m12 = m((0, 2), 0.0) / r2, m((2, 1), 0.0) / r2, m((1, 2), 0.0) / r3
        n01, n20, n11, n30 = (n((0, 1), 0.0) / r1, n((2, 0), 0.0) / r1,
                              n((1, 1), 0.0) / r2, n((3, 0), 0.0) / r2)
        n02, n21 = n((0, 2), 0.0) / r3, n((2, 1), 0.0) / r3
        m((0, 3), 0.0) / r4, n((1, 2), 0.0) / r4, n((0, 3), 0.0) / r5  # read by none
        if n10 == 0.0:
            raise DomainError("slow linear coefficient n10 must be nonzero")
        if m01 == 0.0:
            raise DomainError("fast linear coefficient m01 must be nonzero")

        # each subtree used more than once is computed once, as the same
        # operands in the same order, so that every value keeps its rounding
        mn, m20x2 = m01 * n10, 2 * m20
        b20 = 4 * m20 * n20 - 3 * m30 * n10
        b11, b01 = m20x2 * n11 - m21 * n10, m20x2 * n01 - m11 * n10
        p0 = -n00 / n10
        q0 = -m20 * n00 ** 2 / (m01 * n10 ** 2)
        p0p2, q0p2 = p0 ** 2, q0 ** 2
        p1 = -(p0p2 * n20 + q0 * n01) / n10
        p1p2 = p1 ** 2
        q1 = -p0 * (p0p2 * (m30 * n10 - m20x2 * n20)
                    + q0 * (m11 * n10 - m20x2 * n01)
                    + m10 * n10) / mn
        p2 = -(p0 * (p0p2 * n30 + 2 * p1 * n20 + q0 * n11) + q1 * n01) / n10
        q2 = (p0p2 * (p1 * b20 + q0 * b11)
              + p0 * q1 * b01
              - n10 * (p1 * q0 * m11 + p1 * (p1 * m20 + m10) + q0p2 * m02)
              + 2 * p0 ** 4 * m20 * n30) / mn
        p3 = -(p0 * q1 * n11 + q0 * (p0p2 * n21 + p1 * n11)
               + 3 * p1 * p0p2 * n30 + 2 * p2 * p0 * n20 + p1p2 * n20
               + q2 * n01 + q0p2 * n02) / n10
        q3 = (2 * p0 ** 3 * m20 * (3 * p1 * n30 + q0 * n21)
              + p0p2 * (p2 * b20 + q1 * b11)
              + p0 * (2 * p1 * q0 * (m20 * n11 - m21 * n10)
                      + p1p2 * (m20x2 * n20 - 3 * m30 * n10)
                      + q2 * b01
                      + q0p2 * (m20x2 * n02 - m12 * n10))
              - n10 * (p1 * q1 * m11 + q0 * (p2 * m11 + 2 * q1 * m02)
                       + p2 * (2 * p1 * m20 + m10))) / mn
        if not all(map(math.isfinite, (p0, p1, p2, p3, q0, q1, q2, q3))):
            raise OverflowError
    except (OverflowError, ZeroDivisionError):
        # a float power or a coefficient past the range, or a division by an
        # r-power or a product of coefficients that underflowed to 0
        raise NumericsError("equilibrium series coefficient overflowed") from None
    return EquilibriumSeries((p0, p1, p2, p3), (q0, q1, q2, q3))


def find_equilibrium(sys: PlanarPolySystem, guess: Tuple[float, float]) -> Tuple[float, float]:
    """Newton refinement of the equilibrium from guess (verify's series-order
    stage seeds it with the equilibrium series head)."""
    x, y = float(guess[0]), float(guess[1])
    for _ in range(_MAX_ITER):
        fx, j11, j12, fy, j21, j22 = _partials(sys.fx, sys.fy, x, y, _ORDER1)
        # a residual that is not finite leads to no finite root; the Jacobian
        # need not be NaN there (_partials skips the 0 * inf terms), so say so
        if not (math.isfinite(fx) and math.isfinite(fy)):
            raise NumericsError(f"non-finite residual in equilibrium refinement at ({x}, {y})")
        # one extra step after meeting _TOL polishes the root to the
        # floating-point floor (downstream trace gates need the margin)
        converged = max(abs(fx), abs(fy)) < _TOL
        det = j11 * j22 - j12 * j21
        if det == 0.0 or not math.isfinite(det):
            raise NumericsError("singular Jacobian in equilibrium refinement")
        x -= (j22 * fx - j12 * fy) / det
        y -= (-j21 * fx + j11 * fy) / det
        if converged:
            return (x, y)
    raise NumericsError(f"equilibrium refinement did not reach {_TOL} in {_MAX_ITER} iterations")


# kernels kept per (kernel, table layouts, sums); ten verify runs compile 9
_KERNEL_CACHE = 64


@functools.lru_cache(maxsize=_KERNEL_CACHE)
def _kernel(emit, layout: tuple, *args):
    """The function kernel(t0, t1, ...) whose straight-line source
    emit(layout, *args) writes for the tables t0, t1, ... whose keys, in
    insertion order, make up layout (the emitter splits it by the table sizes
    it is given), run in an empty namespace: a kernel is straight-line
    arithmetic on its arguments.  DomainError naming a key that is not a
    monomial of degree <= _DEGREE, so that only int exponents reach the
    source."""
    for k in layout:
        if k not in _TERMS:
            raise _term_error(k)
    return define("\n".join(emit(tuple(_TERMS[k] for k in layout), *args)), "kernel", {})


def _pair_kernel(emit, fx: Terms, fy: Terms, *args):
    """The one kernel that emit writes for the two tables fx and fy: their
    layouts in turn, args, then their sizes."""
    return _kernel(emit, (*fx, *fy), *args, len(fx), len(fy))


def _tables(layout: tuple, sizes: tuple, *args: str) -> Tuple[list, list]:
    """The layouts of the tables t0, t1, ... (table ti has the next sizes[i]
    keys of layout), and the first lines of kernel(t0, t1, ..., *args): the
    def and the lines binding ci_0, ci_1, ... to the values of table ti."""
    parts, start = [], 0
    for size in sizes:
        parts.append(layout[start:start + size])
        start += size
    lines = [f"def kernel({''.join(f't{t}, ' for t in range(len(parts)))}{', '.join(args)}):"]
    lines += [f"    {''.join(f'c{t}_{n}, ' for n in range(len(part)))}= t{t}.values()"
              for t, part in enumerate(parts) if part]
    return parts, lines


def _accumulate(lines: list, sums: dict, key: tuple, value: str, prefix: str) -> None:
    """out[key] = out.get(key, 0.0) + value, with out[key] held in a local
    whose name starts with prefix."""
    if key in sums:
        lines.append(f"    {sums[key]} += {value}")
    else:
        sums[key] = f"{prefix}{len(sums)}"
        lines.append(f"    {sums[key]} = 0.0 + {value}")


def _returned(lines: list, tables: Sequence[dict]) -> list:
    """lines, then the return of the output tables, each one's keys in
    first-insertion order."""
    items = ("{" + ", ".join(f"{k}: {v}" for k, v in sums.items()) + "}" for sums in tables)
    return lines + [f"    return ({''.join(f'{table}, ' for table in items)})"]


def _partials_source(layout: tuple, sums: tuple, *sizes: int) -> list:
    """kernel(t0, t1, ..., x, y) of _partials and _hopf_kernel: table ti has
    the next sizes[i] keys of layout, and its sums are sums[i].  The sum of
    each derivative (a, b) of a table adds, from 0.0 and in the order of the
    table's terms, ((k * c) * x^(i-a)) * y^(j-b) with the integer
    k = i!/(i-a)! j!/(j-b)! and the powers x*x, (x*x)*x, ((x*x)*x)*x.  A term
    whose k is 0 is left out (see the module docstring), and a factor k = 1 or
    x^0 = 1.0 is not written: multiplying by it is exact."""
    def term(c, i, j, a, b):
        k = math.perm(i, a) * math.perm(j, b)
        return "".join([f"{k} * " if k != 1 else "", c, *(
            f" * {v}{e if e > 1 else ''}" for v, e in (("x", i - a), ("y", j - b)) if e)])

    parts, lines = _tables(layout, sizes, "x", "y")
    values = [" + ".join(["0.0", *(term(f"c{t}_{n}", i, j, a, b)
                                   for n, (i, j) in enumerate(part) if i >= a and j >= b)])
              for t, (part, table_sums) in enumerate(zip(parts, sums)) for a, b in table_sums]
    for name, top in (("x", max((i for i, _ in layout), default=0)),
                      ("y", max((j for _, j in layout), default=0))):
        lines += [f"    {name}{e} = {name}{e - 1 if e > 2 else ''} * {name}"
                  for e in range(2, top + 1)]
    return lines + [f"    return ({', '.join(values)},)"]


def _scaled(c: str, n: int, k: int, h: str) -> str:
    """c * (C(n, k) * h^(n-k)), the power held in the local h{n-k}, with a
    factor 1.0 (C(n, 0) = C(n, n), or h^0) left out: x * 1.0 is x for every
    float, +-0.0, +-inf and NaN included."""
    b, e = _BINOM[n][k], n - k
    if b != 1.0:
        return f"{c} * ({b!r} * {h}{e})" if e else f"{c} * {b!r}"
    return f"{c} * {h}{e}" if e else c


def _recenter_source(layout: tuple, *sizes: int) -> list:
    """kernel(t0, t1, ..., x0, y0) of _centred (table ti has the next sizes[i]
    keys of layout): per table, the terms of sum c (x + x0)^i (y + y0)^j but
    the constant, by the loop of jet_recenter over its terms, k then l
    ascending, each contribution (c * (C(i, k) x0^(i-k))) * (C(j, l) y0^(j-l)),
    a factor 1.0 not written (_scaled), with the powers x0 ** e and y0 ** e,
    e >= 1, up to the highest exponent of the layout."""
    parts, lines = _tables(layout, sizes, "x0", "y0")
    for h, top in (("x", max((i for i, _ in layout), default=0)),
                   ("y", max((j for _, j in layout), default=0))):
        lines += [f"    h{h}{e} = {h}0 ** {e}" for e in range(1, top + 1)]
    tables = []
    for t, part in enumerate(parts):
        sums: dict = {}
        for n, (i, j) in enumerate(part):
            # k = 0 of a term with j = 0 adds to the constant, which is not summed
            for k in range(0 if j else 1, i + 1):
                lines.append(f"    cx = {_scaled(f'c{t}_{n}', i, k, 'hx')}")
                for l in range(0 if k else 1, j + 1):
                    _accumulate(lines, sums, (k, l), _scaled("cx", j, l, "hy"), f"o{t}_")
        tables.append(sums)
    return _returned(lines, tables)


def _substitute_source(layout: tuple, *sizes: int) -> list:
    """kernel(t0, t1, X, Y, t00, t01, t10) of _rotated (tables t0, t1 of the
    sizes[0] and sizes[1] keys of layout).  It substitutes x = a u + b v,
    y = c u + d v in each table as jet_compose does, given the _linear_powers
    X, Y of the two forms: per term, the sums w[s] of the products
    (k X^i[p]) Y^j[q], p then q descending, each row of products behind a
    branch that skips it where k X^i[p] == 0.0, then w[s] added to the table's
    output z for s descending.  X^0 = Y^0 = [1.0], so a product by their
    entry is not written: x * 1.0 is x for every float.  It returns
    g1 = 0.0 + t00 z1 + t01 z2 and g2 = t10 z1, keyed as z1, then the keys
    only z2 has, a missing entry written as 0.0: the float operations of
    z1.get(k, 0.0) and z2.get(k, 0.0)."""
    rows = sorted({i for i, _ in layout} - {0}), sorted({j for _, j in layout} - {0})
    parts, lines = _tables(layout, sizes, "X", "Y", "t00", "t01", "t10")
    for name, es in zip("XY", rows):
        lines += [f"    {''.join(f'{name.lower()}{e}_{p}, ' for p in range(e + 1))}= {name}[{e}]"
                  for e in es]
    z1, z2 = tables = ({}, {})
    for t, (part, sums) in enumerate(zip(parts, tables)):
        for n, (i, j) in enumerate(part):
            lines.append(f"    {' = '.join(f'w{s}' for s in range(i + j + 1))} = 0.0")
            for p in range(i, -1, -1):
                lines += [f"    kx = c{t}_{n}{f' * x{i}_{p}' if i else ''}", "    if kx != 0.0:"]
                lines += [f"        w{p + q} += kx{f' * y{j}_{q}' if j else ''}"
                          for q in range(j, -1, -1)]
            for s in range(i + j, -1, -1):
                _accumulate(lines, sums, (s, i + j - s), f"w{s}", f"z{t}_")
    keys = {**z1, **z2}
    return _returned(lines, (
        {k: f"0.0 + t00 * {z1.get(k, '0.0')} + t01 * {z2.get(k, '0.0')}" for k in keys},
        {k: f"t10 * {z1.get(k, '0.0')}" for k in keys}))


def _centred(fx: Terms, fy: Terms, eq) -> Tuple[Terms, Terms]:
    """The two tables recentred at eq, an equilibrium (residual <= 1e-10).
    A power of the centre beyond the float range raises OverflowError in the
    recentring kernel, which this never reaches: the residual gate takes the
    same powers as products, which overflow to inf there, and fails first."""
    if len(eq) != 2:
        raise DomainError(f"point length {len(eq)} != nvars 2")
    x0, y0 = float(eq[0]), float(eq[1])
    f, g = map(abs, _partials(fx, fy, x0, y0, _VALUE))
    res = max(f, g) if g == g else g  # max() keeps a NaN only in first place
    if not res <= 1e-10:  # a NaN residual fails too
        raise DomainError(f"residual at proposed equilibrium is {res:.3e} > 1e-10")
    return _pair_kernel(_recenter_source, fx, fy)(fx, fy, x0, y0)


def translate_to_equilibrium(sys: PlanarPolySystem, eq: Tuple[float, float]) -> PlanarPolySystem:
    """Recenter the system at eq; requires eq to be an equilibrium."""
    return PlanarPolySystem(*_centred(sys.fx, sys.fy, eq))


def _linear_powers(a: float, b: float) -> list:
    """X[e][p], the u^p v^(e-p) coefficient of (a u + b v)^e for e <= _DEGREE = 4,
    by jet_mul's recurrence X^e[p] = X^(e-1)[p] b + X^(e-1)[p-1] a, unrolled
    (X^1 = [1.0 b, 1.0 a] is [b, a] exactly)."""
    x20, x21, x22 = b * b, a * b + b * a, a * a
    x30, x31, x32, x33 = x20 * b, x21 * b + x20 * a, x22 * b + x21 * a, x22 * a
    return [[1.0], [b, a], [x20, x21, x22], [x30, x31, x32, x33],
            [x30 * b, x31 * b + x30 * a, x32 * b + x31 * a, x33 * b + x32 * a, x33 * a]]


def _rotated(fx: Terms, fy: Terms) -> Tuple[Terms, Terms]:
    """The two tables in normalize_linear's frame, from its checks and T, by
    one _substitute_source kernel."""
    m10, m01 = fx.get((1, 0), 0.0), fx.get((0, 1), 0.0)
    n10, n01 = fy.get((1, 0), 0.0), fy.get((0, 1), 0.0)
    M = -(m10 + n01)
    N = m10 * n01 - m01 * n10
    disc = 4.0 * N - M * M
    if disc <= 0.0:
        raise DomainError(f"4*N - M^2 = {disc:.3e} must be positive (complex eigenvalues)")
    if m01 == 0.0:
        raise DomainError("the rotation frame requires m01 != 0")
    s = math.sqrt(disc)
    rt2 = math.sqrt(2.0)
    (t00, t01), t10 = (rt2 * (n01 - m10) / 2.0, -rt2 * m01), rt2 / 2.0 * s
    # T = [[t00, t01], [t10, 0]], T^-1 = [[0, 1/t10], [1/t01, -t00/(t01*t10)]]:
    # det T = -t01*t10 = m01*s != 0.  The rotated tables start at +0.0 like
    # the kernels' sums, so that g1 is never -0.0; T's zero: 0 * z2 is +-0.0,
    # which would leave a nonzero t10 * z1 as it is, and t10 > 0 keeps g2 off
    # -0.0; a non-finite z2 fails the check of g1 first (t01 != 0)
    X = _linear_powers(0.0, 1.0 / t10)
    Y = _linear_powers(1.0 / t01, -t00 / (t01 * t10))
    return _pair_kernel(_substitute_source, fx, fy)(fx, fy, X, Y, t00, t01, t10)


def normalize_linear(sys: PlanarPolySystem) -> PlanarPolySystem:
    """Linear change of variables making the linear part a scaled rotation.

    After the transform the linear part is a*I + b*R with
    R = [[0, -1], [1, 0]], where a = trace/2 and b is read off the
    x-coefficient of the second component; eigenvalues are a +/- i*b.
    The transform pivots on m01, the frame the closed-form series are
    stated in; requires complex eigenvalues and m01 != 0."""
    return PlanarPolySystem(*_rotated(sys.fx, sys.fy))


def _lambda1_slopes(nf: NormalFormCoefficients, r: float) -> Terms:
    """dn_ij/dlambda1 = -r^(nu_ij + 1) e_ij of the n-table at radius r, in the
    order of its keys but (0, 0), whose slope -1.0 comes last; it does not
    depend on lambda1."""
    r2, r3, r4, r5, r6 = r ** 2, r ** 3, r ** 4, r ** 5, r ** 6
    return {(1, 0): -r ** 1 * nf.e10, (0, 1): -r2 * nf.e01, (2, 0): -r2 * nf.e20,
            (1, 1): -r3 * nf.e11, (0, 2): -r4 * nf.e02, (3, 0): -r3 * nf.e30,
            (2, 1): -r4 * nf.e21, (1, 2): -r5 * nf.e12, (0, 3): -r6 * nf.e03,
            (0, 0): -1.0}


# the layouts of every slow table and slope table a Hopf solve reads
_N_LAYOUT = tuple(_n_table(NormalFormCoefficients(), 1.0, 0.0))
_DN_LAYOUT = tuple(_lambda1_slopes(NormalFormCoefficients(), 1.0))


def _hopf_source(layout: tuple) -> list:
    """kernel(t0, t1, t2, x, y) of _hopf_kernel: the _partials_source kernel of
    the _HOPF_SUMS of a fast table with this layout and of a slow and a slope
    table with the layouts _N_LAYOUT and _DN_LAYOUT."""
    return _partials_source((*layout, *_N_LAYOUT, *_DN_LAYOUT), _HOPF_SUMS,
                            len(layout), len(_N_LAYOUT), len(_DN_LAYOUT))


def _hopf_kernel(m: Terms, n: Terms, dn: Terms):
    """The kernel of the Hopf step: at (x, y) the values of m, m_x, m_y, m_xx,
    m_xy, then n, n_x, n_y, n_xy, n_yy, then p, p_y of the lambda1-slopes
    p = sum dn_ij x^i y^j.  It is looked up by m's layout alone: n and dn are
    the tables _n_table and _lambda1_slopes write, whose layouts are fixed."""
    return _kernel(_hopf_source, tuple(m))


def _hopf_point(nf: NormalFormCoefficients, r: float
                ) -> Tuple[float, Tuple[float, float], Tuple[Terms, Terms]]:
    """(lambda1, equilibrium, blow_up(nf, r, lambda1)'s two tables, the slow one
    with its zeros) at the Hopf point for radius r: Newton iteration on the defining system (fx, fy,
    trace) = 0 in (x, y, lambda1), the bordered 3x3 Jacobian solved by Cramer's
    rule, seeded by lambda1 = rho1*r and the equilibrium series head of the
    cleaned starting tables (the raw n00 is -0.0 at lambda1 = 0).  The fast
    table does not depend on lambda1; the slow table is rebuilt per iterate as
    _n_table writes it, zeros kept and checked only for finiteness, and is
    returned so: a caller that reads it cleans it.  One _hopf_kernel serves
    every iterate."""
    if not 0.0 < r <= 0.2:
        raise DomainError(f"r must lie in (0, 0.2], got {r}")
    lam = rho_coefficients(nf).rho1 * r
    dn = _lambda1_slopes(nf, r)
    m, n = _nonzero(_m_table(nf, r)), _n_table(nf, r, lam)
    x, y = _series(m, _nonzero(n), r).predict(r)
    step = _hopf_kernel(m, n, dn)
    for _ in range(_MAX_ITER):
        f, a, b, fxx, fxy, g, c, d, gxy, gyy, p, k = step(m, n, dn, x, y)
        t, e, h = a + d, fxx + gxy, fxy + gyy
        # one extra step after meeting _TOL polishes the residual to the
        # floating-point floor (the Lyapunov gate needs the margin)
        converged = max(abs(f), abs(g), abs(t)) < _TOL
        minor = d * k - p * h
        det = a * minor - b * (c * k - p * e)
        if det == 0.0 or not math.isfinite(det):
            raise NumericsError("singular Jacobian in Hopf location")
        x -= (f * minor - b * (g * k - p * t)) / det
        y -= (a * (g * k - p * t) - f * (c * k - p * e)) / det
        lam -= (a * (d * t - g * h) - b * (c * t - g * e) + f * (c * h - d * e)) / det
        n = _finite(_n_table(nf, r, lam))
        if converged:
            return lam, (x, y), (m, n)
    raise NumericsError(f"Hopf location did not reach residual {_TOL} in {_MAX_ITER} iterations")


def hopf_lambda1(nf: NormalFormCoefficients, r: float) -> float:
    """The value of lambda1 putting the blown-up equilibrium on the Hopf
    curve (zero linear trace) at radius r, solved by _hopf_point."""
    return _hopf_point(nf, r)[0]


def _first_lyapunov(g1: Terms, g2: Terms) -> float:
    """lyapunov_DF on the tables g1, g2 of a system's two components."""
    g1, g2 = g1.get, g2.get
    trace = g1((1, 0), 0.0) + g2((0, 1), 0.0)
    if abs(trace) >= 1e-12:
        raise DomainError(f"|linear trace| = {abs(trace):.3e} must be < 1e-12")
    beta0 = g2((1, 0), 0.0)
    if beta0 == 0.0:
        raise DomainError("rotation coefficient beta0 must be nonzero")
    fxx = 2.0 * g1((2, 0), 0.0)
    fxy = g1((1, 1), 0.0)
    fyy = 2.0 * g1((0, 2), 0.0)
    gxx = 2.0 * g2((2, 0), 0.0)
    gxy = g2((1, 1), 0.0)
    gyy = 2.0 * g2((0, 2), 0.0)
    fxxx = 6.0 * g1((3, 0), 0.0)
    fxyy = 2.0 * g1((1, 2), 0.0)
    gxxy = 2.0 * g2((2, 1), 0.0)
    gyyy = 6.0 * g2((0, 3), 0.0)
    cubic = fxxx + fxyy + gxxy + gyyy
    mixed = (fxy * (fxx + fyy) - gxy * (gxx + gyy) - fxx * gxx + fyy * gyy) / beta0
    l1 = (cubic + mixed) / 16.0
    if not math.isfinite(l1):
        raise NumericsError(f"first Lyapunov coefficient overflowed to {l1}")
    return l1


def lyapunov_DF(sys: PlanarPolySystem) -> float:
    """First Lyapunov coefficient of a system whose linear part is a
    scaled rotation (zero trace).  Uses the classical planar formula on
    the stored coefficients; beta0 is the rotation speed, read off
    the x-coefficient of the second component."""
    return _first_lyapunov(sys.fx, sys.fy)


def _lyapunov_at(fx: Terms, fy: Terms, eq: Tuple[float, float]) -> float:
    """lyapunov_DF(normalize_linear(translate_to_equilibrium(sys, eq))) of the
    system sys of the finite tables fx, fy in one pass (module docstring)."""
    fx, fy = _centred(fx, fy, eq)
    _finite(fx), _finite(fy)
    g1, g2 = _rotated(fx, fy)
    _finite(g1), _finite(g2)
    return _first_lyapunov(g1, g2)


def l1_blowup(nf: NormalFormCoefficients, r: float) -> float:
    """Blown-up first Lyapunov coefficient at radius r, on the Hopf curve, by
    the one pass _lyapunov_at over the Hopf solve's tables and equilibrium.

    Normalized in normalize_linear's m01-pivot frame, the frame of the
    closed-form series L1(r) = (omega1/16) r + (omega2/32) r^3.  A frame
    pivoting on n10 instead rescales L1 by the positive factor
    |m01_bar / n10_bar| = 1 + O(r), which would contaminate the fits."""
    _, eq, (fx, fy) = _hopf_point(nf, r)
    return _lyapunov_at(fx, _nonzero(fy), eq)


def fit_odd_series(samples: Sequence[Tuple[float, float]],
                   powers: Sequence[int]) -> np.ndarray:
    """Least-squares fit of v(r) = sum_k c_k r^(powers[k]).

    Returns the coefficients aligned with powers.  Columns are scaled to
    unit infinity-norm before solving, since the plain Vandermonde in r << 1
    is badly conditioned.  DomainError naming the first radius or value that
    is not finite, before any array is built."""
    powers = list(powers)
    if len(samples) < 2 * len(powers):
        raise DomainError(
            f"need >= {2 * len(powers)} samples for {len(powers)} powers, got {len(samples)}")
    pairs = [(float(r), float(v)) for r, v in samples]
    for n, pair in enumerate(pairs):
        for name, x in zip(("radius", "value"), pair):
            if not math.isfinite(x):
                raise DomainError(f"sample {n} has a non-finite {name} ({x})")
    if len({r for r, _ in pairs}) != len(pairs):
        raise DomainError("sample radii must be distinct")
    rs, vs = np.array([r for r, _ in pairs]), np.array([v for _, v in pairs])
    A = np.column_stack([rs ** p for p in powers])
    scale = np.max(np.abs(A), axis=0)
    if np.any(scale == 0.0):
        raise NumericsError("design matrix has a zero column (rank-deficient)")
    sol, _, rank, _ = np.linalg.lstsq(A / scale, vs, rcond=None)
    if rank < len(powers):
        raise NumericsError("rank-deficient design matrix in series fit")
    return sol / scale


def sample_record(rng: np.random.Generator,
                  constrain_omega1: bool = False) -> NormalFormCoefficients:
    """Random coefficient record, uniform on [-1, 1] per entry, from one
    generator call.  With constrain_omega1 the a10 entry is overwritten to
    force omega1 = 0 (the degenerate stratum).  Every record of either
    stratum has a Hopf point at r = 0.1 with complex eigenvalues well clear
    of a double root (4N - M^2 near 4), which the tests check over the
    whole box, so no draw is refused."""
    vals = dict(zip(COEFF_NAMES, rng.uniform(-1.0, 1.0, len(COEFF_NAMES)).tolist()))
    if constrain_omega1:
        vals["a10"] = 3.0 * vals["b10"] - 2.0 * vals["d10"] - 2.0 * vals["f00"]
    return NormalFormCoefficients(**vals)
