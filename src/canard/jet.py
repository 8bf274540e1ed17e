"""Truncated multivariate power-series (jet) arithmetic.

A Jet stores coefficients of a polynomial in up to 4 variables, truncated
at a total-degree bound.  The blow-up oracle itself works on plain
(i, j) -> c term tables; jets serve two purposes only: blow_up_via_jets
builds the rescaled system by generic jet composition as an independent
cross-check of the oracle's closed-form tables, and jet_compose is one of
the references the tests hold the oracle's flat kernels to (evaluation and
recentering, the others, live with the tests).

Conventions:
  * absent multi-indices mean coefficient 0;
  * composition requires zero constant terms in the substituted jets,
    because the tail of a truncated series is unknown;
  * the public Jet(...) constructor validates multi-indices and values;
    the ops below build results, whose multi-indices are valid by
    construction, through _make, which still drops zeros and raises
    DomainError on a non-finite coefficient (overflow never passes).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, Mapping, Sequence, Tuple

from .errors import DomainError, require_count, require_number

Multi = Tuple[int, ...]


def _multi_index(mi) -> Multi:
    """mi as a tuple of ints; a non-integer entry raises DomainError
    instead of being truncated."""
    try:
        out = tuple(int(e) for e in mi)
        exact = all(o == e for o, e in zip(out, mi))
    except (TypeError, ValueError, OverflowError):
        exact = False
    if not exact:
        raise DomainError(f"multi-index {mi!r} has a non-integer entry")
    return out


@dataclass(frozen=True)
class Jet:
    """Polynomial truncated at total degree `degree` in `nvars` variables."""

    nvars: int
    degree: int
    coeffs: Dict[Multi, float] = field(default_factory=dict)

    def __post_init__(self):
        require_count("nvars", self.nvars, 1)
        if self.nvars > 4:
            raise DomainError(f"nvars must be in 1..4, got {self.nvars}")
        require_count("degree", self.degree, 0)
        clean = {}
        for mi, c in self.coeffs.items():
            mi = _multi_index(mi)
            if len(mi) != self.nvars or any(e < 0 for e in mi):
                raise DomainError(f"bad multi-index {mi} for nvars={self.nvars}")
            if sum(mi) > self.degree:
                raise DomainError(f"multi-index {mi} exceeds degree bound {self.degree}")
            c = require_number(f"coefficient at {mi}", c)
            if not math.isfinite(c):
                raise DomainError(f"non-finite coefficient at {mi}")
            if c != 0.0:
                clean[mi] = c
        object.__setattr__(self, "coeffs", clean)

    def coeff(self, mi: Sequence[int]) -> float:
        mi = _multi_index(mi)
        if len(mi) != self.nvars:
            raise DomainError(f"multi-index length {len(mi)} != nvars {self.nvars}")
        if sum(mi) > self.degree:
            raise DomainError(f"queried multi-index {mi} beyond degree bound {self.degree}")
        return self.coeffs.get(mi, 0.0)


def _make(nvars: int, degree: int, coeffs: Mapping[Multi, float]) -> Jet:
    """Jet from float coefficients at multi-indices valid by construction."""
    clean = {mi: c for mi, c in coeffs.items() if c != 0.0}
    for mi, c in clean.items():
        if not math.isfinite(c):
            raise DomainError(f"non-finite coefficient at {mi}")
    out = object.__new__(Jet)
    out.__dict__.update(nvars=nvars, degree=degree, coeffs=clean)  # frozen: skip __setattr__
    return out


def _check_same_nvars(a: Jet, b: Jet) -> None:
    if a.nvars != b.nvars:
        raise DomainError(f"nvars mismatch: {a.nvars} vs {b.nvars}")


def jet_add(a: Jet, b: Jet) -> Jet:
    _check_same_nvars(a, b)
    degree = min(a.degree, b.degree)
    out: Dict[Multi, float] = {}
    for mi, c in itertools.chain(a.coeffs.items(), b.coeffs.items()):
        if sum(mi) <= degree:
            out[mi] = out.get(mi, 0.0) + c
    return _make(a.nvars, degree, out)


def jet_scale(a: Jet, s: float) -> Jet:
    s = float(s)
    return _make(a.nvars, a.degree, {mi: s * c for mi, c in a.coeffs.items()})


def jet_mul(a: Jet, b: Jet) -> Jet:
    _check_same_nvars(a, b)
    degree = min(a.degree, b.degree)
    out: Dict[Multi, float] = {}
    for mi, c in a.coeffs.items():
        da = sum(mi)
        for mj, d in b.coeffs.items():
            if da + sum(mj) > degree:
                continue
            key = tuple(i + j for i, j in zip(mi, mj))
            out[key] = out.get(key, 0.0) + c * d
    return _make(a.nvars, degree, out)


def jet_compose(target: Jet, subs: Sequence[Jet]) -> Jet:
    """Substitute subs[i] for variable i of target; exact up to truncation.

    Each substituted jet must have zero constant term (the tail of a
    truncated series is unknown, so constant offsets would silently
    introduce truncation error).
    """
    if len(subs) != target.nvars:
        raise DomainError(f"need {target.nvars} substitutions, got {len(subs)}")
    nv = subs[0].nvars
    for s in subs:
        if s.nvars != nv:
            raise DomainError("substituted jets disagree on nvars")
        if s.coeff((0,) * nv) != 0.0:
            raise DomainError("constant-term substitution into a truncated series")
    degree = min([target.degree] + [s.degree for s in subs])
    one = _make(nv, degree, {(0,) * nv: 1.0})
    # power cache per substituted jet
    pows = [[one, jet_truncate(s, degree)] for s in subs]
    for i, s in enumerate(subs):
        for _ in range(2, target.degree + 1):
            pows[i].append(jet_mul(pows[i][-1], pows[i][1]))
    out = _make(nv, degree, {})
    for mi, c in target.coeffs.items():
        term = _make(nv, degree, {(0,) * nv: c})
        for i, e in enumerate(mi):
            if e:
                term = jet_mul(term, pows[i][e])
        out = jet_add(out, term)
    return out


def jet_truncate(a: Jet, degree: int) -> Jet:
    """a truncated at total degree min(degree, a.degree): truncating never
    raises the degree bound, as the terms past it are unknown."""
    require_count("degree", degree, 0)
    degree = min(degree, a.degree)
    return _make(a.nvars, degree, {mi: c for mi, c in a.coeffs.items() if sum(mi) <= degree})
