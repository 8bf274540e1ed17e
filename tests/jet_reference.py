"""Reference jet operations that only the tests use: evaluation and exact
recentering of a Jet, the references the blow-up oracle's flat kernels are
held to.  Recentering treats the stored coefficients as a complete
polynomial, which is why composition (canard.jet.jet_compose) leaves affine
shifts to it."""

import itertools
import math
from typing import Dict, Sequence

from canard.errors import DomainError
from canard.jet import Jet, Multi, _make


def jet_eval(a: Jet, point: Sequence[float]) -> float:
    """Value of the truncated polynomial, summed term by term."""
    if len(point) != a.nvars:
        raise DomainError(f"point length {len(point)} != nvars {a.nvars}")
    pt = tuple(float(v) for v in point)
    return sum((c * math.prod(p ** e for p, e in zip(pt, mi)) for mi, c in a.coeffs.items()), 0.0)


def jet_recenter(a: Jet, point: Sequence[float]) -> Jet:
    """Coefficients of a(x + point), re-expanded exactly.

    This treats the stored coefficients as a complete polynomial of its
    true degree; for jets produced by truncating a longer series the
    caller is accepting the same truncation order at the new center.
    """
    if len(point) != a.nvars:
        raise DomainError(f"point length {len(point)} != nvars {a.nvars}")
    pt = tuple(float(v) for v in point)
    out: Dict[Multi, float] = {}
    for mi, c in a.coeffs.items():
        parts = []
        for e, h in zip(mi, pt):
            parts.append([(k, math.comb(e, k) * h ** (e - k)) for k in range(e + 1)])
        for combo in itertools.product(*parts):
            key = tuple(k for k, _ in combo)
            w = c
            for _, f in combo:
                w *= f
            out[key] = out.get(key, 0.0) + w
    return _make(a.nvars, a.degree, out)
