"""Singular Hopf bifurcation and canard analysis for planar slow-fast systems.

Submodules:
  jet         truncated multivariate Taylor polynomials and their algebra,
              for blow_up_via_jets and as the tests' reference ops
  normalform  coefficient record of the slow-fast normal form, closed-form
              Hopf/canard quantities, criticality classification
  blowup      rescaling to the family chart, numeric Hopf location and a
              Lyapunov coefficient oracle independent of the closed forms,
              all on plain (i, j) -> c term tables
  allee       predator-prey model with strong Allee effect: equilibria,
              critical branches, normal-form reduction, bifurcation curves
  sdi         slow divergence integrals and cyclicity bounds for canard
              cycles of the model
  dynamics    explicit Runge-Kutta integration, return maps, limit cycle
              location
  cli         command line entry points

Each submodule loads on first use: importing the package, or one of its
modules, loads errors and only the modules that module imports.  The
normalform names of __all__ are read from normalform when first asked
for (PEP 562), so `import canard.cli` loads neither normalform nor numpy.
numpy is loaded only where there are arrays: sdi and verify import it,
and allee, normalform, _svg and dynamics import it inside their grid,
heatmap and seeded-generator paths; _kernels never does.  A closed form
given floats runs on math, and integrate returns lists.
"""

from .errors import DomainError, NumericsError

__version__ = "0.1.0"

__all__ = [
    "COEFF_NAMES",
    "Criticality",
    "DomainError",
    "HopfAnalysis",
    "NormalFormCoefficients",
    "NumericsError",
    "analyze_record",
    "classify_hopf",
    "compute_A",
    "l1_series",
    "lambda_H",
    "lambda_c",
    "omega_coefficients",
    "rho_coefficients",
    "__version__",
]


def __getattr__(name: str):
    # the names of __all__ not bound above are normalform's
    if name in __all__:
        from . import normalform

        return getattr(normalform, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
