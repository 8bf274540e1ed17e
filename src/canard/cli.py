"""Command line driver: reproducible analysis runs with file outputs.

Subcommands:
  analyze   fold, equilibria, normal-form record, criticality verdict and
            unfolding curves for one parameter set (or a raw coefficient
            record loaded from JSON)
  sweep     the same quantities over a one- or two-axis parameter grid,
            as CSV plus an SVG heatmap of sign(A)
  simulate  trajectory integration (optionally reversed time), CSV path
            output, and displacement-map cycle location when a bracket
            is configured
  sdi       slow-divergence-integral profile with cyclicity count
  verify    the seeded oracle suite from the verify module

Configuration comes from --config (flat key=value lines or a JSON
object); flags override file values, each flag's dest being its setting
key.  A command reads the settings it needs and ignores the rest (seed is
read by verify alone).  A config file and a coefficient record are read
by one JSON-object reader, and a number setting by
errors.require_number.  Exit codes: 0 success, 1 invalid
input (DomainError), 2 numerical failure (NumericsError or failing
verify stages).  CSV output uses '.' as the decimal separator, always
carries a header row and quotes no field: every field is a number or a
fixed identifier (see write_csv).

A process loads only what it runs.  At module level this module imports
the standard library and errors alone, so `import canard.cli`, --help and
a usage error load no other canard module and no numpy.  Each cmd_*
imports the names it calls at its head (analyze its model names after
the coefficient-record branch, which needs normalform alone), and so do
the sweep's parse_grid and _cell_text for numpy.  The canard modules a
command adds to the package and errors, and whether it loads numpy, which
only the array paths import (a grid, a quadrature, a fit, a heatmap):
  analyze   allee, _kernels, normalform                  no numpy
  sweep     allee, _kernels, normalform, _svg            numpy
  simulate  allee, _kernels, normalform, dynamics, _svg  no numpy
  sdi       allee, _kernels, normalform, sdi, _svg       numpy
  verify    allee, _kernels, normalform, blowup, jet,    numpy
            verify
A run that stops at a missing parameter key has loaded allee, _kernels
and normalform, and no numpy.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import DomainError, NumericsError, require_number

# |omega1| below this is treated as zero by the analyze verdict: published
# parameter sets carry about six decimals, which propagates to errors of
# this size in A.  Override with the classify_tol config key.
DEFAULT_CLASSIFY_TOL = 1e-5


# ---------------------------------------------------------------------------
# configuration


def _parse_scalar(text: str):
    raw = text.strip()
    low = raw.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        return raw


def _read_text(path: str, what: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise DomainError(f"cannot read {what} {path}: {exc}") from None


def _json_object(text: str, path: str, what: str) -> dict:
    """The JSON object text holds; what names the file in the errors."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"{what} {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise DomainError(f"{what} {path} must hold a flat object, "
                          f"got {type(data).__name__}")
    return data


def load_config(path: str) -> Dict[str, object]:
    """Flat key=value lines ('#' comments) or a single JSON object: text
    whose first non-blank character is '{' or '[' is read as JSON."""
    text = _read_text(path, "config file")
    if text.lstrip()[:1] in ("[", "{"):
        return _json_object(text, path, "config file")
    out: Dict[str, object] = {}
    for ln, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        key, sep, value = body.partition("=")
        if not sep or not key.strip():
            raise DomainError(f"config file {path} line {ln}: expected key=value, got {line!r}")
        out[key.strip()] = _parse_scalar(value)
    return out


def _as_float(settings: Dict[str, object], key: str,
              default: Optional[float] = None) -> float:
    if key not in settings:
        if default is None:
            raise DomainError(f"missing required setting {key!r}")
        return default
    value = settings[key]
    number = require_number(f"setting {key!r}", value)
    if not math.isfinite(number):
        raise DomainError(f"setting {key!r} is not finite: {value!r}")
    return number


def _as_int(settings: Dict[str, object], key: str, default: int) -> int:
    if key not in settings:
        return default
    value = settings[key]
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    try:
        number = _as_float(settings, key)
    except DomainError:
        number = math.nan
    # beyond 2^53 a float no longer holds every integer, so it names none exactly
    if not (number.is_integer() and abs(number) <= 2.0 ** 53):
        raise DomainError(f"setting {key!r} must be an integer, got {value!r}")
    return int(number)


def _model_values(settings: Dict[str, object]) -> Dict[str, float]:
    from .allee import PARAM_NAMES

    missing = [k for k in PARAM_NAMES if k not in settings]
    if missing:
        raise DomainError(f"missing parameter keys: {', '.join(missing)}")
    return {k: _as_float(settings, k) for k in PARAM_NAMES}


def _model_params(settings: Dict[str, object]):
    """The AlleeParams of the model values in settings."""
    from .allee import AlleeParams

    return AlleeParams(**_model_values(settings))


def _direction(settings: Dict[str, object]) -> str:
    from .dynamics import FORWARD, REVERSED

    value = settings.get("reversed", False)
    if not isinstance(value, bool):
        raise DomainError(f"setting 'reversed' must be true or false, got {value!r}")
    return REVERSED if value else FORWARD


# ---------------------------------------------------------------------------
# output helpers


def _write_text(out_dir: str, name: str, text: str) -> str:
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return path


def write_csv(out_dir: str, name: str, header: Sequence[str],
              columns: Sequence[Iterable[str]]) -> str:
    """The header and the rows that columns of field text make, as one
    string: the callers format each value, a float as its str, the
    shortest string that reads back to the same value.  No field is
    quoted, so no field may hold ',', '"', '\\r' or '\\n'; the CLI writes
    only numbers and fixed identifiers, which makes these the bytes of
    csv.writer."""
    rows = map(",".join, zip(*columns))
    return _write_text(out_dir, name, "\n".join((",".join(header), *rows)) + "\n")


def _fields(record) -> dict:
    """A record's JSON object: its dataclass fields in declaration order,
    values as they are (json encodes nested records through this hook)."""
    return {name: getattr(record, name) for name in record.__dataclass_fields__}


def _write_json(out_dir: str, name: str, payload: dict) -> str:
    return _write_text(out_dir, name, json.dumps(payload, indent=2, default=_fields) + "\n")


# ---------------------------------------------------------------------------
# analyze


def _load_record(path: str):
    """The NormalFormCoefficients of a coefficient file: one flat JSON
    object of numbers keyed by normalform.COEFF_NAMES, absent keys read
    as 0."""
    from .normalform import NormalFormCoefficients

    what = "coefficient file"
    return NormalFormCoefficients.from_dict(_json_object(_read_text(path, what), path, what))


def _boundary_block(eq) -> dict:
    """boundary_roots' (delta1, x1, x2), read off the equilibria report: x1 and
    x2 are E1's and E2's x, and a double root (delta1 = 0), E1 alone, fills both."""
    return {"delta1": eq.delta1, "x1": eq.E1.point[0], "x2": (eq.E2 or eq.E1).point[0]}


def cmd_analyze(settings: Dict[str, object], out_dir: str) -> Tuple[List[str], int]:
    from .normalform import analyze_record, lambda_star_series

    tol = _as_float(settings, "classify_tol", DEFAULT_CLASSIFY_TOL)
    if tol <= 0.0:
        raise DomainError(f"requires classify_tol > 0, got {tol}")
    if "coefficients" in settings:
        nf = _load_record(str(settings["coefficients"]))
        ana = analyze_record(nf, tol)
        report = {"input": "coefficients", "classify_tol": tol,
                  "record": nf, "analysis": ana}
        if "eps" in settings:
            eps = _as_float(settings, "eps")
            report["lambda_star"] = lambda_star_series(ana.rho1, ana.rho3, eps)
            report["eps"] = eps
        path = _write_json(out_dir, "analyze.json", report)
        print(f"record classification: {ana.classification.value} (A = {ana.A:.6g})")
        return [path], 0

    from .allee import (
        COINCIDENCE_TOL,
        beta_star_conversion,
        equilibria,
        gamma_star,
        model_columns,
        normal_form_coeffs,
        psi_case_analysis,
        trace_at,
    )

    p = _model_params(settings)
    eq = equilibria(p)
    xm, ym = eq.fold
    nf = normal_form_coeffs(p)
    ana = analyze_record(nf, tol)
    cols = model_columns(p.m, p.n, p.alpha, p.beta, p.gamma, p.eps)
    a5, lam_h, lam_c = (float(cols[k]) for k in ("a5", "lambda_h", "lambda_c"))
    psi = psi_case_analysis(p.m, p.n, p.alpha, p.gamma)
    gs = gamma_star(p.m, p.n, p.alpha, p.beta)
    trace4 = None if eq.E4 is None else trace_at(p, eq.E4.point)
    curves = None
    if abs(p.gamma - gs) <= COINCIDENCE_TOL:
        beta_star, conversion = beta_star_conversion(p)
        curves = {"beta_star": beta_star, "beta_h": beta_star + lam_h * conversion,
                  "beta_c": beta_star + lam_c * conversion, "conversion": conversion}
    report = {
        "input": "model",
        "params": p,
        "classify_tol": tol,
        "fold": [xm, ym],
        "boundary": _boundary_block(eq),
        "equilibria": eq,
        "e4_trace": trace4,
        "record": nf,
        "analysis": ana,
        "a5": a5,
        "curves": {"lambda_h": lam_h, "lambda_c": lam_c, "gap": lam_c - lam_h},
        "psi_case": psi,
        "gamma_star": gs,
        "model_curves": curves,
    }
    path = _write_json(out_dir, "analyze.json", report)
    print(f"fold at ({xm:.6g}, {ym:.6g}); "
          f"E4 {'absent' if eq.E4 is None else 'at (%.6g, %.6g)' % eq.E4.point}")
    print(f"A = {ana.A:.6g}, omega1 = {ana.omega1:.6g}, "
          f"omega2 = {ana.omega2:.6g} -> {ana.classification.value}")
    print(f"lambda_h = {lam_h:.6g}, lambda_c = {lam_c:.6g} (gap {lam_c - lam_h:.6g})")
    print(f"psi case: {psi.tag} (m* = {psi.m_star:.6g})")
    return [path], 0


# ---------------------------------------------------------------------------
# sweep


def parse_grid(descriptor: str) -> List[Tuple[str, List[float]]]:
    """Axis descriptors 'name=lo:hi:count' or 'name=value', comma separated;
    one or two axes drawn from the model parameter names."""
    import numpy as np

    from .allee import PARAM_NAMES

    if descriptor is None or not str(descriptor).strip():
        raise DomainError("empty grid: the grid descriptor has no axes")
    axes: List[Tuple[str, List[float]]] = []
    for part in str(descriptor).split(","):
        name, sep, body = part.partition("=")
        name, body = name.strip(), body.strip()
        if not sep or not name or not body:
            raise DomainError(f"grid axis {part!r} must look like name=lo:hi:count or name=value")
        if name not in PARAM_NAMES:
            raise DomainError(f"unknown grid axis {name!r} (choose from {', '.join(PARAM_NAMES)})")
        if any(name == seen for seen, _ in axes):
            raise DomainError(f"grid axis {name!r} appears twice")
        if ":" in body:
            pieces = body.split(":")
            if len(pieces) != 3:
                raise DomainError(f"grid axis {part!r} must look like name=lo:hi:count")
            try:
                lo, hi, count = float(pieces[0]), float(pieces[1]), int(pieces[2])
            except ValueError:
                raise DomainError(f"grid axis {part!r} has non-numeric fields") from None
            if count < 1:
                raise DomainError(f"empty grid: axis {name!r} has count {count}")
            values = [lo] if count == 1 else list(np.linspace(lo, hi, count))
        else:
            try:
                values = [float(body)]
            except ValueError:
                raise DomainError(f"grid axis {part!r} has a non-numeric value") from None
        axes.append((name, [float(v) for v in values]))
    if len(axes) > 2:
        raise DomainError(f"grid must have one or two axes, got {len(axes)}")
    return axes


SWEEP_COLUMNS = ("A", "omega1", "omega2", "lambda_h", "lambda_c")


def _cell_text(column, shape) -> List[str]:
    """A column that broadcasts to shape as the strs of its cells in C
    order: each value at the column's own shape is formatted once."""
    import numpy as np

    text = [str(v) for v in np.ravel(column).tolist()]
    return np.broadcast_to(np.array(text, dtype=object).reshape(np.shape(column)),
                           shape).ravel().tolist()


def cmd_sweep(settings: Dict[str, object], out_dir: str) -> Tuple[List[str], int]:
    import numpy as np

    from . import _svg
    from .allee import PSI_TAGS, check_grid, model_columns, psi_columns

    descriptor = settings.get("grid")
    if descriptor is None:
        raise DomainError("sweep requires a grid descriptor (--grid or the grid config key)")
    axes = parse_grid(str(descriptor))
    x_name, x_values = axes[0]
    y_name, y_values = axes[1] if len(axes) == 2 else ("", [math.nan])
    names = [x_name, y_name][:len(axes)]
    shape = (len(y_values), len(x_values))

    # the first inadmissible point in grid order stops the run with its own
    # error before the closed forms run over the grid
    values = _model_values(dict(settings, **dict(zip(names, (x_values[0], y_values[0])))))
    # the open grid: each column comes back at its own broadcast shape, so a
    # value that does not depend on an axis is computed and formatted once
    axis = (np.array(x_values)[None, :], np.array(y_values)[:, None])
    grid = dict(values, **dict(zip(names, axis)))
    check_grid(**grid)
    cols = model_columns(**grid)
    case = psi_columns(grid["m"], grid["n"], grid["alpha"], grid["gamma"])[3]
    columns = [*axis[:len(names)], *(cols[k] for k in SWEEP_COLUMNS),
               np.array(PSI_TAGS, dtype=object)[case]]

    header = names + list(SWEEP_COLUMNS) + ["case"]
    csv_path = write_csv(out_dir, "sweep.csv", header,
                         [_cell_text(column, shape) for column in columns])
    svg = _svg.heatmap(
        x_values, [0.0] if not y_name else y_values,
        cols["A"],
        title="sign(A) over the sweep grid",
        x_label=x_name, y_label=y_name or "")
    svg_path = _write_text(out_dir, "sweep.svg", svg)
    print(f"swept {shape[0] * shape[1]} grid points over "
          f"{x_name}{' x ' + y_name if y_name else ''}")
    return [csv_path, svg_path], 0


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(settings: Dict[str, object], out_dir: str) -> Tuple[List[str], int]:
    from . import _svg
    from .allee import equilibria
    from .dynamics import IntegratorOptions, Section, allee_field, find_cycle, integrate

    p = _model_params(settings)
    start = (_as_float(settings, "start_x"), _as_float(settings, "start_y"))
    opts = IntegratorOptions(
        rel_tol=_as_float(settings, "rel_tol", 1e-8),
        abs_tol=_as_float(settings, "abs_tol", 1e-10),
        t_max=_as_float(settings, "t_max", 100.0),
        direction=_direction(settings),
    )
    field = allee_field(p)
    traj = integrate(field, start, opts)
    cyc = None
    if "bracket_lo" in settings or "bracket_hi" in settings:
        lo = _as_float(settings, "bracket_lo")
        hi = _as_float(settings, "bracket_hi")
        if "section_x" in settings:
            section_x = _as_float(settings, "section_x")
        else:
            report = equilibria(p)
            if report.E4 is None:
                raise DomainError("cycle location requires the interior equilibrium "
                                  "to exist (set section_x explicitly otherwise)")
            section_x = report.E4.point[0]
        cyc = find_cycle(field, (lo, hi), Section(section_x, 0.0), opts)
        print(f"cycle: section point ({cyc.section_point[0]:.9g}, "
              f"{cyc.section_point[1]:.9g}), period = {cyc.period:.6g}, "
              f"multiplier = {cyc.multiplier:.6g} ({cyc.stability})")

    # every file is written after the integration and the cycle location
    # succeed, so a failed run leaves none behind
    x, y = zip(*traj.y)
    end = traj.end_state
    summary = {
        "params": p,
        "start": [start[0], start[1]],
        "direction": opts.direction,
        "t_final": traj.t[-1],
        "steps": len(traj.t),
        "n_accepted": traj.n_accepted,
        "n_rejected": traj.n_rejected,
        "nfev": traj.nfev,
        "end_state": list(end),
    }
    if cyc is not None:
        summary["cycle"] = cyc
    csv_path = write_csv(out_dir, "trajectory.csv", ["t", "x", "y"],
                         [map(str, traj.t), map(str, x), map(str, y)])
    svg = _svg.polyline(
        x, y,
        title=f"trajectory ({opts.direction.lower()} time)",
        x_label="x", y_label="y", marker=end)
    svg_path = _write_text(out_dir, "trajectory.svg", svg)
    json_path = _write_json(out_dir, "simulate.json", summary)
    print(f"integrated {summary['steps']} steps to t = {summary['t_final']:.6g}; "
          f"end state ({end[0]:.6g}, {end[1]:.6g})")
    return [csv_path, svg_path, json_path], 0


# ---------------------------------------------------------------------------
# sdi


def cmd_sdi(settings: Dict[str, object], out_dir: str) -> Tuple[List[str], int]:
    from . import _svg
    from .sdi import cyclicity_report

    p = _model_params(settings)
    profile = cyclicity_report(p, _as_int(settings, "grid", 24))
    json_path = _write_json(out_dir, "sdi.json",
                            dict(_fields(profile), params=p))
    csv_path = write_csv(out_dir, "sdi.csv", ["s", "integral"],
                         [map(str, profile.s_grid), map(str, profile.values)])
    svg = _svg.polyline(profile.s_grid, profile.values,
                        title="slow divergence integral profile",
                        x_label="depth s", y_label="I(s)")
    svg_path = _write_text(out_dir, "sdi.svg", svg)
    print(f"I(s) over {len(profile.s_grid)} depths: zero_count = "
          f"{profile.zero_count}, case = {profile.case}")
    return [json_path, csv_path, svg_path], 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(settings: Dict[str, object], out_dir: str) -> Tuple[List[str], int]:
    from .verify import run_all

    seed = _as_int(settings, "seed", 2025)
    offset = _as_float(settings, "omega2_offset", 0.0)
    report = run_all(seed=seed, omega2_offset=offset)
    path = _write_json(out_dir, "verify.json", report)
    for line in report.lines():
        print(line)
    return [path], 0 if report.all_passed else 2


# ---------------------------------------------------------------------------
# argument plumbing


# each subcommand's handler and help line, in the order --help lists them
_COMMANDS = {
    "analyze": (cmd_analyze, "classify one parameter set or coefficient record"),
    "sweep": (cmd_sweep, "grid sweep with CSV rows and a sign(A) heatmap"),
    "simulate": (cmd_simulate, "integrate a trajectory; optionally locate a cycle"),
    "sdi": (cmd_sdi, "slow divergence integral profile"),
    "verify": (cmd_verify, "run the seeded oracle suite"),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse usage errors are validation errors
        raise DomainError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use: parse_args
    keeps no state between calls."""
    parser = _Parser(prog="canard",
                     description="Singular Hopf and canard analysis for planar "
                                 "slow-fast systems")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text, description=help_text)
        sp.add_argument("--config", help="flat key=value or JSON config file")
        sp.add_argument("--out", default=".", help="output directory (default: .)")
        sp.add_argument("--seed", type=int, help="seed for seeded commands (default 2025)")
        sp.add_argument("--eps", type=float, help="override the eps parameter")
        sp.add_argument("--grid", help="sweep axes 'name=lo:hi:count[,name=...]'; "
                                       "point count for sdi")
        sp.add_argument("--reversed", action="store_true", default=None,
                        help="integrate in reversed time (simulate)")
        if name == "verify":
            sp.add_argument("--omega2-offset", type=float, dest="omega2_offset",
                            help="negative-control shift of the expected cubic constant")
    return parser


def assemble(args: argparse.Namespace) -> Tuple[Dict[str, object], str]:
    """(settings, output directory): the config file's settings, each given
    flag over them (a flag's dest is its setting key), and the created
    output directory."""
    settings = load_config(args.config) if args.config else {}
    for key, value in vars(args).items():
        if value is not None and key not in ("command", "config", "out"):
            settings[key] = value
    out_dir = args.out
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise DomainError(f"cannot create output directory {out_dir}: {exc}") from None
    if not os.access(out_dir, os.W_OK):
        raise DomainError(f"output directory {out_dir} is not writable")
    return settings, out_dir


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        paths, code = _COMMANDS[args.command][0](*assemble(args))
        for path in paths:
            print(f"wrote {path}")
        return code
    except (DomainError, NumericsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, DomainError) else 2


if __name__ == "__main__":
    sys.exit(main())
