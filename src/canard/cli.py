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
object); flags override file values.  Exit codes: 0 success, 1 invalid
input (DomainError), 2 numerical failure (NumericsError or failing
verify stages).  CSV output uses '.' as the decimal separator, always
carries a header row and quotes no field: every field is a number or a
fixed identifier (see write_csv).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, fields
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import _svg
from .allee import (
    PARAM_NAMES,
    PSI_TAGS,
    AlleeParams,
    boundary_roots,
    check_grid,
    equilibria,
    fold_point,
    gamma_star,
    model_bifurcation_curves,
    model_columns,
    normal_form_coeffs,
    psi_case_analysis,
    psi_columns,
)
from .dynamics import (
    FORWARD,
    REVERSED,
    IntegratorOptions,
    Section,
    allee_field,
    e4_trace,
    find_cycle,
    integrate,
)
from .errors import DomainError, NumericsError
from .normalform import NormalFormCoefficients, analyze_record, lambda_star_series
from .sdi import cyclicity_report
from .verify import run_all

# |omega1| below this is treated as zero by the analyze verdict: published
# parameter sets carry about six decimals, which propagates to errors of
# this size in A.  Override with the classify_tol config key.
DEFAULT_CLASSIFY_TOL = 1e-5


@dataclass(frozen=True)
class RunConfig:
    """One resolved invocation: merged settings plus output plumbing."""

    command: str
    settings: Dict[str, object]
    output_dir: str
    seed: int


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


def load_config(path: str) -> Dict[str, object]:
    """Flat key=value lines ('#' comments) or a single JSON object."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DomainError(f"cannot read config file {path}: {exc}") from None
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DomainError(f"config file {path} is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise DomainError(f"config file {path} must hold a JSON object")
        return dict(data)
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
    try:
        if isinstance(value, bool):  # float(True) would read as 1.0
            raise TypeError
        number = float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise DomainError(f"setting {key!r} is not a number: {value!r}") from None
    except OverflowError:  # an int beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise DomainError(f"setting {key!r} is not finite: {value!r}")
    return number


def _as_int(settings: Dict[str, object], key: str,
            default: Optional[int] = None) -> int:
    if key not in settings:
        if default is None:
            raise DomainError(f"missing required setting {key!r}")
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
    missing = [k for k in PARAM_NAMES if k not in settings]
    if missing:
        raise DomainError(f"missing parameter keys: {', '.join(missing)}")
    return {k: _as_float(settings, k) for k in PARAM_NAMES}


def _model_params(settings: Dict[str, object]) -> AlleeParams:
    return AlleeParams(**_model_values(settings))


def _direction(settings: Dict[str, object]) -> str:
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
              rows: Iterable[Sequence[object]]) -> str:
    """The header and rows of floats, ints and strs as one string, each
    field as its str: for a Python or numpy float, the shortest string
    that reads back to the same value.  No field is quoted, so no field
    may hold ',', '"', '\\r' or '\\n'; the CLI writes only numbers and
    fixed identifiers, which makes these the bytes of csv.writer."""
    lines = (",".join(map(str, row)) + "\n" for row in (header, *rows))
    return _write_text(out_dir, name, "".join(lines))


def _fields(record) -> dict:
    """A record's JSON object: its dataclass fields in declaration order,
    values as they are (json encodes nested records through this hook)."""
    return {f.name: getattr(record, f.name) for f in fields(record)}


def _write_json(out_dir: str, name: str, payload: dict) -> str:
    return _write_text(out_dir, name, json.dumps(payload, indent=2, default=_fields) + "\n")


# ---------------------------------------------------------------------------
# analyze


def _load_record(path: str) -> NormalFormCoefficients:
    """A coefficient file: one flat JSON object of numbers keyed by
    normalform.COEFF_NAMES, absent keys read as 0."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DomainError(f"cannot read coefficient file {path}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"coefficient file {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise DomainError(f"coefficient file {path} must hold a flat object, "
                          f"got {type(data).__name__}")
    return NormalFormCoefficients.from_dict(data)


def cmd_analyze(rc: RunConfig) -> Tuple[List[str], int]:
    tol = _as_float(rc.settings, "classify_tol", DEFAULT_CLASSIFY_TOL)
    if tol <= 0.0:
        raise DomainError(f"requires classify_tol > 0, got {tol}")
    if "coefficients" in rc.settings:
        nf = _load_record(str(rc.settings["coefficients"]))
        ana = analyze_record(nf, tol)
        report = {"input": "coefficients", "classify_tol": tol,
                  "record": nf, "analysis": ana}
        if "eps" in rc.settings:
            eps = _as_float(rc.settings, "eps")
            report["lambda_star"] = lambda_star_series(ana.rho1, ana.rho3, eps)
            report["eps"] = eps
        path = _write_json(rc.output_dir, "analyze.json", report)
        print(f"record classification: {ana.classification.value} (A = {ana.A:.6g})")
        return [path], 0

    p = _model_params(rc.settings)
    xm, ym = fold_point(p.m, p.n)
    delta1, x1, x2 = boundary_roots(p.m, p.n)
    eq = equilibria(p)
    nf = normal_form_coeffs(p)
    ana = analyze_record(nf, tol)
    cols = model_columns(p.m, p.n, p.alpha, p.beta, p.gamma, p.eps)
    a5, lam_h, lam_c = (float(cols[k]) for k in ("a5", "lambda_h", "lambda_c"))
    psi = psi_case_analysis(p.m, p.n, p.alpha, p.gamma)
    gs = gamma_star(p.m, p.n, p.alpha, p.beta)
    trace4 = None if eq.E4 is None else e4_trace(p)
    curves = None
    if abs(p.gamma - gs) <= 1e-6:
        mc = model_bifurcation_curves(p)
        curves = {
            "beta_star": mc.beta_star, "beta_h": mc.beta_h, "beta_c": mc.beta_c,
            "conversion": mc.conversion,
        }
    report = {
        "input": "model",
        "params": p,
        "classify_tol": tol,
        "fold": [xm, ym],
        "boundary": {"delta1": delta1, "x1": x1, "x2": x2},
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
    path = _write_json(rc.output_dir, "analyze.json", report)
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
    text = [str(v) for v in np.ravel(column).tolist()]
    return np.broadcast_to(np.array(text, dtype=object).reshape(np.shape(column)),
                           shape).ravel().tolist()


def cmd_sweep(rc: RunConfig) -> Tuple[List[str], int]:
    descriptor = rc.settings.get("grid")
    if descriptor is None:
        raise DomainError("sweep requires a grid descriptor (--grid or the grid config key)")
    axes = parse_grid(str(descriptor))
    x_name, x_values = axes[0]
    y_name, y_values = axes[1] if len(axes) == 2 else ("", [math.nan])
    names = [x_name, y_name][:len(axes)]
    shape = (len(y_values), len(x_values))

    # the first inadmissible point in grid order stops the run with its own
    # error before the closed forms run over the grid
    values = _model_values(dict(rc.settings, **dict(zip(names, (x_values[0], y_values[0])))))
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
    rows = zip(*(_cell_text(column, shape) for column in columns))
    csv_path = write_csv(rc.output_dir, "sweep.csv", header, rows)
    svg = _svg.heatmap(
        x_values, [0.0] if not y_name else y_values,
        cols["A"],
        title="sign(A) over the sweep grid",
        x_label=x_name, y_label=y_name or "")
    svg_path = _write_text(rc.output_dir, "sweep.svg", svg)
    print(f"swept {shape[0] * shape[1]} grid points over "
          f"{x_name}{' x ' + y_name if y_name else ''}")
    return [csv_path, svg_path], 0


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(rc: RunConfig) -> Tuple[List[str], int]:
    p = _model_params(rc.settings)
    start = (_as_float(rc.settings, "start_x"), _as_float(rc.settings, "start_y"))
    opts = IntegratorOptions(
        rel_tol=_as_float(rc.settings, "rel_tol", 1e-8),
        abs_tol=_as_float(rc.settings, "abs_tol", 1e-10),
        t_max=_as_float(rc.settings, "t_max", 100.0),
        direction=_direction(rc.settings),
    )
    field = allee_field(p)
    traj = integrate(field, start, opts)
    rows = np.column_stack((traj.t, traj.y)).tolist()
    csv_path = write_csv(rc.output_dir, "trajectory.csv", ["t", "x", "y"], rows)
    end = traj.end_state
    summary = {
        "params": p,
        "start": [start[0], start[1]],
        "direction": opts.direction,
        "t_final": float(traj.t[-1]),
        "steps": int(len(traj.t)),
        "end_state": [float(end[0]), float(end[1])],
        "stiffness_suspected": bool(traj.stiffness_suspected),
    }
    paths = [csv_path]
    svg = _svg.polyline(
        [r[1] for r in rows], [r[2] for r in rows],
        title=f"trajectory ({opts.direction.lower()} time)",
        x_label="x", y_label="y", marker=(float(end[0]), float(end[1])))
    paths.append(_write_text(rc.output_dir, "trajectory.svg", svg))

    if "bracket_lo" in rc.settings or "bracket_hi" in rc.settings:
        lo = _as_float(rc.settings, "bracket_lo")
        hi = _as_float(rc.settings, "bracket_hi")
        if "section_x" in rc.settings:
            section_x = _as_float(rc.settings, "section_x")
        else:
            report = equilibria(p)
            if report.E4 is None:
                raise DomainError("cycle location requires the interior equilibrium "
                                  "to exist (set section_x explicitly otherwise)")
            section_x = report.E4.point[0]
        section = Section(section_x, 0.0)
        cyc = find_cycle(field, (lo, hi), section, opts)
        summary["cycle"] = cyc
        print(f"cycle: section point ({cyc.section_point[0]:.9g}, "
              f"{cyc.section_point[1]:.9g}), period = {cyc.period:.6g}, "
              f"multiplier = {cyc.multiplier:.6g} ({cyc.stability})")
    json_path = _write_json(rc.output_dir, "simulate.json", summary)
    paths.append(json_path)
    print(f"integrated {summary['steps']} steps to t = {summary['t_final']:.6g}; "
          f"end state ({end[0]:.6g}, {end[1]:.6g})")
    return paths, 0


# ---------------------------------------------------------------------------
# sdi


def cmd_sdi(rc: RunConfig) -> Tuple[List[str], int]:
    p = _model_params(rc.settings)
    profile = cyclicity_report(p, _as_int(rc.settings, "grid", 24))
    json_path = _write_json(rc.output_dir, "sdi.json",
                            dict(_fields(profile), params=p))
    csv_path = write_csv(rc.output_dir, "sdi.csv", ["s", "integral"],
                         [[s, v] for s, v in zip(profile.s_grid, profile.values)])
    svg = _svg.polyline(profile.s_grid, profile.values,
                        title="slow divergence integral profile",
                        x_label="depth s", y_label="I(s)")
    svg_path = _write_text(rc.output_dir, "sdi.svg", svg)
    print(f"I(s) over {len(profile.s_grid)} depths: zero_count = "
          f"{profile.zero_count}, case = {profile.case}")
    return [json_path, csv_path, svg_path], 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(rc: RunConfig) -> Tuple[List[str], int]:
    offset = _as_float(rc.settings, "omega2_offset", 0.0)
    report = run_all(seed=rc.seed, omega2_offset=offset)
    path = _write_json(rc.output_dir, "verify.json", report)
    for line in report.lines():
        print(line)
    return [path], 0 if report.all_passed else 2


# ---------------------------------------------------------------------------
# argument plumbing


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
    for name, help_text in (
            ("analyze", "classify one parameter set or coefficient record"),
            ("sweep", "grid sweep with CSV rows and a sign(A) heatmap"),
            ("simulate", "integrate a trajectory; optionally locate a cycle"),
            ("sdi", "slow divergence integral profile"),
            ("verify", "run the seeded oracle suite")):
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


def assemble(args: argparse.Namespace) -> RunConfig:
    settings: Dict[str, object] = {}
    if args.config:
        settings.update(load_config(args.config))
    for key in ("eps", "grid", "reversed"):
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    if getattr(args, "omega2_offset", None) is not None:
        settings["omega2_offset"] = args.omega2_offset
    if args.seed is not None:
        settings["seed"] = args.seed
    seed = _as_int(settings, "seed", 2025)
    if seed < 0:  # numpy's generators take only non-negative seeds
        raise DomainError(f"requires seed >= 0, got {seed}")
    out_dir = args.out
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise DomainError(f"cannot create output directory {out_dir}: {exc}") from None
    if not os.access(out_dir, os.W_OK):
        raise DomainError(f"output directory {out_dir} is not writable")
    return RunConfig(command=args.command, settings=settings,
                     output_dir=out_dir, seed=seed)


_COMMANDS = {
    "analyze": cmd_analyze,
    "sweep": cmd_sweep,
    "simulate": cmd_simulate,
    "sdi": cmd_sdi,
    "verify": cmd_verify,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        rc = assemble(args)
        paths, code = _COMMANDS[rc.command](rc)
        for path in paths:
            print(f"wrote {path}")
        return code
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
