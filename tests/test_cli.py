import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from model_oracle import sweep_row_reference

import canard.cli as cli
from canard import _svg, allee, dynamics, verify
from canard.allee import (COINCIDENCE_TOL, PARAM_NAMES, PSI_TAGS, AlleeParams, boundary_roots,
                          check_grid, equilibria, gamma_star)
from canard.cli import load_config, main, parse_grid, write_csv
from canard.errors import DomainError
from examples import EX1, EX2

TINY_M = "is too small: (m + x_M)^3 underflows to 0"


def write_cfg(path, mapping):
    path.write_text("".join(f"{k} = {v}\n" for k, v in mapping.items()))
    return str(path)


def run(args):
    return main([str(a) for a in args])


def read_csv(path):
    """(header, rows) of a CSV file the CLI wrote."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, rows


class TestConfig:
    def test_flat_and_json_agree(self, tmp_path):
        flat = tmp_path / "c.cfg"
        flat.write_text("m = 0.3\nn=0.1  # comment\n\nname = run-a\nflag = true\n")
        js = tmp_path / "c.json"
        js.write_text(json.dumps({"m": 0.3, "n": 0.1, "name": "run-a", "flag": True}))
        assert load_config(str(flat)) == load_config(str(js))

    def test_malformed_line(self, tmp_path):
        bad = tmp_path / "c.cfg"
        bad.write_text("m 0.3\n")
        with pytest.raises(DomainError):
            load_config(str(bad))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DomainError):
            load_config(str(tmp_path / "absent.cfg"))

    def test_json_must_be_object(self, tmp_path):
        js = tmp_path / "c.json"
        js.write_text("{ broken")
        with pytest.raises(DomainError):
            load_config(str(js))

    @pytest.mark.parametrize("text", ["[1, 2]", "  \n[]\n"])
    def test_json_array_is_reported_as_json(self, tmp_path, capsys, text):
        # an array is JSON, not a key=value line
        js = tmp_path / "c.json"
        js.write_text(text)
        with pytest.raises(DomainError, match=r"^config file .* must hold a flat object, got list$"):
            load_config(str(js))
        assert run(["analyze", "--config", js, "--out", tmp_path / "o"]) == 1
        assert "must hold a flat object, got list" in capsys.readouterr().err

    def test_flat_boolean_is_not_a_number(self, tmp_path, capsys):
        # float(True) is 1.0: 'alpha = true' must not run as alpha = 1
        cfg = write_cfg(tmp_path / "p.cfg", dict(EX1, alpha="true"))
        assert run(["analyze", "--config", cfg, "--out", tmp_path / "o"]) == 1
        assert "setting 'alpha' is not a number: True" in capsys.readouterr().err
        assert not (tmp_path / "o" / "analyze.json").exists()

    @pytest.mark.parametrize("seed", ["nan", "1e400", "2.5", "true"])
    def test_seed_must_be_an_integer(self, tmp_path, capsys, seed):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(f"seed = {seed}\n")
        assert run(["verify", "--config", cfg, "--out", tmp_path / "o"]) == 1
        assert "setting 'seed' must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_seed_is_validation_error(self, tmp_path, capsys, source):
        # numpy's generators reject negative seeds with a ValueError of their own
        if source == "flag":
            args = ["--seed", "-1"]
        else:
            (tmp_path / "s.cfg").write_text("seed = -1\n")
            args = ["--config", tmp_path / "s.cfg"]
        assert run(["verify", "--out", tmp_path / "o"] + args) == 1
        assert capsys.readouterr().err == "error: requires an integer seed >= 0, got -1\n"
        assert not (tmp_path / "o" / "verify.json").exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_seed_is_read_by_verify_alone(self, tmp_path, source):
        # analyze reads no seed, so it no more checks one than any other unread setting
        if source == "flag":
            cfg, args = write_cfg(tmp_path / "p.cfg", EX1), ["--seed", "-1"]
        else:
            cfg, args = write_cfg(tmp_path / "p.cfg", dict(EX1, seed=-1)), []
        assert run(["analyze", "--config", cfg, "--out", tmp_path / "o"] + args) == 0
        assert (tmp_path / "o" / "analyze.json").exists()

    def test_integral_float_beyond_2_53_is_not_an_integer(self, tmp_path, capsys):
        # 2^53 + 2 as a float: every integer near it no longer has a float of its own
        cfg = tmp_path / "s.cfg"
        cfg.write_text("seed = 9007199254740994.0\n")
        assert run(["verify", "--config", cfg, "--out", tmp_path / "o"]) == 1
        assert "setting 'seed' must be an integer" in capsys.readouterr().err

    def test_integer_beyond_float_range_is_not_finite(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "p.cfg",
                        dict(EX1, start_x=0.2644, start_y=0.0961, t_max="1" + "0" * 400))
        assert run(["simulate", "--config", cfg, "--out", tmp_path / "o"]) == 1
        assert "setting 't_max' is not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("reversed_time", [False, True])
    def test_start_on_the_pole_is_a_numerics_error(self, tmp_path, capsys, reversed_time):
        # x / (m + x) divides by zero at start_x = -m
        cfg = write_cfg(tmp_path / "p.cfg", dict(EX1, start_x=-EX1["m"], start_y=0.1,
                                                 reversed=reversed_time))
        assert run(["simulate", "--config", cfg, "--out", tmp_path / "o"]) == 2
        assert capsys.readouterr().err == (
            "error: field 'allee' failed in float arithmetic: float division by zero\n")
        assert not (tmp_path / "o" / "simulate.json").exists()

    def test_json_boolean_is_not_a_number(self, tmp_path, capsys):
        js = tmp_path / "p.json"
        js.write_text(json.dumps(dict(EX1, start_x=0.2644, start_y=True)))
        assert run(["simulate", "--config", js, "--out", tmp_path / "o"]) == 1
        assert "setting 'start_y' is not a number: True" in capsys.readouterr().err


class TestGridParse:
    def test_two_axes(self):
        axes = parse_grid("m=0.1:0.2:3,gamma=0.5")
        assert axes[0][0] == "m" and axes[0][1] == [0.1, 0.15000000000000002, 0.2]
        assert axes[1] == ("gamma", [0.5])

    def test_count_one_uses_lo(self):
        assert parse_grid("beta=0.2:0.9:1") == [("beta", [0.2])]

    def test_rejections(self):
        for descriptor in ("", "q=1:2:3", "m=1:2:0", "m=1:2", "m=a:b:3",
                     "m=0.1,m=0.2", "m=1,n=2,eps=3"):
            with pytest.raises(DomainError):
                parse_grid(descriptor)


class TestAnalyze:
    @pytest.mark.parametrize("offset", [-2.0, -0.5, 0.5, 2.0])
    def test_model_curves_exactly_where_sdi_accepts(self, tmp_path, offset):
        # analyze's model_curves and sdi's coincidence check read one tolerance
        base = dict(m=0.18, n=0.1, alpha=0.8, beta=0.15, eps=0.01)
        base["gamma"] = gamma_star(0.18, 0.1, 0.8, 0.15) + offset * COINCIDENCE_TOL
        cfg = write_cfg(tmp_path / "p.cfg", base)
        assert run(["analyze", "--config", cfg, "--out", tmp_path / "a"]) == 0
        curves = json.loads((tmp_path / "a" / "analyze.json").read_text())["model_curves"]
        code = run(["sdi", "--config", cfg, "--out", tmp_path / "s", "--grid", "4"])
        assert (curves is not None) == (code == 0) == (abs(offset) < 1.0)

    @pytest.mark.parametrize("tol", ["0", "-1e-5"])
    def test_classify_tol_must_be_positive(self, tmp_path, capsys, tol):
        cfg = write_cfg(tmp_path / "p.cfg", dict(EX1, classify_tol=tol))
        assert run(["analyze", "--config", cfg, "--out", tmp_path / "o"]) == 1
        assert capsys.readouterr().err == f"error: requires classify_tol > 0, got {float(tol)}\n"
        assert list((tmp_path / "o").iterdir()) == []

    def test_example2_degenerate_subcritical(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "p.cfg", EX2)
        assert run(["analyze", "--config", cfg, "--out", tmp_path / "o"]) == 0
        data = json.loads((tmp_path / "o" / "analyze.json").read_text())
        assert data["analysis"]["classification"] == "DegenerateSubcritical"
        assert abs(data["analysis"]["A"]) < 5e-6
        assert "DegenerateSubcritical" in capsys.readouterr().out

    @pytest.mark.parametrize("point", [EX1, EX2])
    def test_boundary_block_is_the_boundary_roots(self, tmp_path, point):
        cfg = write_cfg(tmp_path / "p.cfg", point)
        assert run(["analyze", "--config", cfg, "--out", tmp_path / "o"]) == 0
        block = json.loads((tmp_path / "o" / "analyze.json").read_text())["boundary"]
        delta1, x1, x2 = boundary_roots(point["m"], point["n"])
        assert block == {"delta1": delta1, "x1": x1, "x2": x2}

    @pytest.mark.parametrize("point", [EX1, EX2, dict(EX1, m=0.25, n=0.25)])
    def test_boundary_block_from_the_equilibria(self, point):
        # at m = n = 0.25 delta1 = 0: the report has no E2, and the double root
        # fills both slots (analyze itself refuses the point, as y_M = 0)
        eq = equilibria(AlleeParams(**point))
        delta1, x1, x2 = boundary_roots(point["m"], point["n"])
        assert cli._boundary_block(eq) == {"delta1": delta1, "x1": x1, "x2": x2}
        assert (delta1 == 0.0) == (eq.E2 is None) == (point["m"] == 0.25)

    def test_example1_supercritical_psi_case(self, tmp_path):
        cfg = write_cfg(tmp_path / "p.cfg", EX1)
        assert run(["analyze", "--config", cfg, "--out", tmp_path / "o"]) == 0
        data = json.loads((tmp_path / "o" / "analyze.json").read_text())
        assert data["analysis"]["classification"] == "Supercritical"
        assert data["analysis"]["A"] < 0.0
        assert data["psi_case"]["tag"] == "m-above-mstar"
        gap = data["curves"]["gap"]
        assert gap == pytest.approx(-data["analysis"]["A"] * EX1["eps"] / 8.0,
                                    rel=1e-12)

    def test_invalid_n_names_condition(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "p.cfg", dict(EX1, n=1.5))
        assert run(["analyze", "--config", cfg, "--out", tmp_path / "o"]) == 1
        err = capsys.readouterr().err
        assert "0 < n < 1" in err and "1.5" in err

    def test_underflowing_fold_is_validation_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "p.cfg", dict(EX2, m=5e-324))
        assert run(["analyze", "--config", cfg, "--out", tmp_path / "o"]) == 1
        assert capsys.readouterr().err == f"error: m=5e-324 {TINY_M}\n"

    def test_missing_keys_named(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "p.cfg", {"m": 0.3, "n": 0.1})
        assert run(["analyze", "--config", cfg, "--out", tmp_path / "o"]) == 1
        assert "alpha" in capsys.readouterr().err

    def test_eps_flag_overrides_config(self, tmp_path):
        cfg = write_cfg(tmp_path / "p.cfg", EX1)
        assert run(["analyze", "--config", cfg, "--out", tmp_path / "a"]) == 0
        assert run(["analyze", "--config", cfg, "--out", tmp_path / "b",
                    "--eps", "0.00495"]) == 0
        a = json.loads((tmp_path / "a" / "analyze.json").read_text())
        b = json.loads((tmp_path / "b" / "analyze.json").read_text())
        assert b["params"]["eps"] == 0.00495
        assert b["curves"]["lambda_h"] == pytest.approx(
            a["curves"]["lambda_h"] / 2.0, rel=1e-12)

    def test_coefficient_record_input(self, tmp_path):
        from canard.normalform import NormalFormCoefficients, analyze_record

        nf = NormalFormCoefficients(a10=0.25, b10=-0.5, c10=0.3, f00=-0.1)
        rec = tmp_path / "record.json"
        rec.write_text(json.dumps(asdict(nf)))
        cfg = tmp_path / "p.cfg"
        cfg.write_text(f"coefficients = {rec}\neps = 0.01\n")
        assert run(["analyze", "--config", cfg, "--out", tmp_path / "o"]) == 0
        data = json.loads((tmp_path / "o" / "analyze.json").read_text())
        want = analyze_record(nf, tol=1e-5)
        assert data["analysis"]["A"] == want.A
        assert data["analysis"]["classification"] == want.classification.value
        assert data["lambda_star"] == pytest.approx(
            want.rho1 * 0.01 + want.rho3 * 1e-4, rel=1e-12)

    @pytest.mark.parametrize("text, problem", [
        ("[0.25, -0.5]", "must hold a flat object, got list"),
        ("a10 = 0.25", "is not valid JSON"),
        ('{"a10": 0.25, "z99": 1.0}', "unknown coefficient keys: z99"),
        ('{"a10": true}', "coefficient a10 is not a number: True"),
        pytest.param('{"a10": 1' + "0" * 400 + "}", "coefficient a10 is not finite",
                     id="int-beyond-float-range"),
    ])
    def test_coefficient_file_rejected(self, tmp_path, capsys, text, problem):
        rec = tmp_path / "record.json"
        rec.write_text(text)
        cfg = tmp_path / "p.cfg"
        cfg.write_text(f"coefficients = {rec}\n")
        assert run(["analyze", "--config", cfg, "--out", tmp_path / "o"]) == 1
        err = capsys.readouterr().err
        assert problem in err
        assert not (tmp_path / "o" / "analyze.json").exists()

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
    def test_non_finite_classify_tol_rejected(self, tmp_path, capsys, tol):
        cfg = write_cfg(tmp_path / "p.cfg", dict(EX1, classify_tol=tol))
        assert run(["analyze", "--config", cfg, "--out", tmp_path / "o"]) == 1
        assert "setting 'classify_tol' is not finite" in capsys.readouterr().err
        assert not (tmp_path / "o" / "analyze.json").exists()

    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_non_finite_eps_with_coefficients_rejected(self, tmp_path, capsys, eps):
        rec = tmp_path / "record.json"
        rec.write_text('{"a10": 0.25, "f00": -0.1}')
        cfg = tmp_path / "p.cfg"
        cfg.write_text(f"coefficients = {rec}\neps = {eps}\n")
        assert run(["analyze", "--config", cfg, "--out", tmp_path / "o"]) == 1
        assert "setting 'eps' is not finite" in capsys.readouterr().err
        assert not (tmp_path / "o" / "analyze.json").exists()

    @pytest.mark.parametrize("kind", ["record", "model"])
    def test_overflowing_closed_form_is_a_numerics_error(self, tmp_path, capsys, kind):
        # finite inputs whose omega2 leaves the float range (and rho3 with it)
        # once wrote NaN or Infinity into analyze.json and exited 0
        if kind == "record":
            rec = tmp_path / "record.json"
            rec.write_text('{"a10": 1e300, "b10": 1e300, "f00": 1e300, "c10": -1e300}')
            cfg = tmp_path / "p.cfg"
            cfg.write_text(f"coefficients = {rec}\n")
            value = "nan"
        else:
            cfg = write_cfg(tmp_path / "p.cfg", dict(EX1, alpha=1e-300, beta=1e-301))
            value = "inf"
        assert run(["analyze", "--config", cfg, "--out", tmp_path / "o"]) == 2
        assert capsys.readouterr().err == (
            f"error: closed form omega2 is not finite ({value}) for this record\n")
        assert list((tmp_path / "o").iterdir()) == []

    @pytest.mark.parametrize("point", [EX1, EX2], ids=["EX1", "EX2"])
    def test_output_is_strict_json(self, tmp_path, point):
        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        cfg = write_cfg(tmp_path / "p.cfg", point)
        assert run(["analyze", "--config", cfg, "--out", tmp_path / "o"]) == 0
        json.loads((tmp_path / "o" / "analyze.json").read_text(), parse_constant=refuse)

    @pytest.mark.parametrize("point", [EX1, EX2], ids=["EX1", "EX2"])
    def test_e4_trace_is_trace_at_e4(self, tmp_path, point):
        cfg = write_cfg(tmp_path / "p.cfg", point)
        assert run(["analyze", "--config", cfg, "--out", tmp_path / "o"]) == 0
        data = json.loads((tmp_path / "o" / "analyze.json").read_text())
        p = AlleeParams(**point)
        assert data["e4_trace"] == allee.trace_at(p, equilibria(p).E4.point)

    def test_deterministic_bytes(self, tmp_path):
        cfg = write_cfg(tmp_path / "p.cfg", EX1)
        assert run(["analyze", "--config", cfg, "--out", tmp_path / "a"]) == 0
        assert run(["analyze", "--config", cfg, "--out", tmp_path / "b"]) == 0
        assert ((tmp_path / "a" / "analyze.json").read_bytes()
                == (tmp_path / "b" / "analyze.json").read_bytes())


class TestSweep:
    @pytest.mark.parametrize("grid, message", [
        ("m=", "grid axis 'm=' must look like name=lo:hi:count or name=value"),
        ("m=a:b:3", "grid axis 'm=a:b:3' has non-numeric fields"),
        ("m=abc", "grid axis 'm=abc' has a non-numeric value")])
    def test_malformed_axis(self, tmp_path, capsys, grid, message):
        cfg = write_cfg(tmp_path / "p.cfg", EX2)
        assert run(["sweep", "--config", cfg, "--out", tmp_path / "o", "--grid", grid]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list((tmp_path / "o").iterdir()) == []

    def test_sign_change_within_one_cell_of_mstar(self, tmp_path):
        from canard.allee import psi_case_analysis

        cfg = write_cfg(tmp_path / "p.cfg", EX2)
        assert run(["sweep", "--config", cfg, "--out", tmp_path / "o",
                    "--grid", "m=0.24:0.28:21"]) == 0
        header, rows = read_csv(str(tmp_path / "o" / "sweep.csv"))
        i_m, i_a = header.index("m"), header.index("A")
        ms = [float(r[i_m]) for r in rows]
        signs = [math.copysign(1.0, float(r[i_a])) for r in rows]
        flips = [(ms[k], ms[k + 1]) for k in range(len(ms) - 1)
                 if signs[k] != signs[k + 1]]
        assert len(flips) == 1
        m_star = psi_case_analysis(0.25, EX2["n"], EX2["alpha"],
                                   EX2["gamma"]).m_star
        assert flips[0][0] < m_star < flips[0][1]

    def test_gap_identity_on_every_row(self, tmp_path):
        cfg = write_cfg(tmp_path / "p.cfg", EX2)
        assert run(["sweep", "--config", cfg, "--out", tmp_path / "o",
                    "--grid", "m=0.24:0.28:5,gamma=0.40:0.48:3"]) == 0
        header, rows = read_csv(str(tmp_path / "o" / "sweep.csv"))
        idx = {k: header.index(k) for k in ("A", "lambda_h", "lambda_c")}
        assert len(rows) == 15
        for r in rows:
            gap = float(r[idx["lambda_c"]]) - float(r[idx["lambda_h"]])
            assert gap == pytest.approx(-float(r[idx["A"]]) * EX2["eps"] / 8.0,
                                        rel=1e-9, abs=1e-18)

    def test_single_cell_matches_analyze(self, tmp_path):
        cfg = write_cfg(tmp_path / "p.cfg", EX1)
        assert run(["analyze", "--config", cfg, "--out", tmp_path / "a"]) == 0
        assert run(["sweep", "--config", cfg, "--out", tmp_path / "s",
                    "--grid", f"m={EX1['m']}"]) == 0
        data = json.loads((tmp_path / "a" / "analyze.json").read_text())
        header, rows = read_csv(str(tmp_path / "s" / "sweep.csv"))
        assert len(rows) == 1
        row = dict(zip(header, rows[0]))
        assert float(row["A"]) == data["analysis"]["A"]
        assert float(row["omega1"]) == data["analysis"]["omega1"]
        assert float(row["omega2"]) == data["analysis"]["omega2"]
        assert float(row["lambda_h"]) == data["curves"]["lambda_h"]
        assert float(row["lambda_c"]) == data["curves"]["lambda_c"]
        assert row["case"] == data["psi_case"]["tag"]

    def test_svg_is_wellformed(self, tmp_path):
        cfg = write_cfg(tmp_path / "p.cfg", EX2)
        assert run(["sweep", "--config", cfg, "--out", tmp_path / "o",
                    "--grid", "m=0.24:0.28:4,gamma=0.40:0.48:3"]) == 0
        root = ET.parse(str(tmp_path / "o" / "sweep.svg")).getroot()
        assert root.tag.endswith("svg")
        rects = [e for e in root.iter() if e.tag.endswith("rect")]
        assert len(rects) >= 12  # one per cell plus frame/background

    def test_empty_grid_is_validation_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "p.cfg", EX2)
        assert run(["sweep", "--config", cfg, "--out", tmp_path / "o",
                    "--grid", "m=0.2:0.3:0"]) == 1
        assert "empty grid" in capsys.readouterr().err

    def test_grid_required(self, tmp_path):
        cfg = write_cfg(tmp_path / "p.cfg", EX2)
        assert run(["sweep", "--config", cfg, "--out", tmp_path / "o"]) == 1


# every point of these boxes is admissible: m < 0.18 < (1 - sqrt(0.3))^2
SWEEP_BOX = {"m": (0.02, 0.18), "n": (0.05, 0.3), "alpha": (0.3, 1.5),
             "beta": (0.05, 0.5), "gamma": (0.05, 1.0), "eps": (1e-4, 0.1)}


@st.composite
def sweep_cases(draw):
    base = {k: draw(st.floats(lo, hi)) for k, (lo, hi) in SWEEP_BOX.items()}
    names = draw(st.lists(st.sampled_from(PARAM_NAMES), min_size=1, max_size=2, unique=True))
    axes = []
    for name in names:
        lo, hi = SWEEP_BOX[name]
        a, b = draw(st.floats(lo, hi)), draw(st.floats(lo, hi))
        axes.append(f"{name}={a!r}:{b!r}:{draw(st.integers(1, 6))}")
    return base, ",".join(axes)


class TestVectorizedSweep:
    @settings(max_examples=40, deadline=None)
    @given(case=sweep_cases())
    def test_rows_match_scalar_reference(self, case):
        # each row against the jet-reduced record and the scalar
        # functions; 1e-12 relative to the terms each value sums, since A
        # and omega2 cancel near the degeneracy the grids straddle
        base, grid = case
        with tempfile.TemporaryDirectory() as tmp:
            cfg = write_cfg(Path(tmp) / "p.cfg", {k: repr(v) for k, v in base.items()})
            assert run(["sweep", "--config", cfg, "--out", Path(tmp) / "o", "--grid", grid]) == 0
            header, rows = read_csv(os.path.join(tmp, "o", "sweep.csv"))
        axes = parse_grid(grid)
        assert len(rows) == math.prod(len(values) for _, values in axes)
        for row in rows:
            cells = dict(zip(header, row))
            point = dict(base, **{name: float(cells[name]) for name, _ in axes})
            ref = sweep_row_reference(AlleeParams(**point))
            assert cells["case"] == ref["case"]
            for key, want in ref["values"].items():
                got = float(cells[key])
                assert abs(got - want) <= 1e-12 * max(abs(want), ref["scales"][key]) + 1e-15, (
                    key, got, want)

    @pytest.mark.parametrize("grid, condition", [
        ("m=0.2:0.5:4", "(1 - sqrt(n))^2"),         # last point above the bound
        ("eps=0.01:0.2:3", "0 < eps <= 0.1"),
        ("beta=0.2:-0.1:4", "beta > 0"),
    ])
    def test_one_inadmissible_point_names_condition(self, tmp_path, capsys, grid, condition):
        cfg = write_cfg(tmp_path / "p.cfg", EX2)
        assert run(["sweep", "--config", cfg, "--out", tmp_path / "o", "--grid", grid]) == 1
        assert condition in capsys.readouterr().err
        assert not (tmp_path / "o" / "sweep.csv").exists()

    def test_fold_on_the_axis_is_rejected(self, tmp_path, capsys):
        # m = (1 - sqrt(n))^2 = 0.25 exactly puts the fold at y_M = 0
        cfg = write_cfg(tmp_path / "p.cfg", dict(EX2, n=0.25))
        assert run(["sweep", "--config", cfg, "--out", tmp_path / "o",
                    "--grid", "m=0.15:0.25:3"]) == 1
        assert "alpha*x_M*y_M > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("grid, message", [
        # n = 0.25 puts (1 - sqrt(n))^2 at 0.25 exactly: m = 0.25 fails a
        # closed-form check, m = 0.35 fails AlleeParams, which runs first
        ("m=0.15:0.35:3", "requires alpha*x_M*y_M > 0, got 0.0"),
        ("m=0.35:0.15:3",
         "requires 0 < m <= (1 - sqrt(n))^2 = 0.25, got m=0.35, y_M=-0.08321595661992309"),
        # y is the outer loop: (0.5, 0.1) comes before (0.2, -0.1)
        ("m=0.2:0.5:2,beta=0.1:-0.1:2",
         "requires 0 < m <= (1 - sqrt(n))^2 = 0.25, got m=0.5, y_M=-0.16421356237309515"),
        ("m=0.2:0.5:2,beta=-0.1:0.1:2", "requires beta > 0, got -0.1"),
        # (m + x_M)^3 underflows to 0 at m = 5e-324, the least positive float
        ("m=0.2:5e-324:2,beta=0.1:-0.1:2", f"m=5e-324 {TINY_M}"),
        ("m=0.2:5e-324:2,beta=-0.1:0.1:2", "requires beta > 0, got -0.1"),
    ])
    def test_first_inadmissible_point_in_grid_order_is_named(self, tmp_path, capsys,
                                                             grid, message):
        cfg = write_cfg(tmp_path / "p.cfg", dict(EX2, n=0.25))
        assert run(["sweep", "--config", cfg, "--out", tmp_path / "o", "--grid", grid]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o" / "sweep.csv").exists()

    @pytest.mark.parametrize("grid, checked", [
        ("m=0.24:0.28:30,beta=0.12:0.16:30", (30, 30)),
        ("eps=0.05:0.1:6", (1, 6)),   # eps = 0.1 is compared exactly
        ("m=0.15:0.35:3", (1, 3)),    # m = 0.25 fails at n = 0.25
    ])
    def test_one_check_over_the_whole_grid(self, tmp_path, monkeypatch, grid, checked):
        # the grid is checked once, as arrays (the axes as an open grid that
        # broadcasts to the whole grid), and only a grid that passes
        # reaches the closed forms
        seen = []

        def recording_check(**columns):
            seen.append({k: np.shape(v) for k, v in columns.items()})
            return check_grid(**columns)
        monkeypatch.setattr(allee, "check_grid", recording_check)
        fails = checked == (1, 3)
        cfg = write_cfg(tmp_path / "p.cfg", dict(EX2, n=0.25) if fails else EX2)
        code = run(["sweep", "--config", cfg, "--out", tmp_path / "o", "--grid", grid])
        assert code == (1 if fails else 0)
        names = [part.split("=")[0] for part in grid.split(",")]
        assert [list(shapes) for shapes in seen] == [list(PARAM_NAMES)]
        assert np.broadcast_shapes(*seen[0].values()) == checked
        assert all(seen[0][k] == () for k in PARAM_NAMES if k not in names)

    def test_numpy_scalar_cells(self, tmp_path):
        cells = [np.float64(0.1), np.float32(0.5), np.int64(7), 0.1, 3, "x"]
        path = write_csv(str(tmp_path), "cells.csv", ["a", "b", "c", "d", "e", "f"],
                         [[str(v)] for v in cells])
        assert Path(path).read_text(encoding="utf-8") == "a,b,c,d,e,f\n0.1,0.5,7,0.1,3,x\n"


def heatmap_reference(x_values, y_values, cell_values, *, title, x_label, y_label):
    """_svg.heatmap as a per-cell loop that formats each cell's x and y."""
    nx, ny = len(x_values), len(y_values)
    x0, x1 = _svg._ML, _svg._WIDTH - _svg._MR
    y0, y1 = _svg._HEIGHT - _svg._MB, _svg._MT
    cw = (x1 - x0) / nx
    ch = (y0 - y1) / ny
    parts = []
    for j in range(ny):
        for i in range(nx):
            px = x0 + i * cw
            py = y0 - (j + 1) * ch
            parts.append(
                f'<rect x="{_svg._fmt(px)}" y="{_svg._fmt(py)}" width="{_svg._fmt(cw)}" '
                f'height="{_svg._fmt(ch)}" fill="{_svg.sign_color(cell_values[j][i])}" '
                'stroke="#ffffff" stroke-width="0.5"/>')
    x_ticks = _svg._tick_subset(list(x_values), [x0 + (i + 0.5) * cw for i in range(nx)])
    y_ticks = _svg._tick_subset(list(y_values), [y0 - (j + 0.5) * ch for j in range(ny)])
    parts.extend(_svg._frame(title, x_label, y_label, x_ticks, y_ticks))
    return _svg._document(parts)


CELL_VALUES = st.one_of(st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
                        st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def heatmap_grids(draw):
    nx, ny = draw(st.integers(1, 7)), draw(st.integers(1, 5))
    axis = st.floats(-1e3, 1e3)
    return (draw(st.lists(axis, min_size=nx, max_size=nx)),
            draw(st.lists(axis, min_size=ny, max_size=ny)),
            draw(st.lists(st.lists(CELL_VALUES, min_size=nx, max_size=nx),
                          min_size=ny, max_size=ny)))


def polyline_reference(xs, ys, *, title, x_label, y_label, marker=None):
    """_svg.polyline as a per-point loop on Python floats."""
    lo_x, hi_x, lo_y, hi_y = min(xs), max(xs), min(ys), max(ys)
    pad_x = 0.05 * (hi_x - lo_x) or max(abs(lo_x), 1.0) * 1e-3
    pad_y = 0.05 * (hi_y - lo_y) or max(abs(lo_y), 1.0) * 1e-3
    lo_x, hi_x, lo_y, hi_y = lo_x - pad_x, hi_x + pad_x, lo_y - pad_y, hi_y + pad_y
    x0, x1 = _svg._ML, _svg._WIDTH - _svg._MR
    y0, y1 = _svg._HEIGHT - _svg._MB, _svg._MT

    def sx(v):
        return x0 + (v - lo_x) / (hi_x - lo_x) * (x1 - x0)

    def sy(v):
        return y0 - (v - lo_y) / (hi_y - lo_y) * (y0 - y1)

    pts = " ".join(f"{_svg._fmt(sx(x))},{_svg._fmt(sy(y))}" for x, y in zip(xs, ys))
    parts = [f'<polyline points="{pts}" fill="none" stroke="{_svg.COLOR_NEG}" '
             'stroke-width="1.2"/>']
    if marker is not None:
        parts.append(f'<circle cx="{_svg._fmt(sx(marker[0]))}" cy="{_svg._fmt(sy(marker[1]))}" '
                     f'r="3" fill="{_svg.COLOR_POS}"/>')
    x_ticks = [(sx(lo_x + k * (hi_x - lo_x) / 4), _svg._label(lo_x + k * (hi_x - lo_x) / 4))
               for k in range(5)]
    y_ticks = [(sy(lo_y + k * (hi_y - lo_y) / 4), _svg._label(lo_y + k * (hi_y - lo_y) / 4))
               for k in range(5)]
    parts.extend(_svg._frame(title, x_label, y_label, x_ticks, y_ticks))
    return _svg._document(parts)


COORDS = st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 0.25]))


@st.composite
def polylines(draw):
    n = draw(st.integers(2, 40))
    xs = draw(st.lists(COORDS, min_size=n, max_size=n))
    ys = draw(st.lists(COORDS, min_size=n, max_size=n))
    return xs, ys, draw(st.none() | st.tuples(COORDS, COORDS))


# every kind of value the CLI hands write_csv, and the edges of float repr
CSV_FIELDS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
                     1e300, -1e300, 1e-300, -1e-300]),
    st.floats(width=32).map(np.float32), st.floats().map(np.float64),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64), st.integers(),
    st.sampled_from(PARAM_NAMES + cli.SWEEP_COLUMNS + PSI_TAGS + ("case", "t", "x", "y",
                                                                  "s", "integral")))

with open(Path(__file__).parent / "data" / "golden_sweep.json", "r", encoding="utf-8") as fh:
    GOLDEN_SWEEP = json.load(fh)
with open(Path(__file__).parent / "data" / "golden_cli.json", "r", encoding="utf-8") as fh:
    GOLDEN_CLI = json.load(fh)


class TestOutputBytes:
    @pytest.mark.parametrize("case", GOLDEN_SWEEP["grids"], ids=lambda c: c["grid"])
    def test_sweep_bytes_match_the_recorded_digests(self, tmp_path, case):
        # sha256 of the files the csv-module writer and the meshgrid sweep wrote
        cfg = write_cfg(tmp_path / "p.cfg",
                        {k: repr(v) for k, v in GOLDEN_SWEEP["params"].items()})
        assert run(["sweep", "--config", cfg, "--out", tmp_path / "o",
                    "--grid", case["grid"]]) == 0
        for name in ("sweep.csv", "sweep.svg"):
            digest = hashlib.sha256((tmp_path / "o" / name).read_bytes()).hexdigest()
            assert digest == case[name], name

    @pytest.mark.parametrize("case", GOLDEN_CLI["runs"], ids=lambda c: c["name"])
    def test_analyze_and_simulate_bytes_match_the_recorded_digests(self, tmp_path, case):
        # sdi and verify are held to tolerances instead: the last bits of their
        # numbers come from LAPACK (leggauss, lstsq), whose builds may differ
        config = dict(case["config"])
        if "record" in case:
            config["coefficients"] = tmp_path / "record.json"
            config["coefficients"].write_text(json.dumps(case["record"]))
        cfg = write_cfg(tmp_path / "p.cfg", config)
        out = tmp_path / "o"
        assert run(case["args"] + ["--config", cfg, "--out", out]) == 0
        assert sorted(os.listdir(out)) == sorted(case["files"])
        for name, digest in case["files"].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name

    @settings(max_examples=200, deadline=None)
    @given(rows=st.integers(1, 8).flatmap(lambda width: st.lists(
               st.lists(CSV_FIELDS, min_size=width, max_size=width), max_size=6)),
           header=st.lists(CSV_FIELDS, min_size=1, max_size=8))
    def test_write_csv_equals_csv_writer(self, tmp_path_factory, header, rows):
        out = tmp_path_factory.mktemp("csv")
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        # write_csv takes the columns' text: each value as its str
        columns = [map(str, column) for column in zip(*rows)]
        path = write_csv(str(out), "rows.csv", list(map(str, header)), columns)
        assert Path(path).read_bytes() == buffer.getvalue().encode("utf-8")

    @settings(max_examples=80, deadline=None)
    @given(line=polylines())
    def test_polyline_equals_per_point_loop(self, line):
        xs, ys, marker = line
        labels = dict(title="trajectory", x_label="x", y_label="y", marker=marker)
        want = polyline_reference(xs, ys, **labels)
        assert _svg.polyline(xs, ys, **labels) == want
        assert _svg.polyline(np.array(xs), np.array(ys), **labels) == want

    @pytest.mark.parametrize("xs, ys", [([0.5], [0.5]), ([0.0, 1.0], [0.0])])
    def test_polyline_needs_two_points_per_axis(self, xs, ys):
        with pytest.raises(DomainError, match="^requires two equal-length arrays of at least 2 points$"):
            _svg.polyline(xs, ys, title="t", x_label="x", y_label="y")

    @pytest.mark.parametrize("xs, ys", [([], [0.0]), ([0.0], [])])
    def test_heatmap_rejects_an_empty_axis(self, xs, ys):
        with pytest.raises(DomainError, match="^requires a nonempty grid on both axes$"):
            _svg.heatmap(xs, ys, 1.0, title="t", x_label="x", y_label="y")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_polyline_rejects_non_finite(self, bad):
        with pytest.raises(DomainError, match="requires finite coordinates"):
            _svg.polyline([0.0, 1.0], [0.0, bad], title="t", x_label="x", y_label="y")

    @settings(max_examples=60, deadline=None)
    @given(grid=heatmap_grids())
    def test_heatmap_equals_per_cell_loop(self, grid):
        xs, ys, cells = grid
        labels = dict(title="sign(A) over the sweep grid", x_label="m", y_label="beta")
        want = heatmap_reference(xs, ys, cells, **labels)
        assert _svg.heatmap(xs, ys, cells, **labels) == want
        assert _svg.heatmap(xs, ys, np.array(cells), **labels) == want

    @settings(max_examples=60, deadline=None)
    @given(grid=heatmap_grids(), row=st.booleans())
    def test_heatmap_broadcasts_a_row_or_column(self, grid, row):
        # one value per x (per y) is colored once and repeated down (across) the grid
        xs, ys, cells = grid
        line = np.array(cells[0] if row else [r[0] for r in cells])
        cells = line[None, :] if row else line[:, None]
        full = np.broadcast_to(cells, (len(ys), len(xs))).tolist()
        labels = dict(title="t", x_label="m", y_label="beta")
        want = heatmap_reference(xs, ys, full, **labels)
        assert _svg.heatmap(xs, ys, cells, **labels) == want
        if row:
            assert _svg.heatmap(xs, ys, line, **labels) == want

    @pytest.mark.parametrize("cells", [[[1.0, 2.0]], [[1.0], [2.0], [3.0]],
                                       [[1.0, 2.0, 3.0], [1.0]], np.zeros((1, 2, 3))])
    def test_heatmap_rejects_cells_that_do_not_broadcast(self, cells):
        with pytest.raises(DomainError, match="must broadcast"):
            _svg.heatmap([0.0, 1.0, 2.0], [0.0, 1.0], cells, title="t",
                         x_label="x", y_label="y")

    def test_trajectory_rows_are_the_mesh_as_floats(self, tmp_path, monkeypatch):
        seen = {}
        real_integrate, real_write_csv = dynamics.integrate, cli.write_csv

        def recording_integrate(*args):
            seen["traj"] = real_integrate(*args)
            return seen["traj"]

        def recording_write_csv(out_dir, name, header, columns):
            seen[name] = [list(column) for column in columns]
            return real_write_csv(out_dir, name, header, seen[name])
        monkeypatch.setattr(dynamics, "integrate", recording_integrate)
        monkeypatch.setattr(cli, "write_csv", recording_write_csv)
        cfg = write_cfg(tmp_path / "p.cfg",
                        dict(EX1, start_x=0.2644, start_y=0.0961, t_max=50))
        assert run(["simulate", "--config", cfg, "--out", tmp_path / "o"]) == 0
        traj = seen["traj"]
        want = [[float(t), float(x), float(y)] for t, (x, y) in zip(traj.t, traj.y)]
        # each field is the str of the mesh value as a Python float
        assert seen["trajectory.csv"] == [list(map(str, column)) for column in zip(*want)]
        ref = real_write_csv(str(tmp_path), "ref.csv", ["t", "x", "y"],
                             [map(str, column) for column in zip(*want)])
        assert (tmp_path / "o" / "trajectory.csv").read_bytes() == Path(ref).read_bytes()


def fresh_run(*args, check=True):
    """A fresh interpreter run with args, src first on its path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, *map(str, args)], env=env, capture_output=True,
                          text=True, check=check, timeout=120)


def imported_names(err):
    """The names of the modules an -X importtime report on stderr lists."""
    return {line.rpartition("|")[2].strip() for line in err.splitlines()
            if line.startswith("import time:")}


def fresh_imports(*args):
    """The names of the modules a fresh interpreter run with args imports,
    read off its -X importtime report."""
    return imported_names(fresh_run("-X", "importtime", *args).stderr)


def canard_modules(names):
    return {name for name in names if name.split(".")[0] == "canard"}


def top_level(names):
    return {name.split(".")[0] for name in names}


# the canard modules each subcommand adds to the package and errors
COMMAND_MODULES = {
    "analyze": {"allee", "_kernels", "normalform"},
    "sweep": {"allee", "_kernels", "normalform", "_svg"},
    "simulate": {"allee", "_kernels", "normalform", "dynamics", "_svg"},
    "sdi": {"allee", "_kernels", "normalform", "sdi", "_svg"},
}
# the subcommands that run on arrays, and so load numpy
NUMPY_COMMANDS = {"sweep", "sdi"}


class TestImport:
    def test_cli_import_leaves_scipy_out(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        code = ("import sys, canard.cli; "
                "print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120).stdout
        assert out.strip() == "[]"

    def test_cli_import_loads_the_parser_alone(self):
        # --help and a usage error need no numpy and no model code
        names = fresh_imports("-c", "import canard.cli")
        assert canard_modules(names) == {"canard", "canard.cli", "canard.errors"}
        assert not {"numpy", "scipy"} & {name.split(".")[0] for name in names}
        # the JSON hook reads a record's __dataclass_fields__, not dataclasses.fields
        assert not {"dataclasses", "inspect"} & names

    def test_dynamics_import_leaves_the_oracle_out(self):
        loaded = canard_modules(fresh_imports("-c", "import canard.dynamics"))
        assert "canard.dynamics" in loaded
        assert not loaded & {f"canard.{m}" for m in ("blowup", "jet", "verify", "sdi", "cli")}

    @pytest.mark.parametrize("command", sorted(COMMAND_MODULES))
    def test_each_command_loads_what_it_runs(self, tmp_path, command):
        coincident = dict(m=0.18, n=0.1, alpha=0.8, beta=0.15, eps=0.01,
                          gamma=gamma_star(0.18, 0.1, 0.8, 0.15))
        settings, extra = {
            "analyze": (EX1, []),
            "sweep": (EX2, ["--grid", "m=0.24:0.28:3"]),
            "simulate": (dict(EX1, start_x=0.2644, start_y=0.0961, t_max=5), []),
            "sdi": (coincident, ["--grid", "4"]),
        }[command]
        cfg = write_cfg(tmp_path / "p.cfg", settings)
        names = fresh_imports("-m", "canard.cli", command, "--config", cfg,
                              "--out", tmp_path / "o", *extra)
        assert canard_modules(names) == {"canard", "canard.errors", *(
            f"canard.{m}" for m in COMMAND_MODULES[command])}
        assert ("numpy" in top_level(names)) == (command in NUMPY_COMMANDS)

    def test_cycle_location_loads_no_numpy(self, tmp_path):
        # simulate with a bracket: return maps, bisection and the cycle block
        cfg = write_cfg(tmp_path / "p.cfg",
                        dict(EX1, start_x=0.2644, start_y=0.0961, t_max=1500,
                             bracket_lo=0.10120444, bracket_hi=0.10549957))
        names = fresh_imports("-m", "canard.cli", "simulate", "--config", cfg,
                              "--out", tmp_path / "o")
        assert json.loads((tmp_path / "o" / "simulate.json").read_text())["cycle"]
        assert "numpy" not in top_level(names)

    def test_missing_key_loads_no_numpy(self, tmp_path):
        # the parameter names come from allee, which a scalar run loads without numpy
        cfg = write_cfg(tmp_path / "p.cfg", {k: v for k, v in EX1.items() if k != "alpha"})
        proc = fresh_run("-X", "importtime", "-m", "canard.cli", "analyze", "--config", cfg,
                         "--out", tmp_path / "o", check=False)
        assert proc.returncode == 1 and proc.stdout == ""
        report = [line for line in proc.stderr.splitlines() if not line.startswith("import time:")]
        assert report == ["error: missing parameter keys: alpha"]
        assert "numpy" not in top_level(imported_names(proc.stderr))

    def test_star_import_gives_normalform_names(self):
        # the package reads normalform's names from it on first use
        code = ("import sys, canard\n"
                "print('canard.normalform' in sys.modules)\n"
                "from canard import *\n"
                "import canard.normalform as nf\n"
                "names = set(canard.__all__) - {'DomainError', 'NumericsError', '__version__'}\n"
                "print(len(names), all(globals()[n] is getattr(nf, n) for n in names))\n"
                "try:\n"
                "    canard.nowhere\n"
                "except AttributeError as exc:\n"
                "    print(exc)\n")
        out = fresh_run("-c", code).stdout
        assert out.splitlines() == ["False", "12 True", "module 'canard' has no attribute 'nowhere'"]


def reversed_cfg(tmp_path, source, value):
    """A simulate config for EX2 whose reversed setting is value as written
    in a JSON or a flat file."""
    settings = dict(EX2, start_x=0.25, start_y=0.1375, t_max=20)
    if source == "flat":
        return write_cfg(tmp_path / "p.cfg", dict(settings, reversed=value))
    path = tmp_path / "p.json"
    path.write_text(json.dumps(settings)[:-1] + f', "reversed": {value}}}')
    return str(path)


class TestSimulate:
    def test_trajectory_roundtrip_and_summary(self, tmp_path):
        cfg = write_cfg(tmp_path / "p.cfg",
                        dict(EX1, start_x=0.2644, start_y=0.0961, t_max=50))
        assert run(["simulate", "--config", cfg, "--out", tmp_path / "o"]) == 0
        header, rows = read_csv(str(tmp_path / "o" / "trajectory.csv"))
        assert header == ["t", "x", "y"]
        assert [float(v) for v in rows[0]] == [0.0, 0.2644, 0.0961]
        summary = json.loads((tmp_path / "o" / "simulate.json").read_text())
        assert summary["steps"] == len(rows)
        # the run's integrator work: 2 starter evaluations, then 6 per attempted step
        assert summary["n_accepted"] == len(rows) - 1 and summary["n_rejected"] >= 0
        assert summary["nfev"] == 2 + 6 * (summary["n_accepted"] + summary["n_rejected"])
        assert summary["t_final"] == pytest.approx(50.0)
        assert summary["direction"] == "Forward"
        assert [float(v) for v in rows[-1][1:]] == summary["end_state"]
        ET.parse(str(tmp_path / "o" / "trajectory.svg"))

    def test_reversed_flag(self, tmp_path):
        cfg = write_cfg(tmp_path / "p.cfg",
                        dict(EX2, start_x=0.25, start_y=0.1375, t_max=20))
        assert run(["simulate", "--config", cfg, "--out", tmp_path / "o",
                    "--reversed"]) == 0
        summary = json.loads((tmp_path / "o" / "simulate.json").read_text())
        assert summary["direction"] == "Reversed"

    @pytest.mark.parametrize("source, value", [
        ("json", '"false"'), ("json", "1"), ("flat", "no"), ("flat", "0.5"), ("flat", "1")])
    def test_reversed_must_be_a_boolean(self, tmp_path, capsys, source, value):
        cfg = reversed_cfg(tmp_path, source, value)
        assert run(["simulate", "--config", cfg, "--out", tmp_path / "o"]) == 1
        assert capsys.readouterr().err == (
            f"error: setting 'reversed' must be true or false, got {load_config(cfg)['reversed']!r}\n")
        assert list((tmp_path / "o").iterdir()) == []

    @pytest.mark.parametrize("source, value, direction", [
        ("json", "true", "Reversed"), ("json", "false", "Forward"),
        ("flat", "true", "Reversed"), ("flat", "false", "Forward")])
    def test_reversed_booleans(self, tmp_path, source, value, direction):
        cfg = reversed_cfg(tmp_path, source, value)
        assert run(["simulate", "--config", cfg, "--out", tmp_path / "o"]) == 0
        summary = json.loads((tmp_path / "o" / "simulate.json").read_text())
        assert summary["direction"] == direction

    def test_missing_start_is_validation_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "p.cfg", EX1)
        assert run(["simulate", "--config", cfg, "--out", tmp_path / "o"]) == 1
        assert "start_x" in capsys.readouterr().err

    def test_section_x_places_the_section(self, tmp_path):
        # one ulp off E4's x, the x the section takes when section_x is not set
        e4_x = equilibria(AlleeParams(**EX1)).E4.point[0]
        section_x = math.nextafter(e4_x, 1.0)
        cfg = write_cfg(tmp_path / "p.cfg",
                        dict(EX1, start_x=0.2644, start_y=0.0961, t_max=1500,
                             bracket_lo=0.10120444, bracket_hi=0.10549957,
                             section_x=repr(section_x)))
        assert run(["simulate", "--config", cfg, "--out", tmp_path / "o"]) == 0
        cyc = json.loads((tmp_path / "o" / "simulate.json").read_text())["cycle"]
        assert cyc["section_point"][0] == section_x != e4_x

    def test_bracket_without_e4_is_validation_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "p.cfg",
                        dict(EX1, beta=0.5, start_x=0.2644, start_y=0.0961, t_max=5,
                             bracket_lo=0.1, bracket_hi=0.11))
        assert run(["simulate", "--config", cfg, "--out", tmp_path / "o"]) == 1
        assert capsys.readouterr().err == (
            "error: cycle location requires the interior equilibrium to exist "
            "(set section_x explicitly otherwise)\n")
        # the trajectory it integrated is not written either
        assert list((tmp_path / "o").iterdir()) == []

    def test_cycle_without_a_return_writes_nothing(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "p.cfg",
                        dict(EX1, start_x=0.2644, start_y=0.0961, t_max=5,
                             bracket_lo=0.10120444, bracket_hi=0.10549957))
        assert run(["simulate", "--config", cfg, "--out", tmp_path / "o"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: no same-direction return")
        assert list((tmp_path / "o").iterdir()) == []

    def test_cycle_block(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "p.cfg",
                        dict(EX1, start_x=0.2644, start_y=0.0961, t_max=1500,
                             bracket_lo=0.10120444, bracket_hi=0.10549957))
        assert run(["simulate", "--config", cfg, "--out", tmp_path / "o"]) == 0
        summary = json.loads((tmp_path / "o" / "simulate.json").read_text())
        cyc = summary["cycle"]
        assert cyc["stability"] == "Stable" and cyc["multiplier"] < 1.0
        assert cyc["converged"] is True
        assert "Stable" in capsys.readouterr().out


class TestSdi:
    def cfg(self, tmp_path):
        from canard.allee import gamma_star

        base = dict(m=0.18, n=0.1, alpha=0.8, beta=0.15, eps=0.01)
        base["gamma"] = gamma_star(0.18, 0.1, 0.8, 0.15)
        return write_cfg(tmp_path / "p.cfg", base)

    def test_outputs_roundtrip(self, tmp_path):
        cfg = self.cfg(tmp_path)
        assert run(["sdi", "--config", cfg, "--out", tmp_path / "o",
                    "--grid", "12"]) == 0
        data = json.loads((tmp_path / "o" / "sdi.json").read_text())
        assert data["zero_count"] <= 1
        assert len(data["s_grid"]) == 12
        header, rows = read_csv(str(tmp_path / "o" / "sdi.csv"))
        assert header == ["s", "integral"] and len(rows) == 12
        assert [float(r[0]) for r in rows] == data["s_grid"]
        ET.parse(str(tmp_path / "o" / "sdi.svg"))

    def test_noncoincident_rejected(self, tmp_path, capsys):
        # beta off the coincidence value makes gamma_star differ from gamma
        cfg = write_cfg(tmp_path / "p.cfg", dict(EX1, beta=0.25))
        assert run(["sdi", "--config", cfg, "--out", tmp_path / "o"]) == 1
        assert "gamma_star" in capsys.readouterr().err

    def test_bad_grid_count(self, tmp_path, capsys):
        cfg = self.cfg(tmp_path)
        assert run(["sdi", "--config", cfg, "--out", tmp_path / "o",
                    "--grid", "m=1:2:3"]) == 1
        assert "integer" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["2.5", "nan", "true"])
    def test_grid_count_must_be_an_integer(self, tmp_path, capsys, grid):
        cfg = self.cfg(tmp_path)
        assert run(["sdi", "--config", cfg, "--out", tmp_path / "o",
                    "--grid", grid]) == 1
        assert "setting 'grid' must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "o" / "sdi.json").exists()

    def test_integral_float_grid_count_accepted(self, tmp_path):
        cfg = self.cfg(tmp_path)
        assert run(["sdi", "--config", cfg, "--out", tmp_path / "o",
                    "--grid", "4.0"]) == 0
        data = json.loads((tmp_path / "o" / "sdi.json").read_text())
        assert len(data["s_grid"]) == 4

    def test_digit_string_grid_count_parses(self, tmp_path):
        cfg = self.cfg(tmp_path)
        assert run(["sdi", "--config", cfg, "--out", tmp_path / "o",
                    "--grid", "24"]) == 0
        data = json.loads((tmp_path / "o" / "sdi.json").read_text())
        assert len(data["s_grid"]) == 24


class TestVerify:
    def test_seeds_above_2_53_stay_distinct(self, tmp_path, monkeypatch):
        seen = []
        real_run_all = verify.run_all

        def recording_run_all(seed, omega2_offset):
            seen.append(seed)
            return real_run_all(seed=seed, omega2_offset=omega2_offset)
        monkeypatch.setattr(verify, "run_all", recording_run_all)
        for seed in ("9007199254740993", "9007199254740992"):
            assert run(["verify", "--out", tmp_path / seed, "--seed", seed]) in (0, 2)
        assert seen == [9007199254740993, 9007199254740992]

    def test_pass_and_report(self, tmp_path, capsys):
        assert run(["verify", "--out", tmp_path / "o", "--seed", "11"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 6 and "[FAIL]" not in out
        data = json.loads((tmp_path / "o" / "verify.json").read_text())
        assert data["all_passed"] is True and data["seed"] == 11

    def test_negative_control_flags_and_exit_2(self, tmp_path, capsys):
        assert run(["verify", "--out", tmp_path / "o", "--seed", "11",
                    "--omega2-offset", "0.5"]) == 2
        out = capsys.readouterr().out
        assert "[FAIL] omega2-cubic-fit" in out
        # the run continues past the failing stage
        assert "allee-degeneracy" in out
        data = json.loads((tmp_path / "o" / "verify.json").read_text())
        assert data["all_passed"] is False
        assert data["omega2_offset"] == 0.5

    def test_non_finite_offset_rejected(self, tmp_path, capsys):
        assert run(["verify", "--out", tmp_path / "o", "--omega2-offset", "nan"]) == 1
        assert "setting 'omega2_offset' is not finite" in capsys.readouterr().err
        assert not (tmp_path / "o" / "verify.json").exists()


class TestJsonLayout:
    """The JSON files list their keys in this order; records contribute
    their dataclass fields in declaration order."""

    ANALYSIS = ["A", "omega1", "omega2", "rho1", "rho3", "classification"]
    PARAMS = list(PARAM_NAMES)

    def read(self, out, name):
        return json.loads((out / name).read_text())

    def test_analyze_model(self, tmp_path):
        cfg = write_cfg(tmp_path / "p.cfg", EX1)
        assert run(["analyze", "--config", cfg, "--out", tmp_path]) == 0
        data = self.read(tmp_path, "analyze.json")
        assert list(data) == ["input", "params", "classify_tol", "fold", "boundary",
                              "equilibria", "e4_trace", "record", "analysis", "a5",
                              "curves", "psi_case", "gamma_star", "model_curves"]
        assert list(data["params"]) == self.PARAMS
        assert list(data["equilibria"]) == ["E0", "E1", "E2", "E3", "E4",
                                            "delta1", "delta2", "fold"]
        assert list(data["equilibria"]["E4"]) == ["point", "kind"]
        assert list(data["analysis"]) == self.ANALYSIS
        assert list(data["psi_case"]) == ["psi", "m_star", "n_threshold", "tag",
                                          "predicted_sign"]
        record = list(data["record"])
        assert (record[0], record[-1], len(record)) == ("a10", "f02", 32)

    def test_analyze_coefficients(self, tmp_path):
        rec = tmp_path / "record.json"
        rec.write_text('{"a10": 0.25, "f00": -0.1}')
        cfg = tmp_path / "p.cfg"
        cfg.write_text(f"coefficients = {rec}\neps = 0.01\n")
        assert run(["analyze", "--config", cfg, "--out", tmp_path]) == 0
        data = self.read(tmp_path, "analyze.json")
        assert list(data) == ["input", "classify_tol", "record", "analysis",
                              "lambda_star", "eps"]
        assert list(data["analysis"]) == self.ANALYSIS

    def test_simulate_with_cycle(self, tmp_path):
        cfg = write_cfg(tmp_path / "p.cfg",
                        dict(EX1, start_x=0.2644, start_y=0.0961, t_max=1500,
                             bracket_lo=0.10120444, bracket_hi=0.10549957))
        assert run(["simulate", "--config", cfg, "--out", tmp_path]) == 0
        data = self.read(tmp_path, "simulate.json")
        assert list(data) == ["params", "start", "direction", "t_final", "steps",
                              "n_accepted", "n_rejected", "nfev",
                              "end_state", "cycle"]
        assert list(data["params"]) == self.PARAMS
        assert list(data["cycle"]) == ["section_point", "period", "multiplier",
                                       "stability", "converged"]

    def test_sdi(self, tmp_path):
        cfg = TestSdi().cfg(tmp_path)
        assert run(["sdi", "--config", cfg, "--out", tmp_path, "--grid", "4"]) == 0
        data = self.read(tmp_path, "sdi.json")
        assert list(data) == ["s_grid", "values", "zero_count", "case", "params"]
        assert list(data["params"]) == self.PARAMS

    def test_verify(self, tmp_path):
        assert run(["verify", "--out", tmp_path, "--seed", "11"]) == 0
        data = self.read(tmp_path, "verify.json")
        assert list(data) == ["seed", "omega2_offset", "all_passed", "stages"]
        assert list(data["stages"][0]) == ["name", "passed", "message", "details"]


class TestArgumentErrors:
    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 1
        assert "invalid choice" in capsys.readouterr().err

    def test_no_command(self, capsys):
        assert run([]) == 1

    @pytest.mark.parametrize("command", ["analyze", "verify"])
    def test_out_below_a_file(self, tmp_path, capsys, command):
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "o"
        cfg = write_cfg(tmp_path / "p.cfg", EX1)
        assert run([command, "--config", cfg, "--out", out]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot create output directory {out}: ")

    def test_out_not_writable(self, tmp_path, capsys, monkeypatch):
        # root is granted every write, so the access check is made to refuse
        monkeypatch.setattr(os, "access", lambda path, mode: False)
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path / "p.cfg", EX1)
        assert run(["analyze", "--config", cfg, "--out", out]) == 1
        assert capsys.readouterr().err == f"error: output directory {out} is not writable\n"
        assert list(out.iterdir()) == []


class TestParserReuse:
    """main() parses with one parser per process; each call must behave as
    the first call of a fresh process does."""

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.parametrize("first, second", [
        (["simulate", "--reversed"], ["simulate"]),
        (["verify", "--seed", "7"], ["verify"]),
        (["verify", "--omega2-offset", "1"], ["verify"]),
        (["analyze", "--bogus"], ["analyze"]),
        (["verify", "--seed", "x"], ["verify", "--eps", "0.01"]),
    ])
    def test_second_parse_equals_a_fresh_parsers(self, first, second):
        try:
            cli.build_parser().parse_args(first)
        except DomainError:
            pass
        fresh = cli.build_parser.__wrapped__()
        assert vars(cli.build_parser().parse_args(second)) == vars(fresh.parse_args(second))

    def test_reversed_does_not_stick(self, tmp_path):
        cfg = write_cfg(tmp_path / "p.cfg",
                        dict(EX2, start_x=0.25, start_y=0.1375, t_max=20))
        assert run(["simulate", "--config", cfg, "--out", tmp_path / "r", "--reversed"]) == 0
        assert run(["simulate", "--config", cfg, "--out", tmp_path / "f"]) == 0
        summary = json.loads((tmp_path / "f" / "simulate.json").read_text())
        assert summary["direction"] == "Forward"
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        subprocess.run([sys.executable, "-m", "canard.cli", "simulate", "--config", cfg,
                        "--out", str(tmp_path / "fresh")], env=env, capture_output=True,
                       check=True, timeout=120)
        for name in ("trajectory.csv", "trajectory.svg", "simulate.json"):
            assert (tmp_path / "f" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()

    def test_seed_and_offset_do_not_stick(self, tmp_path, monkeypatch):
        seen = []
        real_run_all = verify.run_all

        def recording_run_all(seed, omega2_offset):
            seen.append((seed, omega2_offset))
            return real_run_all(seed=seed, omega2_offset=omega2_offset)
        monkeypatch.setattr(verify, "run_all", recording_run_all)
        codes = [run(["verify", "--out", tmp_path / "a", "--seed", "7"]),
                 run(["verify", "--out", tmp_path / "b"]),
                 run(["verify", "--out", tmp_path / "c", "--omega2-offset", "1"]),
                 run(["verify", "--out", tmp_path / "d"])]
        assert seen == [(7, 0.0), (2025, 0.0), (2025, 1.0), (2025, 0.0)]
        assert codes == [0, 0, 2, 0]

    def test_usage_error_then_valid_call(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "p.cfg", EX1)
        assert run(["analyze", "--config", cfg, "--out", tmp_path / "o", "--bogus"]) == 1
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err
        assert run(["analyze", "--config", cfg, "--out", tmp_path / "o"]) == 0
        assert (tmp_path / "o" / "analyze.json").exists()
