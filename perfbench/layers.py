"""Per-layer metrics of the traced run.

Each layer is measured on the workload that exercises it (its home):

    oracle   jet, blowup, verify          -> oracle ops_per_s, op_p50_ms, op_tail_ms
    orbits   dynamics (covers _kernels)   -> orbits ops_per_s, op_p50_ms, op_tail_ms
    cli      normalform, allee, sdi, cli/_svg
                                          -> cli op_p50_ms, op_tail_ms, ops_per_s
    import   numpy, scipy, canard         -> setup_s everywhere

``.calls`` are exact counts per pass, ``.s`` is inclusive time of the
outermost spans of a name, ``.self_s`` is span time not covered by child
spans.  A metric whose function is not found in canard is reported as 0
and listed as absent.
"""

from __future__ import annotations

import statistics
import subprocess
import sys

from tracing import SpanSummary

IMPORT_OWNERS = ("numpy", "scipy", "canard")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def oracle_layers(s: SpanSummary) -> tuple:
    m = {"jet.calls": s.layer_calls("jet"), "jet.self_s": s.layer_self("jet"),
         "blowup.self_s": s.layer_self("blowup")}
    needs = {"jet.calls": ("jet.",), "jet.self_s": ("jet.",),
             "blowup.self_s": ("blowup.",)}
    for fn in ("hopf_lambda1", "l1_blowup"):
        m[f"blowup.{fn}.calls"] = s.calls_of(f"blowup.{fn}")
        m[f"blowup.{fn}.s"] = s.incl_of(f"blowup.{fn}")
    m["blowup.find_equilibrium.calls"] = s.calls_of("blowup.find_equilibrium")
    m["blowup.find_equilibrium.self_s"] = s.self_of("blowup.find_equilibrium")
    m["blowup.normalize_linear.self_s"] = s.self_of("blowup.normalize_linear")
    m["blowup.sample_record.s"] = s.incl_of("blowup.sample_record")
    hopf = s.calls_of("blowup.hopf_lambda1")
    m["blowup.solves_per_hopf"] = _ratio(
        s.count_under("blowup.blow_up", "blowup.hopf_lambda1"), hopf)
    needs["blowup.solves_per_hopf"] = ("blowup.blow_up", "blowup.hopf_lambda1")
    m["blowup.sample_record.accept_ratio"] = _ratio(
        s.ok_calls("blowup.sample_record"),
        s.count_under("blowup.hopf_lambda1", "blowup.sample_record"))
    needs["blowup.sample_record.accept_ratio"] = ("blowup.sample_record",
                                                  "blowup.hopf_lambda1")
    for fn in ("fit_l1_omega1", "fit_l1_omega2", "fit_rho"):
        m[f"verify.{fn}.s"] = s.incl_of(f"verify.{fn}")
    return m, needs


def orbits_layers(s: SpanSummary) -> tuple:
    m = {}
    for fn in ("integrate", "return_map"):
        m[f"dynamics.{fn}.calls"] = s.calls_of(f"dynamics.{fn}")
        m[f"dynamics.{fn}.s"] = s.incl_of(f"dynamics.{fn}")
    m["dynamics.region_excursion.s"] = s.incl_of("dynamics.region_excursion")
    steps = s.log.counters.get("dynamics.integrate.steps", 0)
    m["dynamics.integrate.steps"] = steps
    m["dynamics.integrate.steps_per_s"] = _ratio(steps, m["dynamics.integrate.s"])
    needs = {"dynamics.integrate.steps": ("dynamics.integrate",),
             "dynamics.integrate.steps_per_s": ("dynamics.integrate",)}
    return m, needs


def cli_layers(s: SpanSummary) -> tuple:
    m = {}
    for layer in ("normalform", "allee"):
        m[f"{layer}.calls"] = s.layer_calls(layer)
        m[f"{layer}.self_s"] = s.layer_self(layer)
    m["sdi.slow_divergence_integral.calls"] = s.calls_of("sdi.slow_divergence_integral")
    m["sdi.integrand_evals"] = s.calls_of("sdi.h_slow")
    m["sdi.self_s"] = s.layer_self("sdi")
    writers = ["cli.write_csv"] + [n for n in s.log.wrapped if n.startswith("_svg.")]
    m["cli.write.s"] = s.union_incl(writers)
    needs = {"normalform.calls": ("normalform.",), "normalform.self_s": ("normalform.",),
             "allee.calls": ("allee.",), "allee.self_s": ("allee.",),
             "sdi.integrand_evals": ("sdi.h_slow",), "sdi.self_s": ("sdi.",),
             "cli.write.s": ("cli.write_csv", "_svg.")}
    return m, needs


def cli_wall_layers(passes) -> dict:
    """Wall time per subcommand (median over the untraced passes) and
    bytes written per pass."""
    records = [r for recs in passes for r in recs]
    m = {}
    for kind in ("analyze", "sweep", "sdi", "simulate"):
        walls = [r.seconds for r in records if r.spec[0] == kind]
        m[f"cli.{kind}.s"] = statistics.median(walls) if walls else 0.0
    m["cli.bytes_out"] = sum(r.bytes_out for r in passes[0])
    return m


HOME_LAYERS = {"oracle": oracle_layers, "orbits": orbits_layers, "cli": cli_layers}


def absent_metrics(summary: SpanSummary, needs: dict, metrics: dict) -> list:
    """Metrics that depend on a function the tracer did not find."""
    wrapped = summary.log.wrapped

    def found(name):
        if name.endswith("."):
            return any(w.startswith(name) for w in wrapped)
        return name in wrapped

    out = []
    for metric in metrics:
        names = needs.get(metric)
        if names is None:
            parts = metric.split(".")
            names = (".".join(parts[:2]),) if len(parts) == 3 else ()
        if not all(found(n) for n in names):
            out.append(metric)
    return out


def parse_importtime(text: str) -> dict:
    """Seconds of import time owned by numpy, scipy and canard.

    ``-X importtime`` prints a module after the modules it imported, one
    indentation level deeper.  Each module's self time goes to its
    nearest enclosing numpy/scipy/canard module (itself included), so a
    stdlib module that canard pulls in counts as canard."""
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue
        raw = parts[2]
        level = len(raw) - len(raw.lstrip(" "))
        rows.append((level, int(parts[0]), raw.strip()))
    totals = dict.fromkeys(IMPORT_OWNERS, 0)
    stack = []
    for level, self_us, name in reversed(rows):
        while stack and stack[-1][0] >= level:
            stack.pop()
        top = name.split(".")[0]
        owner = top if top in totals else (stack[-1][1] if stack else None)
        if owner is not None:
            totals[owner] += self_us
        stack.append((level, owner))
    return {f"import.{k}_s": v / 1e6 for k, v in totals.items()}


def import_layers(root: str, env: dict, samples: int = 3) -> dict:
    runs = []
    for _ in range(samples):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import canard.cli"],
                              cwd=root, env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        runs.append(parse_importtime(proc.stderr))
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}
