"""Source hygiene: no module under src/canard/ or tests/ imports a name that
the importing scope never reads, every module-level private function or class of src/canard is
used in src/canard outside its own definition, cli is the one src/canard module that imports json, so
file formats are decided in one place, no src/canard module imports warnings,
so typed errors are the one failure channel, errors is the one src/canard module
that holds the number and count messages, _kernels.define is the one place in
src/canard that runs generated code, the blow-up kernels it runs are plain
arithmetic in an empty namespace, no src/canard module hands back a status
code, the model's field and Jacobian text read
exactly x, y and the parameter names, the caches of the kernel and stepper
generators that call it are bounded, the modules that serve floats import
numpy only inside their array paths, no CSV field the CLI writes needs
quoting, README names exactly the options every subcommand takes, its
library imports run and every code name it mentions exists, and every
third-party module a test imports is declared in pyproject.toml.  Uses the
stdlib ast module, so no linter is needed."""

import argparse
import ast
import collections
import importlib
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "canard").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py"))


def names_read(tree):
    """The names a tree reads as a variable."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def scoped_nodes(tree):
    """(node, scopes) for each node of tree, scopes being the module and the
    function, lambda and class nodes whose namespace the node is evaluated
    in, outermost first.  A def's decorators, defaults and annotations and
    a class's bases belong to the enclosing scope, its body to its own."""
    out = []

    def visit(node, scopes):
        out.append((node, scopes))
        inner = scopes + (node,) if isinstance(node, SCOPES) else scopes
        for name, value in ast.iter_fields(node):
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.AST):
                    visit(child, inner if name == "body" else scopes)

    visit(tree, (tree,))
    return out


def unused_imports(source: str):
    """(line, name) of each name an import statement binds and its scope
    never reads.  A read belongs to the innermost enclosing scope that
    imports the name, a class body being seen from itself alone, so a
    function's own import is unused when only other scopes read its name.
    `from __future__` imports are exempt, and names listed in a
    module-level __all__ count as read."""
    tree = ast.parse(source)
    nodes = scoped_nodes(tree)
    imported = {}
    for node, scopes in nodes:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault((scopes[-1], name), node.lineno)
    read = set()
    for node, scopes in nodes:
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            visible = [s for s in scopes[:-1] if not isinstance(s, ast.ClassDef)] + [scopes[-1]]
            owner = next((s for s in reversed(visible) if (s, node.id) in imported), None)
            read.add((owner, node.id))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read.update((tree, name) for name in ast.literal_eval(node.value))
    return sorted((line, name) for (scope, name), line in imported.items()
                  if (scope, name) not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detector():
    src = ("from __future__ import annotations\nimport os, sys\n"
           "from a import b as c, d\nimport x.y\n__all__ = ['d']\nprint(sys, x)\n")
    assert unused_imports(src) == [(2, "os"), (3, "c")]


@pytest.mark.parametrize("src, unused", [
    # a function's unused import is not hidden by the name read elsewhere
    ("import os\ndef f():\n    import os\n    return 1\nprint(os)\n", [(3, "os")]),
    ("def f():\n    from a import b\ndef g():\n    from a import b\n    return b\n",
     [(2, "b")]),
    # nor a module import by a function that reads its own import
    ("import os\ndef f():\n    import os\n    return os\n", [(1, "os")]),
    # a nested function reads its enclosing function's import
    ("def f():\n    import os\n    def g():\n        return os\n    return g\n", []),
    # decorators, defaults and annotations read the enclosing scope's names
    ("import a, b, c\ndef f():\n    import a, b, c\n    @a.d\n"
     "    def g(x: b = c):\n        pass\n    return g\n", [(1, "a"), (1, "b"), (1, "c")]),
    # a method does not see its class body's import; the class body does
    ("import os\nclass K:\n    import os\n    def f(self):\n        return os\n",
     [(3, "os")]),
    ("class K:\n    import os\n    here = os\n", []),
    ("def f():\n    import os\n    return lambda: os\n", []),
])
def test_detector_scopes(src, unused):
    assert unused_imports(src) == unused


def orphaned_private_code(sources):
    """(module, name) of each module-level private function or class (not a
    dunder) of the named sources that none of them reads, as a variable or an
    attribute, outside the statement that defines it."""
    statements = [(module, stmt) for module, source in sources.items()
                  for stmt in ast.parse(source).body]
    reads = [names_read(stmt) | {a.attr for a in ast.walk(stmt) if isinstance(a, ast.Attribute)}
             for _, stmt in statements]
    # the number of top-level statements that read each name
    readers = collections.Counter(name for read in reads for name in read)
    return [(module, stmt.name) for (module, stmt), read in zip(statements, reads)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and stmt.name.startswith("_") and not stmt.name.startswith("__")
            and readers[stmt.name] == (stmt.name in read)]


def test_no_orphaned_private_code():
    # a private helper that only tests call is dead code in the package
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in sorted((ROOT / "src" / "canard").glob("*.py"))}
    assert orphaned_private_code(sources) == []


def test_orphan_detector():
    a = ("def _used():\n    pass\ndef _self(n):\n    return _self(n - 1)\n"
         "class _Gone:\n    pass\ndef __dunder__():\n    pass\nvalue = _used()\n")
    b = "import a\ndef _attr():\n    pass\na._attr\n"
    assert orphaned_private_code({"a.py": a, "b.py": b}) == [("a.py", "_self"), ("a.py", "_Gone")]


def imported_modules(source: str):
    """Top-level names of the modules an import statement loads."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            found.add(node.module.split(".")[0])
    return found


def test_only_cli_imports_json():
    users = [p.name for p in sorted((ROOT / "src" / "canard").glob("*.py"))
             if "json" in imported_modules(p.read_text(encoding="utf-8"))]
    assert users == ["cli.py"]


def test_no_module_warns():
    # a failure is a DomainError or NumericsError, never a warning beside a result
    users = [p.name for p in sorted((ROOT / "src" / "canard").glob("*.py"))
             if "warnings" in imported_modules(p.read_text(encoding="utf-8"))]
    assert users == []


RULE_MESSAGES = ("is not a number", "requires an integer")


def rule_message_homes(sources):
    """The modules, errors.py aside, whose text holds a message of the
    number rule or the count rule."""
    return [name for name, text in sources.items()
            if name != "errors.py" and any(m in text for m in RULE_MESSAGES)]


def test_number_and_count_messages_live_in_errors():
    # require_number and require_count are the one home of these messages
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in sorted((ROOT / "src" / "canard").glob("*.py"))}
    assert rule_message_homes(sources) == []


def test_rule_message_detector():
    sources = {"errors.py": 'raise E(f"{what} is not a number: {value!r}")',
               "cli.py": 'raise E(f"setting {key!r} is not a number: {value!r}")',
               "jet.py": 'raise E(f"requires an integer degree >= 0, got {d}")',
               "sdi.py": 'require_count("grid_size", grid_size, 2)'}
    assert rule_message_homes(sources) == ["cli.py", "jet.py"]


def code_builtin_calls(source: str):
    """(enclosing function or None, builtin) for each call of exec, eval or
    compile, by name or through the builtins module."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                f = child.func
                name = (f.id if isinstance(f, ast.Name)
                        else f.attr if isinstance(f, ast.Attribute)
                        and isinstance(f.value, ast.Name) and f.value.id == "builtins"
                        else None)
                if name in ("exec", "eval", "compile"):
                    found.append((owner, name))
            visit(child, owner)

    visit(ast.parse(source), None)
    return found


def test_only_the_kernel_generator_runs_code():
    # generated source runs in one helper, which blowup's kernel generator and
    # the stepper generator call, and what either caches is bounded
    from canard._kernels import _stepper
    from canard.blowup import _kernel

    users = [(p.name, *call) for p in sorted((ROOT / "src" / "canard").glob("*.py"))
             for call in code_builtin_calls(p.read_text(encoding="utf-8"))]
    assert users == [("_kernels.py", "define", "exec")]
    for cached in (_kernel, _stepper):
        maxsize = cached.cache_parameters()["maxsize"]
        assert isinstance(maxsize, int) and 0 < maxsize <= 1024


def test_code_call_detector():
    src = ("import builtins, re\nexec('1')\ndef f():\n    def g():\n        eval('1')\n"
           "    builtins.compile('1', '', 'eval')\n    re.compile('x')\n")
    assert code_builtin_calls(src) == [(None, "exec"), ("g", "eval"), ("f", "compile")]


def error_statements(source: str):
    """The names of the try, except and raise nodes of a source, in walk order."""
    kinds = (ast.Try, ast.TryStar, ast.ExceptHandler, ast.Raise)
    return [type(node).__name__ for node in ast.walk(ast.parse(source))
            if isinstance(node, kinds)]


def test_blowup_kernels_are_plain_arithmetic(monkeypatch):
    # every kernel a verify run generates has no error branch of its own and
    # runs in an empty namespace, so it reads its arguments alone: the checks
    # are its callers'
    from canard import blowup
    from canard.verify import run_all

    define, generated = blowup.define, []

    def recording(source, name, env):
        generated.append((source, dict(env)))
        return define(source, name, env)

    monkeypatch.setattr(blowup, "define", recording)
    blowup._kernel.cache_clear()
    try:
        run_all()
    finally:
        blowup._kernel.cache_clear()
    assert len(generated) >= 5
    assert [(error_statements(source), env) for source, env in generated] == [
        ([], {})] * len(generated)


def test_error_statement_detector():
    src = ("def k(a):\n    try:\n        b = a ** 2\n    except OverflowError:\n"
           "        raise ValueError(a) from None\n    return b\n")
    assert error_statements(src) == ["Try", "ExceptHandler", "Raise"]
    assert error_statements("def k(a, b):\n    c = a * b\n    return c + 0.0\n") == []


def test_no_status_codes():
    # the integrator core raises its own failures; no module returns a status
    # code for a caller to turn into an error
    users = [p.name for p in sorted((ROOT / "src" / "canard").glob("*.py"))
             if "STATUS_" in p.read_text(encoding="utf-8")]
    assert users == []


def free_names(sources):
    """The names a tuple of Python expressions reads, together."""
    return set().union(*(names_read(ast.parse(src, mode="eval")) for src in sources))


def test_model_text_reads_the_model_names():
    # the field and Jacobian text read exactly x, y and the parameters, so a
    # misspelt parameter fails here and not at the first call of what
    # _kernels compiles from it
    from canard.allee import JACOBIAN_SOURCE, MODEL_SOURCE, PARAM_NAMES

    for sources in (MODEL_SOURCE, JACOBIAN_SOURCE):
        assert free_names(sources) == {"x", "y", *PARAM_NAMES}


def test_free_name_detector():
    assert free_names(("x * (alpah - y)", "-x", "eps * m")) == {"x", "y", "alpah", "eps", "m"}


def csv_header_literals(source: str):
    """The string constants in the header argument of each write_csv call."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "write_csv"):
            found.extend(c.value for c in ast.walk(node.args[2])
                         if isinstance(c, ast.Constant) and isinstance(c.value, str))
    return found


def test_csv_fields_need_no_quoting():
    # write_csv quotes nothing, so no identifier the CLI writes as a CSV
    # field may hold a delimiter, a quote or a line break
    from canard.allee import PARAM_NAMES, PSI_TAGS
    from canard.cli import SWEEP_COLUMNS

    headers = csv_header_literals((ROOT / "src" / "canard" / "cli.py").read_text(encoding="utf-8"))
    assert {"t", "x", "y", "s", "integral"} <= set(headers)
    for text in headers + list(PARAM_NAMES + SWEEP_COLUMNS + PSI_TAGS) + ["case"]:
        assert not set(text) & set(',"\r\n'), text


def module_level_imports(source: str):
    """Top-level names of the modules imported outside every function and
    class body: those that importing the module loads."""
    found = set()

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, SCOPES):
                continue
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                found.update(imported_modules(ast.unparse(child)))
            visit(child)

    visit(ast.parse(source))
    return found


def test_scalar_modules_leave_numpy_to_their_array_paths():
    # these modules serve floats, so importing one loads no numpy: each
    # imports it inside the functions that take arrays
    for name in ("_kernels", "dynamics", "allee", "normalform", "_svg"):
        source = (ROOT / "src" / "canard" / f"{name}.py").read_text(encoding="utf-8")
        assert "numpy" not in module_level_imports(source), name


def test_module_level_import_detector():
    src = ("import os\nif True:\n    import numpy as np\ndef f():\n    import sys\n"
           "class K:\n    import json\nfrom re import compile\n")
    assert module_level_imports(src) == {"os", "numpy", "re"}


def test_import_detector():
    src = "import json.decoder\nfrom json import dumps\nfrom . import json_like\n"
    assert imported_modules(src) == {"json"}


def undeclared_imports(source: str, declared, local):
    """The top-level modules a source imports, by an import statement or by
    pytest.importorskip, that are neither standard library, declared nor
    local, sorted."""
    found = imported_modules(source)
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "importorskip" and node.args
                and isinstance(node.args[0], ast.Constant)):
            found.add(node.args[0].value.split(".")[0])
    return sorted(found - set(sys.stdlib_module_names) - set(declared) - set(local))


def declared_modules():
    """The import names of pyproject.toml's dependencies and extras."""
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    requirements = project["dependencies"] + [
        r for extra in project.get("optional-dependencies", {}).values() for r in extra]
    return {re.match(r"[\w.-]+", r).group().lower().replace("-", "_") for r in requirements}


def test_test_imports_are_declared():
    # a test that needs a package pyproject.toml does not name fails or
    # skips on a clean install of the test extra
    declared = declared_modules()
    tests = sorted((ROOT / "tests").glob("*.py"))
    local = {"canard", *(p.stem for p in tests)}
    assert {p.name: undeclared_imports(p.read_text(encoding="utf-8"), declared, local)
            for p in tests} == {p.name: [] for p in tests}


def test_undeclared_import_detector():
    src = ("import os, numpy\nimport scipy.linalg\nfrom sympy import Symbol\n"
           "import hopf_reference\nfrom canard import blowup\nfrom . import near\n"
           "sp = pytest.importorskip('numba.core')\nre.compile('x')\n")
    assert undeclared_imports(src, {"numpy", "sympy"}, {"canard", "hopf_reference"}) == [
        "numba", "scipy"]


def readme_common_options():
    """The backticked flags of README's "Options common to all" sentence."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    sentence = re.search(r"Options common to all:(.*?`)\.\s", text, re.S).group(1)
    return set(re.findall(r"`(--[\w-]+)", sentence))


def test_readme_lists_the_common_options():
    from canard.cli import build_parser

    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    per_command = [{s for a in sp._actions for s in a.option_strings
                    if s not in ("-h", "--help")} for sp in sub.choices.values()]
    assert readme_common_options() == set.intersection(*per_command)


def test_readme_entry_points_import():
    # every import line of README's "Library entry points" block runs, so
    # a removed or renamed name cannot leave the docs stale
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library entry points\s+```python\n(.*?)```", text, re.S).group(1)
    lines = [line for line in block.splitlines() if line.startswith(("from ", "import "))]
    assert len(lines) >= 5
    for line in lines:
        exec(line, {})


def code_names(text: str):
    """The backticked private names (`_name`, `_name.attr`; not dunders) and
    the canard.<module>.<name> paths of a text."""
    private = re.findall(r"`(_(?!_)\w+(?:\.\w+)*)`", text)
    return sorted(set(private)), sorted(set(re.findall(r"\bcanard(?:\.\w+)+", text)))


def resolve(path: str, scopes) -> bool:
    """Whether the dotted path names an object: its head an attribute of one
    of scopes, each further part an attribute of the one before."""
    head, *rest = path.split(".")
    found = [getattr(s, head) for s in scopes if hasattr(s, head)]
    for obj in found:
        for part in rest:
            obj = getattr(obj, part, None)
        if obj is not None:
            return True
    return False


def test_readme_code_names_resolve():
    # a deleted or renamed function cannot stay named in the docs
    import canard

    modules = [importlib.import_module(f"canard.{p.stem}")
               for p in sorted((ROOT / "src" / "canard").glob("*.py")) if p.stem != "__init__"]
    private, dotted = code_names((ROOT / "README.md").read_text(encoding="utf-8"))
    assert private and dotted
    assert [n for n in private if not resolve(n, [canard, *modules])] == []
    assert [n for n in dotted if not resolve(n.partition(".")[2], [canard])] == []


def test_code_name_detector():
    text = "`_a`, `__name__`, `_b.c` and canard.x.y. in `canard.z` `not_private`"
    assert code_names(text) == (["_a", "_b.c"], ["canard.x.y", "canard.z"])
    import canard.blowup

    assert resolve("blowup._partials", [canard])
    assert resolve("_partials", [canard.blowup])
    assert not resolve("blowup._gone", [canard])
    assert not resolve("_gone", [canard, canard.blowup])
