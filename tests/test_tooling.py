"""Guards on the library's surface: the traced benchmark run wraps library
functions by name, so each must exist; the CLI's start-up imports what the
tracer needs and nothing heavier; and every module-level function, class or
table in the package has a caller in the package, or a stated reason."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
PACKAGE = ROOT / "src" / "trigasket"

# definitions that no other package code names, each with its reason
NO_CALLER_IN_PACKAGE = {
    "acceptance.run_suite": "the Python entry point the README documents",
    "metric.dist_oracle": "named in perfbench/tracer.py TRACED (ROADMAP item 1)",
    "metric.tensor_dist_G": "named in perfbench/tracer.py TRACED (ROADMAP item 1)",
    "words.embed": "named in perfbench/tracer.py TRACED (ROADMAP item 1)",
    "geometry.in_triangle": "named in perfbench/tracer.py TRACED (ROADMAP item 1)",
    "geometry.render_points": "named in perfbench/tracer.py TRACED (ROADMAP item 1)",
    "spaces.tensor": "the premise criterion of ROADMAP item 17 calls it",
    "spaces.certify": "the premise criterion of ROADMAP item 17 calls it",
    "spaces.SHORT": "the 1-Lipschitz claim the README documents and tests certify with",
}


def _traced() -> dict:
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
        if any(getattr(t, "id", None) == "TRACED" for t in targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TRACED")


def test_traced_names_exist():
    traced = _traced()
    assert traced
    missing = [
        f"{mod}.{name}"
        for mod, names in traced.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"trigasket.{mod}"), name, None))
    ]
    assert missing == []


def test_cli_start_up_loads_the_traced_modules_and_no_dataclasses():
    # a fresh interpreter, since pytest itself imports dataclasses: the
    # tracer imports only trigasket.cli and then looks up every TRACED
    # module, so a module that cli stops importing fails here
    code = (
        "import json, sys, tracer\n"
        "tracer.install('probe')\n"
        "print(json.dumps([m for m in ('dataclasses', 'inspect') if m in sys.modules]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == []


def _names(node: ast.AST) -> set:
    """Every identifier a subtree names: variables, attributes and imports."""
    found = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
        elif isinstance(n, ast.alias):
            found.add(n.name)
    return found


def _defined(node: ast.AST) -> list:
    """The names a module-level statement defines: a function, a class, or
    the plain names an assignment binds, dunders left out."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [
        n.id
        for t in targets
        for n in ast.walk(t)
        if isinstance(n, ast.Name) and not (n.id.startswith("__") and n.id.endswith("__"))
    ]


def test_every_definition_has_a_caller_in_the_package():
    bodies = {p.stem: ast.parse(p.read_text(encoding="utf-8")).body for p in PACKAGE.glob("*.py")}
    named = [(top, _names(top)) for b in bodies.values() for top in b]
    orphans = []
    for mod, body in bodies.items():
        for d in body:
            for name in _defined(d):
                # a definition's own statement does not count as a caller
                if not any(name in names for top, names in named if top is not d):
                    orphans.append(f"{mod}.{name}")
    assert sorted(set(orphans) - set(NO_CALLER_IN_PACKAGE)) == []
    # an allowlisted name that gains a caller leaves the list
    assert sorted(set(NO_CALLER_IN_PACKAGE) - set(orphans)) == []


def test_no_fraction_over_a_shift_in_the_package():
    # a numerator over a power of two is built by numerics.dyadic, the one
    # way the package makes such a value; Fraction(num, 1 << k) would run a
    # gcd for the same result
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "Fraction"
        and any(isinstance(a, ast.BinOp) and isinstance(a.op, ast.LShift) for a in node.args)
    ]
    assert found == []


def _functions(module: str) -> dict:
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    return {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}


def test_plane_and_delta_maps_build_no_fraction_by_constructor():
    # sigma and sigma_inv compute on a point's integer triple (the stricter
    # guard below), and delta_step builds its result with numerics.ratio;
    # Fraction(...) would run the constructor's type checks and gcd on
    # every step
    maps = [("geometry", "sigma"), ("geometry", "sigma_inv"), ("counterexamples", "delta_step")]
    found = [
        f"{mod}.{name}:{node.lineno}"
        for mod, name in maps
        for node in ast.walk(_functions(mod)[name])
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Fraction"
    ]
    assert found == []


def test_plane_maps_build_no_fraction():
    # the maps and the peel compute on a point's integer triple; a Fraction,
    # a ratio or dyadic value, an lcm, or a Point2 by its converting
    # constructor would rebuild the triple or its Fractions on every call
    banned = {"Fraction", "ratio", "dyadic", "lcm", "Point2"}
    functions = _functions("geometry")
    found = [
        f"geometry.{name}:{node.lineno}"
        for name in ("sigma", "sigma_inv", "coords", "address_of", "_peel")
        for node in ast.walk(functions[name])
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) in banned or getattr(node.func, "attr", None) in banned)
    ]
    assert found == []


def test_words_compiles_no_regex():
    # the label check is corner_digits's readout; no pattern reads a label twice
    tree = ast.parse((PACKAGE / "words.py").read_text(encoding="utf-8"))
    imported = {a.name for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))
                for a in n.names}
    modules = {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
    assert "re" not in imported and "re" not in modules
    assert "compile" not in _names(tree)
