"""Runtime reachability: every function defined in the package is entered
by `trigasket verify --suite all` or by one of the benchmark's 170 golden
CLI invocations, unless UNENTERED says why not.

The static guard in test_tooling.py asks only that some package code names
a definition; this one asks that a run reaches it. The invocations run in
process under `sys.settrace`, in a fresh interpreter, so that no state an
earlier test left (the oracle's `lru_cache`, say) hides a function from the
trace. A function counts as entered when a frame of its code object starts.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "trigasket"
GOLDEN = ROOT / "perfbench" / "golden.json"

ITEM_17 = "the premise checks of ROADMAP item 17; only tests reach them"
VALUE_TYPE = "value-type contract: tests/test_value_types.py and the module's tests pin it"
TRACED = "named in perfbench/tracer.py TRACED (ROADMAP item 1)"
FAILURE = "runs only when a check fails"

# definitions no run enters, each with its reason; a class or a function
# stands for every definition inside it
UNENTERED = {
    "acceptance._prefix_text": FAILURE,
    "acceptance.run_suite": "the Python entry point the README documents",
    "cli.entry": "the process entry; the runs call main() in process",
    "counterexamples.DeltaPoint.__str__": VALUE_TYPE,
    "counterexamples.delta_space.<locals>.dist": ITEM_17,
    "geometry.Point2.__ge__": VALUE_TYPE,
    "geometry.Point2.__getnewargs__": VALUE_TYPE,
    "geometry.Point2.__gt__": VALUE_TYPE,
    "geometry.Point2.__hash__": VALUE_TYPE,
    "geometry.Point2.__le__": VALUE_TYPE,
    "geometry.Point2.__lt__": VALUE_TYPE,
    "geometry.Point2.__repr__": VALUE_TYPE,
    "geometry.Point2.__str__": VALUE_TYPE,
    "geometry.Point2._pair": VALUE_TYPE,
    "geometry.Point2.sq_dist": VALUE_TYPE,
    "geometry.gasket_space.<locals>.dist": ITEM_17,
    "geometry.in_triangle": TRACED,
    "geometry.render_points": TRACED,
    "metric.dist_oracle": TRACED,
    "metric.tensor_dist_G": TRACED,
    "numerics.RadicalSum": ITEM_17,
    "numerics._sgn": ITEM_17,
    "numerics._sign_one_radical": ITEM_17,
    "numerics._sqrt_exact": ITEM_17,
    "numerics.sqrt_fraction": ITEM_17,
    "spaces.MapWitness.__new__": ITEM_17,
    "spaces.TriPointedSpace.is_finite": ITEM_17,
    "spaces.TriPointedSpace.marked": ITEM_17,
    "spaces._tensor_dist": ITEM_17,
    "spaces.certify": ITEM_17,
    "spaces.glue_normalize": ITEM_17,
    "spaces.lipschitz": ITEM_17,
    "spaces.tensor": ITEM_17,
    "spaces.validate_space": ITEM_17,
    "words.AddressWord.__delattr__": VALUE_TYPE,
    "words.AddressWord.__ge__": VALUE_TYPE,
    "words.AddressWord.__gt__": VALUE_TYPE,
    "words.AddressWord.__le__": VALUE_TYPE,
    "words.AddressWord.__reduce__": VALUE_TYPE,
    "words.AddressWord.__lt__": VALUE_TYPE,
    "words.AddressWord.__repr__": VALUE_TYPE,
    "words.AddressWord.__setattr__": VALUE_TYPE,
    "words.AddressWord.__str__": VALUE_TYPE,
    "words.CanonicalAddress.__new__": VALUE_TYPE,
    "words.CanonicalAddress.__str__": VALUE_TYPE,
    "words.CanonicalAddress.level": VALUE_TYPE,
    "words.embed": TRACED,
}

# Runs in a fresh interpreter: argv[1] is golden.json, argv[2] the directory
# the renders write to. Prints the (module, first line, name) of every
# package code object that started a frame.
TRACE_RUN = """
import contextlib, io, json, sys
from pathlib import Path
from trigasket import cli

package = Path(cli.__file__).resolve().parent
golden = json.loads(Path(sys.argv[1]).read_text())["cli"]
runs = [["verify", "--suite", "all"]]
for entry in golden["light"] + golden["render"]:
    argv = list(entry["argv"])
    if "--out" in argv:
        i = argv.index("--out") + 1
        argv[i] = str(Path(sys.argv[2]) / Path(argv[i]).name)
    runs.append(argv)

entered = set()

def trace(frame, event, arg):
    entered.add(frame.f_code)

previous = sys.gettrace()
sys.settrace(trace)
try:
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [cli.main(argv) for argv in runs]
finally:
    sys.settrace(previous)
starts = {
    (Path(c.co_filename).stem, c.co_firstlineno, c.co_name)
    for c in entered
    if Path(c.co_filename).resolve().parent == package
}
print(json.dumps({"runs": len(runs), "codes": sorted(set(codes)), "entered": sorted(starts)}))
"""


def _definitions() -> dict:
    """(module, first line, name) -> dotted qualified name of every `def`
    in the package. A decorated function's code starts at its first
    decorator."""
    found = {}

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(module, first, child.name)] = f"{module}.{prefix}{child.name}"
                visit(child, module, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, module, f"{prefix}{child.name}.")
            else:
                visit(child, module, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, "")
    return found


def _covers(entry: str, name: str) -> bool:
    return name == entry or name.startswith(entry + ".")


def test_every_function_is_entered_or_says_why_not(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, "-c", TRACE_RUN, str(GOLDEN), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout)
    assert (result["runs"], result["codes"]) == (171, [0])

    definitions = _definitions()
    starts = map(tuple, result["entered"])
    entered = {definitions[s] for s in starts if s in definitions}
    unentered = set(definitions.values()) - entered
    unexplained = sorted(n for n in unentered if not any(_covers(e, n) for e in UNENTERED))
    assert unexplained == []
    # an entry leaves the list once anything it stands for is entered, and
    # an entry that stands for nothing is stale
    reached = sorted(e for e in UNENTERED if any(_covers(e, n) for n in entered))
    assert reached == []
    stale = sorted(e for e in UNENTERED if not any(_covers(e, n) for n in unentered))
    assert stale == []
