#!/usr/bin/env python3
"""Run each catalogued mutant against Tier-1 and `verify`; write a kill matrix.

Run from anywhere inside the repository:

    python3 tools/mutants.py --out mutants.json

Each entry of `CATALOGUE` names a file, the exact text to replace, which
must occur once in it, the replacement and the reason the mutant is kept.
For each mutant, and first for the unmutated tree as a control, the script
copies this checkout's `src`, `tests`, `tools`, `perfbench` (without its
`out`), `pyproject.toml`, `BENCHMARK.json` and `BENCH_*.json` into a fresh
temporary directory and applies the mutant there. The copy must hold
`pyproject.toml` as well as `src`: its `pythonpath = ["src"]` makes pytest
import the `src` beside the rootdir whatever `PYTHONPATH` says, so a run
from this checkout would test the unmutated code. The rest is what the
tests read. In the copy it runs Tier-1 with `-x`, then
`trigasket verify --suite all`, then each test of `FOCUSED` alone, and
records for each whether it killed the mutant, with Tier-1's first failing
test and the failing criteria. The matrix goes to `--out` as JSON. The
control must pass every check; a mutant that every check passes survived.
A run takes up to a minute per mutant, most of it Tier-1.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    reason: str


METRIC = "src/trigasket/metric.py"
WORDS = "src/trigasket/words.py"

CATALOGUE: tuple[Mutant, ...] = (
    Mutant("via-constant", METRIC, "via = 3 * s", "via = 2 * s",
           "the via route's middle leg crosses the third copy at cost 1, 2^m over 2^m"),
    Mutant("mask", METRIC, "mask = s - 1", "mask = s",
           "below the junction bit m each word keeps its low m digits only"),
    Mutant("direct-terminal", METRIC, " - (du == cp)", "",
           "a word whose terminal is the direct corner is one unit nearer to it"),
    Mutant("via-corner-index", METRIC, "via = 3 * s - (tu[r] & mask)",
           "via = 3 * s - (tu[p] & mask)",
           "the via route leaves u through the via corner, not the direct one"),
    Mutant("direct-constant", METRIC, "direct = 2 * s -", "direct = 2 * s + 1 -",
           "the direct route is two half-copies, 2^m + 2^m over 2^m"),
    Mutant("tensor-prefix-shift", METRIC,
           "_LABEL_DIGITS[mu], _padded(u, n), n), u.terminal,\n"
           "        _prefixed(_LABEL_DIGITS[mv], _padded(v, n), n), v.terminal,",
           "_LABEL_DIGITS[mu], _padded(u, n), n + 1), u.terminal,\n"
           "        _prefixed(_LABEL_DIGITS[mv], _padded(v, n), n + 1), v.terminal,",
           "the label's digit goes directly above the n padded digits"),
    Mutant("tensor-labels-swapped", METRIC,
           "_LABEL_DIGITS[mu], _padded(u, n), n), u.terminal,\n"
           "        _prefixed(_LABEL_DIGITS[mv], _padded(v, n), n), v.terminal,",
           "_LABEL_DIGITS[mv], _padded(u, n), n), u.terminal,\n"
           "        _prefixed(_LABEL_DIGITS[mu], _padded(v, n), n), v.terminal,",
           "copy mu holds u and copy mv holds v"),
    Mutant("junction-packing", METRIC, "(ut >> m & 1) << 3 | (ur >> m & 1) << 2",
           "(ut >> m & 1) << 2 | (ur >> m & 1) << 3",
           "a copy's code is 2*T + R, packed as code(m) << 2 | code(m2)"),
    Mutant("reduce-class", WORDS, "return self.__class__, (self.labels, self.terminal)",
           "return AddressWord, (self.labels, self.terminal)",
           "a pickled or copied canonical address is rebuilt as one, through its checks"),
    Mutant("canonicalize-keeps-plain-word", WORDS,
           "return _word_with(CanonicalAddress, labels, d, w.toward)", "return w",
           "canonicalize returns a CanonicalAddress, even of a word already in canonical form"),
    Mutant("canonical-at-reversed", WORDS, '"".join(reversed(prefix)) + m', '"".join(prefix) + m',
           "the prefix's base-3 digits are read most significant first"),
)

# tests run alone as well, so that the matrix shows what each kills even
# when an earlier test stops Tier-1's -x run first
FOCUSED = ("tests/test_metric.py::test_each_cell_side_is_freyds_interval",)

# what the copy holds: the code, the tests and every file the tests read
COPIED = ("src", "tests", "tools", "perfbench", "pyproject.toml", "BENCHMARK.json")


def copy_tree(dest: Path, root: Path = ROOT) -> None:
    """The files a Tier-1 run reads, from `root` into `dest`."""
    for name in COPIED:
        path = root / name
        if path.is_dir():
            shutil.copytree(path, dest / name,
                            ignore=shutil.ignore_patterns("out", "__pycache__", ".hypothesis"))
        else:
            shutil.copy2(path, dest / name)
    for path in root.glob("BENCH_*.json"):
        shutil.copy2(path, dest / path.name)


def apply(mutant: Mutant, tree: Path) -> None:
    """Replace the mutant's one occurrence of its old text in `tree`."""
    path = tree / mutant.file
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: old text occurs {text.count(mutant.old)} times "
                         f"in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def run_checks(tree: Path) -> dict:
    """Tier-1 with -x, verify and each FOCUSED test, in `tree`: which
    failed, and how."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    tier1 = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "-rfE",
         "--continue-on-collection-errors"],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    first = re.search(r"^(?:FAILED|ERROR) (\S+)", tier1.stdout, re.M)
    verify = subprocess.run(
        [sys.executable, "-m", "trigasket.cli", "verify", "--suite", "all"],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    failed = [int(n) for n in re.findall(r"^\[FAIL\] +(\d+)", verify.stdout, re.M)]
    focused = {
        test: subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", test],
            cwd=tree, env=env, capture_output=True, text=True,
        ).returncode != 0
        for test in FOCUSED
    }
    return {
        "tier1": {"killed": tier1.returncode != 0, "first_failure": first and first.group(1)},
        "verify": {"killed": verify.returncode != 0, "failed_criteria": failed},
        "focused_killed": focused,
    }


def killed(result: dict) -> bool:
    """Whether any check of `run_checks` failed."""
    return (result["tier1"]["killed"] or result["verify"]["killed"]
            or any(result["focused_killed"].values()))


def run_one(mutant: Mutant | None) -> dict:
    """The checks on a fresh copy, mutated unless `mutant` is None."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        copy_tree(tree)
        if mutant is not None:
            apply(mutant, tree)
        return run_checks(tree)


def main(argv: "list[str] | None" = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="the kill matrix, as JSON")
    args = ap.parse_args(argv)
    control = run_one(None)
    if killed(control):
        print(f"the unmutated tree fails: {json.dumps(control)}", file=sys.stderr)
        return 1
    rows = []
    for mutant in CATALOGUE:
        result = run_one(mutant)
        rows.append({"name": mutant.name, "file": mutant.file, "reason": mutant.reason,
                     **result, "survived": not killed(result)})
        print(f"{mutant.name}: tier1 {result['tier1']['first_failure'] or 'passed'}, "
              f"verify fails {result['verify']['failed_criteria'] or 'none'}", flush=True)
    Path(args.out).write_text(json.dumps({"control": control, "mutants": rows}, indent=1) + "\n",
                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
