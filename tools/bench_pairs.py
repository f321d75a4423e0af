#!/usr/bin/env python3
"""Measure a parent revision against a change with one harness.

Run from anywhere inside the repository:

    python3 tools/bench_pairs.py --parent REV --name 33 --workload verify \\
        --pairs 10 --seed 201 --seconds 20

The change is this checkout, or with `--change REV` a committed revision,
so that both sides of a pair can be past commits. Each revision is exported
with `git archive` into a temporary directory, which is removed afterwards,
so the repository itself is left as it was; `perfbench/out` is created
there, since the `cli` workload's renders write into it. The workers write
their bytecode under this checkout's `perfbench/out/pycache`, by source
path, so the trees compiled from the temporary directory are removed with
it. This checkout's
`perfbench/run.py` then runs on both trees in turn, with the working
directory set to each tree, so that one harness measures both. Pair i uses
seed SEED + i and alternates which tree runs first. The result goes to
`BENCH_<name>.json` at the root of this checkout: both commits, each pair's
end-to-end metrics and correctness, and per metric the medians, the
parent's quartiles, the win count and a verdict against the bounds in
`BENCHMARK.json`.

A verdict reads `better` when there are at least ten pairs, the change wins
at least nine tenths of them (ties count for neither) and the medians
differ by more than the parent's interquartile range; `worse` when the
change's median is worse than the parent's by more than the bound;
`unresolved` when neither holds and the parent's own interquartile range is
wider than the bound, unless every run of the change reads better than
every run of the parent; else `within bound`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
RUN_PY = ROOT / "perfbench" / "run.py"
# run.py's PYTHONPYCACHEPREFIX: the bytecode of /x/y.py goes under PYCACHE/x
PYCACHE = RUN_PY.parent / "out" / "pycache"

# the fewest pairs on which a gain is claimed
MIN_PAIRS_FOR_GAIN = 10

# (tree, workload, seed, seconds) -> run.py's stdout
Runner = Callable[[Path, str, int, float], str]


def run_harness(tree: Path, workload: str, seed: int, seconds: float) -> str:
    """One untraced run.py run with `tree` as its working directory."""
    argv = [sys.executable, str(RUN_PY), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    run = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if run.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} in {tree} exited {run.returncode}: {run.stderr}")
    return run.stdout


def parse_result(stdout: str) -> dict:
    """run.py's last stdout line: correctness, counts and each metric's value."""
    line = stdout.rstrip("\n").rsplit("\n", 1)[-1]
    result = json.loads(line)
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def run_pairs(trees: dict[str, Path], workload: str, seeds: list[int], seconds: float,
              runner: Runner = run_harness) -> list[dict]:
    """One pair per seed, alternating which side runs first."""
    pairs = []
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = parse_result(runner(trees[side], workload, seed, seconds))
        pairs.append(pair)
    return pairs


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """The comparison of one metric over paired runs (see the module docstring)."""
    sign = 1 if better == "higher" else -1
    pm, cm = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    rel = sign * (cm - pm) / abs(pm) if pm else 0.0
    enough = len(parent) >= MIN_PAIRS_FOR_GAIN
    if enough and wins >= 0.9 * len(parent) and sign * (cm - pm) > q3 - q1:
        word = "better"
    elif rel < -bound:
        word = "worse"
    elif pm and (q3 - q1) / abs(pm) > bound and not (
        min(sign * c for c in change) > max(sign * p for p in parent)
    ):
        word = "unresolved"
    else:
        word = "within bound"
    return {
        "parent_median": pm,
        "change_median": cm,
        "parent_q1": q1,
        "parent_q3": q3,
        "change_pct": 100.0 * (cm - pm) / pm if pm else None,
        "wins": wins,
        "pairs": len(parent),
        "bound": bound,
        "better": better,
        "verdict": word,
    }


def summarize(pairs: list[dict], bounds: list[dict]) -> dict:
    """Every end-to-end metric's verdict, plus whether every run was correct."""
    summary = {
        "all_correct": all(p[side]["correct"] for p in pairs for side in ("parent", "change")),
        "metrics": {},
    }
    for b in bounds:
        name = b["name"]
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        summary["metrics"][name] = verdict(parent, change, b["better"], b["bound"])
    return summary


def _git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def export_tree(rev: str, dest: Path, repo: Path = ROOT) -> str:
    """Write the files of `rev` in `repo` into `dest`; return its commit."""
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}", cwd=repo)
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=repo,
                             check=True, capture_output=True).stdout
    dest.mkdir(parents=True, exist_ok=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return commit


def src_digest(tree: Path) -> str:
    """sha256 over the paths and bytes of every file under src/trigasket."""
    h = hashlib.sha256()
    for path in sorted((tree / "src" / "trigasket").rglob("*.py")):
        h.update(path.relative_to(tree).as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def measure(args: argparse.Namespace, trees: dict[str, Path], commits: dict[str, str],
            uncommitted: bool, runner: Runner = run_harness) -> dict:
    """The whole report for the parent's tree and the change's: `trees` and
    `commits` give each side's directory and commit, and `uncommitted` says
    whether the change's directory differs from its commit."""
    for tree in trees.values():
        (tree / "perfbench" / "out").mkdir(parents=True, exist_ok=True)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seeds = [args.seed + i for i in range(args.pairs)]
    report = {
        "parent": {"commit": commits["parent"], "src_sha256": src_digest(trees["parent"])},
        "change": {
            "commit": commits["change"],
            "uncommitted_changes": uncommitted,
            "src_sha256": src_digest(trees["change"]),
        },
        "python": platform.python_version(),
        "harness": "perfbench/run.py of the change",
        "seconds": args.seconds,
        "workloads": {},
    }
    for workload in args.workload:
        pairs = run_pairs(trees, workload, seeds, args.seconds, runner)
        report["workloads"][workload] = {
            "pairs": pairs,
            "summary": summarize(pairs, bench["end_to_end"]),
        }
    return report


def main(argv: "list[str] | None" = None, runner: Runner = run_harness,
         repo: Path = ROOT) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="the parent revision, e.g. HEAD~1")
    ap.add_argument("--change", help="the change's revision; default: this checkout as it is")
    ap.add_argument("--name", required=True, help="writes BENCH_<name>.json at the root")
    ap.add_argument("--workload", action="append", required=True,
                    help="a workload of BENCHMARK.json; repeat for several")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, required=True, help="the first pair's seed")
    ap.add_argument("--seconds", type=float, default=20.0)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2, for quartiles")
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        try:
            trees = {"parent": Path(tmp) / "parent", "change": repo}
            commits = {"parent": export_tree(args.parent, trees["parent"], repo)}
            if args.change is None:
                commits["change"] = _git("rev-parse", "HEAD", cwd=repo)
                uncommitted = bool(_git("status", "--porcelain", "--untracked-files=no", cwd=repo))
            else:
                trees["change"] = Path(tmp) / "change"
                commits["change"] = export_tree(args.change, trees["change"], repo)
                uncommitted = False
            report = measure(args, trees, commits, uncommitted, runner)
        finally:
            # the workers saw the directory as their working directory, by its real path
            real = Path(tmp).resolve()
            shutil.rmtree(PYCACHE / real.relative_to(real.anchor), ignore_errors=True)
    out = repo / f"BENCH_{args.name}.json"
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for workload, entry in report["workloads"].items():
        print(f"{workload}: every run correct: {entry['summary']['all_correct']}")
        for name, m in entry["summary"]["metrics"].items():
            print(f"{workload} {name}: {m['parent_median']:.4g} -> {m['change_median']:.4g} "
                  f"({m['wins']}/{m['pairs']} wins) {m['verdict']}")
    print(f"wrote {os.path.relpath(out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
