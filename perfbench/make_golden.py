#!/usr/bin/env python3
"""Write golden.json: the exact outputs every benchmark operation is checked against.

Run from the repository root at the commit whose outputs are the reference:

    python3 perfbench/make_golden.py

The dist pools are regenerated from fixed seeds by run.py; only their
digests and the digest of each exact result are stored. The cli entries
store the argument lists too, because building some of them (points on the
gasket) needs the library.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

import run

CLI_POOL = 24
CHUNK = 100  # pairs per worker, so the metric memo stays small


def _results(job: dict) -> list[str]:
    out, child = run.run_job(job)
    if out is None:
        raise SystemExit(f"worker failed: {child.stderr.decode(errors='replace')[-2000:]}")
    return out["results"]


def dist_cold() -> dict:
    entry = {"pool_sha256": {}}
    for level in run.COLD_TIERS:
        pool = run.cold_pool(level)
        texts = []
        for i in range(0, len(pool), CHUNK):
            texts += _results({"kind": "dist-cold", "pairs": pool[i:i + CHUNK], "probes": []})
        entry["pool_sha256"][f"L{level}"] = run.pool_digest(pool)
        entry[f"L{level}"] = "".join(run.digest(t) for t in texts)
    return entry


def dist_matrix() -> dict:
    entry = {"pool_sha256": {}}
    for level in run.MATRIX_LEVELS:
        pool = run.matrix_pool(level)
        texts = _results({"kind": "dist-matrix", "matrices": [{"level": level, "points": pool}]})
        entry["pool_sha256"][f"L{level}"] = run.pool_digest(pool)
        entry[f"L{level}"] = "".join(run.digest(t) for t in texts)
    return entry


def cli_argv() -> list[tuple[str, list[str]]]:
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    from fractions import Fraction

    from trigasket.geometry import coords
    from trigasket.words import parse_word

    rng = random.Random("cli")
    word = lambda lo, hi: run._word(rng, rng.randint(lo, hi))  # noqa: E731

    def point(lo: int, hi: int) -> tuple[str, str]:
        p = coords(parse_word(word(lo, hi)))
        return str(p.x.u), str(p.y.v)

    entries = []
    for _ in range(CLI_POOL):
        n = rng.randint(6, 20)
        x, y = point(1, 10)
        gx, gy = point(1, 8)
        q = rng.randint(1, 1000)
        s = "apex" if rng.random() < 0.1 else str(Fraction(rng.randint(0, q), q))
        entries += [
            ("normalize", ["normalize", word(1, 20)]),
            ("dist", ["dist", "--level", str(n), run._word(rng, n), run._word(rng, n)]),
            ("gdist", ["gdist", word(1, 20), word(1, 20)]),
            ("coords", ["coords", word(1, 20)]),
            ("address", ["address", "--x", x, "--y-coeff", y, "--depth", "12"]),
            ("mediate-gasket", ["mediate", "--coalgebra", "gasket-sigma", "--point", f"{gx},{gy}",
                                "--depth", str(rng.randint(6, 14))]),
            ("mediate-delta", ["mediate", "--coalgebra", "delta", "--point", s,
                               "--depth", str(rng.randint(6, 14))]),
        ]
    for fmt in ("svg", "points"):
        out = os.path.relpath(os.path.join(run.OUT, f"render.{fmt}"), run.ROOT)
        entries.append(("render", ["render", "--depth", str(run.RENDER_DEPTH), "--out", out,
                                   "--format", fmt]))
    return entries


def cli() -> dict:
    light, render = [], []
    for kind, argv in cli_argv():
        child = run.run_child(run.CLI + argv)
        if child.code != 0:
            raise SystemExit(f"trigasket {' '.join(argv)} exited {child.code}")
        entry = {"kind": kind, "argv": argv, "stdout_sha256": run.sha(child.stdout)}
        if kind == "render":
            with open(os.path.join(run.ROOT, argv[argv.index("--out") + 1]), "rb") as fh:
                entry["file_sha256"] = run.sha(fh.read())
            render.append(entry)
        else:
            light.append(entry)
    return {"light": light, "render": render}


def verify() -> dict:
    child = run.run_child(run.CLI + ["verify", "--suite", "all"])
    if child.code != 0:
        raise SystemExit("verify failed; golden data must come from a passing commit")
    return {"lines": child.stdout.decode().splitlines()}


def main() -> int:
    os.makedirs(run.OUT, exist_ok=True)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                            cwd=run.ROOT).stdout.strip()
    golden = {
        "commit": commit,
        "python": sys.version.split()[0],
        "verify": verify(),
        "cli": cli(),
        "dist-matrix": dist_matrix(),
        "dist-cold": dist_cold(),
    }
    with open(run.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
