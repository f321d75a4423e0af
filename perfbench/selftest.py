"""Tests of the benchmark harness itself (not collected by the library's test run).

    python3 -m pytest -q perfbench/selftest.py

Run from the repository root; each test starts a few short workers.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
os.makedirs(run.OUT, exist_ok=True)


def _cold_job(n: int = 2) -> tuple[list, list, dict]:
    ops = [(level, ix) for level in run.COLD_TIERS for ix in range(n)]
    probes = [(".T", "ab.L", "c")]
    pools = {level: run.cold_pool(level) for level in run.COLD_TIERS}
    return ops, probes, run.cold_job(pools, ops, probes)


def test_metric_names_are_well_formed_and_match_benchmark_json():
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert declared == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert "setup_s" in declared
    names = list(run.END_TO_END) + list(run.PER_LAYER) + [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(run.MEASURE)


def test_wrong_results_are_counted_as_failures():
    golden = run.load_golden()
    ops, probes, job = _cold_job()
    out, _ = run.run_job(job)
    t = run.Tally()
    run.check_cold(t, ops, probes, out, golden)
    assert (t.attempted, t.failed) == (len(ops) + 1, 0)

    out["results"][0] = "1/3"
    out["probes"][0] = ["1/2", "1/2", "1/2"]  # breaks the prefix isometry
    t = run.Tally()
    run.check_cold(t, ops, probes, out, golden)
    assert t.failed == 2

    t = run.Tally()
    run.check_cold(t, ops, probes, None, golden)  # a crashed worker loses every operation
    assert t.failed == t.attempted == len(ops) + 1

    t = run.Tally()
    lines = list(golden["verify"]["lines"])
    lines[3] = lines[3].replace("[PASS]", "[FAIL]")
    run.check_verify_lines(t, lines, golden)
    assert t.failed == 1

    entry = golden["cli"]["light"][0]
    t = run.Tally()
    run.check_cli(t, entry, run.Child(0, b"wrong\n", b"", 0.1, 10.0))
    assert t.failed == 1


def test_recursion_error_probe_is_reported_not_failed():
    golden = run.load_golden()
    t = run.Tally()
    run.check_cold(t, [], [("a.T", "b.T", "a")],
                   {"results": [], "times_s": [], "scaled_s": [], "probes": [["RecursionError"] * 3]}, golden)
    assert (t.failed, t.deep_errors, t.attempted) == (0, 1, 1)


def test_tracing_changes_no_result():
    golden = run.load_golden()
    ops, probes, job = _cold_job()
    matrix = run.matrix_job({48: run.matrix_pool(48)}, [(48, list(range(8)))])
    for work in (job, matrix):
        plain, _ = run.run_job(work)
        traced, _ = run.run_job(dict(work, trace=os.path.join(run.OUT, "selftest"), run_id="selftest"))
        assert plain["results"] == traced["results"]
        assert plain.get("probes") == traced.get("probes")
        assert traced["trace"]["metric.dist_level.calls"] > 0
    for entry in golden["cli"]["light"][:7]:
        plain = run.run_child(run.CLI + entry["argv"])
        traced = run.run_child([run.PY, run.WORKER, "cli", os.path.join(run.OUT, "selftest-cli"), "--"]
                               + entry["argv"])
        assert plain.code == traced.code == 0
        assert plain.stdout == traced.stdout
        assert run.sha(plain.stdout) == entry["stdout_sha256"]


def test_self_time_excludes_child_spans():
    tr = tracer.Tracer("selftest")

    def inner():
        time.sleep(0.02)

    inner = tr.wrap("t.inner", inner)

    def outer():
        time.sleep(0.01)
        inner()

    outer = tr.wrap("t.outer", outer)
    outer()
    s = tr.summary()
    assert s["t.outer.calls"] == s["t.inner.calls"] == 1
    assert 9 <= s["t.outer.self_ms"] < 18
    assert s["t.inner.self_ms"] >= 19


def test_clock_scales_to_the_reference_speed(monkeypatch):
    import worker

    monkeypatch.setattr(worker, "calibrate", lambda: 2 * worker.CAL_REF_S)  # a machine at half speed
    clock = worker.Clock()
    clock.add(0.4)
    clock.add(0.2)
    timing = clock.result()
    assert timing["times_s"] == [0.4, 0.2]
    assert timing["scaled_s"] == pytest.approx([0.2, 0.1])


def test_tail_has_ten_samples_beyond():
    xs = [float(i) for i in range(100)]
    value, pct = run.tail(xs)
    assert sum(x > value for x in xs) == 10
    assert pct == 90.0


def test_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(HERE, "..", "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
