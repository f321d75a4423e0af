"""tools/bench_pairs.py assembles its report from run.py's last stdout line;
here it is fed canned lines, and no benchmark runs."""

import importlib.util
import json
import re
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUNDS = BENCHMARK["end_to_end"]


def canned(ops_per_s, op_tail_ms, correct=True):
    """A run.py stdout: figure lines, then the JSON result line."""
    metrics = {
        "setup_s": {"value": 0.06, "unit": "s"},
        "rss_peak_mb": {"value": 24.75, "unit": "MB"},
        "op_p50_ms": {"value": 36.9, "unit": "ms"},
        "op_tail_ms": {"value": op_tail_ms, "unit": "ms"},
        "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
    }
    return (
        "times scaled to the reference speed\n"
        f"op_p50_ms 36.9000 ms, op_tail_ms {op_tail_ms} ms, ops_per_s {ops_per_s}\n"
        "run digest 0123456789abcdef\n"
        + json.dumps({"correct": correct, "attempted": 50, "failed": 1 - correct, "metrics": metrics})
        + "\n"
    )


PARENT_OPS = [14.1, 14.3, 14.2, 14.4, 14.3, 14.2, 14.5, 14.3, 14.1, 14.4]
CHANGE_OPS = [18.9, 19.0, 18.8, 19.1, 14.0, 18.9, 19.2, 18.7, 19.0, 18.9]


def runner(calls):
    def run(tree, workload, seed, seconds):
        calls.append((tree.name, workload, seed, seconds))
        i = seed - 201
        if tree.name == "parent":
            return canned(PARENT_OPS[i], 330.0 + i)
        # the tail worsens by 40% on the change
        return canned(CHANGE_OPS[i], 1.4 * (330.0 + i))
    return run


def test_pairs_alternate_and_read_the_last_line():
    calls = []
    trees = {"parent": Path("parent"), "change": Path("change")}
    pairs = bench_pairs.run_pairs(trees, "verify", list(range(201, 211)), 20.0, runner(calls))
    assert [c[0] for c in calls[:4]] == ["parent", "change", "change", "parent"]
    assert {c[1:] for c in calls[:2]} == {("verify", 201, 20.0)}
    assert [p["first"] for p in pairs[:3]] == ["parent", "change", "parent"]
    assert pairs[4]["change"] == {
        "correct": True,
        "attempted": 50,
        "failed": 0,
        "metrics": {
            "setup_s": 0.06, "rss_peak_mb": 24.75, "op_p50_ms": 36.9,
            "op_tail_ms": pytest.approx(1.4 * 334.0), "ops_per_s": 14.0,
        },
    }

    summary = bench_pairs.summarize(pairs, BOUNDS)
    assert summary["all_correct"] is True
    ops = summary["metrics"]["ops_per_s"]
    # pair 5 is a loss: 9 wins of 10, and the gap beats the parent's IQR
    assert (ops["wins"], ops["pairs"], ops["verdict"]) == (9, 10, "better")
    assert ops["parent_median"] == pytest.approx(14.3)
    assert ops["change_median"] == pytest.approx(18.9)
    assert (ops["parent_q1"], ops["parent_q3"]) == pytest.approx((14.2, 14.375))
    tail = summary["metrics"]["op_tail_ms"]
    assert (tail["wins"], tail["verdict"]) == (0, "worse")
    assert tail["change_pct"] == pytest.approx(40.0)
    # identical runs: no wins, no change, within the bound
    same = summary["metrics"]["setup_s"]
    assert (same["wins"], same["change_pct"], same["verdict"]) == (0, 0.0, "within bound")


def test_a_wrong_run_is_reported():
    def run(tree, workload, seed, seconds):
        return canned(14.0, 330.0, correct=tree.name != "change" or seed != 3)

    trees = {"parent": Path("parent"), "change": Path("change")}
    pairs = bench_pairs.run_pairs(trees, "cli", [1, 2, 3], 3.0, run)
    assert pairs[2]["change"]["failed"] == 1
    assert bench_pairs.summarize(pairs, BOUNDS)["all_correct"] is False


@pytest.mark.parametrize(
    "parent, change, better, want",
    [
        # a wide parent spread and mixed runs: no verdict either way
        ([10.0, 14.0, 10.0, 14.0], [11.0, 13.0, 11.0, 13.0], "higher", "unresolved"),
        # the same spread, but every change run beats every parent run
        ([10.0, 14.0, 10.0, 14.0], [15.0, 16.0, 15.0, 16.0], "lower", "worse"),
        # every pair won, yet the gap is inside the parent's IQR of 4
        ([10.0, 14.0, 10.0, 14.0], [9.0, 9.5, 9.0, 9.5], "lower", "within bound"),
        ([10.0, 11.0] * 5, [9.0, 8.5] * 5, "lower", "better"),
        # the same runs over four pairs: too few to claim a gain
        ([10.0, 11.0] * 2, [9.0, 8.5] * 2, "lower", "within bound"),
        ([10.0, 10.1, 10.0, 10.1], [10.1, 10.0, 10.1, 10.0], "lower", "within bound"),
    ],
)
def test_verdicts(parent, change, better, want):
    assert bench_pairs.verdict(parent, change, better, 0.25)["verdict"] == want


def committed_repo(tmp_path, *versions):
    """A git repository that commits each version of src/trigasket/m.py in
    turn; returns it, a git runner and each commit with its src digest."""
    repo = tmp_path / "repo"
    module = repo / "src" / "trigasket" / "m.py"
    module.parent.mkdir(parents=True)

    def git(*args):
        return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                              cwd=repo, check=True, capture_output=True, text=True).stdout
    git("init", "-q")
    commits = []
    for text in versions:
        module.write_text(text)
        git("add", ".")
        git("commit", "-q", "-m", text)
        commits.append((git("rev-parse", "HEAD").strip(), bench_pairs.src_digest(repo)))
    return repo, git, commits


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_export_tree_writes_the_committed_files(tmp_path):
    repo, git, [(first, committed), _] = committed_repo(tmp_path, "A = 1\n", "A = 2\n")
    tree = tmp_path / "parent"
    assert bench_pairs.export_tree("HEAD~1", tree, repo) == first
    assert (tree / "src" / "trigasket" / "m.py").read_text() == "A = 1\n"
    assert bench_pairs.src_digest(tree) == committed
    assert not (tree / ".git").exists()
    # the repository's own checkout is left as it was
    assert (repo / "src" / "trigasket" / "m.py").read_text() == "A = 2\n"
    assert git("worktree", "list").count("\n") == 1


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
@pytest.mark.parametrize("change", [None, "HEAD"])
def test_change_is_the_checkout_or_an_exported_revision(tmp_path, change):
    repo, git, [parent, child] = committed_repo(tmp_path, "A = 1\n", "A = 2\n")
    # an uncommitted edit: measured by default, never with --change
    (repo / "src" / "trigasket" / "m.py").write_text("A = 3\n")
    seen = []

    def run(tree, workload, seed, seconds):
        text = (tree / "src" / "trigasket" / "m.py").read_text()
        seen.append((tree, text))
        # the canned speed tells which tree ran
        return canned(10.0 + int(text[-2]), 330.0)

    argv = ["--parent", "HEAD~1", "--name", "t", "--workload", "verify",
            "--pairs", "2", "--seed", "1", "--seconds", "1"]
    argv += ["--change", change] if change else []
    assert bench_pairs.main(argv, runner=run, repo=repo) == 0
    report = json.loads((repo / "BENCH_t.json").read_text())

    want = "A = 2\n" if change else "A = 3\n"
    assert sorted({text for _, text in seen}) == ["A = 1\n", want]
    assert (repo in {tree for tree, _ in seen}) is (change is None)
    assert not any(tree.exists() for tree, _ in seen if tree != repo)
    assert report["parent"] == {"commit": parent[0], "src_sha256": parent[1]}
    assert report["change"]["commit"] == child[0]
    assert report["change"]["uncommitted_changes"] is (change is None)
    if change:
        assert report["change"]["src_sha256"] == child[1]
    pairs = report["workloads"]["verify"]["pairs"]
    assert [p["parent"]["metrics"]["ops_per_s"] for p in pairs] == [11.0, 11.0]
    assert {p["change"]["metrics"]["ops_per_s"] for p in pairs} == {10.0 + int(want[-2])}


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
@pytest.mark.parametrize("change", [None, "HEAD"])
def test_bytecode_of_the_temporary_trees_is_removed(tmp_path, monkeypatch, change):
    repo, _, _ = committed_repo(tmp_path, "A = 1\n", "A = 2\n")
    pycache = tmp_path / "pycache"
    monkeypatch.setattr(bench_pairs, "PYCACHE", pycache)
    other = pycache / "elsewhere" / "m.pyc"
    other.parent.mkdir(parents=True)
    other.write_bytes(b"")
    trees = set()

    def run(tree, workload, seed, seconds):
        # what a worker leaves under PYTHONPYCACHEPREFIX, keyed by its real path
        real = tree.resolve()
        pyc = pycache / real.relative_to(real.anchor) / "src" / "trigasket" / "m.pyc"
        pyc.parent.mkdir(parents=True, exist_ok=True)
        pyc.write_bytes(b"")
        trees.add(real)
        return canned(10.0, 330.0)

    argv = ["--parent", "HEAD~1", "--name", "t", "--workload", "verify",
            "--pairs", "2", "--seed", "1", "--seconds", "1"]
    argv += ["--change", change] if change else []
    assert bench_pairs.main(argv, runner=run, repo=repo) == 0
    temporary = {tree.parent for tree in trees if tree != repo.resolve()}
    assert len(temporary) == 1
    tmp = temporary.pop()
    assert not (pycache / tmp.relative_to(tmp.anchor)).exists()
    # the checkout's own bytecode, and anything else, stays
    assert (pycache / tmp.parent.relative_to(tmp.anchor)).is_dir()
    assert other.exists()
    mine = pycache / repo.resolve().relative_to(repo.anchor) / "src" / "trigasket" / "m.pyc"
    assert mine.exists() is (change is None)


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_bench_record_is_complete_and_its_verdicts_recompute(path):
    report = json.loads(path.read_text(encoding="utf-8"))
    for side in ("parent", "change"):
        assert re.fullmatch(r"[0-9a-f]{40}", report[side]["commit"])
    assert re.fullmatch(r"3\.\d+\.\d+", report["python"])
    assert report["harness"] == "perfbench/run.py of the change"
    workloads = {w["name"] for w in BENCHMARK["workloads"]}
    assert report["workloads"] and set(report["workloads"]) <= workloads
    names = {b["name"] for b in BOUNDS}
    for entry in report["workloads"].values():
        assert entry["pairs"]
        for pair in entry["pairs"]:
            for side in ("parent", "change"):
                assert isinstance(pair[side]["correct"], bool)
                assert names <= set(pair[side]["metrics"])
        # every figure and verdict of the summary is what the pairs give
        assert entry["summary"] == bench_pairs.summarize(entry["pairs"], BOUNDS)
