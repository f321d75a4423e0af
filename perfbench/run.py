#!/usr/bin/env python3
"""Benchmark for trigasket: seeded workloads, checked results, one JSON line.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (closed loop, one client, one process at a time; see RECORD.md):

    verify       the suite of `trigasket verify --suite all`, cold caches,
                 timed per criterion
    dist-cold    independent canonical pairs through the gdist path, levels
                 16/64/256, plus a level-1024 probe tier
    dist-matrix  all-pairs dist_level among seeded points at levels 48-96
    cli          a scripted session of `trigasket` invocations and renders

Every unit of work (a worker batch, a suite, a CLI invocation) runs in a
fresh interpreter, because the library's caches are process-global, and
every result is compared with golden.json, written by make_golden.py. Times
are scaled to a reference speed (worker.Clock). With --trace 0 the last
stdout line carries the end-to-end metrics; with --trace 1 it carries the
per-layer metrics of a traced run (tracer.py) and the tracing overhead
against the same work untraced.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

from tracer import COUNTS, TRACED
from worker import CAL_REF_S, Clock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
GOLDEN = os.path.join(HERE, "golden.json")
PY = sys.executable
CLI = [PY, "-m", "trigasket.cli"]

ENV = dict(os.environ)
ENV.pop("PYTHONDONTWRITEBYTECODE", None)
ENV.update(PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0", PYTHONIOENCODING="utf-8",
           PYTHONPYCACHEPREFIX=os.path.join(OUT, "pycache"))

SETUP_PROBES = 7
UNIT_S = {"verify": 10.0, "dist-cold": 1.25, "dist-matrix": 0.75, "cli": 3.5}
COLD_TIERS = (16, 64, 256)
COLD_POOL = 1200
COLD_PER_BATCH = 40  # pairs per tier in one worker
DEEP_LEVEL = 1024
DEEP_PER_BATCH = 4
MATRIX_LEVELS = (48, 72, 96)
MATRIX_POOL = 80
MATRIX_POINTS = 60
TRACED_BATCHES = 2
RENDER_DEPTH = 7
LIGHT_KINDS = (
    "normalize", "dist", "gdist", "coords", "address", "mediate-gasket", "mediate-delta",
)
LIGHT_PER_ROUND = 3  # light invocations of each kind per render, so the light tail has samples
CLI_SUBCOMMANDS = ("normalize", "dist", "gdist", "coords", "address", "mediate", "render")

END_TO_END = {
    "setup_s": "s",
    "rss_peak_mb": "MB",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ops_per_s": "1/s",
}


def _per_layer() -> dict[str, str]:
    units = {}
    for mod, fnames in TRACED.items():
        for fn in fnames:
            units[f"{mod}.{fn}.calls"] = "count"
            units[f"{mod}.{fn}.self_ms"] = "ms"
    for n in range(1, 11):
        units[f"acceptance.c{n:02d}_s"] = "s"
    units["cli.interp_ms"] = "ms"
    units["cli.import_ms"] = "ms"
    for sub in CLI_SUBCOMMANDS:
        units[f"cli.{sub}_ms"] = "ms"
    for name in COUNTS:
        units[name] = "count"
    units["trace.overhead_ms"] = "ms"
    return units


PER_LAYER = _per_layer()


class HarnessError(Exception):
    """The benchmark itself could not run; no result line is printed."""


# ------------------------------------------------------------------ processes


@dataclass
class Child:
    code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    rss_mb: float


def run_child(argv: list[str]) -> Child:
    """Run argv from the repository root; wall time from spawn to exit, peak RSS."""
    with open(os.path.join(OUT, "child.stdout"), "w+b") as out, \
            open(os.path.join(OUT, "child.stderr"), "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                cwd=ROOT, env=ENV)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(proc.returncode, out.read(), err.read(), wall, usage.ru_maxrss / 1024)


def setup_probe() -> float:
    """Seconds from spawning a worker until it has imported and prepared the library."""
    t0 = time.perf_counter()
    with subprocess.Popen([PY, WORKER, "probe"], stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE, cwd=ROOT, env=ENV) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        proc.stdout.read()
    if line != b"ready\n" or proc.returncode != 0:
        raise HarnessError(f"set-up probe failed (exit {proc.returncode})")
    return ready


def run_job(job: dict) -> tuple[dict | None, Child]:
    job_path = os.path.join(OUT, "job.json")
    res_path = os.path.join(OUT, "result.json")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    if os.path.exists(res_path):
        os.remove(res_path)
    child = run_child([PY, WORKER, "job", job_path, res_path])
    if child.code != 0:
        sys.stderr.write(child.stderr.decode(errors="replace")[-2000:])
        return None, child
    with open(res_path, encoding="utf-8") as fh:
        return json.load(fh), child


# ---------------------------------------------------------------- inputs


def _word(rng: random.Random, level: int) -> str:
    return "".join(rng.choice("abc") for _ in range(level)) + "." + rng.choice("TLR")


def cold_pool(level: int) -> list[tuple[str, str]]:
    rng = random.Random(f"dist-cold:{level}")
    return [(_word(rng, level), _word(rng, level)) for _ in range(COLD_POOL)]


def matrix_pool(level: int) -> list[str]:
    rng = random.Random(f"dist-matrix:{level}")
    return [_word(rng, level) for _ in range(MATRIX_POOL)]


def pair_index(p: int, q: int, n: int) -> int:
    """Position of the unordered pair {p, q} in the row-major upper triangle of n points."""
    p, q = min(p, q), max(p, q)
    return p * n - p * (p + 1) // 2 + (q - p - 1)


def sha(data: "bytes | str") -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def digest(text: str) -> str:
    """Short digest of one exact result, as stored in golden.json."""
    return sha(text)[:8]


def pool_digest(pool) -> str:
    return sha(json.dumps(pool))


def load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    for level in COLD_TIERS:
        if golden["dist-cold"]["pool_sha256"][f"L{level}"] != pool_digest(cold_pool(level)):
            raise HarnessError(f"dist-cold L{level} pool differs from the one golden.json was made from")
    for level in MATRIX_LEVELS:
        if golden["dist-matrix"]["pool_sha256"][f"L{level}"] != pool_digest(matrix_pool(level)):
            raise HarnessError(f"dist-matrix L{level} pool differs from the one golden.json was made from")
    return golden


def cold_batches(rng: random.Random):
    """Batches of pool indices, no pair repeated until the pool is used up."""
    order = {level: rng.sample(range(COLD_POOL), COLD_POOL) for level in COLD_TIERS}
    b = 0
    while True:
        ops = [(level, order[level][(b * COLD_PER_BATCH + k) % COLD_POOL])
               for level in COLD_TIERS for k in range(COLD_PER_BATCH)]
        rng.shuffle(ops)
        probes = [(_word(rng, DEEP_LEVEL), _word(rng, DEEP_LEVEL), rng.choice("abc"))
                  for _ in range(DEEP_PER_BATCH)]
        yield ops, probes
        b += 1


def cold_job(pools: dict, ops, probes) -> dict:
    return {"kind": "dist-cold", "pairs": [pools[lv][ix] for lv, ix in ops], "probes": probes}


def matrix_job(pools: dict, batch) -> dict:
    return {"kind": "dist-matrix", "matrices": [
        {"level": lv, "points": [pools[lv][i] for i in idx]} for lv, idx in batch]}


def matrix_batches(rng: random.Random):
    while True:
        yield [(level, rng.sample(range(MATRIX_POOL), MATRIX_POINTS)) for level in MATRIX_LEVELS]


def cli_rounds(rng: random.Random, golden: dict):
    light: dict[str, list[dict]] = {}
    for entry in golden["cli"]["light"]:
        light.setdefault(entry["kind"], []).append(entry)
    renders = golden["cli"]["render"]
    n = 0
    while True:
        yield [rng.choice(light[k]) for _ in range(LIGHT_PER_ROUND) for k in LIGHT_KINDS] \
            + [renders[n % len(renders)]]
        n += 1


# ---------------------------------------------------------------- checks


@dataclass
class Tally:
    """Operations attempted and failed, their times, per-process peaks."""

    attempted: int = 0
    failed: int = 0
    lat_ms: list[float] = field(default_factory=list)   # the workload's headline operation
    raw_ms: list[float] = field(default_factory=list)   # the same, unscaled
    cal_ms: list[float] = field(default_factory=list)   # calibration times seen
    busy_s: float = 0.0                                  # time inside every operation
    ops: int = 0
    setup_s: list[float] = field(default_factory=list)
    rss_mb: list[float] = field(default_factory=list)
    results: list[str] = field(default_factory=list)    # exact outputs, for the run digest
    extra: dict[str, list[float]] = field(default_factory=dict)
    deep_errors: int = 0

    def record(self, seconds: float, raw: float, headline: bool = True) -> None:
        """One operation's time, scaled to the reference speed, and as measured."""
        self.busy_s += seconds
        self.ops += 1
        if headline:
            self.lat_ms.append(seconds * 1e3)
            self.raw_ms.append(raw * 1e3)

    def fail(self, why: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"FAILED: {why}", file=sys.stderr)

    def sample(self, key: str, value: float) -> None:
        self.extra.setdefault(key, []).append(value)


def check_cold(t: Tally, ops, probes, out: "dict | None", golden: dict) -> None:
    t.attempted += len(ops) + len(probes)
    if out is None:
        t.fail(f"dist-cold worker crashed; {len(ops) + len(probes)} operations lost")
        t.failed += len(ops) + len(probes) - 1
        return
    for (level, ix), text in zip(ops, out["results"]):
        t.results.append(text)
        if digest(text) != golden["dist-cold"][f"L{level}"][8 * ix: 8 * ix + 8]:
            t.fail(f"dist-cold L{level} pool pair {ix}: got {text}")
    for (u, v, m), row in zip(probes, out["probes"]):
        t.results.append(",".join(row))
        if "RecursionError" in row:
            t.deep_errors += 1
            continue
        d_uv, d_vu, d_m = (Fraction(x) for x in row)
        # exact invariants that need no oracle: symmetry and prefix isometry
        if d_uv != d_vu or 2 * d_m != d_uv:
            t.fail(f"level-{DEEP_LEVEL} invariants broken for {u[:12]}... / {v[:12]}... prefix {m}")


def matrix_pairs(batch) -> list[tuple[int, int, int]]:
    return [(level, idx[i], idx[j]) for level, idx in batch
            for i in range(len(idx)) for j in range(i + 1, len(idx))]


def check_matrix(t: Tally, batch, out: "dict | None", golden: dict) -> None:
    pairs = matrix_pairs(batch)
    t.attempted += len(pairs)
    if out is None:
        t.fail(f"dist-matrix worker crashed; {len(pairs)} operations lost")
        t.failed += len(pairs) - 1
        return
    for (level, p, q), text in zip(pairs, out["results"]):
        t.results.append(text)
        k = pair_index(p, q, MATRIX_POOL)
        if digest(text) != golden["dist-matrix"][f"L{level}"][8 * k: 8 * k + 8]:
            t.fail(f"dist-matrix L{level} points {p},{q}: got {text}")


def check_cli(t: Tally, entry: dict, child: Child) -> None:
    t.attempted += 1
    t.results.append(sha(child.stdout))
    ok = child.code == 0 and sha(child.stdout) == entry["stdout_sha256"]
    if ok and "file_sha256" in entry:
        with open(os.path.join(ROOT, entry["argv"][entry["argv"].index("--out") + 1]), "rb") as fh:
            ok = sha(fh.read()) == entry["file_sha256"]
    if not ok:
        t.fail(f"trigasket {' '.join(entry['argv'])}: exit {child.code}, output differs from golden")


def check_verify_lines(t: Tally, lines: list[str], golden: dict) -> None:
    t.attempted += 1
    t.results.extend(lines)
    if lines != golden["verify"]["lines"]:
        t.fail("verify lines differ from golden: " + " | ".join(lines))


# ---------------------------------------------------------------- workloads
#
# A run's work is fixed by --seconds rather than cut off by the clock, so
# every run of every commit measures the same operations: UNIT_S is one
# unit's duration at the reference speed. Times are scaled to that speed by
# worker.Clock (see RECORD.md); the raw figures are printed beside them.


def _units(t: Tally, workload: str, seconds: float):
    """Yield once per unit of work; a set-up probe, between two calibrations,
    precedes each unit, and the run ends with at least SETUP_PROBES probes."""
    for _ in range(max(1, round(seconds / UNIT_S[workload]))):
        t.setup_s.append(_setup_sample())
        yield
    while len(t.setup_s) < SETUP_PROBES:
        t.setup_s.append(_setup_sample())


def _setup_sample() -> float:
    clock = Clock()
    clock.add(setup_probe())
    return clock.result()["scaled_s"][0]


def _calibrations(t: Tally, timing: dict) -> None:
    t.cal_ms += [c * 1e3 for c in timing["cal_s"]]


def _record_job(t: Tally, out: "dict | None") -> list[float]:
    if out is None:
        return []
    _calibrations(t, out)
    for raw, scaled in zip(out["times_s"], out["scaled_s"]):
        t.record(scaled, raw)
    return out["scaled_s"]


def measure_verify(rng, seconds, golden) -> Tally:
    """The suite `trigasket verify --suite all` runs, in one fresh worker per unit.

    The operation is one criterion, run in suite order in one process, so
    criterion 10 still finds the oracle criterion 1 built. A criterion's
    time is the mean over the run's suites, so there are always ten
    operations and the tail is the slowest criterion.
    """
    t = Tally()
    runs = []
    for _ in _units(t, "verify", seconds):
        out, child = run_job({"kind": "verify"})
        check_verify_lines(t, out["results"] if out else [f"exit {child.code}"], golden)
        t.rss_mb.append(child.rss_mb)
        if out is not None:
            _calibrations(t, out)
            runs.append(out)
    for raw, scaled in zip(zip(*(r["times_s"] for r in runs)), zip(*(r["scaled_s"] for r in runs))):
        t.record(statistics.mean(scaled), statistics.mean(raw))
    return t


def measure_dist_cold(rng, seconds, golden) -> Tally:
    t = Tally()
    pools = {level: cold_pool(level) for level in COLD_TIERS}
    batches = cold_batches(rng)
    for _ in _units(t, "dist-cold", seconds):
        ops, probes = next(batches)
        out, child = run_job(cold_job(pools, ops, probes))
        check_cold(t, ops, probes, out, golden)
        t.rss_mb.append(child.rss_mb)
        for (level, _), sec in zip(ops, _record_job(t, out)):
            t.sample(f"L{level}", sec * 1e3)
    return t


def measure_dist_matrix(rng, seconds, golden) -> Tally:
    t = Tally()
    pools = {level: matrix_pool(level) for level in MATRIX_LEVELS}
    batches = matrix_batches(rng)
    for _ in _units(t, "dist-matrix", seconds):
        batch = next(batches)
        out, child = run_job(matrix_job(pools, batch))
        check_matrix(t, batch, out, golden)
        t.rss_mb.append(child.rss_mb)
        _record_job(t, out)
    return t


def measure_cli(rng, seconds, golden) -> Tally:
    t = Tally()
    rounds = cli_rounds(rng, golden)
    clock = Clock()
    entries = []
    for _ in _units(t, "cli", seconds):
        for entry in next(rounds):
            child = run_child(CLI + entry["argv"])
            check_cli(t, entry, child)
            t.rss_mb.append(child.rss_mb)
            clock.add(child.wall_s)
            entries.append(entry)
    timing = clock.result()
    _calibrations(t, timing)
    for entry, raw, scaled in zip(entries, timing["times_s"], timing["scaled_s"]):
        if entry["kind"] == "render":
            t.sample("render", scaled)
        t.record(scaled, raw, headline=entry["kind"] != "render")
    return t


MEASURE = {
    "verify": measure_verify,
    "dist-cold": measure_dist_cold,
    "dist-matrix": measure_dist_matrix,
    "cli": measure_cli,
}


# ---------------------------------------------------------------- traced runs


def _merge(total: dict, part: dict) -> None:
    for key, value in part.items():
        if key in ("metric.dist_level.level_max", "metric.result_bits_max"):
            total[key] = max(total.get(key, 0), value)
        else:
            total[key] = total.get(key, 0) + value


def _median_wall(argv: list[str], n: int = 5) -> float:
    return statistics.median(run_child(argv).wall_s for _ in range(n)) * 1e3


def trace_jobs(t: Tally, jobs: list[dict], check, workload: str) -> tuple[dict, float, list]:
    """Run each job untraced, then traced; check both.

    Returns the merged trace summary, the overhead (traced minus untraced
    time inside the operations, scaled, ms) and the untraced outputs.
    """
    layers: dict = {}
    busy = {False: 0.0, True: 0.0}
    digests = {}
    plain = []
    for traced in (False, True):
        start = len(t.results)
        for n, job in enumerate(jobs):
            if traced:
                job = dict(job, trace=os.path.join(OUT, f"trace-{workload}-{n}"),
                           run_id=f"{workload}-{n}")
            out, child = run_job(job)
            check(out)
            if out is not None:
                busy[traced] += sum(out["scaled_s"])
                if traced:
                    _merge(layers, out["trace"])
            if not traced:
                plain.append(out)
        digests[traced] = sha("\n".join(t.results[start:]))
    if digests[False] != digests[True]:
        t.fail(f"{workload}: traced and untraced results differ")
    return layers, (busy[True] - busy[False]) * 1e3, plain


def trace_run(workload: str, rng, golden) -> tuple[Tally, dict]:
    t = Tally()
    metrics = dict.fromkeys(PER_LAYER, 0)
    if workload == "verify":
        layers, overhead, plain = trace_jobs(
            t, [{"kind": "verify"}], lambda out: check_verify_lines(
                t, out["results"] if out else [], golden), workload)
        # criterion times come from the untraced pass: suite order, one process
        for n, sec in enumerate(plain[0]["times_s"] if plain[0] else [], start=1):
            metrics[f"acceptance.c{n:02d}_s"] = sec
    elif workload == "dist-cold":
        pools = {level: cold_pool(level) for level in COLD_TIERS}
        gen = cold_batches(rng)
        batches = [next(gen) for _ in range(TRACED_BATCHES)]
        jobs = [cold_job(pools, ops, probes) for ops, probes in batches]
        checks = iter(batches * 2)

        def check(out):
            ops, probes = next(checks)
            check_cold(t, ops, probes, out, golden)

        layers, overhead, _ = trace_jobs(t, jobs, check, workload)
    elif workload == "dist-matrix":
        pools = {level: matrix_pool(level) for level in MATRIX_LEVELS}
        gen = matrix_batches(rng)
        batches = [next(gen) for _ in range(TRACED_BATCHES)]
        jobs = [matrix_job(pools, batch) for batch in batches]
        checks = iter(batches * 2)
        layers, overhead, _ = trace_jobs(
            t, jobs, lambda out: check_matrix(t, next(checks), out, golden), workload)
    else:
        layers = {}
        # one round, plus the render format that round skips
        entries = next(cli_rounds(rng, golden)) + golden["cli"]["render"][1:]
        clocks = {False: Clock(), True: Clock()}
        digests = {}
        for traced in (False, True):
            start = len(t.results)
            for n, entry in enumerate(entries):
                if traced:
                    path = os.path.join(OUT, f"trace-cli-{n}")
                    if os.path.exists(path + ".json"):
                        os.remove(path + ".json")
                    child = run_child([PY, WORKER, "cli", path, "--"] + entry["argv"])
                    if os.path.exists(path + ".json"):  # absent if the launcher crashed
                        with open(path + ".json", encoding="utf-8") as fh:
                            _merge(layers, json.load(fh))
                else:
                    child = run_child(CLI + entry["argv"])
                    sub = entry["argv"][0]
                    t.sample(f"cli.{sub}_ms", child.wall_s * 1e3)
                check_cli(t, entry, child)
                clocks[traced].add(child.wall_s)
            digests[traced] = sha("\n".join(t.results[start:]))
        if digests[False] != digests[True]:
            t.fail("cli: traced and untraced outputs differ")
        overhead = (sum(clocks[True].result()["scaled_s"])
                    - sum(clocks[False].result()["scaled_s"])) * 1e3
        for sub in CLI_SUBCOMMANDS:
            metrics[f"cli.{sub}_ms"] = statistics.median(t.extra[f"cli.{sub}_ms"])
    metrics.update(layers)
    interp = _median_wall([PY, "-c", "pass"])
    metrics["cli.interp_ms"] = interp
    metrics["cli.import_ms"] = _median_wall([PY, "-c", "import trigasket.cli"]) - interp
    metrics["trace.overhead_ms"] = overhead
    return t, metrics


# ---------------------------------------------------------------- reporting


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it (the maximum below 11 samples)."""
    s = sorted(values)
    if len(s) < 11:
        return s[-1], 100.0
    k = len(s) - 11
    return s[k], 100.0 * (k + 1) / len(s)


def end_to_end(workload: str, t: Tally) -> dict[str, float]:
    p_tail, pct = tail(t.lat_ms)
    values = {
        "setup_s": statistics.median(t.setup_s),
        "rss_peak_mb": statistics.median(t.rss_mb),
        "op_p50_ms": statistics.median(t.lat_ms),
        "op_tail_ms": p_tail,
        "ops_per_s": t.ops / t.busy_s,
    }
    print(f"times scaled to the reference speed (calibration {CAL_REF_S * 1e3:g} ms; "
          f"median in this run {statistics.median(t.cal_ms):.3f} ms); "
          f"raw op_p50_ms {statistics.median(t.raw_ms):.4f} ms")
    print(f"setup_s {values['setup_s']:.4f} s (median of {len(t.setup_s)} fresh workers)")
    print(f"rss_peak_mb {values['rss_peak_mb']:.1f} MB (median over {len(t.rss_mb)} processes)")
    print(f"op_p50_ms {values['op_p50_ms']:.4f} ms, op_tail_ms {p_tail:.4f} ms "
          f"at p{pct:.2f} of {len(t.lat_ms)} samples, ops_per_s {values['ops_per_s']:.3f}")
    # the same figures under the names the workload's users know them by
    if workload == "verify":
        print(f"verify_s {t.busy_s:.3f} s (sum over the criteria, mean of {len(t.rss_mb)} suites)")
    elif workload == "dist-cold":
        for level in COLD_TIERS:
            xs = t.extra[f"L{level}"]
            print(f"dist_p50_ms.L{level} {statistics.median(xs):.4f} ms (n={len(xs)})")
        print(f"dist_tail_ms {p_tail:.4f} ms (p{pct:.2f}, n={len(t.lat_ms)})")
        print(f"level-{DEEP_LEVEL} probes: {t.deep_errors} RecursionError (known defect, "
              f"not counted in 'failed')")
    elif workload == "dist-matrix":
        print(f"matrix_pairs_per_s {values['ops_per_s']:.1f}")
    else:
        print(f"cli_p50_ms {values['op_p50_ms']:.2f} ms, cli_tail_ms {p_tail:.2f} ms "
              f"(n={len(t.lat_ms)}); render_s {statistics.median(t.extra['render']):.4f} s "
              f"(n={len(t.extra['render'])})")
    fail_ratio = (t.failed + t.deep_errors) / t.attempted
    print(f"fail_ratio {fail_ratio:.4f} ({t.failed} wrong + {t.deep_errors} RecursionError "
          f"of {t.attempted} attempted)")
    return values


def main(argv: "list[str] | None" = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(MEASURE))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "trigasket", "__init__.py")):
            raise HarnessError(f"no src/trigasket under {ROOT}; run from the repository root")
        os.makedirs(OUT, exist_ok=True)
        golden = load_golden()
        rng = random.Random(args.seed)
        setup_probe()  # untimed: compiles bytecode once, as an installed package would have
        if args.trace:
            t, metrics = trace_run(args.workload, rng, golden)
            units = PER_LAYER
            print(f"tracing overhead {metrics['trace.overhead_ms']:.1f} ms "
                  f"on {args.workload} (traced minus untraced, same inputs)")
        else:
            t = MEASURE[args.workload](rng, args.seconds, golden)
            metrics = end_to_end(args.workload, t)
            units = END_TO_END
        print(f"run digest {sha(chr(10).join(t.results))[:16]}")
    except HarnessError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": t.failed == 0,
        "attempted": t.attempted,
        "failed": t.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
