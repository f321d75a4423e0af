"""Benchmark worker: one fresh interpreter per job, so the library's
process-global caches (the metric memo, the oracle tables) start cold.

    worker.py probe                   set up, print "ready", exit
    worker.py job JOB.json OUT.json   run a job file, write timings and results
    worker.py cli TRACE -- ARGS...    run `trigasket ARGS...` with the tracer on

The worker only computes and times; run.py generates the inputs and checks
every result. A job with a "trace" path installs the tracer before set-up
and writes the spans there at exit; otherwise nothing is wrapped.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from fractions import Fraction

# Times are scaled to a machine on which calibrate() takes CAL_REF_S.
CAL_REF_S = 0.015
CAL_EVERY_S = 0.25


def calibrate() -> float:
    """Seconds for fixed pure-Python work of the library's kind: Fraction
    arithmetic, string slicing, dict inserts. Uses no trigasket code.

    The work runs as three equal parts and the median part counts, so one
    short burst does not skew the figure. The garbage collector is paused
    meanwhile: a collection would cost in proportion to the heap the
    library has built, not to the machine's speed."""
    parts = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(3):
            t0 = time.perf_counter()
            f = Fraction(0)
            d = {}
            s = "abcbcacab" * 12
            for i in range(800):
                f = (f + Fraction(i % 7, 1 << (i % 48 + 1))) / 2
                d[s[i % 90:], i % 3] = f
            parts.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return 3 * sorted(parts)[1]


class Clock:
    """Collects operation times and scales each to the reference speed.

    Shared machines change speed in phases of seconds, and a phase slows a
    piece of calibration work as much as it slows the library. So the
    calibration runs before the first operation and again whenever
    CAL_EVERY_S has passed, and each operation's time is multiplied by
    CAL_REF_S over the mean of the two calibrations around it.
    """

    def __init__(self) -> None:
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self._pending: list[float] = []
        self._cal = calibrate()
        self.cals = [self._cal]
        self._since = time.perf_counter()

    def add(self, seconds: float) -> None:
        self._pending.append(seconds)
        if time.perf_counter() - self._since >= CAL_EVERY_S:
            self.flush()

    def flush(self) -> None:
        """Calibrate again and scale every operation added since the last one."""
        if not self._pending:
            return
        cal = calibrate()
        self.cals.append(cal)
        factor = 2 * CAL_REF_S / (self._cal + cal)
        self.raw += self._pending
        self.scaled += [x * factor for x in self._pending]
        self._pending = []
        self._cal = cal
        self._since = time.perf_counter()

    def result(self) -> dict:
        self.flush()
        return {"times_s": self.raw, "scaled_s": self.scaled, "cal_s": self.cals}


def setup() -> None:
    """What a caller pays before its first operation: import plus coalgebra validation."""
    import trigasket.cli  # noqa: F401  (imports every layer)
    from trigasket.coalgebras import get_coalgebra

    get_coalgebra("gasket-sigma")
    get_coalgebra("delta")


def _frac(d) -> str:
    return f"{d.numerator}/{d.denominator}"


def run_dist_cold(job: dict, tracer) -> dict:
    from trigasket.metric import dist_G
    from trigasket.words import canonicalize, parse_word

    clock = Clock()
    results = []
    for op, (u, v) in enumerate(job["pairs"]):
        if tracer:
            tracer.begin_op(op)
        t0 = time.perf_counter()
        d = dist_G(canonicalize(parse_word(u)), canonicalize(parse_word(v)))
        clock.add(time.perf_counter() - t0)
        results.append(_frac(d))
    timing = clock.result()
    # deep probes: d(u,v), d(v,u) and d(mu,mv); a RecursionError is reported, not raised
    probes = []
    for op, (u, v, m) in enumerate(job["probes"], start=len(results)):
        if tracer:
            tracer.begin_op(op)
        row = []
        for a, b in ((u, v), (v, u), (m + u, m + v)):
            try:
                row.append(_frac(dist_G(canonicalize(parse_word(a)), canonicalize(parse_word(b)))))
            except RecursionError:
                row.append("RecursionError")
        probes.append(row)
    return {"results": results, "probes": probes, **timing}


def run_dist_matrix(job: dict, tracer) -> dict:
    from trigasket.metric import dist_level
    from trigasket.words import parse_word

    clock = Clock()
    results = []
    op = 0
    for matrix in job["matrices"]:
        level = matrix["level"]
        pts = [parse_word(t) for t in matrix["points"]]
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if tracer:
                    tracer.begin_op(op)
                op += 1
                t0 = time.perf_counter()
                d = dist_level(pts[i], pts[j], level)
                clock.add(time.perf_counter() - t0)
                results.append(_frac(d))
    return {"results": results, **clock.result()}


def run_verify(job: dict, tracer) -> dict:
    from trigasket.acceptance import SUITES, run_criterion

    clock = Clock()
    results = []
    for number in SUITES["all"]:
        if tracer:
            tracer.begin_op(number)
        t0 = time.perf_counter()
        r = run_criterion(number)
        clock.add(time.perf_counter() - t0)
        results.append(r.line())
    return {"results": results, **clock.result()}


KINDS = {"dist-cold": run_dist_cold, "dist-matrix": run_dist_matrix, "verify": run_verify}


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "probe":
        setup()
        print("ready", flush=True)
        return 0
    if mode == "job":
        with open(argv[1], encoding="utf-8") as fh:
            job = json.load(fh)
        tracer = None
        if job.get("trace"):
            import tracer as tracing

            tracer = tracing.install(job["run_id"])
        setup()
        out = KINDS[job["kind"]](job, tracer)
        if tracer:
            out["trace"] = tracer.write(job["trace"])
        with open(argv[2], "w", encoding="utf-8") as fh:
            json.dump(out, fh)
        return 0
    if mode == "cli":
        import tracer as tracing

        trace_path, sep, args = argv[1], argv[2], argv[3:]
        if sep != "--":
            raise SystemExit("usage: worker.py cli TRACE -- ARGS...")
        tracer = tracing.install(trace_path.rsplit("/", 1)[-1])
        tracer.begin_op(0)
        import trigasket.cli

        try:
            code = trigasket.cli.main(args)
        finally:
            tracer.write(trace_path)
        return code
    raise SystemExit(f"unknown worker mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
