"""Span tracer installed around trigasket's public functions from outside.

`install()` wraps each name in TRACED and rebinds the wrapper in every
`trigasket.*` module namespace that holds the original function object.
Rebinding everywhere matters: `acceptance` and `cli` bind the names with
`from ... import`, while `dist_G -> dist_level` and `coords -> sigma` call
them through module globals. No file of the library changes.

Spans are kept in memory (name, parent span, operation id, start, end) and
written out by `Tracer.write`. A function's self time is its spans'
duration minus the time covered by their child spans. Generators such as
`iter_words` and `iter_canonical` get no span: their cost lands in the
self time of whichever traced function iterates them.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

TRACED: dict[str, tuple[str, ...]] = {
    "words": ("parse_word", "canonicalize", "embed"),
    "metric": ("dist_G", "dist_level", "tensor_dist_G", "oracle_table", "dist_oracle"),
    "geometry": (
        "coords", "sigma", "sigma_inv", "in_triangle", "address_of",
        "exact_address", "render_points", "render",
    ),
    "coalgebras": ("theta", "unfold", "finality_check", "get_coalgebra"),
    "algebras": ("mediate_from_initial",),
    "counterexamples": ("delta_nonlipschitz_report",),
}

# counts derived at the same boundaries as the spans
COUNTS = (
    "metric.dist_level.level_max",
    "metric.result_bits_max",
    "metric.dist_G.recursion_errors",
    "geometry.address_of.peels",
    "coalgebras.theta.steps",
    "metric.oracle_table.levels_built",
)

_FRACTION_RESULTS = {"metric.dist_G", "metric.dist_level", "metric.tensor_dist_G", "metric.dist_oracle"}


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: list[str] = []
        self.name_ix = array("l")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.op_id = -1
        self.level_max = 0
        self.bits_max = 0
        self.recursion_errors = 0
        self.theta_steps = 0
        self.oracle_levels: set[int] = set()

    def begin_op(self, op_id: int) -> None:
        """Mark the start of one benchmark operation; its spans carry this id."""
        self.op_id = op_id

    def _observe(self, qual: str, args: tuple, kwargs: dict, result: object) -> None:
        if qual in _FRACTION_RESULTS:
            self.bits_max = max(self.bits_max, result.denominator.bit_length())
        if qual == "metric.dist_level":
            self.level_max = max(self.level_max, kwargs.get("level", args[2] if len(args) > 2 else 0))
        elif qual == "coalgebras.theta":
            self.theta_steps += kwargs.get("n", args[2] if len(args) > 2 else 0)
        elif qual == "metric.oracle_table":
            self.oracle_levels.add(kwargs.get("level", args[0] if args else 0))

    def wrap(self, qual: str, fn):
        ix = len(self.names)
        self.names.append(qual)
        clock = time.perf_counter_ns
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.start)
            self.name_ix.append(ix)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.end.append(0)
            stack.append(sid)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except RecursionError:
                if qual == "metric.dist_G":
                    self.recursion_errors += 1
                raise
            finally:
                self.end[sid] = clock()
                stack.pop()
            self._observe(qual, args, kwargs, result)
            return result

        return wrapper

    def summary(self) -> dict:
        """Per-function calls and self time, plus the counts in COUNTS."""
        n = len(self.start)
        child = [0] * n
        for sid in range(n):
            p = self.parent[sid]
            if p >= 0:
                child[p] += self.end[sid] - self.start[sid]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for sid in range(n):
            ix = self.name_ix[sid]
            calls[ix] += 1
            self_ns[ix] += self.end[sid] - self.start[sid] - child[sid]
        peels = 0
        if "geometry.sigma_inv" in self.names and "geometry.address_of" in self.names:
            inv = self.names.index("geometry.sigma_inv")
            addr = self.names.index("geometry.address_of")
            peels = sum(
                1 for sid in range(n)
                if self.name_ix[sid] == inv and self.parent[sid] >= 0
                and self.name_ix[self.parent[sid]] == addr
            )
        out: dict = {}
        for ix, qual in enumerate(self.names):
            out[f"{qual}.calls"] = calls[ix]
            out[f"{qual}.self_ms"] = self_ns[ix] / 1e6
        out["metric.dist_level.level_max"] = self.level_max
        out["metric.result_bits_max"] = self.bits_max
        out["metric.dist_G.recursion_errors"] = self.recursion_errors
        out["geometry.address_of.peels"] = peels
        out["coalgebras.theta.steps"] = self.theta_steps
        out["metric.oracle_table.levels_built"] = len(self.oracle_levels)
        return out

    def write(self, path: str) -> dict:
        """Write every span as TSV to `path`.tsv and the summary to `path`.json."""
        with open(path + ".tsv", "w", encoding="utf-8") as fh:
            fh.write("run\tspan\tparent\top\tname\tstart_ns\tend_ns\n")
            for sid in range(len(self.start)):
                fh.write(
                    f"{self.run_id}\t{sid}\t{self.parent[sid]}\t{self.op[sid]}"
                    f"\t{self.names[self.name_ix[sid]]}"
                    f"\t{self.start[sid]}\t{self.end[sid]}\n"
                )
        summary = self.summary()
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump(summary, fh, sort_keys=True)
        return summary


def install(run_id: str) -> Tracer:
    """Import the whole package, then wrap every name in TRACED wherever it is bound."""
    importlib.import_module("trigasket")
    importlib.import_module("trigasket.cli")
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "trigasket" or name.startswith("trigasket."))]
    tracer = Tracer(run_id)
    for modname, fnames in TRACED.items():
        home = sys.modules[f"trigasket.{modname}"]
        for fname in fnames:
            orig = getattr(home, fname)
            wrapped = tracer.wrap(f"{modname}.{fname}", orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
    return tracer
