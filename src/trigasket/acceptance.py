"""Runnable acceptance criteria.

Ten numbered checks covering the metric kernel, the gluing functor, the
plane embedding, and the counterexample gallery. Each returns its PASS
detail or raises `Fail` with its FAIL detail; `run_criterion` turns that
into a CriterionResult, taking the number from `CRITERIA` and the name
from the function, and `run_suite` groups them the way the `verify`
subcommand exposes them. Every gate is exact: criteria 1-4 compare the
metric's integer numerators over powers of two and build a Fraction only to
print one, the rest compare Fractions. Randomness is seeded per criterion so
output is reproducible byte for byte.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random
from typing import Callable, NamedTuple

from trigasket.words import (
    LABELS,
    AddressWord,
    CanonicalAddress,
    canonical_at,
    canonicalize,
    count_canonical,
    glue_partner,
    iter_canonical,
    iter_words,
    parse_word,
    prepend,
    _LABEL_DIGITS,
    _prefixed,
)
from trigasket.metric import (
    _dist,
    _padded,
    OracleTable,
    dist_G,
    oracle_table,
)
from trigasket.coalgebras import finality_check, get_coalgebra, thetas
from trigasket.algebras import Algebra, check_algebra_morphism, get_algebra, mediate_from_initial
from trigasket.geometry import (
    VERTEX,
    Point2,
    coords,
    exact_address,
    sigma,
    sigma_inv,
)
from trigasket.counterexamples import APEX, delta_nonlipschitz_report, delta_point
from trigasket.numerics import dyadic
from trigasket.spaces import ValidationError


class CriterionResult(NamedTuple):
    number: int
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] {self.number:>2} {self.name}: {self.detail}"


class Fail(Exception):
    """A criterion's FAIL verdict; the message is its detail."""


def _below(getrandbits: Callable[[int], int], n: int) -> int:
    """A draw from range(n), n >= 1, by `Random`'s own rejection loop: draw
    n.bit_length() bits until the value is below n.

    `Random.choice(seq)` is `seq[_randbelow(len(seq))]` and `randint(a, b)` is
    `a + _randbelow(b - a + 1)`, and `_randbelow` is this loop, so from one
    seed these are exactly their draws, without the three Python frames each
    of them passes through. Criteria 1 and 2 draw tens of thousands of times
    through it; criteria 3, 4 and 9 draw canonical words by index through
    it, so that they build only the words they draw (`canonical_at`).
    """
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _read(level: int) -> tuple[list[AddressWord], list, list, list[int], OracleTable]:
    """The level's words, their digits, terminals and oracle classes, and its table."""
    ws = list(iter_words(level))
    table = oracle_table(level)
    return ws, [w.toward for w in ws], [w.terminal for w in ws], table.class_of, table


def metric_matches_oracle() -> str:
    """Closed-form two-path kernel (dist_level) vs brute-force quotient-graph metric.

    Each level's oracle table is taken once and each word's digits, terminal
    and class read once, so a pair costs one kernel call on words of the
    stated level and one read of the table's numerator.
    """
    checked = 0
    for level in range(4):
        ws, tw, dw, cls, table = _read(level)
        for i in range(len(ws)):
            tu, du, row = tw[i], dw[i], table.dist[cls[i]]
            for j in range(i + 1, len(ws)):
                if _dist(tu, du, tw[j], dw[j], level) != row[cls[j]]:
                    raise Fail(f"mismatch at level {level}: {ws[i].text} / {ws[j].text}")
                checked += 1
    getrandbits = Random(1001).getrandbits
    ws, tw, dw, cls, table = _read(4)
    for _ in range(10_000):
        i = _below(getrandbits, len(ws))
        j = _below(getrandbits, len(ws))
        if _dist(tw[i], dw[i], tw[j], dw[j], 4) != table.dist[cls[i]][cls[j]]:
            raise Fail(f"mismatch at level 4: {ws[i].text} / {ws[j].text}")
        checked += 1
    return f"exact equality on {checked} pairs (levels 0-3 exhaustive, 10000 random at level 4)"


def _prefix_text(pt: int, pr: int, n: int) -> str:
    """The n labels whose T and R readouts are pt and pr."""
    return "".join(
        "a" if pt >> i & 1 else "c" if pr >> i & 1 else "b" for i in range(n - 1, -1, -1)
    )


def prefix_diameter_bound() -> str:
    """A shared n-label prefix confines any two tails to diameter 2^-n.

    The words have level n + t, so the bounds on numerators over 2^(n+t)
    are 2^t and 2^(t+1). Each sample draws its prefix as digits: label r
    (a, b, c for r = 0, 1, 2) appends a 1 to the T readout if r = 0 and to
    the R readout if r = 2, and the L readout is the rest of 2^n - 1. The
    prefix's digits shifted up by t, ORed with a tail's digits, are
    exactly the digits of the word prefix + tail, and the draws, made by
    `_below`, are the same draws `Random.choice` and `randint` give, in the
    same order as when each sample built its words, so the kernel gets the
    same inputs, and gives the same results, as it would on the built
    words. No prefix string is built unless a check fails.
    """
    getrandbits = Random(1002).getrandbits
    tails = [list(iter_words(t)) for t in range(3)]

    def sample() -> tuple[int, int, tuple[int, int, int]]:
        """n, t and the prefix's digits shifted up by t."""
        # randint(0, 10), n times choice(LABELS) with `_below` inlined, randint(0, 2)
        n = _below(getrandbits, 11)
        pt = pr = 0
        for _ in range(n):
            r = getrandbits(2)
            while r == 3:
                r = getrandbits(2)
            pt = pt << 1 | (r == 0)
            pr = pr << 1 | (r == 2)
        t = _below(getrandbits, 3)
        return n, t, (pt << t, ((1 << n) - 1 - pt - pr) << t, pr << t)

    for _ in range(10_000):
        n, t, (pt, pl, pr) = sample()
        ts = tails[t]
        k = len(ts)
        x1, x2 = ts[_below(getrandbits, k)], ts[_below(getrandbits, k)]
        (t1, l1, r1), (t2, l2, r2) = x1.toward, x2.toward
        d = _dist(
            (pt | t1, pl | l1, pr | r1), x1.terminal, (pt | t2, pl | l2, pr | r2), x2.terminal, n + t
        )
        if d > 1 << t:
            prefix = _prefix_text(pt >> t, pr >> t, n)
            raise Fail(f"d > 2^-{n} for prefix {prefix!r}, tails {x1.text}/{x2.text}")
    for _ in range(10_000):
        n, t, (pt, pl, pr) = sample()
        ts = tails[t]
        k = len(ts)
        x1, x2 = ts[_below(getrandbits, k)], ts[_below(getrandbits, k)]
        y1, y2 = ts[_below(getrandbits, k)], ts[_below(getrandbits, k)]
        level = n + t
        (t1, l1, r1), (t2, l2, r2) = x1.toward, x2.toward
        d1 = _dist(
            (pt | t1, pl | l1, pr | r1), x1.terminal, (pt | t2, pl | l2, pr | r2), x2.terminal, level
        )
        (t1, l1, r1), (t2, l2, r2) = y1.toward, y2.toward
        d2 = _dist(
            (pt | t1, pl | l1, pr | r1), y1.terminal, (pt | t2, pl | l2, pr | r2), y2.terminal, level
        )
        if abs(d1 - d2) > 2 << t:
            raise Fail(f"|d1-d2| > 2^(1-{n}) for prefix {_prefix_text(pt >> t, pr >> t, n)!r}")
    return "10000 pair samples within 2^-n and 10000 quadruples within 2^(1-n), levels 0-10"


def gluing_step_isometry() -> str:
    """Prepending a label is an isometry from the glued tensor onto its image.

    The tensor side is the kernel one level finer, as in `tensor_dist_G`:
    each padded word with each label's digit put on top (`_prefixed`). The
    image side is the kernel on the padded canonical words `prepend` builds.
    """
    getrandbits = Random(1003).getrandbits
    count = count_canonical(8)
    checked = 0
    for _ in range(1_000):
        u = canonical_at(_below(getrandbits, count))
        v = canonical_at(_below(getrandbits, count))
        pu = [prepend(m, u) for m in LABELS]
        pv = [prepend(m, v) for m in LABELS]
        # u and v padded once to their common level n, then glued under each
        # label (level la = n + 1); the six images padded once to level lb
        wu, wv = u.word, v.word
        du, dv = wu.terminal, wv.terminal
        n = max(len(wu.labels), len(wv.labels))
        tu, tv, la = _padded(wu, n), _padded(wv, n), n + 1
        lb = max(len(x.word.labels) for x in (*pu, *pv))
        copies_v = [
            (m, _prefixed(_LABEL_DIGITS[m], tv, n), _padded(x.word, lb), x.word.terminal)
            for m, x in zip(LABELS, pv)
        ]
        for mu, x in zip(LABELS, pu):
            su, iu, eu = _prefixed(_LABEL_DIGITS[mu], tu, n), _padded(x.word, lb), x.word.terminal
            for mv, sv, iv, ev in copies_v:
                a = _dist(su, du, sv, dv, la)
                b = _dist(iu, eu, iv, ev, lb)
                if a << lb != b << la:
                    raise Fail(
                        f"{mu}*{u.text} / {mv}*{v.text}: "
                        f"tensor {dyadic(a, la)} vs image {dyadic(b, lb)}"
                    )
                checked += 1
    return f"exact equality on {checked} label-pair combinations (1000 address pairs, levels <= 8)"


def uniform_cauchy_modulus() -> str:
    """d_G(theta_p, theta_q) <= 2^-p for p < q, same modulus for every point.

    theta_k has level at most k, so each point's 14 approximants are padded
    once to level 14, where the distance's numerator is over 2^14.
    """
    rng = Random(1004)
    count = count_canonical(6)
    gasket_pts = [VERTEX["T"], VERTEX["L"], VERTEX["R"]]
    while len(gasket_pts) < 200:
        gasket_pts.append(coords(canonical_at(_below(rng.getrandbits, count))))
    delta_pts = [APEX]
    while len(delta_pts) < 200:
        den = rng.randint(1, 4096)
        delta_pts.append(delta_point(Fraction(rng.randint(0, den), den)))

    checked = 0
    for name, pts in (("gasket-sigma", gasket_pts), ("delta", delta_pts)):
        co = get_coalgebra(name)
        for x in pts:
            ths = [(_padded(t.word, 14), t.word.terminal) for t in thetas(co, x, 14)]
            for p in range(1, 14):
                tp, dp = ths[p - 1]
                for q in range(p + 1, 15):
                    tq, dq = ths[q - 1]
                    if _dist(tp, dp, tq, dq, 14) << p > 1 << 14:
                        raise Fail(f"{name}: d(theta_{p}, theta_{q}) > 2^-{p} at {x!r}")
                    checked += 1
    return f"{checked} (p,q) comparisons, 200 points per coalgebra, depths to 14, zero violations"


def _tear(alg: Algebra, near: str, label: str, far: str) -> None:
    """The algebra's mediating map tears the addresses apart at a corner:
    label^n.far lies exactly 2^-n from .near, yet the map sends the two to
    the marked points far and near, at distance 1, for n = 1..10."""
    check_algebra_morphism(alg, lambda u: mediate_from_initial(alg, u), 4)
    space = alg.space
    x = canonicalize(parse_word(f".{near}"))
    fx = mediate_from_initial(alg, x)
    if fx != getattr(space, near):
        raise Fail(f"{alg.name}: f(.{near}) = {fx!r}, want {getattr(space, near)!r}")
    for n in range(1, 11):
        xn = canonicalize(parse_word(f"{label * n}.{far}"))
        fn = mediate_from_initial(alg, xn)
        dom = dist_G(xn, x)
        img = space.dist(fn, fx)
        if fn != getattr(space, far) or dom != Fraction(1, 2**n) or img != 1:
            raise Fail(f"{alg.name}: n={n}: f={fn!r}, domain {dom}, image {img}")


def three_point_collapse() -> str:
    """Mediating map onto the 3-point algebra tears apart converging addresses."""
    _tear(get_algebra("Y"), "T", "a", "L")
    return "f(a^n.L)='l' at domain distance 2^-n from f(.T)='t', image distance 1, n=1..10"


def edge_drain_collapse() -> str:
    """Same tear on the marked-triple algebra that drains the bottom edge to R."""
    _tear(get_algebra("I-e"), "L", "b", "R")
    return "h(b^n.R)=R within 2^-n of h(.L)=L, image distance 1, n=1..10"


def unbounded_expansion() -> str:
    """Witness pairs certify expansion ratio >= 2*2^n for the fold coalgebra."""
    rows = delta_nonlipschitz_report(10)
    if coords(parse_word(".L")) != Point2(Fraction(0), Fraction(0)):
        raise Fail("L corner is not the origin")
    for row in rows:
        limit_y = coords(parse_word("b" * row.n + ".R"))
        want_y = Point2(Fraction(1, 2**row.n), Fraction(0))
        if limit_y != want_y:
            raise Fail(f"n={row.n}: y-limit point is not (1/2^{row.n}, 0)")
    final = rows[-1].ratio
    return f"limits pinned to within 2^-16, ratios exactly 2*2^n (n=1..10, final {final})"


def plane_embedding_roundtrip() -> str:
    """Similitude fixed points, address round trips, junction coincidence."""
    fixed = [
        ("a", VERTEX["T"], Point2(Fraction(1, 2), Fraction(1, 2))),
        ("b", VERTEX["L"], Point2(Fraction(0), Fraction(0))),
        ("c", VERTEX["R"], Point2(Fraction(1), Fraction(0))),
    ]
    for m, v, want in fixed:
        if v != want or sigma(m, v) != v:
            raise Fail(f"sigma_{m} fixed point is off")

    trips = 0
    for w in iter_canonical(6):
        p = coords(w)
        if exact_address(p) != w:
            raise Fail(f"exact_address(coords({w.text})) != {w.text}")
        for m in LABELS:
            q = sigma(m, p)
            m2, p2 = sigma_inv(q)
            if sigma(m2, p2) != q:
                raise Fail(f"sigma_inv(sigma({m}, coords({w.text}))) moved the point")
            if prepend(m, w).word.labels[:1] == m and (m2, p2) != (m, p):
                raise Fail(f"canonical peel of {m}*{w.text} is not ({m}, coords({w.text}))")
            trips += 1

    junctions = 0
    for level in range(1, 6):
        for u in iter_words(level):
            v = glue_partner(u)
            if v is None:
                continue
            if coords(u) != coords(v):
                raise Fail(f"{u.text} ~ {v.text} but coords differ")
            junctions += 1
    return (
        f"3 fixed points exact, {trips} sigma round trips (levels <= 6), "
        f"{junctions} junction words with coinciding coordinates"
    )


def finality_square() -> str:
    """Unfold-then-anchor commutes with one coalgebra step; corruption must not."""
    rng = Random(1009)
    count = count_canonical(5)
    sample_g = [VERTEX["T"], VERTEX["L"], VERTEX["R"]]
    while len(sample_g) < 20:
        sample_g.append(coords(canonical_at(_below(rng.getrandbits, count))))
    sample_d = [APEX, delta_point(Fraction(1, 3)), delta_point(Fraction(2, 7)),
                delta_point(Fraction(1, 2)), delta_point(Fraction(5, 16))]
    while len(sample_d) < 20:
        den = rng.randint(1, 1024)
        sample_d.append(delta_point(Fraction(rng.randint(0, den), den)))

    gask = get_coalgebra("gasket-sigma")
    delt = get_coalgebra("delta")
    defect = max(finality_check(gask, sample_g, 12), finality_check(delt, sample_d, 12))

    flip = {"a": "b", "b": "c", "c": "a"}

    def flipped(t: CanonicalAddress) -> CanonicalAddress:
        w = t.word
        if w.level == 0:
            return t
        return canonicalize(AddressWord(flip[w.labels[0]] + w.labels[1:], w.terminal))

    try:
        finality_check(delt, sample_d, 12, lambda p, n: [flipped(t) for t in thetas(delt, p, n)])
    except ValidationError:
        return (
            f"both coalgebras commute to depth 12 with defect {defect} "
            f"(bound 2^(1-k)); corrupted candidate breaches the bound"
        )
    raise Fail("corrupted candidate passed")


def canonicalization_complete() -> str:
    """Canonical forms separate points exactly as the brute-force closure does."""
    expected = {0: 3, 1: 6, 2: 15, 3: 42, 4: 123}
    total = 0
    for level in range(5):
        table = oracle_table(level)
        by_class: dict[int, set[CanonicalAddress]] = {}
        for w, c in zip(iter_words(level), table.class_of):
            by_class.setdefault(c, set()).add(canonicalize(w))
            total += 1
        if len(by_class) != expected[level]:
            raise Fail(f"level {level}: {len(by_class)} classes, want {expected[level]}")
        if any(len(forms) != 1 for forms in by_class.values()):
            raise Fail(f"level {level}: some closure class has two canonical forms")
        forms = {next(iter(f)) for f in by_class.values()}
        if len(forms) != len(by_class):
            raise Fail(f"level {level}: distinct classes share a canonical form")
    return (
        f"partitions identical on all {total} words of levels 0-4 "
        f"(class counts 3, 6, 15, 42, 123)"
    )


# -------------------------------------------------------------------- suites


CRITERIA: tuple[tuple[int, Callable[[], str]], ...] = (
    (1, metric_matches_oracle),
    (2, prefix_diameter_bound),
    (3, gluing_step_isometry),
    (4, uniform_cauchy_modulus),
    (5, three_point_collapse),
    (6, edge_drain_collapse),
    (7, unbounded_expansion),
    (8, plane_embedding_roundtrip),
    (9, finality_square),
    (10, canonicalization_complete),
)

SUITES: dict[str, tuple[int, ...]] = {
    "metric": (1, 2, 3, 10),
    "functor": (4, 8, 9),
    "counterexamples": (5, 6, 7),
    "all": tuple(range(1, 11)),
}


def run_criterion(number: int) -> CriterionResult:
    """Run one criterion and give its verdict: a return is PASS with that
    detail, `Fail` is FAIL with its message, and any other exception is a
    FAIL that names it, not a crash."""
    fn = dict(CRITERIA).get(number)
    if fn is None:
        raise ValueError(f"no criterion numbered {number}")
    name = fn.__name__.replace("_", "-")
    try:
        return CriterionResult(number, name, True, fn())
    except Fail as exc:
        detail = str(exc)
    except Exception as exc:
        detail = f"raised {type(exc).__name__}: {exc}"
    return CriterionResult(number, name, False, detail)


def run_suite(suite: str = "all") -> list[CriterionResult]:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    return [run_criterion(n) for n in SUITES[suite]]
