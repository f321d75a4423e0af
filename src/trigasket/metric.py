"""Exact quotient metrics on the gluing stages and on the address space.

One gluing formula carries the metric: within one copy distances halve;
across copies the shortest route either crosses the corner where the two
copies meet or detours through the third copy, whose crossing always costs
exactly 1 inside the outer minimum. `JUNCTIONS` names those corners for each
ordered pair of copies; like `words.GLUE`, it is read off `words.PAD`, the
one declaration of the gasket. The formula needs only each side's distances
to corners, and on words these have a closed form: one minus the barycentric
weight toward the corner, whose numerator reads the labels as binary digits
(`AddressWord.toward`, the (T, L, R) tuple of `words.corner_digits`,
which every word holds from construction). The kernel `_dist` is the one
place the formula is written on words (`spaces._tensor_dist` writes it for
any tri-pointed space), and it never reads a label string: a label is fixed
by its T and R digits, so the first differing label is the highest bit
where those readouts differ, and the two labels' codes 2*T + R at that
bit, packed into four bits, index `_JUNCTION_AT`, a 16-entry list of
`JUNCTIONS` with each corner given as its digit index and letter. It takes
the digits of two words of one level n, keeps no state between calls, and
returns the distance's integer numerator over 2^n. `dist_level` hands it
two words of the stated level; `dist_G` pads the shallower word with its
terminal's pad label, which names the same point and shifts its digits.
The gluing step M is the kernel one level finer: `tensor_dist_G` measures
copy mu of u against copy mv of v as the words mu + u and mv + v (digits
by `words._prefixed`). Each public function makes one kernel call and
turns its numerator into a Fraction with `numerics.dyadic`; the finality
check (`_dist_G_num`) and the acceptance criteria (`_dist`) compare the
numerators themselves, and criterion 1 reads the oracle's from its table.
`dist_oracle` rebuilds the same metric with none of that structure
(equivalence classes + Floyd-Warshall on min-over-representative edge
weights), so exact agreement between the two is a real check, not a
tautology. The oracle too stores and relaxes integer numerators over 2^n.
It glues class ids, not words, listing each level's classes in
`iter_words` order, weighs its edges a copy at a time and relaxes only
through the three junction classes of each level, the ones its own union
relations merge across copies, over half the table, which is exact (see
`_oracle_table`) and builds level 6 in about a tenth of a second.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from typing import NamedTuple, Optional

from .numerics import dyadic
from .words import (
    ANCHOR,
    LABELS,
    TERMINALS,
    AddressWord,
    CanonicalAddress,
    PAD,
    _LABEL_DIGITS,
    _prefixed,
)

# level n has (3^(n+1) + 3) / 2 classes; measured on CPython 3.11.7 on one
# core of a shared two-CPU machine, levels 4, 5 and 6 (1095 classes) build in
# 1.5 ms, 11 ms and 0.1 s, and building level 6 raises peak RSS by about
# 10 MB. Level 7 (3282 classes) would hold a distance table nine times as
# large.
ORACLE_MAX_LEVEL = 6

# Junction crossings, keyed by ordered copy pair (m, m'):
# (direct corner on m side, direct corner on m' side, via corner).
# Like `words.GLUE`, read off `words.PAD`: copy m meets copy m' at the corner
# m' keeps, ANCHOR[m'], and m' meets m at ANCHOR[m]. The via route's middle
# leg crosses the third copy k corner-to-corner and contributes exactly 1
# inside the minimum. Copies m and m' both meet k at k's anchor, so the via
# corner is the same on both sides.
JUNCTIONS: dict[tuple[str, str], tuple[str, str, str]] = {
    (m, m2): (ANCHOR[m2], ANCHOR[m], ANCHOR[k]) for m, m2, k in permutations(LABELS)
}


# A label's code is 2*T + R of its own digits: its digit is 1 toward the one
# corner it pads, so a reads 2, b reads 0 and c reads 1.
_CODE = {m: 2 * (m == PAD["T"]) + (m == PAD["R"]) for m in LABELS}

# a corner's index in a (T, L, R) digit tuple
_CORNER = {d: i for i, d in enumerate(TERMINALS)}

# JUNCTIONS indexed by the two copies' codes packed in four bits,
# code(m) << 2 | code(m2), each corner given as its digit index and its
# letter: (p index, p, q index, q, via index, via). The ten indices no pair
# of distinct copies packs to hold None.
_JUNCTION_AT: list[Optional[tuple[int, str, int, str, int, str]]] = [None] * 16
for (_m, _m2), _corners in JUNCTIONS.items():
    _JUNCTION_AT[_CODE[_m] << 2 | _CODE[_m2]] = tuple(
        x for c in _corners for x in (_CORNER[c], c)
    )


def _dist(tu: tuple, du: str, tv: tuple, dv: str, n: int) -> int:
    """2^n times the quotient metric between two level-n words given by their
    corner digits tu, tv and terminals du, dv: the gluing formula.

    The first differing label is the highest set bit m of the T and R
    readouts' differences, and the codes read there name the junction.
    Below it each word lies in its copy, and 2^m times its distance to
    corner c is 2^m minus its low m digits toward c, minus 1 if its terminal
    is c. The step into the copies and the n - m - 1 shared labels above it
    halve distances n - m times, so the cheaper crossing, direct or via, an
    integer over 2^m, is the distance's numerator over 2^n.
    """
    ut, _, ur = tu
    vt, _, vr = tv
    diff = (ut ^ vt) | (ur ^ vr)
    if not diff:
        return int(du != dv)
    m = diff.bit_length() - 1
    p, cp, q, cq, r, cr = _JUNCTION_AT[
        (ut >> m & 1) << 3 | (ur >> m & 1) << 2 | (vt >> m & 1) << 1 | vr >> m & 1
    ]
    s = 1 << m
    mask = s - 1
    direct = 2 * s - (tu[p] & mask) - (du == cp) - (tv[q] & mask) - (dv == cq)
    via = 3 * s - (tu[r] & mask) - (du == cr) - (tv[r] & mask) - (dv == cr)
    return direct if direct < via else via


def _padded(w: AddressWord, n: int) -> tuple[int, int, int]:
    """Corner digits of w padded to level n >= w.level: the same point.

    The k pad labels are all PAD[terminal], so they shift every readout up by
    k digits and add k one-digits toward the terminal only.
    """
    k = n - len(w.labels)
    if not k:
        return w.toward
    t, l, r = w.toward
    digits = [t << k, l << k, r << k]
    digits[_CORNER[w.terminal]] += (1 << k) - 1
    return tuple(digits)


def dist_level(u: AddressWord, v: AddressWord, level: int) -> Fraction:
    """Quotient metric between two words of the given common level; words
    of another level are rejected."""
    if len(u.labels) != level or len(v.labels) != level:
        raise ValueError(
            f"level mismatch: {u} is level {u.level}, {v} is level {v.level}, want {level}"
        )
    return dyadic(_dist(u.toward, u.terminal, v.toward, v.terminal, level), level)


def dist_G(u: CanonicalAddress, v: CanonicalAddress) -> Fraction:
    """Metric on the address space: pad to the deeper level, measure there."""
    num, n = _dist_G_num(u, v)
    return dyadic(num, n)


def _dist_G_num(u: CanonicalAddress, v: CanonicalAddress) -> tuple[int, int]:
    """dist_G(u, v) as (numerator, n) over 2^n, n the deeper word's level."""
    wu, wv = u.word, v.word
    n = max(len(wu.labels), len(wv.labels))
    return _dist(_padded(wu, n), wu.terminal, _padded(wv, n), wv.terminal, n), n


def tensor_dist_G(mu: str, u: CanonicalAddress, mv: str, v: CanonicalAddress) -> Fraction:
    """One gluing step over the address metric: the kernel one level finer.

    Label-prepending is an isometry, so this must equal
    dist_G(prepend(mu, u), prepend(mv, v)) exactly; the acceptance suite
    checks that equality. The result lies in 2^-(n+1) Z, n the deeper
    word's level: the step halves distances in a copy.
    """
    wu, wv = u.word, v.word
    n = max(len(wu.labels), len(wv.labels))
    num = _tensor(mu, _padded(wu, n), wu.terminal, mv, _padded(wv, n), wv.terminal, n)
    return dyadic(num, n + 1)


def _tensor(mu: str, tu: tuple, du: str, mv: str, tv: tuple, dv: str, n: int) -> int:
    """2^(n+1) times the one-step distance between copy mu of one level-n
    word and copy mv of another, given by their corner digits and terminals:
    the kernel on the level-(n+1) words mu + u and mv + v, whose digits put
    each label's digit on top (`words._prefixed`)."""
    return _dist(
        _prefixed(_LABEL_DIGITS[mu], tu, n), du, _prefixed(_LABEL_DIGITS[mv], tv, n), dv, n + 1
    )


# ---------------------------------------------------------------------------
# Independent oracle: explicit quotient construction + all-pairs shortest path
# ---------------------------------------------------------------------------


class _UnionFind:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[rj] = ri


class OracleTable(NamedTuple):
    """Level-n quotient space built from scratch: class ids and a distance matrix.

    `class_of` holds the class of each level-n word, in `iter_words(n)`
    order: word (labels, d) is entry 3 * (labels read in base 3, a b c for
    0 1 2) plus d's index in T L R. `dist` holds integer numerators over
    2^n, one row per class.
    """

    class_of: list[int]
    dist: list[list[int]]


@lru_cache(maxsize=None)
def _oracle_table(level: int) -> OracleTable:
    """The level-n quotient built from level n-1's: three copies of its
    classes, merged by the three union relations, weighted by the previous
    table and relaxed through the merged classes. It builds no word.

    If w is word i of level n-1 in `iter_words` order, m + w is word
    index(m) * 3^n + i of level n, so level n's `class_of` is copy a's
    image of the previous list, then copy b's, then copy c's. The corners
    a^k.T, b^k.L and c^k.R are the first, middle and last words of level k.

    Edge weights over 2^level are the min over representatives of the
    pre-quotient step metric. Inside one copy it is half the inner distance,
    and half of k/2^(level-1) is k/2^level, so the inner numerator carries
    over as is; across copies it is 1, numerator `one`. Each proto-node is
    in at most one union relation, so a class has at most one member per
    copy: copy m's proto-nodes lie in distinct classes, `at[c]` the class of
    (m, c), and taking the min of prev.dist[c1][c2] into
    dist[at[c1]][at[c2]], copy by copy, visits exactly the pairs of members
    that share a copy. The diagonal comes from prev.dist[c][c] = 0.

    Floyd-Warshall then runs through the bridge classes only: the classes
    whose members lie in two different copies, three at every level >= 1.
    Any other class is one proto-node in one copy. The previous level's dist
    is a shortest-path metric, so any run of hops inside one copy shortens
    to one hop, and a weight-`one` edge never beats the initial cap of
    `one`. So a shortest path changes copy only at a bridge class, and
    relaxing through the three bridges finds it: O(3 n^2) in place of
    O(n^3). The weights are symmetric, and relaxing through k leaves row
    and column k as they are (dist[k][k] = 0), so each pass keeps the table
    symmetric: it visits j > i only and writes dist[j][i] alongside
    dist[i][j]. An intermediate at distance `one` can never shorten a path,
    so its row is skipped.
    """
    if level == 0:
        dist = [[int(i != j) for j in range(3)] for i in range(3)]
        return OracleTable([0, 1, 2], dist)

    prev = _oracle_table(level - 1)
    # proto-nodes: (copy label, inner class); the three junction pairs merge
    proto = [(m, c) for m in "abc" for c in range(len(prev.dist))]
    index = {pc: i for i, pc in enumerate(proto)}
    uf = _UnionFind(len(proto))
    corner = {
        "T": prev.class_of[0],
        "L": prev.class_of[len(prev.class_of) // 2],
        "R": prev.class_of[-1],
    }
    # the gluing relations of one step: b.T~a.L, a.R~c.T, c.L~b.R
    glued = (
        (("b", corner["T"]), ("a", corner["L"])),
        (("a", corner["R"]), ("c", corner["T"])),
        (("c", corner["L"]), ("b", corner["R"])),
    )
    for p, q in glued:
        uf.union(index[p], index[q])

    roots = sorted({uf.find(i) for i in range(len(proto))})
    cid = {root: i for i, root in enumerate(roots)}
    n = len(roots)
    at = {m: [cid[uf.find(index[(m, c)])] for c in range(len(prev.dist))] for m in "abc"}

    one = 2**level
    dist = [[one] * n for _ in range(n)]
    for cls in at.values():
        for c1, prow in enumerate(prev.dist):
            row = dist[cls[c1]]
            for j, w in zip(cls, prow):
                if w < row[j]:
                    row[j] = w

    bridges = sorted(cid[uf.find(index[p])] for p, _ in glued)
    for k in bridges:
        dk = dist[k]
        for i in range(n):
            dik = dk[i]
            if dik >= one:
                continue
            di = dist[i]
            for j in range(i + 1, n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
                    dist[j][i] = alt

    return OracleTable([cls[c] for cls in at.values() for c in prev.class_of], dist)


def oracle_table(level: int) -> OracleTable:
    """The cached explicit quotient at a level (guarded: the space grows 3^n)."""
    if not 0 <= level <= ORACLE_MAX_LEVEL:
        raise ValueError(f"oracle supports levels 0..{ORACLE_MAX_LEVEL}, got {level}")
    return _oracle_table(level)


# a word's labels read as base-3 digits, a b c for 0 1 2
_BASE3 = str.maketrans("abc", "012")


def dist_oracle(u: AddressWord, v: AddressWord, level: int) -> Fraction:
    """Brute-force quotient-graph distance; independent of dist_level."""
    if u.level != level or v.level != level:
        raise ValueError("oracle arguments must both have the stated level")
    table = oracle_table(level)
    cu, cv = (
        table.class_of[int(w.labels.translate(_BASE3) or "0", 3) * 3 + _CORNER[w.terminal]]
        for w in (u, v)
    )
    return dyadic(table.dist[cu][cv], level)
