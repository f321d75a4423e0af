"""Structure maps that produce one gluing step, and limits into the completion.

A coalgebra on X maps a point to (label, next point). Iterating it yields a
label trace; anchoring the trace after n steps at the corner matched to the
last label (a->T, b->L, c->R) gives a canonical address theta_n whose tail
is pinned down to within 2^-n. The limit of that sequence is the mediating
map into the completed address space. The gate `finality_check` returns
what it measured and raises ValidationError at its first breach. `BUILTIN`
declares each built-in coalgebra with the reader of its `--point` text,
which reads rationals with `numerics._fraction`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence

from .metric import _dist_G_num
from .numerics import _fraction, dyadic
from .spaces import Point, TriPointedSpace, ValidationError
from .words import (
    ANCHOR,
    LABELS,
    AddressWord,
    CanonicalAddress,
    _word_with,
    canonicalize,
    corner_digits,
    prepend,
)

_LABELS = tuple(LABELS)


class Coalgebra(NamedTuple):
    space: TriPointedSpace
    e: Callable[[Point], tuple[str, Point]]
    name: str = "coalgebra"


def validate_coalgebra(co: Coalgebra) -> None:
    """Marked points must map to their own copy's marked pair.

    (a,T), (b,L), (c,R) have no glued twin, so equality here is exact, not
    up-to-gluing.
    """
    for m, nm in ANCHOR.items():
        x = getattr(co.space, nm)
        got = co.e(x)
        if got != (m, x):
            raise ValidationError(f"{co.name}: e({nm}) = {got!r}, expected ({m!r}, {nm})")


def unfold(co: Coalgebra, x: Point, n: int) -> tuple[str, Point]:
    """Iterate the structure map n times: the label trace and the final point.

    A ValueError from the structure map, or a label it returns that is not
    one of a, b, c, is raised naming the coalgebra, the starting point x and
    the step that failed; so the trace is n labels long.
    """
    if n < 0:
        raise ValueError("depth must be nonnegative")
    labels = []
    p = x
    for step in range(1, n + 1):
        try:
            m, p = co.e(p)
        except ValueError as exc:
            raise ValueError(f"{co.name}: unfolding {x} failed at step {step}: {exc}") from exc
        # compared, not hashed, so a label of any type is reported
        if m not in _LABELS:
            raise ValueError(f"{co.name}: unfolding {x} failed at step {step}: bad label {m!r}")
        labels.append(m)
    return "".join(labels), p


def theta(co: Coalgebra, x: Point, n: int) -> CanonicalAddress:
    """The depth-n address approximant of x's limit."""
    if n < 1:
        raise ValueError("theta needs depth >= 1")
    labels, _ = unfold(co, x, n)
    return canonicalize(AddressWord(labels, ANCHOR[labels[-1]]))


def thetas(co: Coalgebra, x: Point, n: int) -> list[CanonicalAddress]:
    """theta(co, x, k) for k = 1..n from one unfold: anchored prefixes of one trace.

    Prefix k anchors at the corner its last label m keeps, whose pad label
    is m, so canonicalizing strips the whole run of m's that ends it: every
    prefix inside one run labels[s:e] has the same canonical word, labels[:s]
    anchored at ANCHOR[m] and rewritten if labels[s-1] makes it a rewrite
    source. So one word is built per run, from the top digits of the
    trace's, which are read once, and repeated along the run.
    """
    if n < 1:
        raise ValueError("theta needs depth >= 1")
    labels, _ = unfold(co, x, n)
    t, l, r = corner_digits(labels)
    ths = []
    for k in range(1, n + 1):
        m = labels[k - 1]
        if k > 1 and m == labels[k - 2]:
            ths.append(ths[-1])
        else:
            sh = n - k
            toward = (t >> sh, l >> sh, r >> sh)
            ths.append(canonicalize(_word_with(AddressWord, labels[:k], ANCHOR[m], toward)))
    return ths


def finality_check(
    co: Coalgebra,
    sample: Sequence[Point],
    depth: int,
    thetas_fn: Optional[Callable[[Point, int], list[CanonicalAddress]]] = None,
) -> Fraction:
    """One-step compatibility of the candidate limit map with the coalgebra.

    For e(x) = (m1, x1) the address theta(x, k) must agree with m1 glued onto
    theta(x1, k-1) to within 2^(1-k); `thetas_fn(p, n)` gives a point's
    approximants for depths 1..n. For the built-in `thetas` the two sides
    are the same trace shifted by one step, so the defect is exactly 0; the
    bound is the one the limit argument guarantees for any correct candidate,
    and a corrupted candidate (wrong label on a branch) must breach it.
    Returns the worst defect; raises ValidationError at the first breach.
    """
    if thetas_fn is None:
        thetas_fn = lambda p, n: thetas(co, p, n)
    worst, wn = 0, 0  # the worst defect so far, as a numerator over 2^wn
    for x in sample:
        m1, x1 = co.e(x)
        ths, ths1 = thetas_fn(x, depth), thetas_fn(x1, depth - 1)
        for k in range(2, depth + 1):
            lhs, rhs = ths[k - 1], prepend(m1, ths1[k - 2])
            num, n = _dist_G_num(lhs, rhs)
            if num << (k - 1) > 1 << n:
                raise ValidationError(
                    f"{co.name}: finality square breached at x={x!r} k={k}: "
                    f"{lhs.text} vs {rhs.text} (defect {dyadic(num, n)} > 2^{1 - k})"
                )
            if num << wn > worst << n:
                worst, wn = num, n
    return dyadic(worst, wn)


def _gasket_sigma() -> Coalgebra:
    from .geometry import gasket_space, sigma_inv

    return Coalgebra(gasket_space(), sigma_inv, name="gasket-sigma")


def _gasket_point(spec: str) -> Point:
    from .geometry import Point2

    parts = spec.split(",")
    if len(parts) != 2:
        raise ValueError(
            f"gasket-sigma points are written 'x,ycoeff' (y = ycoeff*sqrt(3)), got {spec!r}"
        )
    return Point2(_fraction(parts[0]), _fraction(parts[1]))


def _delta() -> Coalgebra:
    from .counterexamples import delta_coalgebra

    return delta_coalgebra()


def _delta_point(spec: str) -> Point:
    from .counterexamples import APEX, delta_point

    return APEX if spec == "apex" else delta_point(_fraction(spec))


# Each built-in coalgebra once: name -> (builder, how `--point` writes a point,
# reader of that text). Builders and readers import when called, so importing
# the table imports no more of the package.
BUILTIN = {
    "gasket-sigma": (_gasket_sigma, "'x,ycoeff'", _gasket_point),
    "delta": (_delta, "'apex' or a rational", _delta_point),
}


def get_coalgebra(name: str) -> Coalgebra:
    """The built-in coalgebra `name`, built from its row of BUILTIN and validated."""
    if name not in BUILTIN:
        raise KeyError(f"no built-in coalgebra {name!r}")
    co = BUILTIN[name][0]()
    validate_coalgebra(co)
    return co
