"""Structure maps that produce one gluing step, and limits into the completion.

A coalgebra on X maps a point to (label, next point). Iterating it yields a
label trace; anchoring the trace after n steps at the corner matched to the
last label (a->T, b->L, c->R) gives a canonical address theta_n whose tail
is pinned down to within 2^-n. The limit of that sequence is the mediating
map into the completed address space. The gate `finality_check` returns
what it measured and raises ValidationError at its first breach.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence

from .metric import _dist_G_num
from .numerics import dyadic
from .spaces import Point, TriPointedSpace, ValidationError
from .words import (
    ANCHOR,
    AddressWord,
    CanonicalAddress,
    _word_with,
    canonicalize,
    corner_digits,
    prepend,
)


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

    A ValueError from the structure map is re-raised naming the coalgebra,
    the starting point x and the step that failed.
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
        labels.append(m)
    return "".join(labels), p


def _anchored(labels: str) -> CanonicalAddress:
    """A label trace anchored at the corner its last label fixes. A last
    label outside a, b, c fixes none, and the word's own label check, made
    before its terminal is read, rejects the trace as for any other label."""
    return canonicalize(AddressWord(labels, ANCHOR.get(labels[-1])))


def theta(co: Coalgebra, x: Point, n: int) -> CanonicalAddress:
    """The depth-n address approximant of x's limit."""
    if n < 1:
        raise ValueError("theta needs depth >= 1")
    labels, _ = unfold(co, x, n)
    return _anchored(labels)


def thetas(co: Coalgebra, x: Point, n: int) -> list[CanonicalAddress]:
    """theta(co, x, k) for k = 1..n from one unfold: anchored prefixes of one trace.

    The trace's digits are read, and so its labels checked, once: prefix k's
    digits are the top k of the trace's n. A trace the readout rejects, or
    one whose length is not n (a structure map gave a label that is not one
    character), goes through `_anchored` prefix by prefix, as `theta` does.
    """
    if n < 1:
        raise ValueError("theta needs depth >= 1")
    labels, _ = unfold(co, x, n)
    if len(labels) == n:
        try:
            t, l, r = corner_digits(labels)
        except ValueError:
            pass
        else:
            return [
                canonicalize(
                    _word_with(labels[:k], ANCHOR[labels[k - 1]], (t >> n - k, l >> n - k, r >> n - k))
                )
                for k in range(1, n + 1)
            ]
    return [_anchored(labels[:k]) for k in range(1, n + 1)]


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


def get_coalgebra(name: str) -> Coalgebra:
    """Built-in coalgebras by name: gasket-sigma, delta."""
    if name == "gasket-sigma":
        from .geometry import gasket_space, sigma_inv

        co = Coalgebra(gasket_space(), lambda p: sigma_inv(p), name="gasket-sigma")
    elif name == "delta":
        from .counterexamples import delta_coalgebra

        co = delta_coalgebra()
    else:
        raise KeyError(f"no built-in coalgebra {name!r}")
    validate_coalgebra(co)
    return co
