"""Tri-pointed metric spaces, the gluing construction on them, and map certifiers.

A tri-pointed space is a 1-bounded metric space with marked points T, L, R
pairwise at distance 1. The gluing of a space X takes three labeled copies,
halves distances inside each copy, and identifies the corner pairs of
`words.GLUE`, read off `words.PAD`, the one declaration of the gasket:
(b,T)=(a,L), (a,R)=(c,T), (c,L)=(b,R); its marked points are (a,T), (b,L),
(c,R). A map's claim is ISOMETRIC or a Lipschitz constant, certified
exactly on a finite carrier or a supplied sample of pairs: a breached
claim, like any other violated invariant, raises ValidationError naming
its witness.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import combinations
from typing import Callable, Hashable, Iterable, NamedTuple, Optional

from .metric import JUNCTIONS
from .numerics import MetricValue
from .words import LABELS, PAD, REWRITE

Point = Hashable

HALF = Fraction(1, 2)
ONE = Fraction(1)


class ValidationError(ValueError):
    """A space or structure map violates its declared invariants."""


class TriPointedSpace(NamedTuple):
    """Carrier with an exact metric and marked points T, L, R.

    `points` enumerates finite carriers (None means infinite/abstract); the
    metric must return exactly comparable values (Fraction or RadicalSum).
    """

    name: str
    dist: Callable[[Point, Point], MetricValue]
    T: Point
    L: Point
    R: Point
    points: Optional[tuple[Point, ...]] = None

    @property
    def marked(self) -> tuple[Point, Point, Point]:
        return (self.T, self.L, self.R)

    def is_finite(self) -> bool:
        return self.points is not None


def validate_space(space: TriPointedSpace) -> None:
    """Marked distances exactly 1, and the metric axioms on the carrier's
    points: all of them when finite, the marked points otherwise."""
    for p, q in combinations(space.marked, 2):
        if space.dist(p, q) != ONE:
            raise ValidationError(
                f"{space.name}: marked points {p!r}, {q!r} not at distance 1"
            )
    pts = space.points if space.is_finite() else space.marked
    for p in pts:
        if space.dist(p, p) != 0:
            raise ValidationError(f"{space.name}: d({p!r},{p!r}) != 0")
    for p, q in combinations(pts, 2):
        d1, d2 = space.dist(p, q), space.dist(q, p)
        if d1 != d2:
            raise ValidationError(f"{space.name}: asymmetric at {p!r},{q!r}")
        if d1 > ONE:
            raise ValidationError(f"{space.name}: d({p!r},{q!r}) > 1")
        if d1 <= 0:
            raise ValidationError(f"{space.name}: distinct points at distance 0")
    for p, q, r in combinations(pts, 3):
        for x, y, z in ((p, q, r), (q, r, p), (r, p, q)):
            if space.dist(x, y) > space.dist(x, z) + space.dist(z, y):
                raise ValidationError(f"{space.name}: triangle fails at {x!r},{y!r},{z!r}")


def glue_normalize(m: str, x: Point, base: TriPointedSpace) -> tuple[str, Point]:
    """Canonical member of a labeled point's glued pair (the words' junction rewrite)."""
    for (m1, d1), (m2, d2) in REWRITE.items():
        if m == m1 and x == getattr(base, d1):
            return m2, getattr(base, d2)
    return m, x


def _tensor_dist(base: TriPointedSpace) -> Callable[[Point, Point], MetricValue]:
    """Half the base distance in one copy; across copies, the cheaper crossing."""

    def dist(p: Point, q: Point) -> MetricValue:
        (m1, x), (m2, y) = p, q
        if m1 == m2:
            return HALF * base.dist(x, y)
        c1, c2, v = (getattr(base, d) for d in JUNCTIONS[m1, m2])
        direct = base.dist(x, c1) + base.dist(c2, y)
        via = base.dist(x, v) + ONE + base.dist(v, y)
        return HALF * min(direct, via)

    return dist


def tensor(space: TriPointedSpace) -> TriPointedSpace:
    """Glue three labeled copies of a validated space; points are normalized
    (label, base point) pairs."""
    validate_space(space)
    points: Optional[tuple[Point, ...]] = None
    if space.is_finite():
        glued = (glue_normalize(m, x, space) for m in LABELS for x in space.points)
        points = tuple(dict.fromkeys(glued))
    return TriPointedSpace(
        name=f"glue({space.name})",
        dist=_tensor_dist(space),
        **{d: (m, getattr(space, d)) for d, m in PAD.items()},
        points=points,
    )


# ---------------------------------------------------------------------------
# Map witnesses and certification
# ---------------------------------------------------------------------------

ISOMETRIC = "isometric"


def lipschitz(k: "Fraction | int") -> Fraction:
    """The claim d(fx,fy) <= k*d(x,y)."""
    return Fraction(k)


SHORT = lipschitz(1)


class MapWitness(namedtuple("MapWitness", "f domain codomain claimed_class name")):
    """A marked-point-preserving map together with its claimed class:
    ISOMETRIC or a Lipschitz constant."""

    __slots__ = ()

    def __new__(
        cls,
        f: Callable[[Point], Point],
        domain: TriPointedSpace,
        codomain: TriPointedSpace,
        claimed_class: "str | Fraction",
        name: str = "map",
    ) -> "MapWitness":
        for d in ("T", "L", "R"):
            if f(getattr(domain, d)) != getattr(codomain, d):
                raise ValidationError(f"{name}: does not preserve mark {d}")
        return tuple.__new__(cls, (f, domain, codomain, claimed_class, name))


def certify(
    w: MapWitness, sample_pairs: Optional[Iterable[tuple[Point, Point]]] = None
) -> int:
    """Check the claimed class pair by pair, exactly; return the pair count.

    ISOMETRIC: d(fx,fy) == d(x,y); a Lipschitz constant k: d(fx,fy) <= k*d(x,y).
    The pairs are `sample_pairs`, or every pair of a finite domain. A breach
    raises ValidationError naming the claim and the pair.
    """
    if sample_pairs is None:
        if not w.domain.is_finite():
            raise ValidationError(f"{w.name}: infinite domain needs an explicit pair sample")
        sample_pairs = combinations(w.domain.points, 2)
    claimed = w.claimed_class
    checked = 0
    for x, y in sample_pairs:
        dxy = w.domain.dist(x, y)
        dfxy = w.codomain.dist(w.f(x), w.f(y))
        if not (dfxy == dxy if claimed == ISOMETRIC else dfxy <= claimed * dxy):
            kind = claimed if claimed == ISOMETRIC else f"{claimed}-Lipschitz"
            raise ValidationError(
                f"{w.name}: {kind} breached at ({x!r}, {y!r}): "
                f"d(fx,fy) = {dfxy}, d(x,y) = {dxy}"
            )
        checked += 1
    return checked


# ---------------------------------------------------------------------------
# Concrete finite spaces
# ---------------------------------------------------------------------------


def discrete_space(name: str, t: Point, l: Point, r: Point) -> TriPointedSpace:
    pts = (t, l, r)

    def dist(p: Point, q: Point) -> Fraction:
        return Fraction(0) if p == q else ONE

    return TriPointedSpace(name=name, dist=dist, T=t, L=l, R=r, points=pts)


def i_space() -> TriPointedSpace:
    """The three-corner space itself."""
    return discrete_space("I", "T", "L", "R")
