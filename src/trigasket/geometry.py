"""The concrete gasket in the plane, in exact rational coordinates.

The three half-scale affine maps fix the triangle corners

    top (1/2, sqrt3/2)    left (0, 0)    right (1, 0)

and every finitely-addressed point has a dyadic x and a y that is a dyadic
multiple of sqrt 3 (the dyadic vertex sets V_n). A point `Point2` is held as
one integer triple (X, Y, den): x = X/den and y = yc*sqrt3 with yc = Y/den,
den even and the triple in lowest terms, gcd(X, Y, den/2) = 1, so two
points are equal exactly when their triples are. `x` and `yc` are read off
as lowest-terms Fractions. Every geometric predicate (cell membership,
junction ties, round trips) is an integer comparison over that one
denominator, and the maps compute on the triple and build none of the
Fractions: `coords` makes (A + 2C + 2*corner, A + 2*corner, 2^(n+1)),
`sigma` and `sigma_inv` make the triple of a midpoint or a preimage, and
each reduces it once (`_point`). Squared Euclidean distances
dx^2 + 3*dyc^2 are plain rationals. Square roots are never extracted except
for display, where a coordinate is shown as u + v*sqrt3 with one of u, v zero.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator

from .numerics import _ratio_text, decimal_str, ratio
from .words import (
    ANCHOR,
    AddressWord,
    CanonicalAddress,
    _word,
    canonicalize,
    count_canonical,
    iter_canonical,
)

# point count grows as 3^n: `render --depth 12 --format points` writes 797,163
# points in about 8.5 s with a 16.5 MB peak RSS, since rows stream to the file
# (CPython 3.11.7, one core of a shared 2-CPU machine)
RENDER_MAX_DEPTH = 12


def surd_text(u: "Fraction | int", v: "Fraction | int") -> str:
    """Pinned CLI format of u + v*sqrt3: "p/q+r/s√3", both components always shown."""
    head = ("-" if u < 0 else "") + _ratio_text(abs(u))
    sign = "-" if v < 0 else "+"
    return f"{head}{sign}{_ratio_text(abs(v))}√3"


def surd_decimal(u: "Fraction | int", v: "Fraction | int", places: int = 12) -> str:
    """u + v*sqrt3 rounded exactly to the given decimal places."""
    # sqrt(3) to well past the displayed precision, then exact rounding
    scale = 10 ** (places + 8)
    sqrt3 = Fraction(math.isqrt(3 * scale * scale), scale)
    return decimal_str(u + v * sqrt3, places)


class Point2(tuple):
    """The plane point (x, yc*sqrt3), held as its triple (X, Y, den).

    `Point2(x, yc)` takes any two rationals; `x` and `yc` are the
    lowest-terms Fractions X/den and Y/den. Equality is the triple's, which
    is the value's since the triple is in lowest terms; hash, order, repr and
    str are those of the pair (x, yc).
    """

    __slots__ = ()

    def __new__(cls, x, yc) -> "Point2":
        x, yc = Fraction(x), Fraction(yc)
        xd, yd = x.denominator, yc.denominator
        # the least even common denominator: already in lowest terms
        den = math.lcm(xd, yd, 2)
        return _new(cls, (x.numerator * (den // xd), yc.numerator * (den // yd), den))

    @property
    def x(self) -> Fraction:
        return ratio(self[0], self[2])

    @property
    def yc(self) -> Fraction:
        return ratio(self[1], self[2])

    def _pair(self) -> tuple[Fraction, Fraction]:
        return self.x, self.yc

    def __hash__(self) -> int:
        return hash(self._pair())

    def __lt__(self, o):
        return self._pair() < o._pair() if o.__class__ is Point2 else NotImplemented

    def __le__(self, o):
        return self._pair() <= o._pair() if o.__class__ is Point2 else NotImplemented

    def __gt__(self, o):
        return self._pair() > o._pair() if o.__class__ is Point2 else NotImplemented

    def __ge__(self, o):
        return self._pair() >= o._pair() if o.__class__ is Point2 else NotImplemented

    def __getnewargs__(self) -> tuple[Fraction, Fraction]:
        return self._pair()

    def __repr__(self) -> str:
        return f"Point2(x={self.x!r}, yc={self.yc!r})"

    def sq_dist(self, o: "Point2") -> Fraction:
        dx, dyc = self.x - o.x, self.yc - o.yc
        return dx * dx + 3 * dyc * dyc

    def __str__(self) -> str:
        return f"({surd_text(self.x, 0)}, {surd_text(0, self.yc)})"


_new = tuple.__new__


def _point(X: int, Y: int, den: int) -> Point2:
    """The point x = X/den, yc = Y/den for an even den > 0, without the
    constructor's conversions: the triple over gcd(X, Y, den/2), which
    leaves den even."""
    g = math.gcd(X, Y, den >> 1)
    if g != 1:
        X, Y, den = X // g, Y // g, den // g
    return _new(Point2, (X, Y, den))


VERTEX = {
    "T": Point2(Fraction(1, 2), Fraction(1, 2)),
    "L": Point2(Fraction(0), Fraction(0)),
    "R": Point2(Fraction(1), Fraction(0)),
}

# twice each corner, as integers: (2x, 2yc)
_VERTEX2 = {d: (int(2 * v.x), int(2 * v.yc)) for d, v in VERTEX.items()}

# twice the corner each copy keeps
_KEPT2 = {m: _VERTEX2[d] for m, d in ANCHOR.items()}


def sigma(m: str, p: Point2) -> Point2:
    """The half-scale map into copy m: the midpoint of p and the corner m keeps."""
    try:
        vx, vy = _KEPT2[m]
    except KeyError:
        raise ValueError(f"bad label {m!r}") from None
    X, Y, den = p
    h = den >> 1
    return _point(X + vx * h, Y + vy * h, den << 1)


def coords(addr: "AddressWord | CanonicalAddress") -> Point2:
    """Plane coordinates of m1...mn.d: sigma_m1(...sigma_mn(VERTEX[d])), as one fold.

    Each map halves and adds half its copy's corner, so scaled by 2^(n+1)
    x = A + 2C + 2*VERTEX[d].x and yc = A + 2*VERTEX[d].yc, where A and C read
    the labels as binary digits toward T and R (`AddressWord.toward`), 1
    where the label is a (A) or c (C).
    """
    w = addr.word if isinstance(addr, CanonicalAddress) else addr
    a, _, c = w.toward
    vx, vy = _VERTEX2[w.terminal]
    return _point(a + 2 * c + vx, a + vy, 2 << len(w.labels))


# sigma_inv and address_of peel a point's triple: den is even, so each
# preimage 2p - corner (corners' x and yc are halves) has integer numerators
# over the same den, and den never changes.


def _inside(X: int, Y: int, den: int) -> bool:
    """in_triangle on x = X/den, yc = Y/den."""
    return 0 <= Y <= X and Y <= den - X


def _peel(X: int, Y: int, den: int) -> tuple[str, int, int] | None:
    """One sigma_inv step on integers: the copy and the preimage's (X, Y) over
    the same den, or None outside the closed triangle.

    Junction ties follow the canonical preference (a over b, a over c,
    b over c), which is exactly what makes address_of(coords(w)) return
    canonicalize(w) rather than some other representative.
    """
    if not _inside(X, Y, den):
        return None
    # on or above the mid-line y = sqrt3/4, else on or left of x = 1/2
    m = "a" if 4 * Y >= den else "b" if 2 * X <= den else "c"
    vx, vy = _KEPT2[m]
    h = den // 2
    return m, 2 * X - vx * h, 2 * Y - vy * h


def in_triangle(p: Point2) -> bool:
    """Closed unit triangle: y >= 0, y <= sqrt3*x and y <= sqrt3*(1-x)."""
    return _inside(*p)


def sigma_inv(p: Point2) -> tuple[str, Point2]:
    """Which copy holds p, and p's preimage there (ties: a over b over c)."""
    step = _peel(*p)
    if step is None:
        raise ValueError(f"point outside the closed triangle: {p}")
    m, X, Y = step
    return m, _point(X, Y, p[2])


def address_of(p: Point2, depth: int) -> AddressWord:
    """Invert coords by peeling, stopping at the first exact corner hit.

    Only finitely-addressed points resolve; anything else (including plane
    points outside the gasket, which eventually leave the triangle) errors.
    """
    X, Y, den = p
    labels = []
    for _ in range(depth + 1):
        # the corners L (0, 0), R (1, 0) and T (1/2, 1/2)
        if Y == 0 and (X == 0 or X == den):
            return _word("".join(labels), "L" if X == 0 else "R")
        if 2 * Y == den and 2 * X == den:
            return _word("".join(labels), "T")
        if len(labels) == depth:
            break
        step = _peel(X, Y, den)
        if step is None:
            raise ValueError(
                f"{p} is not on the gasket: remainder {_point(X, Y, den)} left the "
                f"triangle at step {len(labels) + 1}"
            )
        m, X, Y = step
        labels.append(m)
    raise ValueError(f"point did not resolve to a corner within depth {depth}")


def exact_address(p: Point2, max_depth: int = 4096) -> CanonicalAddress:
    """The canonical address of a finitely-addressed point."""
    return canonicalize(address_of(p, max_depth))


def gasket_space():
    """The finitely-addressed gasket as a tri-pointed space.

    The metric is the address metric pulled through exact_address, not the
    Euclidean one: plane distance shrinks faster than cell depth near the
    junctions, so the copy-selecting map would not be short against it. The
    address metric is 1-bounded, exact, bi-Lipschitz to Euclidean, and makes
    that map a genuine isometry.
    """
    from .metric import dist_G
    from .spaces import TriPointedSpace

    def dist(p: Point2, q: Point2) -> Fraction:
        return dist_G(exact_address(p), exact_address(q))

    return TriPointedSpace(
        name="gasket",
        dist=dist,
        T=VERTEX["T"],
        L=VERTEX["L"],
        R=VERTEX["R"],
        points=None,
    )


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _check_depth(depth: int) -> None:
    if not 0 <= depth <= RENDER_MAX_DEPTH:
        raise ValueError(f"render depth must be 0..{RENDER_MAX_DEPTH}, got {depth}")


def render_points(depth: int) -> list[tuple[CanonicalAddress, Point2]]:
    """Every canonical address up to the depth with its coordinates, in one list."""
    _check_depth(depth)
    return [(c, coords(c)) for c in iter_canonical(depth)]


def _svg_rows(depth: int) -> Iterator[str]:
    size = 1000.0
    height = size * math.sqrt(3.0) / 2.0
    pad = 10.0
    r = max(0.35, size / (2.0**depth) / 8.0)
    yield (
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {size + 2 * pad:.1f} {height + 2 * pad:.1f}">\n'
    )
    yield '<rect width="100%" height="100%" fill="white"/>\n'
    # int / int is correctly rounded, as float(Fraction) is
    for X, Y, den in map(coords, iter_canonical(depth)):
        cx = pad + X / den * size
        cy = pad + height - Y / den * math.sqrt(3.0) * size  # flip: SVG y grows downward
        yield f'<circle cx="{cx:.3f}" cy="{cy:.3f}" r="{r:.3f}" fill="black"/>\n'
    yield "</svg>\n"


def _point_rows(depth: int) -> Iterator[str]:
    for p in map(coords, iter_canonical(depth)):
        x, yc = p.x, p.yc
        yield f"{x.numerator}/{x.denominator} 0/1 0/1 {yc.numerator}/{yc.denominator}\n"


_ROWS = {"svg": _svg_rows, "points": _point_rows}


def _rows(depth: int, fmt: str) -> Iterator[str]:
    """The row generator of a format, after checking the format and the depth."""
    if fmt not in _ROWS:
        raise ValueError(f"unknown render format {fmt!r}")
    _check_depth(depth)
    return _ROWS[fmt](depth)


def render(depth: int, path: str, fmt: str = "svg") -> int:
    """Write the rendering row by row as the points are made; returns the point count."""
    rows = _rows(depth, fmt)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(rows)
    return count_canonical(depth)
