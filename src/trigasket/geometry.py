"""The concrete gasket in the plane, in exact rational coordinates.

The three half-scale affine maps fix the triangle corners

    top (1/2, sqrt3/2)    left (0, 0)    right (1, 0)

and every finitely-addressed point has a dyadic x and a y that is a dyadic
multiple of sqrt 3 (the dyadic vertex sets V_n), so a point is stored as the
two rationals (x, yc) with y = yc*sqrt3. Squared Euclidean distances
dx^2 + 3*dyc^2 are plain rationals, and every geometric predicate (cell
membership, junction ties, round trips) is a rational comparison, made on
integer numerators over one common denominator. The maps compute on
numerators too: `coords` builds its dyadic results with `numerics.dyadic`,
and `sigma` and `sigma_inv`, which take any rational point, build theirs
with `numerics.ratio`, each the Fraction its constructor would make. Square
roots are never extracted except for display, where a coordinate is shown
as u + v*sqrt3 with one of u, v zero.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, NamedTuple

from .numerics import _ratio_text, decimal_str, dyadic, ratio
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


class Point2(NamedTuple):
    """The plane point (x, yc*sqrt3)."""

    x: Fraction
    yc: Fraction

    def sq_dist(self, o: "Point2") -> Fraction:
        dx, dyc = self.x - o.x, self.yc - o.yc
        return dx * dx + 3 * dyc * dyc

    def __str__(self) -> str:
        return f"({surd_text(self.x, 0)}, {surd_text(0, self.yc)})"


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
    xn, xd = p.x.numerator, p.x.denominator
    yn, yd = p.yc.numerator, p.yc.denominator
    return Point2(ratio(2 * xn + vx * xd, 4 * xd), ratio(2 * yn + vy * yd, 4 * yd))


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
    k = len(w.labels) + 1
    return Point2(dyadic(a + 2 * c + vx, k), dyadic(a + vy, k))


# sigma_inv and address_of peel integer numerators: x = X/den, yc = Y/den with
# den even, so each preimage 2p - corner (corners' x and yc are halves) has
# integer numerators over the same den, and den never changes.


def _scaled(p: Point2) -> tuple[int, int, int]:
    """(X, Y, den) with x = X/den, yc = Y/den and den even."""
    xd, yd = p.x.denominator, p.yc.denominator
    den = math.lcm(xd, yd, 2)
    return p.x.numerator * (den // xd), p.yc.numerator * (den // yd), den


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
    return _inside(*_scaled(p))


def sigma_inv(p: Point2) -> tuple[str, Point2]:
    """Which copy holds p, and p's preimage there (ties: a over b over c)."""
    X, Y, den = _scaled(p)
    step = _peel(X, Y, den)
    if step is None:
        raise ValueError(f"point outside the closed triangle: {p}")
    m, X, Y = step
    return m, Point2(ratio(X, den), ratio(Y, den))


def address_of(p: Point2, depth: int) -> AddressWord:
    """Invert coords by peeling, stopping at the first exact corner hit.

    Only finitely-addressed points resolve; anything else (including plane
    points outside the gasket, which eventually leave the triangle) errors.
    """
    X, Y, den = _scaled(p)
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
            rest = Point2(Fraction(X, den), Fraction(Y, den))
            raise ValueError(
                f"{p} is not on the gasket: remainder {rest} left the "
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
    for p in map(coords, iter_canonical(depth)):
        cx = pad + float(p.x) * size
        cy = pad + height - float(p.yc) * math.sqrt(3.0) * size  # flip: SVG y grows downward
        yield f'<circle cx="{cx:.3f}" cy="{cy:.3f}" r="{r:.3f}" fill="black"/>\n'
    yield "</svg>\n"


def _point_rows(depth: int) -> Iterator[str]:
    for p in map(coords, iter_canonical(depth)):
        yield f"{p.x.numerator}/{p.x.denominator} 0/1 0/1 {p.yc.numerator}/{p.yc.denominator}\n"


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
