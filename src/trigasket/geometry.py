"""The concrete gasket in the plane, in exact Q(sqrt 3) coordinates.

The three half-scale affine maps fix the triangle corners

    top (1/2, sqrt3/2)    left (0, 0)    right (1, 0)

and every finitely-addressed point has x rational and y a rational multiple
of sqrt 3, so squared Euclidean distances are plain rationals and every
geometric predicate (cell membership, junction ties, round trips) is decided
by exact sign tests. Square roots are never extracted except for display.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .numerics import decimal_str
from .words import (
    AddressWord,
    CanonicalAddress,
    canonicalize,
    count_canonical,
    iter_canonical,
)

RENDER_MAX_DEPTH = 12  # point count grows as 3^n


def _sign(u: Fraction, v: Fraction) -> int:
    """Exact sign of u + v*sqrt(3), in integers: a rational has its numerator's sign."""
    (a, b), (c, d) = (u.numerator, u.denominator), (v.numerator, v.denominator)
    su = (a > 0) - (a < 0)
    sv = (c > 0) - (c < 0)
    if sv == 0:
        return su
    if su == 0 or su == sv:
        return sv
    # opposite signs: |u| vs |v|sqrt(3) via squares, over the common denominator (bd)^2
    cmp = (a * d) ** 2 - 3 * (c * b) ** 2
    if cmp == 0:
        return 0
    return su if cmp > 0 else sv


@dataclass(frozen=True)
class QSqrt3:
    """u + v*sqrt(3) with exact arithmetic and exact sign."""

    u: Fraction
    v: Fraction

    @staticmethod
    def of(u: "Fraction | int" = 0, v: "Fraction | int" = 0) -> "QSqrt3":
        return QSqrt3(Fraction(u), Fraction(v))

    def __add__(self, o: "QSqrt3") -> "QSqrt3":
        return QSqrt3(self.u + o.u, self.v + o.v)

    def __sub__(self, o: "QSqrt3") -> "QSqrt3":
        return QSqrt3(self.u - o.u, self.v - o.v)

    def __neg__(self) -> "QSqrt3":
        return QSqrt3(-self.u, -self.v)

    def __mul__(self, o: "QSqrt3 | Fraction | int") -> "QSqrt3":
        if isinstance(o, (int, Fraction)):
            return QSqrt3(self.u * o, self.v * o)
        return QSqrt3(self.u * o.u + 3 * self.v * o.v, self.u * o.v + self.v * o.u)

    __rmul__ = __mul__

    def half(self) -> "QSqrt3":
        return QSqrt3(self.u / 2, self.v / 2)

    def sign(self) -> int:
        return _sign(self.u, self.v)

    def is_zero(self) -> bool:
        return self.u == 0 and self.v == 0

    def __float__(self) -> float:
        return float(self.u) + float(self.v) * math.sqrt(3.0)

    @property
    def text(self) -> str:
        # pinned CLI format: "p/q+r/s√3" (both components always shown)
        u, v = self.u, self.v
        ut = f"{u.numerator}/{u.denominator}"
        vt = f"{v.numerator}/{v.denominator}"
        sign = "+" if v >= 0 else "-"
        if v < 0:
            vt = f"{-v.numerator}/{v.denominator}"
        return f"{ut}{sign}{vt}√3"

    def decimal(self, places: int = 12) -> str:
        # sqrt(3) to well past the displayed precision, then exact rounding
        scale = 10 ** (places + 8)
        sqrt3 = Fraction(math.isqrt(3 * scale * scale), scale)
        return decimal_str(self.u + self.v * sqrt3, places)

    def __str__(self) -> str:
        return self.text


_Q0 = QSqrt3.of(0)


@dataclass(frozen=True)
class Point2:
    x: QSqrt3
    y: QSqrt3

    def __sub__(self, o: "Point2") -> "Point2":
        return Point2(self.x - o.x, self.y - o.y)

    def sq_dist(self, o: "Point2") -> QSqrt3:
        dx, dy = self.x - o.x, self.y - o.y
        return dx * dx + dy * dy

    def __str__(self) -> str:
        return f"({self.x}, {self.y})"


VERTEX = {
    "T": Point2(QSqrt3.of(Fraction(1, 2)), QSqrt3.of(0, Fraction(1, 2))),
    "L": Point2(_Q0, _Q0),
    "R": Point2(QSqrt3.of(1), _Q0),
}

_HALF = Fraction(1, 2)
_QUARTER = Fraction(1, 4)


def sigma(m: str, p: Point2) -> Point2:
    """The half-scale map into copy m."""
    (xu, xv), (yu, yv) = (p.x.u / 2, p.x.v / 2), (p.y.u / 2, p.y.v / 2)
    if m == "a":
        return Point2(QSqrt3(xu + _QUARTER, xv), QSqrt3(yu, yv + _QUARTER))
    if m == "b":
        return Point2(QSqrt3(xu, xv), QSqrt3(yu, yv))
    if m == "c":
        return Point2(QSqrt3(xu + _HALF, xv), QSqrt3(yu, yv))
    raise ValueError(f"bad label {m!r}")


def coords(addr: "AddressWord | CanonicalAddress") -> Point2:
    """Plane coordinates of a word: nested copy maps applied to its corner."""
    w = addr.word if isinstance(addr, CanonicalAddress) else addr
    p = VERTEX[w.terminal]
    for m in reversed(w.labels):
        p = sigma(m, p)
    return p


def in_triangle(p: Point2) -> bool:
    """Closed unit triangle: y >= 0, y <= sqrt3*x, y <= sqrt3*(1-x).

    With x = xu + xv sqrt3 and y = yu + yv sqrt3 the last two read
    sqrt3*x - y = (3xv - yu) + (xu - yv) sqrt3 >= 0 and
    sqrt3*(1-x) - y = (-3xv - yu) + (1 - xu - yv) sqrt3 >= 0.
    """
    (xu, xv), (yu, yv) = (p.x.u, p.x.v), (p.y.u, p.y.v)
    return (
        _sign(yu, yv) >= 0
        and _sign(3 * xv - yu, xu - yv) >= 0
        and _sign(-3 * xv - yu, 1 - xu - yv) >= 0
    )


def sigma_inv(p: Point2) -> tuple[str, Point2]:
    """Which copy holds p, and p's preimage there.

    Junction ties follow the canonical preference (a over b, a over c,
    b over c), which is exactly what makes address_of(coords(w)) return
    canonicalize(w) rather than some other representative.
    """
    if not in_triangle(p):
        raise ValueError(f"point outside the closed triangle: {p}")
    (xu, xv), (yu, yv) = (p.x.u, p.x.v), (p.y.u, p.y.v)
    # on or above the mid-line y = sqrt3/4
    if _sign(yu, yv - _QUARTER) >= 0:
        return "a", Point2(QSqrt3(2 * xu - _HALF, 2 * xv), QSqrt3(2 * yu, 2 * yv - _HALF))
    # on or left of x = 1/2
    if _sign(xu - _HALF, xv) <= 0:
        return "b", Point2(QSqrt3(2 * xu, 2 * xv), QSqrt3(2 * yu, 2 * yv))
    return "c", Point2(QSqrt3(2 * xu - 1, 2 * xv), QSqrt3(2 * yu, 2 * yv))


def _vertex_of(p: Point2) -> str | None:
    for d, q in VERTEX.items():
        if p == q:
            return d
    return None


def address_of(p: Point2, depth: int) -> AddressWord:
    """Invert coords by iterating sigma_inv, stopping at the first exact corner hit.

    Only finitely-addressed points resolve; anything else (including plane
    points outside the gasket, which eventually leave the triangle) errors.
    """
    start = p
    labels = []
    for _ in range(depth + 1):
        d = _vertex_of(p)
        if d is not None:
            return AddressWord("".join(labels), d)
        if len(labels) == depth:
            break
        try:
            m, p = sigma_inv(p)
        except ValueError:
            raise ValueError(
                f"{start} is not on the gasket: remainder {p} left the "
                f"triangle at step {len(labels) + 1}"
            ) from None
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


def render_points(depth: int) -> list[tuple[CanonicalAddress, Point2]]:
    if not 0 <= depth <= RENDER_MAX_DEPTH:
        raise ValueError(f"render depth must be 0..{RENDER_MAX_DEPTH}, got {depth}")
    return [(c, coords(c)) for c in iter_canonical(depth)]


def render_svg(depth: int) -> str:
    """SVG point cloud of every canonical address up to the depth."""
    pts = render_points(depth)
    size = 1000.0
    height = size * math.sqrt(3.0) / 2.0
    pad = 10.0
    r = max(0.35, size / (2.0**depth) / 8.0)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {size + 2 * pad:.1f} {height + 2 * pad:.1f}">',
        f'<rect width="100%" height="100%" fill="white"/>',
    ]
    for _, p in pts:
        cx = pad + float(p.x) * size
        cy = pad + height - float(p.y) * size  # flip: SVG y grows downward
        lines.append(f'<circle cx="{cx:.3f}" cy="{cy:.3f}" r="{r:.3f}" fill="black"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def render_point_list(depth: int) -> str:
    """Plain text, one point per line: x.u x.v y.u y.v as exact fractions."""
    rows = []
    for _, p in render_points(depth):
        rows.append(
            " ".join(
                f"{c.numerator}/{c.denominator}"
                for c in (p.x.u, p.x.v, p.y.u, p.y.v)
            )
        )
    return "\n".join(rows) + "\n"


def render(depth: int, path: str, fmt: str = "svg") -> int:
    """Write the rendering; returns the point count."""
    if fmt == "svg":
        content = render_svg(depth)
    elif fmt == "points":
        content = render_point_list(depth)
    else:
        raise ValueError(f"unknown render format {fmt!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(content)
    return count_canonical(depth)
