"""The concrete gasket in the plane, in exact rational coordinates.

The three half-scale affine maps fix the triangle corners

    top (1/2, sqrt3/2)    left (0, 0)    right (1, 0)

and every finitely-addressed point has a dyadic x and a y that is a dyadic
multiple of sqrt 3 (the dyadic vertex sets V_n), so a point is stored as the
two rationals (x, yc) with y = yc*sqrt3. Squared Euclidean distances
dx^2 + 3*dyc^2 are plain rationals, and every geometric predicate (cell
membership, junction ties, round trips) is a rational comparison. Square
roots are never extracted except for display, where a coordinate is shown
as u + v*sqrt3 with one of u, v zero.
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

# point count grows as 3^n: `render --depth 12 --format points` writes 797,163
# points in about 87 s with a 580 MB peak RSS (CPython 3.11.7, one core of a
# shared 2-CPU machine)
RENDER_MAX_DEPTH = 12


def surd_text(u: "Fraction | int", v: "Fraction | int") -> str:
    """Pinned CLI format of u + v*sqrt3: "p/q+r/s√3", both components always shown."""
    sign = "-" if v < 0 else "+"
    return f"{u.numerator}/{u.denominator}{sign}{abs(v.numerator)}/{v.denominator}√3"


def surd_decimal(u: "Fraction | int", v: "Fraction | int", places: int = 12) -> str:
    """u + v*sqrt3 rounded exactly to the given decimal places."""
    # sqrt(3) to well past the displayed precision, then exact rounding
    scale = 10 ** (places + 8)
    sqrt3 = Fraction(math.isqrt(3 * scale * scale), scale)
    return decimal_str(u + v * sqrt3, places)


@dataclass(frozen=True)
class Point2:
    """The plane point (x, yc*sqrt3)."""

    x: Fraction
    yc: Fraction

    def sq_dist(self, o: "Point2") -> Fraction:
        dx, dyc = self.x - o.x, self.yc - o.yc
        return dx * dx + 3 * dyc * dyc

    def __str__(self) -> str:
        return f"({surd_text(self.x, 0)}, {surd_text(0, self.yc)})"


_HALF = Fraction(1, 2)
_QUARTER = Fraction(1, 4)

VERTEX = {
    "T": Point2(_HALF, _HALF),
    "L": Point2(Fraction(0), Fraction(0)),
    "R": Point2(Fraction(1), Fraction(0)),
}


def sigma(m: str, p: Point2) -> Point2:
    """The half-scale map into copy m."""
    x, yc = p.x / 2, p.yc / 2
    if m == "a":
        return Point2(x + _QUARTER, yc + _QUARTER)
    if m == "b":
        return Point2(x, yc)
    if m == "c":
        return Point2(x + _HALF, yc)
    raise ValueError(f"bad label {m!r}")


def coords(addr: "AddressWord | CanonicalAddress") -> Point2:
    """Plane coordinates of a word: nested copy maps applied to its corner."""
    w = addr.word if isinstance(addr, CanonicalAddress) else addr
    p = VERTEX[w.terminal]
    for m in reversed(w.labels):
        p = sigma(m, p)
    return p


def in_triangle(p: Point2) -> bool:
    """Closed unit triangle: y >= 0, y <= sqrt3*x and y <= sqrt3*(1-x)."""
    return 0 <= p.yc <= p.x and p.yc <= 1 - p.x


def sigma_inv(p: Point2) -> tuple[str, Point2]:
    """Which copy holds p, and p's preimage there.

    Junction ties follow the canonical preference (a over b, a over c,
    b over c), which is exactly what makes address_of(coords(w)) return
    canonicalize(w) rather than some other representative.
    """
    if not in_triangle(p):
        raise ValueError(f"point outside the closed triangle: {p}")
    x, yc = p.x, p.yc
    # on or above the mid-line y = sqrt3/4
    if yc >= _QUARTER:
        return "a", Point2(2 * x - _HALF, 2 * yc - _HALF)
    # on or left of x = 1/2
    if x <= _HALF:
        return "b", Point2(2 * x, 2 * yc)
    return "c", Point2(2 * x - 1, 2 * yc)


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
        cy = pad + height - float(p.yc) * math.sqrt(3.0) * size  # flip: SVG y grows downward
        lines.append(f'<circle cx="{cx:.3f}" cy="{cy:.3f}" r="{r:.3f}" fill="black"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def render_point_list(depth: int) -> str:
    """Plain text, one point per line: x and y as u + v*sqrt3, "xu xv yu yv" in fractions."""
    rows = [
        f"{p.x.numerator}/{p.x.denominator} 0/1 0/1 {p.yc.numerator}/{p.yc.denominator}"
        for _, p in render_points(depth)
    ]
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
