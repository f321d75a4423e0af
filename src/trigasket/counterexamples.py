"""Three decisive examples with exact witness numbers.

Two algebras whose mediating maps out of the address space are not
continuous (address distance 2^-n against image distance 1), and one
coalgebra on a triangle outline whose structure map is Lipschitz with
constant 2 while its limit map expands some pairs by 2*2^n, so no single
Lipschitz constant works. Its structure map `delta_step` compares and
rescales the base coordinate on its integer numerator and denominator.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from typing import NamedTuple, Union

from .algebras import Algebra
from .coalgebras import Coalgebra, theta
from .metric import dist_G
from .numerics import ratio, sqrt_fraction
from .spaces import TriPointedSpace, ValidationError, discrete_space, i_space
from .words import AddressWord, canonicalize


def y_algebra() -> Algebra:
    """Three discrete points; only the pairs (a,t) and (c,r) escape l."""
    space = discrete_space("Y", "t", "l", "r")
    table = {("a", "t"): "t", ("c", "r"): "r"}

    def e(m: str, x: str) -> str:
        return table.get((m, x), "l")

    return Algebra(space, e, name="Y")


def i_algebra() -> Algebra:
    """An algebra on the corner space itself; everything right of L drains to R."""
    space = i_space()
    table = {
        ("a", "T"): "T",
        ("a", "L"): "L",
        ("b", "T"): "L",
        ("b", "L"): "L",
        ("a", "R"): "R",
        ("c", "T"): "R",
        ("b", "R"): "R",
        ("c", "L"): "R",
        ("c", "R"): "R",
    }

    def e(m: str, x: str) -> str:
        return table[(m, x)]

    return Algebra(space, e, name="I-e")


# ---------------------------------------------------------------------------
# The triangle-outline coalgebra
# ---------------------------------------------------------------------------


class DeltaPoint(namedtuple("DeltaPoint", "s")):
    """Either the apex (s is None), or (s, 0) on the base segment, s an
    exact rational."""

    __slots__ = ()

    def __new__(cls, s: Union[Fraction, None]) -> "DeltaPoint":
        if s is not None and not 0 <= s <= 1:
            raise ValueError("segment coordinate must lie in [0, 1]")
        return tuple.__new__(cls, (s,))

    @property
    def is_apex(self) -> bool:
        return self.s is None

    def __str__(self) -> str:
        return "apex" if self.is_apex else str(self.s)


APEX = DeltaPoint(None)


def delta_point(s: "Fraction | int | str") -> DeltaPoint:
    return DeltaPoint(Fraction(s))


# the base's two ends, where delta_step's outer quarters collapse
_LEFT, _RIGHT = delta_point(0), delta_point(1)


def delta_space() -> TriPointedSpace:
    """Base segment plus apex, Euclidean metric (apex distances are radicals)."""

    def dist(p: DeltaPoint, q: DeltaPoint):
        if p == q:
            return Fraction(0)
        if p.is_apex or q.is_apex:
            s = q.s if p.is_apex else p.s
            return sqrt_fraction(s * s - s + 1)  # (s-1/2)^2 + 3/4
        return abs(p.s - q.s)

    return TriPointedSpace(
        name="triangle-outline",
        dist=dist,
        T=APEX,
        L=_LEFT,
        R=_RIGHT,
        points=None,
    )


def delta_step(p: DeltaPoint) -> tuple[str, DeltaPoint]:
    """Piecewise map: outer quarters collapse to corners, middle halves expand x4.

    At s = 1/2 the two middle cases give (b,1) and (c,0), the glued pair;
    the b branch is the deterministic choice and either is acceptable.

    It works on s = n/d, d > 0: s <= 1/4 is 4n <= d, and 4s - 1 is
    (4n - d)/d, built by `numerics.ratio`.
    """
    if p.is_apex:
        return "a", APEX
    s = p.s
    n, d = s.numerator, s.denominator
    n4 = 4 * n
    if n4 <= d:
        return "b", _LEFT
    if n4 <= 2 * d:
        return "b", DeltaPoint(ratio(n4 - d, d))
    if n4 <= 3 * d:
        return "c", DeltaPoint(ratio(n4 - 2 * d, d))
    return "c", _RIGHT


def delta_coalgebra() -> Coalgebra:
    return Coalgebra(delta_space(), delta_step, name="delta")


# ---------------------------------------------------------------------------
# The unbounded-expansion report
# ---------------------------------------------------------------------------

REPORT_MAX_N = 12


class NonLipschitzRow(NamedTuple):
    n: int
    x: Fraction
    y: Fraction
    dist_domain: Fraction
    dist_image: Fraction
    ratio: Fraction
    x_limit_defect: Fraction  # distance of theta_q(x) from the L corner
    y_limit_defect: Fraction  # distance of theta_q(y) from the b^n.R point


def delta_pair(n: int) -> tuple[Fraction, Fraction]:
    """The witness pair at index n: both sit deep inside the n-th fold."""
    base = sum(Fraction(1, 4**j) for j in range(1, n + 1))
    return base + Fraction(1, 4 ** (n + 1)), base + Fraction(3, 4 ** (n + 1))


def delta_nonlipschitz_report(n_max: int) -> list[NonLipschitzRow]:
    """Exact expansion ratios d_G(theta x, theta y) / |x - y| for the witness pairs.

    The x_n limit is the L corner and the y_n limit is the point b^n.R; at
    depth n + 16 both approximants hit their limits exactly, and the ratio
    is exactly 2*2^n. Raises ValidationError at the first row with a nonzero
    limit defect or any other ratio.
    """
    if not 1 <= n_max <= REPORT_MAX_N:
        raise ValueError(f"n_max must be 1..{REPORT_MAX_N}")
    co = delta_coalgebra()
    corner_l = canonicalize(AddressWord("", "L"))
    rows = []
    for n in range(1, n_max + 1):
        x, y = delta_pair(n)
        q = n + 16
        tx = theta(co, delta_point(x), q)
        ty = theta(co, delta_point(y), q)
        y_target = canonicalize(AddressWord("b" * n, "R"))
        dx_defect = dist_G(tx, corner_l)
        dy_defect = dist_G(ty, y_target)
        d_dom = y - x
        d_img = dist_G(tx, ty)
        ratio = d_img / d_dom
        if not (dx_defect == 0 and dy_defect == 0 and ratio == 2 * 2**n):
            raise ValidationError(
                f"n={n}: x={x} y={y}: limit defects {dx_defect}, {dy_defect} "
                f"(want 0), ratio {ratio} (want {2 * 2**n})"
            )
        rows.append(NonLipschitzRow(n, x, y, d_dom, d_img, ratio, dx_defect, dy_defect))
    return rows
