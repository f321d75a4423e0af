"""Fixtures shared by more than one test module."""

from fractions import Fraction

import pytest

from trigasket.coalgebras import Coalgebra
from trigasket.counterexamples import delta_point, delta_space, delta_step


@pytest.fixture
def delta_alt():
    """delta with the seam s = 1/2 resolved through its other representative
    (c, 0) instead of (b, 1): the limit addresses must not depend on it."""

    def e(p):
        if not p.is_apex and p.s == Fraction(1, 2):
            return "c", delta_point(0)
        return delta_step(p)

    return Coalgebra(delta_space(), e, name="delta-alt")
