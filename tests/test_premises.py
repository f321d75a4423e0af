"""The premises of the finality theorems: each built-in structure map is
certified exactly against the glued space of its carrier."""

from fractions import Fraction
from itertools import combinations

import pytest

from trigasket.counterexamples import APEX, delta_point, delta_space, delta_step
from trigasket.geometry import coords, gasket_space, sigma_inv
from trigasket.spaces import (
    ISOMETRIC,
    MapWitness,
    ValidationError,
    certify,
    lipschitz,
    tensor,
)
from trigasket.words import iter_canonical


def test_gasket_sigma_is_an_isometry():
    space = gasket_space()
    points = [coords(w) for w in iter_canonical(3)]
    w = MapWitness(sigma_inv, space, tensor(space), ISOMETRIC, name="gasket-sigma")
    assert certify(w, combinations(points, 2)) == 861


def _delta_pairs():
    # the apex distances are radicals, so these comparisons go through RadicalSum
    points = [APEX] + [delta_point(Fraction(k, 64)) for k in range(65)]
    return combinations(points, 2)


def test_delta_is_2_lipschitz_and_no_better():
    space = delta_space()
    glued = tensor(space)
    w = MapWitness(delta_step, space, glued, lipschitz(2), name="delta")
    assert certify(w, _delta_pairs()) == 2145
    # the middle branches scale by 4 into a copy that halves: exactly 2
    tight = MapWitness(delta_step, space, glued, lipschitz(Fraction(199, 100)), name="delta")
    breach = (
        r"^delta: 199/100-Lipschitz breached at \(DeltaPoint\(s=Fraction\(1, 4\)\), "
        r"DeltaPoint\(s=Fraction\(17, 64\)\)\): d\(fx,fy\) = 1/32, d\(x,y\) = 1/64$"
    )
    with pytest.raises(ValidationError, match=breach):
        certify(tight, _delta_pairs())
