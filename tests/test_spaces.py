from fractions import Fraction
from itertools import combinations

import pytest

from trigasket.metric import dist_G
from trigasket.spaces import (
    ISOMETRIC,
    SHORT,
    MapWitness,
    TriPointedSpace,
    ValidationError,
    certify,
    glue_normalize,
    i_space,
    lipschitz,
    tensor,
    validate_space,
)
from trigasket.words import PAD, AddressWord, CanonicalAddress, iter_canonical


def test_validate_i_space():
    validate_space(i_space())


def test_validate_rejects_wrong_marked_distance():
    def dist(p, q):
        return Fraction(0) if p == q else Fraction(1, 2)

    broken = TriPointedSpace("broken", dist, "T", "L", "R", points=("T", "L", "R"))
    with pytest.raises(ValidationError):
        validate_space(broken)


def test_validate_rejects_asymmetry():
    def dist(p, q):
        if (p, q) == ("L", "R"):
            return Fraction(3, 4)
        return Fraction(0) if p == q else Fraction(1)

    broken = TriPointedSpace("asym", dist, "T", "L", "R", points=("T", "L", "R"))
    with pytest.raises(ValidationError):
        validate_space(broken)


def test_validate_rejects_asymmetry_on_an_infinite_carrier():
    # d(T,L) = 1 passes the marked-distance check; d(L,T) = 1/2 must not pass
    def dist(p, q):
        if (p, q) == ("L", "T"):
            return Fraction(1, 2)
        return Fraction(0) if p == q else Fraction(1)

    broken = TriPointedSpace("asym-inf", dist, "T", "L", "R")
    with pytest.raises(ValidationError, match=r"^asym-inf: asymmetric at 'T','L'$"):
        validate_space(broken)


def test_glue_normalize():
    base = i_space()
    assert glue_normalize("b", "T", base) == ("a", "L")
    assert glue_normalize("c", "T", base) == ("a", "R")
    assert glue_normalize("c", "L", base) == ("b", "R")
    assert glue_normalize("a", "R", base) == ("a", "R")
    assert glue_normalize("b", "B-interior", base) == ("b", "B-interior")


def test_tensor_point_count_and_marks():
    t1 = tensor(i_space())
    assert len(t1.points) == 6
    assert t1.marked == (("a", "T"), ("b", "L"), ("c", "R"))
    t2 = tensor(t1)
    assert len(t2.points) == 15
    validate_space(t2)


def test_tensor_distances():
    t1 = tensor(i_space())
    assert t1.dist(("a", "T"), ("b", "L")) == 1
    assert t1.dist(("a", "T"), ("a", "L")) == Fraction(1, 2)
    # gluing works on unnormalized names too
    assert t1.dist(("a", "L"), ("b", "T")) == 0
    assert t1.dist(("a", "R"), ("c", "T")) == 0
    assert t1.dist(("b", "R"), ("c", "L")) == 0
    # across copies the geodesic may route through either shared corner
    assert t1.dist(("b", "T"), ("c", "T")) == Fraction(1, 2)


def _as_word(point, level):
    """A point of the level-fold gluing of I, (m1, (m2, ... (mn, d))), read
    as the word m1...mn.d with its chain padding stripped."""
    labels = ""
    for _ in range(level):
        m, point = point
        labels += m
    return CanonicalAddress(AddressWord(labels.rstrip(PAD[point]), point))


def test_tensor_iterates_are_the_address_metric():
    # the functor's own iterate, with no word code, is the metric kernel's
    # space: glue_normalize leaves each point in canonical form, and the
    # glued distance equals dist_G on every pair (861 at level 3)
    space = i_space()
    for level, count in ((1, 6), (2, 15), (3, 42)):
        space = tensor(space)
        words = [_as_word(p, level) for p in space.points]
        assert len(words) == count
        assert set(words) == set(iter_canonical(level))
        pairs = list(combinations(range(count), 2))
        for i, j in pairs:
            assert space.dist(space.points[i], space.points[j]) == dist_G(words[i], words[j])
    assert len(pairs) == 861


def test_map_witness_requires_mark_preservation():
    src = i_space()

    def swap(p):
        return {"T": "T", "L": "R", "R": "L"}[p]

    with pytest.raises(ValidationError):
        MapWitness(swap, src, src, SHORT, name="swap")


def test_certify_identity_isometric():
    src = i_space()
    assert certify(MapWitness(lambda p: p, src, src, ISOMETRIC, name="id")) == 3


def test_certify_unglue_is_lipschitz_two_not_short():
    dom = tensor(i_space())
    cod = i_space()

    def unglue(p):
        return p[1]

    breach = r"^unglue: 1-Lipschitz breached at \(\('a', 'T'\), \('a', 'L'\)\): "
    with pytest.raises(ValidationError, match=breach):
        certify(MapWitness(unglue, dom, cod, SHORT, name="unglue"))
    assert certify(MapWitness(unglue, dom, cod, lipschitz(2), name="unglue")) == 15


def test_certify_infinite_domain_needs_sample():
    inf = TriPointedSpace(
        "inf", lambda p, q: Fraction(0) if p == q else Fraction(1), "T", "L", "R"
    )
    w = MapWitness(lambda p: p, inf, inf, SHORT)
    with pytest.raises(ValidationError):
        certify(w)
    assert certify(w, sample_pairs=[("T", "L"), ("L", "R")]) == 2


def load_space(text: str, name: str = "loaded") -> TriPointedSpace:
    """A finite space read from a plain-text table, validated:

    ```text
    # any comment
    points: t l r
    marked: T=t L=l R=r
    t: 0 1 1
    l: 1 0 1
    r: 1 1 0
    ```

    Line 1 names the points and line 2 the marked ones, then one matrix row
    per point follows in the order of line 1 (exact fractions, the full
    symmetric matrix); '#' starts a comment. The marked points must be
    pairwise at distance 1 and the matrix must be a metric; anything else
    raises ValidationError.
    """
    lines = [
        ln.strip()
        for ln in text.splitlines()
        if ln.strip() and not ln.strip().startswith("#")
    ]
    if len(lines) < 2 or not lines[0].startswith("points:") or not lines[1].startswith("marked:"):
        raise ValidationError("space table needs 'points:' then 'marked:' lines")
    pts = tuple(lines[0].split(":", 1)[1].split())
    marks = {}
    for item in lines[1].split(":", 1)[1].split():
        key, _, val = item.partition("=")
        marks[key] = val
    if set(marks) != {"T", "L", "R"} or any(v not in pts for v in marks.values()):
        raise ValidationError("marked line must name T=, L=, R= among the points")
    index = {p: i for i, p in enumerate(pts)}
    matrix = {}
    for ln in lines[2:]:
        pname, _, row = ln.partition(":")
        pname = pname.strip()
        if pname not in index:
            raise ValidationError(f"matrix row for unknown point {pname!r}")
        vals = [Fraction(tok) for tok in row.split()]
        if len(vals) != len(pts):
            raise ValidationError(f"row {pname!r} has {len(vals)} entries, want {len(pts)}")
        matrix[pname] = vals
    if set(matrix) != set(pts):
        raise ValidationError("matrix rows must cover every point exactly once")

    def dist(p, q):
        return matrix[p][index[q]]

    space = TriPointedSpace(
        name=name, dist=dist, T=marks["T"], L=marks["L"], R=marks["R"], points=pts
    )
    validate_space(space)
    return space


SPACE_TEXT = """\
# two extra points on the L-R edge
points: T L R m
marked: T=T L=L R=R
T: 0 1 1 1
L: 1 0 1 1/2
R: 1 1 0 1/2
m: 1 1/2 1/2 0
"""


def test_certify_isometric_is_an_equality():
    # the identity from the discrete four-point space onto the edge table is
    # short, but it halves d(L,m), so an isometry claim breaches there
    def discrete(p, q):
        return Fraction(0) if p == q else Fraction(1)

    dom = TriPointedSpace("discrete", discrete, "T", "L", "R", points=("T", "L", "R", "m"))
    cod = load_space(SPACE_TEXT, name="edge")
    assert certify(MapWitness(lambda p: p, dom, cod, SHORT, name="id")) == 6
    breach = r"^id: isometric breached at \('L', 'm'\): d\(fx,fy\) = 1/2, d\(x,y\) = 1$"
    with pytest.raises(ValidationError, match=breach):
        certify(MapWitness(lambda p: p, dom, cod, ISOMETRIC, name="id"))


def test_load_space_round_trip():
    sp = load_space(SPACE_TEXT, name="edge")
    assert sp.dist("L", "m") == Fraction(1, 2)
    # every entry of the table comes back as an exact distance
    rows = [ln.split(":") for ln in SPACE_TEXT.splitlines()[3:]]
    for p, row in rows:
        for q, text in zip(sp.points, row.split()):
            assert sp.dist(p, q) == Fraction(text)


def test_documented_space_table_loads():
    block = load_space.__doc__.split("```text\n", 1)[1].split("```", 1)[0]
    sp = load_space(block, name="doc")
    assert sp.points == ("t", "l", "r")
    assert (sp.T, sp.L, sp.R) == ("t", "l", "r")
    assert sp.dist("t", "r") == 1


HEAD = "points: T L R m\nmarked: T=T L=L R=R\n"


@pytest.mark.parametrize(
    "rows, message",
    [
        ("T: 1/2 1 1 1\nL: 1 0 1 1\nR: 1 1 0 1\nm: 1 1 1 0\n", "t: d('T','T') != 0"),
        ("T: 0 1 1 2\nL: 1 0 1 1\nR: 1 1 0 1\nm: 2 1 1 0\n", "t: d('T','m') > 1"),
        ("T: 0 1 1 0\nL: 1 0 1 1\nR: 1 1 0 1\nm: 0 1 1 0\n", "t: distinct points at distance 0"),
        ("T: 0 1 1 1\nx: 1 0 1 1\n", "matrix row for unknown point 'x'"),
        ("T: 0 1 1 1\nL: 1 0 1 1\nR: 1 1 0 1\n", "matrix rows must cover every point exactly once"),
    ],
)
def test_load_space_names_the_breach(rows, message):
    with pytest.raises(ValidationError) as err:
        load_space(HEAD + rows, name="t")
    assert str(err.value) == message


def test_load_space_rejects_bad_tables():
    with pytest.raises(ValidationError):
        load_space("points: a b c\nT: 0 1 1\n")
    with pytest.raises(ValidationError):
        load_space("points: T L R\nmarked: T=T L=L R=X\nT: 0 1 1\nL: 1 0 1\nR: 1 1 0\n")
    short_row = "points: T L R\nmarked: T=T L=L R=R\nT: 0 1\nL: 1 0 1\nR: 1 1 0\n"
    with pytest.raises(ValidationError):
        load_space(short_row)
    # metric axioms are enforced, not just shape
    bad_triangle = (
        "points: T L R m\nmarked: T=T L=L R=R\n"
        "T: 0 1 1 1/8\nL: 1 0 1 1/2\nR: 1 1 0 1/2\nm: 1/8 1/2 1/2 0\n"
    )
    with pytest.raises(ValidationError):
        load_space(bad_triangle)
