"""Every gasket table, `words.GLUE` among them, is derived from `words.PAD`;
each must equal its literal, written out here by hand."""

from trigasket import words
from trigasket.metric import JUNCTIONS
from trigasket.words import ANCHOR, DIGITS, REWRITE


def test_declaration():
    assert words.PAD == {"T": "a", "L": "b", "R": "c"}
    assert words.GLUE == (
        (("b", "T"), ("a", "L")),
        (("a", "R"), ("c", "T")),
        (("c", "L"), ("b", "R")),
    )


def test_word_tables():
    assert REWRITE == {("b", "T"): ("a", "L"), ("c", "T"): ("a", "R"), ("c", "L"): ("b", "R")}
    assert ANCHOR == {"a": "T", "b": "L", "c": "R"}
    # order matters: it fixes iter_canonical's order, hence render's rows
    assert words._CANONICAL_TAILS == (("a", "L"), ("a", "R"), ("b", "R"))


def test_digit_tables():
    # bytes.translate tables: a, b, c are bytes 97-99, every other byte reads "2"
    assert DIGITS["T"] == b"2" * 97 + b"100" + b"2" * 156
    assert DIGITS["L"] == b"2" * 97 + b"010" + b"2" * 156
    assert DIGITS["R"] == b"2" * 97 + b"001" + b"2" * 156


def test_junctions():
    assert JUNCTIONS == {
        ("a", "b"): ("L", "T", "R"),
        ("b", "a"): ("T", "L", "R"),
        ("a", "c"): ("R", "T", "L"),
        ("c", "a"): ("T", "R", "L"),
        ("b", "c"): ("R", "L", "T"),
        ("c", "b"): ("L", "R", "T"),
    }
