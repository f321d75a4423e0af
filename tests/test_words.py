import pytest
from hypothesis import given, settings, strategies as st

from trigasket.coalgebras import thetas
from trigasket.counterexamples import delta_coalgebra, delta_point
from trigasket.geometry import address_of, coords
from trigasket.words import (
    PAD,
    REWRITE,
    AddressWord,
    CanonicalAddress,
    canonical_at,
    canonicalize,
    corner_digits,
    count_canonical,
    embed,
    glue_partner,
    iter_canonical,
    iter_words,
    parse_word,
    prepend,
)

words = st.builds(
    AddressWord,
    st.text(alphabet="abc", max_size=6),
    st.sampled_from("TLR"),
)


def test_parse_word():
    w = parse_word("abc.T")
    assert (w.labels, w.terminal, w.level) == ("abc", "T", 3)
    assert parse_word(".L").level == 0
    assert parse_word("a.R").text == "a.R"


@pytest.mark.parametrize("bad", ["abc", "ab.X", "xy.T", "a.b.T", "", ".t", "ab\n.T", "aé.T"])
def test_parse_word_rejects(bad):
    with pytest.raises(ValueError):
        parse_word(bad)


# any text, with the characters a label check could mishandle drawn often
label_texts = st.text(
    alphabet=st.one_of(st.sampled_from("abc"), st.sampled_from("\n.éT"), st.characters())
)


@settings(deadline=None, max_examples=300)
@given(label_texts)
def test_label_validation(s):
    if any(m not in "abc" for m in s):
        with pytest.raises(ValueError) as err:
            AddressWord(s, "T")
        assert str(err.value) == f"bad label in {s!r}"
    else:
        assert AddressWord(s, "T").labels == s


# characters int(., 2) would accept if one byte slipped through the readout's
# table: separators, signs, whitespace, digits
@pytest.mark.parametrize("labels", ["a_b", "a b", "+ab", "-ab", "ab\n", "01", "x", " ab", "0b1"])
def test_label_check_rejects_what_int_would_read(labels):
    with pytest.raises(ValueError) as err:
        AddressWord(labels, "T")
    assert str(err.value) == f"bad label in {labels!r}"
    with pytest.raises(ValueError) as err:
        corner_digits(labels)
    assert str(err.value) == f"bad label in {labels!r}"


@pytest.mark.parametrize("labels", [b"ab", 3, None, ["a"]])
def test_labels_that_are_not_a_str_are_a_type_error(labels):
    with pytest.raises(TypeError):
        AddressWord(labels, "T")


def test_canonicalize_long_pad_run():
    # the whole a-run is chain padding for T; what is left, b.T, is a junction
    assert canonicalize(parse_word("b" + "a" * 20000 + ".T")).text == "a.L"


def test_canonical_address_rejects_reducible():
    with pytest.raises(ValueError):
        CanonicalAddress(parse_word("ba.T"))  # trailing chain padding
    with pytest.raises(ValueError):
        CanonicalAddress(parse_word("c.L"))  # junction rewrite source


# one junction orbit per gluing relation, plus padding collapse
CANON_CASES = [
    ("bbb.L", ".L"),
    ("ca.T", "a.R"),
    ("b.T", "a.L"),
    ("c.T", "a.R"),
    ("c.L", "b.R"),
    ("ab.T", "aa.L"),
    ("acc.T", "aca.R"),
    ("bcc.L", "bcb.R"),
    ("abb.L", "a.L"),
    ("aaa.T", ".T"),
    ("a.L", "a.L"),
    (".R", ".R"),
]


@pytest.mark.parametrize("raw,canon", CANON_CASES)
def test_canonicalize_cases(raw, canon):
    assert canonicalize(parse_word(raw)).text == canon


def test_glue_partner_cases():
    assert glue_partner(parse_word("b.T")) == parse_word("a.L")
    assert glue_partner(parse_word("ab.T")) == parse_word("aa.L")
    assert glue_partner(parse_word("caa.R")) == parse_word("cac.T")
    assert glue_partner(parse_word("abb.L")) == parse_word("baa.T")
    assert glue_partner(parse_word("aa.T")) is None  # chain-padded corner
    assert glue_partner(parse_word(".L")) is None


@settings(deadline=None, max_examples=300)
@given(words)
def test_canonicalize_idempotent(w):
    c = canonicalize(w)
    assert canonicalize(c.word) == c


@settings(deadline=None, max_examples=300)
@given(words)
def test_glue_partner_involution(w):
    v = glue_partner(w)
    if v is not None:
        assert v != w
        assert glue_partner(v) == w
        assert canonicalize(v) == canonicalize(w)


@settings(deadline=None, max_examples=300)
@given(words, st.integers(min_value=0, max_value=3))
def test_embed_preserves_class(w, extra):
    assert canonicalize(embed(w, w.level + extra)) == canonicalize(w)


def test_embed_rejects_shrinking():
    with pytest.raises(ValueError):
        embed(parse_word("ab.T"), 1)


def test_prepend_rejects_bad_label():
    with pytest.raises(ValueError, match="^bad label 'd'$"):
        prepend("d", canonicalize(parse_word("b.R")))


@pytest.mark.parametrize("m", ["", "bc"])
def test_prepend_rejects_a_label_that_is_not_one_letter(m):
    with pytest.raises(ValueError) as err:
        prepend(m, canonicalize(parse_word("b.R")))
    assert str(err.value) == f"bad label {m!r}"


def test_prepend_matches_concatenation():
    x = canonicalize(parse_word("b.R"))
    assert prepend("a", x).text == "ab.R"
    # prepending may cancel: a + (a-corner tail) stays reduced differently
    top = canonicalize(parse_word(".T"))
    assert prepend("a", top).text == ".T"
    assert prepend("b", top).text == "a.L"


def test_counts():
    # 3, 6, 15, 42, 123, 366 distinct points through level 5
    for n in range(6):
        expected = (3 ** (n + 1) + 3) // 2
        assert count_canonical(n) == expected
        assert len(list(iter_canonical(n))) == expected


def test_iter_words_count():
    assert len(list(iter_words(3))) == 81
    assert len(set(iter_words(3))) == 81


def test_canonical_at_is_iter_canonical_by_index():
    # every canonical address of level <= 8, then the first of level 9
    canon = list(iter_canonical(8))
    assert [canonical_at(i) for i in range(len(canon))] == canon
    assert canonical_at(len(canon)) == next(c for c in iter_canonical(9) if c.level == 9)
    with pytest.raises(ValueError, match="^no canonical address at index -1$"):
        canonical_at(-1)


def test_iter_canonical_is_canonical_and_unique():
    seen = list(iter_canonical(4))
    assert len(seen) == len(set(seen))
    texts = {c.text for c in seen}
    assert ".T" in texts and "a.L" in texts and "b.R" in texts
    assert "c.L" not in texts


deep_labels = st.one_of(
    st.text(alphabet="abc", max_size=8),
    st.integers(min_value=0, max_value=3**2500).map(lambda k: "".join("abc"[int(c)] for c in _base3(k))),
)


def _base3(k: int) -> str:
    digits = []
    while k:
        k, r = divmod(k, 3)
        digits.append(str(r))
    return "".join(reversed(digits))


@settings(deadline=None, max_examples=300)
@given(deep_labels, st.sampled_from("TLR"))
def test_toward_digits(labels, d):
    # a validated word reads its digits when it is built: that readout is
    # its label check
    w = AddressWord(labels, d)
    # a slot, not a property: reading the slot itself finds what was stored
    assert type(AddressWord.toward).__name__ == "member_descriptor"
    assert not hasattr(w, "__dict__")
    digits = AddressWord.toward.__get__(w)
    # reference: the labels read as binary digits, 1 where the label is PAD[c],
    # one readout per corner in the order (T, L, R)
    want = tuple(
        sum(1 << (len(labels) - 1 - k) for k, m in enumerate(labels) if m == PAD[c])
        for c in "TLR"
    )
    assert type(digits) is tuple and digits == want
    assert digits == corner_digits(labels)
    assert sum(digits) == (1 << len(labels)) - 1
    # kept on the word; equality, hashing and order still see only the fields
    assert w.toward is digits


def test_every_word_holds_its_digits_from_construction():
    # each way the library builds a word sets its digits as it builds it
    w = parse_word("abcab.T")
    co = delta_coalgebra()
    built = [
        w,
        *iter_words(2),
        *(c.word for c in iter_canonical(2)),
        canonical_at(40).word,
        embed(w, 8),
        glue_partner(parse_word("cab.R")),
        canonicalize(parse_word("acbaa.T")).word,
        canonicalize(parse_word("acb.T")).word,
        prepend("c", canonicalize(w)).word,
        address_of(coords(w), 5),
        *(t.word for t in thetas(co, delta_point("1/3"), 6)),
    ]
    for x in built:
        assert AddressWord.toward.__get__(x) == corner_digits(x.labels), x


# ------------------------------------------------- the validation boundary


def _canonicalize_reference(w: AddressWord) -> CanonicalAddress:
    """canonicalize built through both validating constructors: the
    reference that the unchecked construction is held to."""
    d = w.terminal
    labels = w.labels.rstrip(PAD[d])
    if labels and (labels[-1], d) in REWRITE:
        m2, d = REWRITE[(labels[-1], d)]
        labels = labels[:-1] + m2
    return CanonicalAddress(AddressWord(labels, d))


@st.composite
def leveled_words(draw):
    """A word of level 0-12 or 1500-2500 whose last few labels are one
    repeated label, so that padding runs and junction tails occur at every
    level, as do words that are already canonical."""
    n = draw(st.one_of(st.integers(0, 12), st.integers(1500, 2500)))
    head = _base3(draw(st.integers(min_value=0, max_value=3**n - 1))).rjust(n, "0")
    run = draw(st.integers(min_value=0, max_value=min(n, 4)))
    labels = "".join("abc"[int(c)] for c in head[: n - run]) + draw(st.sampled_from("abc")) * run
    return AddressWord(labels, draw(st.sampled_from("TLR")))


@settings(deadline=None, max_examples=300)
@given(leveled_words())
def test_canonicalize_matches_the_validating_reference(w):
    want = _canonicalize_reference(w)
    got = canonicalize(w)
    assert type(got) is CanonicalAddress and got == want
    assert CanonicalAddress(got.word) == got
    # an already canonical word is kept, digits and all
    assert (got.word is w) == (want.word == w)


def test_outside_input_is_validated():
    # prepend's label check is pinned by test_prepend_rejects_bad_label
    with pytest.raises(ValueError, match="^bad label in 'abx'$"):
        AddressWord("abx", "T")
    with pytest.raises(ValueError, match="^bad terminal 'Q'$"):
        parse_word("ab.Q")


def _assert_digits_carried(w: AddressWord) -> None:
    c = canonicalize(w).word
    assert c.toward == corner_digits(c.labels)


@settings(deadline=None, max_examples=300)
@given(leveled_words())
def test_canonical_word_carries_its_digits(w):
    # parsed words carry digits from construction; canonicalize derives the
    # canonical word's from them, shifting out the padding and moving a
    # rewritten label's digit
    _assert_digits_carried(w)


@pytest.mark.parametrize(
    "text",
    [
        ".T", ".L", ".R",  # level 0
        "aaa.T", "bb.L", "c.R",  # all padding
        "b.T", "c.T", "c.L", "ab.T", "acc.T", "bcc.L", "cbbbb.L", "bcaaa.T",  # rewrite tails
        "b" + "a" * 20000 + ".T",  # the long pad run
        "abcabc" + "c" * 300 + ".R",
    ],
)
def test_canonical_word_carries_its_digits_cases(text):
    _assert_digits_carried(parse_word(text))


@settings(deadline=None, max_examples=300)
@given(leveled_words(), st.sampled_from("abc"))
def test_prepend_carries_its_digits(w, m):
    c = prepend(m, canonicalize(w)).word
    assert c.toward == corner_digits(c.labels)
