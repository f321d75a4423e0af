"""Address words over the labels {a, b, c} and terminals {T, L, R}.

A word "m1...mn.d" names a point of the n-th gluing stage: n nested copy
choices followed by a corner of the innermost copy. Two words can name the
same point, either because a shorter word was padded along the chain
(T pads with a, L with b, R with c) or because the point sits on a junction
where two copies touch:

    b.T ~ a.L        a.R ~ c.T        c.L ~ b.R

applied under any common prefix. `canonicalize` picks one representative
per point, its class's normal form, as a `CanonicalAddress`: an
`AddressWord` with no field of its own, only the canonical-form checks.
`glue_partner` returns the other same-level name when one exists.

`PAD` (the copy that keeps each corner) is the one declaration of the
gasket. Copy m meets copy m2 at the corner m2 keeps, so `GLUE` (those three
identifications) is read off it, and so is every other table here, the
metric's `JUNCTIONS`, the plane offsets in `geometry` and the structure-map
checks in `algebras`, `coalgebras` and `spaces`.

Every word holds its corner digits from construction (`toward`):
`corner_digits` reads the labels as binary digits toward each corner
through a byte table that turns any other character into one `int`
rejects, so the readout is also the label check. A word is built in one
of two ways. The constructors read the labels, and so check them:
`parse_word`, a junction partner, a padded word, `canonical_at` and a
peeled address are built so. The private `_word_with` builds either class
from digits derived from another word's and checks nothing: `iter_words`
and `iter_canonical` read each label string once, `canonicalize` shifts
the canonical word's digits out of its argument's (or shares them when it
is in canonical form; a `CanonicalAddress` comes back as it is), and
`prepend` puts the glued label's digit on top, so no label string is read
twice. Both fill the word's three slots through the slots' own setters,
bound once at import, which the word's assignment guard does not see.
Labels that come from a structure map a user may have written are checked
where they enter: `coalgebras.unfold` rejects any label but a, b, c, and
`thetas` reads the trace's digits once and gives each anchored prefix the
top digits of the trace.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, Optional

LABELS = "abc"
TERMINALS = "TLR"

# chain padding: embedding a corner one level down re-enters through this
# label, the copy that keeps the corner
PAD = {"T": "a", "L": "b", "R": "c"}

# the corner a copy keeps: a->T, b->L, c->R
ANCHOR = {m: d for d, m in PAD.items()}

# one gluing step identifies copy m's corner ANCHOR[m2] with copy m2's corner
# ANCHOR[m]: b.T~a.L, a.R~c.T, c.L~b.R, in the order validation reports them
GLUE = tuple(((m, ANCHOR[m2]), (m2, ANCHOR[m])) for m, m2 in ("ba", "ac", "cb"))

# corner d -> a bytes.translate table that reads the encoded labels as binary
# digits, 1 where the label is PAD[d]. Every other byte becomes "2", which
# int(., 2) rejects wherever it stands, so no sign, space, underscore or
# "0b" prefix that int would accept can survive a readout.
DIGITS = {
    d: bytes(ord("01"[chr(i) == PAD[d]]) if chr(i) in LABELS else ord("2") for i in range(256))
    for d in TERMINALS
}


# the two readouts a word makes; the third is what they leave of 2^n - 1
_DIGITS_T = DIGITS["T"]
_DIGITS_R = DIGITS["R"]


def corner_digits(labels: str) -> tuple[int, int, int]:
    """The labels read as binary digits toward each corner (T, L, R), 1
    where the label is that corner's pad label.

    Every label is the pad label of exactly one corner, so the three
    readouts sum to 2^n - 1 and two parses give all three. The readout is
    also the label check: a string with any other character, non-ASCII
    ones included, raises ValueError("bad label in ...").
    """
    try:
        raw = labels.encode()
        t = int(raw.translate(_DIGITS_T) or b"0", 2)
        r = int(raw.translate(_DIGITS_R) or b"0", 2)
    except ValueError:
        raise ValueError(f"bad label in {labels!r}") from None
    return t, (1 << len(labels)) - 1 - t - r, r


# junction tail rewrites toward the canonical member (lexicographic-least head)
REWRITE = {max(pair): min(pair) for pair in GLUE}

# REWRITE with what it does to the corner digits: the last label m becomes
# m2, so its digit moves from the corner m pads to the corner m2 pads
_REWRITE_DIGITS = {
    (m, d): (m2, d2, tuple((PAD[c] == m2) - (PAD[c] == m) for c in TERMINALS))
    for (m, d), (m2, d2) in REWRITE.items()
}


class AddressWord:
    """Immutable word: label string plus terminal letter.

    Equality, hash and order are those of the tuple (labels, terminal),
    between words of either class only. `toward` is the (T, L, R) tuple
    `corner_digits(labels)`, set when the word is built. Over 2^n, plus
    2^-n if the terminal is c, the readout toward corner c is the point's
    barycentric weight toward c; the digits of the last m labels are its
    low m bits.

    The fields are slots, filled through their own setters (`_set_labels`
    and the like), which the assignment guard does not see. Against a
    `__dict__` filled by `object.__setattr__`, a word takes 105 bytes, not
    145, and `_word_with` 0.28 µs, not 0.43 (CPython 3.11.7);
    `BENCH_45.json` shows `dist-cold` faster for it. `__reduce__` rebuilds
    a word through its class's constructor, so pickle and copy check it.
    """

    __slots__ = ("labels", "terminal", "toward")

    def __init__(self, labels: str, terminal: str) -> None:
        if not isinstance(labels, str):
            raise TypeError(f"labels must be a str, not {type(labels).__name__}")
        # the readout is the label check
        toward = corner_digits(labels)
        # exact membership: a substring test would pass '' and 'LR'
        if terminal not in PAD:
            raise ValueError(f"bad terminal {terminal!r}")
        _set_labels(self, labels)
        _set_terminal(self, terminal)
        _set_toward(self, toward)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, (self.labels, self.terminal)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AddressWord):
            return NotImplemented
        return self.labels == other.labels and self.terminal == other.terminal

    def __hash__(self) -> int:
        return hash((self.labels, self.terminal))

    def __lt__(self, other: "AddressWord") -> bool:
        if not isinstance(other, AddressWord):
            return NotImplemented
        return (self.labels, self.terminal) < (other.labels, other.terminal)

    def __le__(self, other: "AddressWord") -> bool:
        if not isinstance(other, AddressWord):
            return NotImplemented
        return (self.labels, self.terminal) <= (other.labels, other.terminal)

    def __gt__(self, other: "AddressWord") -> bool:
        if not isinstance(other, AddressWord):
            return NotImplemented
        return (self.labels, self.terminal) > (other.labels, other.terminal)

    def __ge__(self, other: "AddressWord") -> bool:
        if not isinstance(other, AddressWord):
            return NotImplemented
        return (self.labels, self.terminal) >= (other.labels, other.terminal)

    def __repr__(self) -> str:
        return f"{self.__class__.__name__}(labels={self.labels!r}, terminal={self.terminal!r})"

    @property
    def level(self) -> int:
        return len(self.labels)

    @property
    def text(self) -> str:
        return f"{self.labels}.{self.terminal}"

    def __str__(self) -> str:
        return self.text


# bound once: the slots' own setters, which `__init__` and `_word_with` fill
# a word through
_new = object.__new__
_set_labels = AddressWord.labels.__set__
_set_terminal = AddressWord.terminal.__set__
_set_toward = AddressWord.toward.__set__


def _word_with(cls: type, labels: str, terminal: str, toward: tuple[int, int, int]) -> AddressWord:
    """cls(labels, terminal) without its checks, given its digits, derived
    from those of the word it was made from or shared with its other
    terminals."""
    w = _new(cls)
    _set_labels(w, labels)
    _set_terminal(w, terminal)
    _set_toward(w, toward)
    return w


class CanonicalAddress(AddressWord):
    """An AddressWord in canonical form: its last label neither pads its
    terminal nor makes a rewrite source. `canonicalize` makes one of any
    word; this constructor checks the word, then the two conditions."""

    __slots__ = ()

    def __init__(self, labels: str, terminal: str) -> None:
        super().__init__(labels, terminal)
        # the last label, or "" at level 0, which neither test matches
        if labels[-1:] == PAD[terminal]:
            raise ValueError(f"{self} carries chain padding")
        if (labels[-1:], terminal) in REWRITE:
            raise ValueError(f"{self} has a rewrite-source tail")


def parse_word(text: str) -> AddressWord:
    """Parse "labels.terminal" (empty label part allowed, e.g. ".T")."""
    head, sep, tail = text.partition(".")
    if not sep or len(tail) != 1:
        raise ValueError(f"not a word: {text!r} (expected like 'abc.T' or '.L')")
    return AddressWord(head, tail)


def glue_partner(w: AddressWord) -> Optional[AddressWord]:
    """The unique other same-level word naming the same point, if any.

    The word ends in a maximal run h * p^k . d with p = PAD[d]: copy h at the
    corner ANCHOR[p] that copy p keeps, which is copy p at ANCHOR[h]. So the
    partner swaps the two labels, prefix * p * h^k . ANCHOR[h] (h pads its
    own anchor). All-padding words (the three corners at each level) have
    no partner.
    """
    p = PAD[w.terminal]
    k = 0
    while k < len(w.labels) and w.labels[-1 - k] == p:
        k += 1
    if k == len(w.labels):
        return None
    head = w.labels[-1 - k]
    return AddressWord(w.labels[: -(k + 1)] + p + head * k, ANCHOR[head])


def canonicalize(w: AddressWord) -> CanonicalAddress:
    """Unique representative: strip the chain padding, then rewrite the junction tail.

    A CanonicalAddress is its own representative and comes back as it is;
    any other word already in canonical form is copied, digits tuple and
    all. Otherwise the result gets w's digits: the k stripped pad labels
    are the low k digits, so they shift out, and a rewrite moves the last
    label's digit to the corner of its new label.
    """
    if isinstance(w, CanonicalAddress):
        return w
    d = w.terminal
    labels = w.labels.rstrip(PAD[d])
    k = len(w.labels) - len(labels)
    rewrite = labels and _REWRITE_DIGITS.get((labels[-1], d))
    if rewrite:
        # no rewrite target ends in its own terminal's pad label, so this
        # leaves no padding to strip
        m2, d, (bt, bl, br) = rewrite
        t, l, r = w.toward
        toward = ((t >> k) + bt, (l >> k) + bl, (r >> k) + br)
        return _word_with(CanonicalAddress, labels[:-1] + m2, d, toward)
    if not k:
        return _word_with(CanonicalAddress, labels, d, w.toward)
    t, l, r = w.toward
    return _word_with(CanonicalAddress, labels, d, (t >> k, l >> k, r >> k))


def embed(w: AddressWord, target_level: int) -> AddressWord:
    """Pad w out to target_level; names the same point at the deeper stage.

    `metric.dist_G` pads raw label strings the same way without building a
    word; this is the reference the tests hold it to.
    """
    if target_level < w.level:
        raise ValueError(f"cannot embed level {w.level} word into level {target_level}")
    pad = PAD[w.terminal] * (target_level - w.level)
    return AddressWord(w.labels + pad, w.terminal)


def _prefixed(prefix: tuple, digits: tuple, k: int) -> tuple[int, int, int]:
    """Corner digits of a prefix followed by k labels, given the prefix's
    corner digits and the labels': the labels are the low k digits."""
    pt, pl, pr = prefix
    t, l, r = digits
    return pt << k | t, pl << k | l, pr << k | r


# each label's own one-digit readouts
_LABEL_DIGITS = {m: corner_digits(m) for m in LABELS}


def prepend(m: str, x: CanonicalAddress) -> CanonicalAddress:
    """The initial-algebra structure map on addresses: glue a label on front.

    The glued word's digits are x's with m's digit on top (`_prefixed`).
    """
    if m not in ANCHOR:
        raise ValueError(f"bad label {m!r}")
    toward = _prefixed(_LABEL_DIGITS[m], x.toward, len(x.labels))
    return canonicalize(_word_with(AddressWord, m + x.labels, x.terminal, toward))


# exact level-n tails that satisfy the canonical-form invariants: neither
# padding nor a rewrite source
_CANONICAL_TAILS = tuple(
    (m, d) for m, d in product(LABELS, TERMINALS) if m != PAD[d] and (m, d) not in REWRITE
)


def iter_words(level: int) -> Iterator[AddressWord]:
    """All 3^n * 3 words of exactly this level."""
    for labels in map("".join, product(LABELS, repeat=level)):
        toward = corner_digits(labels)
        for d in TERMINALS:
            yield _word_with(AddressWord, labels, d, toward)


def iter_canonical(max_level: int) -> Iterator[CanonicalAddress]:
    """All canonical addresses of level <= max_level, level-major lexicographic.

    Count is 3 at level 0 and 3^n at each level n >= 1 (free prefix times the
    three admissible tails), i.e. (3^(n+1) + 3)/2 cumulatively.
    """
    for d in TERMINALS:
        yield _word_with(CanonicalAddress, "", d, (0, 0, 0))
    for n in range(1, max_level + 1):
        for prefix in map("".join, product(LABELS, repeat=n - 1)):
            for m, d in _CANONICAL_TAILS:
                yield _word_with(CanonicalAddress, prefix + m, d, corner_digits(prefix + m))


def count_canonical(max_level: int) -> int:
    return (3 ** (max_level + 1) + 3) // 2


def canonical_at(i: int) -> CanonicalAddress:
    """The i-th address of `iter_canonical`'s order, built alone, so a draw
    from the first count_canonical(L) indices is a draw from
    iter_canonical(L) without listing it.

    Level n >= 1 starts at count_canonical(n - 1), and its i-th address is
    prefix i // 3 in base 3 (n - 1 digits, a b c for 0 1 2, most
    significant first) followed by tail i % 3 of `_CANONICAL_TAILS`.
    """
    if i < 0:
        raise ValueError(f"no canonical address at index {i}")
    if i < 3:
        return CanonicalAddress("", TERMINALS[i])
    n = 1
    while count_canonical(n) <= i:
        n += 1
    p, tail = divmod(i - count_canonical(n - 1), 3)
    prefix = []
    for _ in range(n - 1):
        p, r = divmod(p, 3)
        prefix.append(LABELS[r])
    m, d = _CANONICAL_TAILS[tail]
    return CanonicalAddress("".join(reversed(prefix)) + m, d)
