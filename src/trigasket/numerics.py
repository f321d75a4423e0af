"""Exact scalar helpers shared across the package.

Everything here is rational-first: metric values are `fractions.Fraction`,
and the only irrationalities the artifact ever needs to compare exactly are
sums of at most two square roots of rationals (triangle-with-apex distances).
`RadicalSum` decides signs of those sums by recursive squaring and has no
floating-point form: nothing here is ever evaluated in floating point.

Every distance the metric returns is an integer numerator over a power of
two, and `dyadic(num, k)` builds that value as `Fraction(num, 2**k)` would,
in lowest terms, without a gcd: the only common factor of num and 2^k is a
power of two. The triangle-outline step `delta_step` computes on numerators
over any positive denominator, and `ratio(num, den)` builds its results, and
a plane point's `x` and `yc`, as `Fraction(num, den)` would, with the same
gcd and without the constructor's type dispatch. Both fill Fraction's two slots with a
coprime pair whose denominator is positive, which is the normal form
Fraction's own constructor makes, so either value is that Fraction.

This module also owns the text of exact values. `_fraction` reads every
rational the command line takes, in one grammar on every interpreter.
`_ratio_text`, `_fraction_text`, `surd_text` and `format_dist` print them,
in chunks past CPython's limit for converting an int, and `surd_decimal` is
the one half-up decimal rounding, of a rational and of u + v*sqrt3 alike.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from fractions import Fraction
from typing import Union

Rational = Union[int, Fraction]

ZERO = Fraction(0)


def dyadic(num: int, k: int) -> Fraction:
    """Fraction(num, 2**k) for an int num and k >= 0, built without a gcd.

    gcd(num, 2^k) is 2^z with z the smaller of k and num's trailing zero
    bits, and z = k when num = 0, whose lowest terms are 0/1. Shifting z twos
    out of both leaves num >> z over 2^(k - z): coprime, with a positive
    denominator, which is the normal form Fraction's own constructor makes.
    So the value is stored in Fraction's two slots, `_numerator` and
    `_denominator`, as CPython 3.12's `Fraction._from_coprime_ints` does;
    the slots are the same on 3.10-3.13, every Fraction method reads only
    them, and `tests/test_dyadic.py` fails on any other layout. It pays on
    `dist-cold`, where it read `better` in `BENCH_36.json`.
    """
    z = (num & -num).bit_length() - 1 if num else k
    if z > k:
        z = k
    value = object.__new__(Fraction)
    value._numerator = num >> z
    value._denominator = 1 << (k - z)
    return value


def ratio(num: int, den: int) -> Fraction:
    """Fraction(num, den) for ints num and den > 0, built by slot fill.

    Dividing both by g = gcd(num, den), which is positive, leaves a coprime
    pair over a positive denominator (0/1 when num = 0, since then g = den):
    the value `Fraction.__new__` stores after the same gcd, stored here
    without its checks of the arguments' types and sign, as `dyadic` does.
    It pays on the plane maps: with `Fraction(num, den)` in its place,
    `render(7, ..., "points")` took 15.3 ms against 13.0 ms, and reading
    `.x` and `.yc` of `coords` for 2,000 words of levels 1-40 took 5.1 ms
    against 3.6 ms (CPython 3.11.7 on a shared two-CPU machine, medians
    of 15 alternating fresh processes).
    """
    g = math.gcd(num, den)
    value = object.__new__(Fraction)
    value._numerator = num // g
    value._denominator = den // g
    return value


# CPython refuses str() of an int longer than sys.get_int_max_str_digits()
# digits (4300 by default, never below 640), so longer ints go out, and come
# back in, in chunks
_CHUNK_DIGITS = 600
_CHUNK = 10**_CHUNK_DIGITS


def _int_text(i: int) -> str:
    """Decimal digits of a nonnegative int of any length."""
    parts = []
    while i >= _CHUNK:
        i, r = divmod(i, _CHUNK)
        parts.append(f"{r:0{_CHUNK_DIGITS}d}")
    parts.append(str(i))
    return "".join(reversed(parts))


def _text_int(digits: str) -> int:
    """The nonnegative int a string of decimal digits of any length spells:
    `_int_text` read back, chunk by chunk."""
    i = 0
    for k in range(0, len(digits), _CHUNK_DIGITS):
        chunk = digits[k : k + _CHUNK_DIGITS]
        i = i * 10 ** len(chunk) + int(chunk)
    return i


def _ratio_text(value: Fraction) -> str:
    """Exact p/q of a rational, whatever the length of p and q."""
    return f"{_int_text(value.numerator)}/{_int_text(value.denominator)}"


def _fraction_text(value: Rational) -> str:
    """str(value) of a rational, whatever the length of its numerator and
    denominator: its sign, then p, or p/q when q > 1."""
    text = ("-" if value < 0 else "") + _int_text(abs(value.numerator))
    return text if value.denominator == 1 else f"{text}/{_int_text(value.denominator)}"


def surd_text(u: Rational, v: Rational) -> str:
    """Pinned CLI format of u + v*sqrt3: "p/q+r/s√3", both components always shown."""
    head = ("-" if u < 0 else "") + _ratio_text(abs(u))
    sign = "-" if v < 0 else "+"
    return f"{head}{sign}{_ratio_text(abs(v))}√3"


def surd_decimal(u: Rational, v: Rational, places: int = 12) -> str:
    """u + v*sqrt3, for u, v >= 0, rounded half up to the given places, exactly.

    Over one denominator D, alpha/D = u*10^p + 1/2 and beta/D = v*10^p, and
    the rounded value is k/10^p, k = (alpha + isqrt(3*beta^2)) // D: if
    kD <= alpha + beta*sqrt3, the integer kD - alpha is at most its floor.
    """
    if u < 0 or v < 0:
        raise ValueError(f"surd_decimal takes u, v >= 0, got {u}, {v}")
    scale = 10**places
    (un, ud), (vn, vd) = Fraction(u).as_integer_ratio(), Fraction(v).as_integer_ratio()
    alpha, beta = (2 * un * scale + ud) * vd, 2 * vn * scale * ud
    whole, frac = divmod((alpha + math.isqrt(3 * beta * beta)) // (2 * ud * vd), scale)
    return f"{whole}.{frac:0{places}d}"


def format_dist(value: Fraction, places: int = 12) -> str:
    """CLI-facing distance format: exact p/q fraction plus fixed decimal."""
    return f"{_ratio_text(value)} = {surd_decimal(value, 0, places)}"


# One grammar on every interpreter, CPython 3.11's Fraction(str): a sign,
# digits with optional "_" groups, then "/" and a denominator, or a
# fractional part and an optional exponent; no space around "/". The digits
# are read in chunks, past sys.get_int_max_str_digits(), and the exponent is
# refused past ±MAX_EXPONENT by its significant digits before any power is
# taken: Linux caps one argument at 131,072 bytes, so the cap admits every
# value one argument can spell as a plain decimal. `re` compiles the pattern
# on first use, so importing the package compiles none.
MAX_EXPONENT = 131_072
_DIGITS = r"\d+(?:_\d+)*"
_RATIONAL = (
    rf"\s*([-+]?)(?=\.?\d)(\d*|{_DIGITS})"
    rf"(?:/({_DIGITS})|(?:\.(\d*|{_DIGITS}))?(?:[eE]([-+]?)({_DIGITS}))?)\s*"
)


def _fraction(text: str) -> Fraction:
    try:
        match = re.fullmatch(_RATIONAL, text)
        if match is None:
            raise ValueError(f"Invalid literal for Fraction: {text!r}")
        sign, num, den, frac, esign, exp = match.groups()
        num = num.replace("_", "")
        if den is not None:
            value = Fraction(_text_int(num), _text_int(den.replace("_", "")))
        else:
            frac = (frac or "").replace("_", "")
            # leading zeros, in any script's digits, count for nothing
            digits = (exp or "0").replace("_", "")
            digits = digits[next((i for i, c in enumerate(digits) if int(c)), -1) :]
            if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
                raise ValueError(f"exponent {esign}{exp} is outside ±{MAX_EXPONENT}")
            shift = (-int(digits) if esign == "-" else int(digits)) - len(frac)
            value = _text_int(num + frac) * Fraction(10) ** shift
        return -value if sign == "-" else value
    except ZeroDivisionError:
        raise ValueError(f"not a rational: {text!r} (zero denominator)") from None
    except ValueError as exc:
        raise ValueError(f"not a rational: {text!r} ({exc})") from None


def _sqrt_exact(q: Fraction) -> Fraction | None:
    """Return sqrt(q) if q is the square of a rational, else None."""
    if q < 0:
        raise ValueError("negative radicand")
    n, d = q.numerator, q.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def _sign_one_radical(q: Fraction, c: Fraction, r: Fraction) -> int:
    """Sign of q + c*sqrt(r), r > 0, decided by squaring."""
    if c == 0:
        return _sgn(q)
    if q == 0:
        return _sgn(c)
    sq, sc = _sgn(q), _sgn(c)
    if sq == sc:
        return sq
    # opposite signs: |q| vs |c|sqrt(r) via squares
    cmp = q * q - c * c * r
    if cmp == 0:
        return 0
    return sq if cmp > 0 else sc


def _sgn(x: Fraction) -> int:
    return (x > 0) - (x < 0)


class RadicalSum(namedtuple("RadicalSum", "rational terms")):
    """q + sum of c_i*sqrt(r_i) with at most two radical terms.

    Radicands are positive rationals, deduplicated by exact equality (no
    squarefree normalization: radicands here never need factoring, and
    dependent radicands like sqrt(8) vs sqrt(2) still compare correctly
    because every comparison bottoms out in squaring).
    """

    # fields: rational, a Fraction; terms, ((coeff, radicand), ...) of Fractions
    __slots__ = ()

    @staticmethod
    def of(rational: Rational = 0, *terms: tuple[Rational, Rational]) -> "RadicalSum":
        acc: dict[Fraction, Fraction] = {}
        q = Fraction(rational)
        for coeff, radicand in terms:
            c, r = Fraction(coeff), Fraction(radicand)
            if c == 0 or r == 0:
                continue
            if r < 0:
                raise ValueError("negative radicand")
            exact = _sqrt_exact(r)
            if exact is not None:
                q += c * exact
                continue
            acc[r] = acc.get(r, ZERO) + c
        clean = tuple(sorted((c, r) for r, c in acc.items() if c != 0))
        if len(clean) > 2:
            raise NotImplementedError(
                "sign decisions support at most two radical terms"
            )
        return RadicalSum(q, clean)

    # -- arithmetic (only what the artifact needs: +, -, rational scaling) --

    def _coerced(self, other: "RadicalSum | Rational") -> "RadicalSum":
        if isinstance(other, RadicalSum):
            return other
        if isinstance(other, (int, Fraction)):
            return RadicalSum.of(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: "RadicalSum | Rational") -> "RadicalSum":
        o = self._coerced(other)
        if o is NotImplemented:
            return NotImplemented
        return RadicalSum.of(self.rational + o.rational, *self.terms, *o.terms)

    __radd__ = __add__

    def __neg__(self) -> "RadicalSum":
        return RadicalSum(-self.rational, tuple((-c, r) for c, r in self.terms))

    def __sub__(self, other: "RadicalSum | Rational") -> "RadicalSum":
        return self + (-self._coerced(other))

    def __rsub__(self, other: "RadicalSum | Rational") -> "RadicalSum":
        return (-self) + other

    def __mul__(self, other: Rational) -> "RadicalSum":
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        k = Fraction(other)
        return RadicalSum(self.rational * k, tuple((c * k, r) for c, r in self.terms))

    __rmul__ = __mul__

    def __truediv__(self, other: Rational) -> "RadicalSum":
        return self * (1 / Fraction(other))

    # -- exact sign, the point of this class --

    def sign(self) -> int:
        ts = self.terms
        q = self.rational
        if not ts:
            return _sgn(q)
        if len(ts) == 1:
            (c, r), = ts
            return _sign_one_radical(q, c, r)
        (c1, r1), (c2, r2) = ts
        # sign of u = c1*sqrt(r1) + c2*sqrt(r2)
        s1, s2 = _sgn(c1), _sgn(c2)
        if s1 == s2:
            su = s1
        else:
            cmp = c1 * c1 * r1 - c2 * c2 * r2
            su = 0 if cmp == 0 else (s1 if cmp > 0 else s2)
        if q == 0:
            return su
        if su == 0 or su == _sgn(q):
            return _sgn(q)
        # q and u have opposite signs: compare q^2 vs u^2, where
        # u^2 = c1^2 r1 + c2^2 r2 + 2 c1 c2 sqrt(r1 r2) has one radical.
        t = _sign_one_radical(
            q * q - c1 * c1 * r1 - c2 * c2 * r2, -2 * c1 * c2, r1 * r2
        )
        if t == 0:
            return 0
        return _sgn(q) if t > 0 else su

    # -- comparisons for min() and metric gates --

    def _cmp(self, other: "RadicalSum | Rational") -> int:
        return (self - other).sign()

    def __lt__(self, other: "RadicalSum | Rational") -> bool:
        return self._cmp(other) < 0

    def __le__(self, other: "RadicalSum | Rational") -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other: "RadicalSum | Rational") -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other: "RadicalSum | Rational") -> bool:
        return self._cmp(other) >= 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (RadicalSum, int, Fraction)):
            return NotImplemented
        return self._cmp(other) == 0

    def __ne__(self, other: object) -> bool:
        # tuple's own __ne__ would compare the fields, not the values
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __hash__(self) -> int:
        if not self.terms:
            return hash(self.rational)
        return hash((self.rational, self.terms))

    def __str__(self) -> str:
        parts = [str(self.rational)]
        for c, r in self.terms:
            parts.append(f"+ {c}*sqrt({r})" if c >= 0 else f"- {-c}*sqrt({r})")
        return " ".join(parts)


def sqrt_fraction(q: Rational) -> "RadicalSum | Fraction":
    """Exact sqrt of a nonnegative rational: Fraction if perfect, else RadicalSum."""
    qf = Fraction(q)
    exact = _sqrt_exact(qf)
    if exact is not None:
        return exact
    return RadicalSum.of(0, (1, qf))


MetricValue = Union[Fraction, RadicalSum]
