"""Command-line front end.

Every subcommand validates before computing and prints exact values;
identical argv always produces byte-identical stdout. Exit codes: 0 on
success, 1 when validation or computation rejects the input, 2 for usage
errors (argparse's default).
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction

from trigasket.acceptance import SUITES, run_criterion
from trigasket.coalgebras import get_coalgebra, theta
from trigasket.counterexamples import APEX, delta_point
from trigasket.geometry import (
    Point2,
    RENDER_MAX_DEPTH,
    address_of,
    coords,
    render,
    surd_decimal,
    surd_text,
)
from trigasket.metric import dist_G, dist_level
from trigasket.numerics import _ratio_text, _text_int, dyadic, format_dist
from trigasket.words import canonicalize, parse_word


# a ratio of integers, the form `coords` prints, and a decimal with an
# optional exponent (at least one digit); Fraction(text) refuses integers
# longer than sys.get_int_max_str_digits() digits, so these are read in
# chunks, and every other form Fraction accepts goes to Fraction. The
# exponent is read whole, as Fraction reads it. The patterns here are
# compiled on first use, through `re`'s own cache, so that importing the
# CLI compiles none of them.
_RATIO = r"\s*([-+]?)(\d+)(?:/(\d+))?\s*"
_DECIMAL = r"\s*([-+]?)(?=\.?\d)(\d*)(?:\.(\d*))?(?:[eE]([-+]?\d+))?\s*"


def _fraction(text: str) -> Fraction:
    try:
        ratio = re.fullmatch(_RATIO, text)
        if ratio is not None:
            sign, num, den = ratio.groups()
            value = Fraction(_text_int(num), _text_int(den or "1"))
        else:
            decimal = re.fullmatch(_DECIMAL, text)
            if decimal is None:
                return Fraction(text)
            sign, whole, frac, exp = decimal.groups()
            frac = frac or ""
            value = _text_int(whole + frac) * Fraction(10) ** (int(exp or 0) - len(frac))
        return -value if sign == "-" else value
    except ZeroDivisionError:
        raise ValueError(f"not a rational: {text!r} (zero denominator)") from None
    except ValueError as exc:
        raise ValueError(f"not a rational: {text!r} ({exc})") from None


def _cmd_normalize(args: argparse.Namespace) -> int:
    print(canonicalize(parse_word(args.word)).text)
    return 0


def _cmd_dist(args: argparse.Namespace) -> int:
    u = parse_word(args.words[0])
    v = parse_word(args.words[1])
    print(format_dist(dist_level(u, v, args.level)))
    return 0


def _cmd_gdist(args: argparse.Namespace) -> int:
    u = canonicalize(parse_word(args.words[0]))
    v = canonicalize(parse_word(args.words[1]))
    print(_ratio_text(dist_G(u, v)))
    return 0


def _cmd_coords(args: argparse.Namespace) -> int:
    p = coords(parse_word(args.word))
    print(f"x = {surd_text(p.x, 0)} = {surd_decimal(p.x, 0)}")
    print(f"y = {surd_text(0, p.yc)} = {surd_decimal(0, p.yc)}")
    return 0


def _cmd_address(args: argparse.Namespace) -> int:
    p = Point2(_fraction(args.x), _fraction(args.y_coeff))
    print(address_of(p, args.depth).text)
    return 0


def _parse_point(coalgebra: str, spec: str):
    if coalgebra == "delta":
        if spec == "apex":
            return APEX
        return delta_point(_fraction(spec))
    if coalgebra == "gasket-sigma":
        parts = spec.split(",")
        if len(parts) != 2:
            raise ValueError(
                f"gasket-sigma points are written 'x,ycoeff' (y = ycoeff*sqrt(3)), got {spec!r}"
            )
        return Point2(_fraction(parts[0]), _fraction(parts[1]))
    raise ValueError(f"no point syntax for coalgebra {coalgebra!r}")


def _cmd_mediate(args: argparse.Namespace) -> int:
    co = get_coalgebra(args.coalgebra)
    x = _parse_point(args.coalgebra, args.point)
    t = theta(co, x, args.depth)
    anchor = coords(t.word)
    print(f"theta_{args.depth} = {t.text}")
    print(f"coords = {surd_text(anchor.x, 0)}, {surd_text(0, anchor.yc)}")
    print(f"bound = {_ratio_text(dyadic(1, args.depth))}")
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    count = render(args.depth, args.out, args.format)
    print(f"wrote {count} points to {args.out}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    passed = True
    for number in SUITES[args.suite]:
        r = run_criterion(number)
        print(r.line(), flush=True)
        passed = passed and r.passed
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    # imported here, not at the top, so that importing the CLI defines no
    # parser class: the benchmark's dist-matrix worker imports the CLI, and
    # a few more GC-tracked objects at import move a gen-0 collection into
    # its first timed row (ROADMAP item 1)
    from trigasket.argv import Parser

    parser = Parser(
        prog="trigasket",
        description="Exact address arithmetic on the Sierpinski gasket.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="canonical form of an address word")
    p.add_argument("word", help="address word, e.g. 'bbb.L'")
    p.set_defaults(fn=_cmd_normalize)

    p = sub.add_parser("dist", help="quotient distance between two same-level words")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("words", nargs=2, metavar="WORD")
    p.set_defaults(fn=_cmd_dist)

    p = sub.add_parser("gdist", help="distance between two address classes")
    p.add_argument("words", nargs=2, metavar="WORD")
    p.set_defaults(fn=_cmd_gdist)

    p = sub.add_parser("coords", help="planar coordinates of an address word")
    p.add_argument("word")
    p.set_defaults(fn=_cmd_coords)

    p = sub.add_parser("address", help="address of a planar point (x, ycoeff*sqrt(3))")
    p.add_argument("--x", required=True, help="rational x coordinate, e.g. 3/4")
    p.add_argument("--y-coeff", required=True, help="rational sqrt(3)-coefficient of y")
    p.add_argument("--depth", type=int, required=True)
    p.set_defaults(fn=_cmd_address)

    p = sub.add_parser("mediate", help="depth-n address approximant of a point's limit")
    p.add_argument("--coalgebra", required=True, choices=("gasket-sigma", "delta"))
    p.add_argument("--point", required=True,
                   help="delta: 'apex' or a rational; gasket-sigma: 'x,ycoeff'")
    p.add_argument("--depth", type=int, required=True)
    p.set_defaults(fn=_cmd_mediate)

    p = sub.add_parser("render", help="write a point-cloud rendering")
    p.add_argument("--depth", type=int, required=True,
                   help=f"0..{RENDER_MAX_DEPTH}")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("svg", "points"), default="svg")
    p.set_defaults(fn=_cmd_render)

    p = sub.add_parser("verify", help="run the acceptance criteria")
    p.add_argument("--suite", choices=sorted(SUITES), default="all")
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for flag in ("depth", "level"):
            value = getattr(args, flag, None)
            if value is not None and value < 0:
                raise ValueError(f"--{flag} must be nonnegative, got {value}")
        return args.fn(args)
    except (ValueError, NotImplementedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
