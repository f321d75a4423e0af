"""Command-line front end.

Each subcommand is declared once, in `COMMANDS`: its handler and its
arguments, each with its argparse keywords and its kind. `build_parser`
and `main` read everything else off that table: which options take a
rational, so that a spaced negative value is joined to them, and which
take a count that must be nonnegative.

Every subcommand validates before computing and prints exact values;
`numerics` reads each rational argument and writes each value's text.
Identical argv always produces byte-identical stdout. Exit codes: 0 on
success, 1 when validation or computation rejects the input, 2 for usage
errors (argparse's default).
"""

from __future__ import annotations

import argparse
import gc
import re
import sys

from trigasket.acceptance import SUITES, run_criterion
from trigasket.coalgebras import BUILTIN, get_coalgebra, theta
from trigasket.geometry import FORMATS, Point2, RENDER_MAX_DEPTH, address_of, coords, render
from trigasket.metric import dist_G, dist_level
from trigasket.numerics import _fraction, _ratio_text, dyadic, format_dist, surd_decimal, surd_text
from trigasket.words import canonicalize, parse_word


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


def _cmd_mediate(args: argparse.Namespace) -> int:
    co = get_coalgebra(args.coalgebra)
    x = BUILTIN[args.coalgebra][2](args.point)
    t = theta(co, x, args.depth)
    anchor = coords(t)
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


# Each command once: its name, help, handler and arguments. An argument is
# its flag or positional name, its argparse keywords and its kind: a
# "rational" option takes a value `_fraction` reads, which may be a spaced
# negative (see attach_negatives); a "count" option takes a nonnegative int.
COMMANDS = (
    ("normalize", "canonical form of an address word", _cmd_normalize, (
        ("word", {"help": "address word, e.g. 'bbb.L'"}, None),
    )),
    ("dist", "quotient distance between two same-level words", _cmd_dist, (
        ("--level", {"required": True}, "count"),
        ("words", {"nargs": 2, "metavar": "WORD"}, None),
    )),
    ("gdist", "distance between two address classes", _cmd_gdist, (
        ("words", {"nargs": 2, "metavar": "WORD"}, None),
    )),
    ("coords", "planar coordinates of an address word", _cmd_coords, (
        ("word", {}, None),
    )),
    ("address", "address of a planar point (x, ycoeff*sqrt(3))", _cmd_address, (
        ("--x", {"required": True, "help": "rational x coordinate, e.g. 3/4"}, "rational"),
        ("--y-coeff", {"required": True, "help": "rational sqrt(3)-coefficient of y"},
         "rational"),
        ("--depth", {"required": True}, "count"),
    )),
    ("mediate", "depth-n address approximant of a point's limit", _cmd_mediate, (
        ("--coalgebra", {"required": True, "choices": BUILTIN}, None),
        ("--point", {"required": True, "help": "; ".join(
            f"{name}: {syntax}" for name, (_, syntax, _) in sorted(BUILTIN.items()))},
         "rational"),
        ("--depth", {"required": True}, "count"),
    )),
    ("render", "write a point-cloud rendering", _cmd_render, (
        ("--depth", {"required": True, "help": f"0..{RENDER_MAX_DEPTH}"}, "count"),
        ("--out", {"required": True}, None),
        ("--format", {"choices": FORMATS, "default": "svg"}, None),
    )),
    ("verify", "run the acceptance criteria", _cmd_verify, (
        ("--suite", {"choices": sorted(SUITES), "default": "all"}, None),
    )),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trigasket",
        description="Exact address arithmetic on the Sierpinski gasket.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary, fn, arguments in COMMANDS:
        p = sub.add_parser(name, help=summary)
        for flag, keywords, kind in arguments:
            p.add_argument(flag, **({"type": int} if kind == "count" else {}), **keywords)
        p.set_defaults(fn=fn)
    return parser


def attach_negatives(
    argv: "list[str]", options: "tuple[str, ...]", rational: "tuple[str, ...]"
) -> "list[str]":
    """argv with each spaced negative value joined to its rational option.

    argparse reads a separate "-1/2" as an option, not as a value (it takes
    only "-1" and "-.5" for numbers), so "--x -1/2" becomes "--x=-1/2".
    `options` are the option strings of the parser reading argv, and
    `rational` those among them that take a rational. argparse reads an
    argument as the option it names exactly, else as the only long option
    it abbreviates; it reads no argument after "--" as an option.
    """
    out: list[str] = []
    for i, arg in enumerate(argv):
        if arg == "--":
            return out + argv[i:]
        opt = out[-1] if out else ""
        if opt not in options and opt.startswith("--"):
            matches = [o for o in options if o.startswith(opt)]
            opt = matches[0] if len(matches) == 1 else ""
        if opt in rational and re.match(r"-\.?\d", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv: "list[str] | None" = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    counts = ()
    # the top-level parser knows only -h and --help, so a command it accepts
    # is argv[0], and that command's parser reads the rest
    for name, _, _, arguments in COMMANDS:
        if argv[:1] == [name]:
            flags = tuple(flag for flag, _, _ in arguments if flag.startswith("-"))
            rational = tuple(flag for flag, _, kind in arguments if kind == "rational")
            argv[1:] = attach_negatives(argv[1:], ("-h", "--help", *flags), rational)
            counts = tuple(flag for flag, _, kind in arguments if kind == "count")
    args = build_parser().parse_args(argv)
    try:
        for flag in counts:
            value = getattr(args, flag[2:])
            if value < 0:
                raise ValueError(f"{flag} must be nonnegative, got {value}")
        return args.fn(args)
    except (ValueError, NotImplementedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> int:
    """The process entry of `trigasket` and `python -m trigasket.cli`:
    `main()` on the process's own argv, then `gc.freeze()` as it exits.

    Freezing moves every live object into the permanent generation, so the
    collections the interpreter runs at exit have nothing to traverse.
    atexit handlers, stdio flushing and module teardown still run, as they
    would not after `os._exit`. `main()` itself never freezes, so library
    callers and tests keep normal collection.
    """
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(entry())
