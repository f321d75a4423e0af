"""The command line's contract as a property: drawn from the documented
grammar and its near misses, every argv ends with exit code 0, 1 or 2,
never with a traceback; exit 1 is exactly one `error:` line on stderr; and
the same argv prints the same stdout again.

The commands are those of `cli.COMMANDS`, and every long option it
declares has its spellings here. Depths and exponents stay small, so that
every case runs in milliseconds: the CLI refuses an exponent past
`numerics.MAX_EXPONENT` before computing, but the work caps that large depths
and levels need are not stated yet (ROADMAP item 21).
"""

import contextlib
import io

from hypothesis import HealthCheck, example, given, settings, strategies as st

from trigasket.cli import COMMANDS, main
from trigasket.coalgebras import BUILTIN
from trigasket.geometry import FORMATS


def _mostly(good, near_miss):
    """good three times in four, else a near miss."""
    return st.one_of(good, good, good, near_miss)


# words: the grammar, then bad labels and terminals, a missing or doubled
# dot, spaces, case and the empty string
_labels = st.text("abc", max_size=40) | st.text("abc", min_size=200, max_size=400)
WORDS = _mostly(
    st.builds(lambda ls, t: f"{ls}.{t}", _labels, st.sampled_from("TLR")),
    st.builds(
        lambda ls, t: f"{ls}.{t}", st.text("abcdA .", max_size=12), st.text("TLRXtl.", max_size=2)
    )
    | st.sampled_from(
        ["", ".", "abc", "ab.", ".TL", "a..T", " a.T", "a.T ", "A.T", "-a.T", "ab.T.L"]
    ),
)

# rationals: ratios, decimals and exponent forms with either sign, long
# digit strings past the int conversion limit, and text that is no rational
_digits = st.text("0123456789", min_size=1, max_size=12) | st.text(
    "0123456789", min_size=4400, max_size=5000
)
_sign = st.sampled_from(["", "-", "+"])
RATIONALS = st.one_of(
    st.builds(lambda s, p, q: f"{s}{p}/{q}", _sign, _digits, _digits),
    st.builds(lambda s, p: f"{s}{p}", _sign, _digits),
    st.builds(lambda s, p, q: f"{s}{p}.{q}", _sign, _digits, _digits),
    st.builds(
        lambda s, p, e, x: f"{s}{p}{e}{x}",
        _sign, st.sampled_from(["1", "0.5", ".25", "3/4", "12"]), st.sampled_from("eE"),
        st.integers(-40, 40),
    ),
    st.sampled_from(["", " ", "1/0", "-0/0", "abc", ".", "-", "1/", "/2", "1//2", "1/2/3",
                     "0x10", "inf", "nan", "1e", "e5", "١/٢", "1_000/3", "--1"]),
)

# depths and levels: small integers, and text int() refuses
INTS = _mostly(
    st.integers(-3, 8).map(str),
    st.sampled_from(["", "1.5", "1e2", "+3", " 4 ", "-0", "x", "٣", "1_0"]),
)

# points of the gasket, as x and the sqrt(3)-coefficient of y, in the forms
# `coords` prints and others, so that `address` and `mediate` also succeed
ON_GASKET = st.sampled_from([
    ("0", "0"), ("1", "0"), ("1/2", "1/2"), ("1/2", "0"), ("3/8", "1/8"), ("53/64", "1/16"),
    ("0.375", "0.125"), ("-0", "+0"), ("3/4", "1/4"), ("47/64", "15/64"), ("6/8", "2/8"),
])

# options spelled in full, by abbreviation, joined by "=" or misspelled
_SPELLINGS = {
    "--level": ["--level", "--lev", "--l", "--Level"],
    "--x": ["--x", "--X", "-x"],
    "--y-coeff": ["--y-coeff", "--y", "--y-c", "--ycoeff"],
    "--depth": ["--depth", "--dep", "--d", "--deep"],
    "--coalgebra": ["--coalgebra", "--co", "--coalg"],
    "--point": ["--point", "--poi", "--p", "--pt"],
    "--out": ["--out", "--o", "--output"],
    "--format": ["--format", "--fo", "--fmt"],
    "--suite": ["--suite", "--su", "--s"],
}


def test_every_option_of_the_command_table_has_its_spellings():
    long_options = {flag for *_, arguments in COMMANDS for flag, _, _ in arguments
                    if flag.startswith("--")}
    assert set(_SPELLINGS) == long_options


@st.composite
def _option(draw, name, values):
    spelled = draw(_mostly(st.just(name), st.sampled_from(_SPELLINGS[name])))
    value = draw(values)
    if draw(st.booleans()):
        return [f"{spelled}={value}"]
    return [spelled, value]


# mediate's points: delta's, gasket-sigma's `x,ycoeff`, and near misses of both
# (a row added to coalgebras.BUILTIN adds its points here)
POINTS = st.one_of(
    st.just("apex"),
    RATIONALS,
    ON_GASKET.map(",".join),
    st.builds(lambda x, y: f"{x},{y}", RATIONALS, RATIONALS),
    st.sampled_from(["1/2,", ",", "1,2,3", "Apex"]),
)


@st.composite
def _argv(draw, out_dir):
    command = draw(st.sampled_from([name for name, *_ in COMMANDS]))
    if command in ("normalize", "coords"):
        positionals, options = [draw(WORDS)], []
    elif command == "gdist":
        positionals, options = [draw(WORDS), draw(WORDS)], []
    elif command == "dist":
        positionals, options = [draw(WORDS), draw(WORDS)], [draw(_option("--level", INTS))]
    elif command == "address":
        x, yc = draw(ON_GASKET | st.tuples(RATIONALS, RATIONALS))
        positionals = []
        options = [draw(_option("--x", st.just(x))), draw(_option("--y-coeff", st.just(yc))),
                   draw(_option("--depth", INTS))]
    elif command == "mediate":
        coalgebra = _mostly(st.sampled_from(sorted(BUILTIN)), st.sampled_from(["sigma", ""]))
        positionals = []
        options = [draw(_option("--coalgebra", coalgebra)), draw(_option("--point", POINTS)),
                   draw(_option("--depth", INTS))]
    elif command == "render":
        # depths past RENDER_MAX_DEPTH are refused before any work; the ones
        # in between would take seconds, so they are not drawn
        depth = _mostly(st.integers(-1, 3).map(str), st.sampled_from(["13", "1.5", ""]))
        out = _mostly(st.sampled_from([out_dir / "g.svg", out_dir / "g.points"]),
                      st.just(out_dir / "no-dir" / "g.svg"))
        positionals = []
        options = [draw(_option("--depth", depth)), draw(_option("--out", out.map(str)))]
        if draw(st.booleans()):
            formats = _mostly(st.sampled_from(list(FORMATS)), st.just("png"))
            options.append(draw(_option("--format", formats)))
    elif command == "verify":
        # the full suite takes about half a second; one small suite stands in
        positionals = []
        suite = _mostly(st.just("counterexamples"), st.sampled_from(["nope", ""]))
        options = [draw(_option("--suite", suite))]
    else:
        raise AssertionError(f"no grammar drawn for the command {command!r}")

    options = draw(st.permutations(options))
    if options and draw(st.integers(0, 9)) == 0:
        options = options[1:]  # a required option left out
    argv = [command] + [a for o in options for a in o] + positionals
    # a near miss in the command line's shape
    edit = draw(st.integers(0, 14))
    if edit == 0:
        argv[0] = draw(st.sampled_from(["norm", "Normalize", "", "help", "frobnicate"]))
    elif edit == 1:
        stray = draw(st.sampled_from(["--", "-h", "--z", "-1/2", "x"]))
        argv.insert(draw(st.integers(1, len(argv))), stray)
    elif edit == 2 and len(argv) > 1:
        del argv[draw(st.integers(1, len(argv) - 1))]
    return argv


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_every_argv_exits_0_1_or_2_with_one_error_line(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("render")

    # one case for each way out that a random draw reaches only now and then
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_argv(out_dir))
    @example(["render", "--depth", "1", "--out", str(out_dir / "no-dir" / "g.svg")])
    @example(["address", "--x", "1/2", "--y", "-1/100", "--depth", "10"])
    @example(["mediate", "--coalgebra", "delta", "--point", "1" * 5000 + "/3", "--depth", "3"])
    @example(["address", "--x", "1e3000000", "--y-coeff", "0", "--depth", "3"])
    @example(["--help"])
    @example(["gdist", "ab.T"])
    def check(argv):
        code, out, err = _call(argv)
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err
        if code == 1:
            assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
        assert _call(argv)[1] == out

    check()
