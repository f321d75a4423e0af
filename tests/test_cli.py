"""Command line surface: frozen output lines, exit codes, determinism."""

import argparse
import hashlib
import json
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from trigasket.argv import attach_negatives
from trigasket.cli import _fraction, main
from trigasket.geometry import coords, surd_decimal
from trigasket.metric import dist_G
from trigasket.numerics import decimal_str
from trigasket.words import canonicalize, count_canonical, parse_word

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_normalize(capsys):
    code, out, err = run(capsys, "normalize", "bbb.L")
    assert (code, out, err) == (0, ".L\n", "")
    code, out, _ = run(capsys, "normalize", "ca.T")
    assert (code, out) == (0, "a.R\n")
    code, out, _ = run(capsys, "normalize", "ab.R")
    assert (code, out) == (0, "ab.R\n")


def test_normalize_bad_word(capsys):
    code, out, err = run(capsys, "normalize", "zz.Q")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


def test_dist(capsys):
    code, out, _ = run(capsys, "dist", "--level", "2", "aa.T", "ab.L")
    assert (code, out) == (0, "1/2 = 0.500000000000\n")
    # a glued pair at its own level
    code, out, _ = run(capsys, "dist", "--level", "1", "b.R", "c.L")
    assert (code, out) == (0, "0/1 = 0.000000000000\n")


def test_dist_level_mismatch(capsys):
    code, out, err = run(capsys, "dist", "--level", "1", "aa.T", "ab.L")
    assert code == 1
    assert "level mismatch" in err


def test_gdist(capsys):
    code, out, _ = run(capsys, "gdist", ".T", "a.L")
    assert (code, out) == (0, "1/2\n")
    code, out, _ = run(capsys, "gdist", "bbbb.R", ".L")
    assert (code, out) == (0, "1/16\n")
    code, out, _ = run(capsys, "gdist", "b.R", "c.L")
    assert (code, out) == (0, "0/1\n")


def test_gdist_deep_word(capsys):
    # the L corner approaches .T through ever deeper a-copies: d(a^k.L, .T) = 2^-k
    code, out, err = run(capsys, "gdist", "a" * 600 + ".L", ".T")
    assert (code, out, err) == (0, f"1/{2**600}\n", "")


def _decimal_int(text):
    """int(text) for a decimal of any length, read in pieces short enough for
    CPython's string conversion limit."""
    n = 0
    for i in range(0, len(text), 1000):
        piece = text[i : i + 1000]
        n = n * 10 ** len(piece) + int(piece)
    return n


def test_dist_and_gdist_print_level_16000_values_exactly(capsys):
    # 2^16000 has 4,817 decimal digits, past CPython's default limit of 4,300
    # for printing an int; the first labels differ, so p is long too
    rng = Random(16000)
    u = "a" + "".join(rng.choice("abc") for _ in range(15999)) + ".T"
    v = "c" + "".join(rng.choice("abc") for _ in range(15999)) + ".L"
    d = dist_G(canonicalize(parse_word(u)), canonicalize(parse_word(v)))
    assert d.denominator == 2**16000 and d.numerator > 2**15000
    code, out, err = run(capsys, "gdist", u, v)
    assert (code, err) == (0, "")
    p, q = out.removesuffix("\n").split("/")
    assert (_decimal_int(p), _decimal_int(q)) == (d.numerator, d.denominator)
    code, out, err = run(capsys, "dist", "--level", "16000", u, v)
    assert (code, err) == (0, "")
    ratio, dec = out.removesuffix("\n").split(" = ")
    assert ratio == "/".join((p, q))
    assert dec == decimal_str(d)


def test_coords_prints_level_16000_coordinates_exactly(capsys):
    # x and yc are over 2^16001, past CPython's default limit for printing an int
    rng = Random(16001)
    word = "".join(rng.choice("abc") for _ in range(16000)) + ".R"
    p = coords(parse_word(word))
    code, out, err = run(capsys, "coords", word)
    assert (code, err) == (0, "")
    x_line, y_line = out.splitlines()
    x_text, x_dec = x_line.removeprefix("x = ").split(" = ")
    y_text, y_dec = y_line.removeprefix("y = ").split(" = ")
    assert x_text.endswith("+0/1√3") and y_text.startswith("0/1+")
    xp, xq = x_text.removesuffix("+0/1√3").split("/")
    yp, yq = y_text.removeprefix("0/1+").removesuffix("√3").split("/")
    assert (_decimal_int(xp), _decimal_int(xq)) == (p.x.numerator, p.x.denominator)
    assert (_decimal_int(yp), _decimal_int(yq)) == (p.yc.numerator, p.yc.denominator)
    assert (x_dec, y_dec) == (surd_decimal(p.x, 0), surd_decimal(0, p.yc))


def test_address_reads_back_level_16000_coordinates(capsys):
    # the parts of x and yc run to about 4,800 digits, past CPython's default
    # limit for reading an int, and `address` reads them back exactly
    rng = Random(16002)
    word = "".join(rng.choice("abc") for _ in range(16000)) + ".L"
    code, out, err = run(capsys, "coords", word)
    assert (code, err) == (0, "")
    x_line, y_line = out.splitlines()
    x = x_line.removeprefix("x = ").split(" = ")[0].removesuffix("+0/1√3")
    yc = y_line.removeprefix("y = ").split(" = ")[0].removeprefix("0/1+").removesuffix("√3")
    assert max(len(part) for part in x.split("/") + yc.split("/")) > 4300
    code, out, err = run(capsys, "address", "--x", x, "--y-coeff", yc, "--depth", "16000")
    assert (code, err) == (0, "")
    assert out == canonicalize(parse_word(word)).text + "\n"


@pytest.mark.parametrize(
    "text",
    [
        "3/8", "-3/8", "+12/18", " 7 ", "\t-0\n", "0/5", "1.5", "-2.5e-3", "1_000/3", "٣/٤",
        "0.375", "-.25", "+5.", " 12.50 ", "-0.0", "1_0.5", "٣.٤", "2.5E3",
    ],
)
def test_fraction_reads_short_text_as_fraction_does(text):
    value = _fraction(text)
    assert type(value) is Fraction and value == Fraction(text)


@pytest.mark.parametrize("sign", ["", "-"])
def test_fraction_reads_a_decimal_past_the_int_digit_limit(sign):
    # 5,000 digits after the point, more than CPython reads into one int
    value = _fraction(f"{sign}0.{'1' * 5000}")
    want = Fraction((10**5000 - 1) // 9, 10**5000)
    assert value == (-want if sign else want)


@pytest.mark.parametrize("sign", ["", "-"])
def test_fraction_reads_an_exponent_form_past_the_int_digit_limit(sign):
    # 5,000 digits and an exponent: the decimal's digits are read in chunks too
    repunit = (10**5000 - 1) // 9
    for text, want in ((f"0.{'1' * 5000}e1", Fraction(repunit, 10**4999)),
                       (f"{'1' * 5000}e1", Fraction(10 * repunit))):
        assert _fraction(sign + text) == (-want if sign else want)


def test_coords(capsys):
    code, out, _ = run(capsys, "coords", "ba.R")
    assert code == 0
    assert out == (
        "x = 3/8+0/1√3 = 0.375000000000\n"
        "y = 0/1+1/8√3 = 0.216506350946\n"
    )


def test_address_round_trip(capsys):
    code, out, _ = run(
        capsys, "address", "--x", "3/8", "--y-coeff", "1/8", "--depth", "10"
    )
    assert (code, out) == (0, "ba.R\n")


def test_address_off_gasket(capsys):
    # centroid of the triangle, never on the gasket
    code, out, err = run(
        capsys, "address", "--x", "1/2", "--y-coeff", "1/6", "--depth", "30"
    )
    assert code == 1
    assert "is not on the gasket" in err


@pytest.mark.parametrize(
    "x, message",
    [
        ("1/0", "error: not a rational: '1/0' (zero denominator)\n"),
        ("abc", "error: not a rational: 'abc' (Invalid literal for Fraction: 'abc')\n"),
        # a point with no digit is no decimal
        (".", "error: not a rational: '.' (Invalid literal for Fraction: '.')\n"),
    ],
)
def test_address_rejects_a_non_rational(capsys, x, message):
    code, out, err = run(capsys, "address", "--x", x, "--y-coeff", "0", "--depth", "4")
    assert (code, out, err) == (1, "", message)


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["address", "--x", "1/2", "--y-coeff", "1/2", "--depth", "-5"], "--depth"),
        (["dist", "--level", "-1", ".T", ".L"], "--level"),
        (["mediate", "--coalgebra", "delta", "--point", "1/3", "--depth", "-2"], "--depth"),
        (["render", "--depth", "-1", "--out", "x.svg"], "--depth"),
    ],
)
def test_negative_depth_or_level_names_the_flag(capsys, monkeypatch, tmp_path, argv, flag):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    value = argv[argv.index(flag) + 1]
    assert (code, out, err) == (1, "", f"error: {flag} must be nonnegative, got {value}\n")
    assert not any(tmp_path.iterdir())


def test_address_negative_coordinate(capsys):
    code, out, err = run(
        capsys, "address", "--x", "1/2", "--y-coeff=-1/100", "--depth", "10"
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "is not on the gasket" in err


@pytest.mark.parametrize(
    "spaced, attached",
    [
        ("address --x 1/2 --y-coeff -1/100 --depth 10", "address --x 1/2 --y-coeff=-1/100 --depth 10"),
        ("address --x -1/2 --y-coeff 0 --depth 10", "address --x=-1/2 --y-coeff 0 --depth 10"),
        ("address --x 1/2 --y-coeff -.5e-1 --depth 10", "address --x 1/2 --y-coeff=-.5e-1 --depth 10"),
        ("mediate --coalgebra delta --point -1/3 --depth 5",
         "mediate --coalgebra delta --point=-1/3 --depth 5"),
        # abbreviations argparse resolves to a rational option
        ("address --x 1/2 --y -1/100 --depth 10", "address --x 1/2 --y-coeff=-1/100 --depth 10"),
        ("address --x 1/2 --y-c -1/100 --depth 10", "address --x 1/2 --y-coeff=-1/100 --depth 10"),
        ("mediate --coalgebra delta --poi -1/3 --depth 3",
         "mediate --coalgebra delta --point=-1/3 --depth 3"),
        ("mediate --coalgebra delta --p -1/3 --depth 3",
         "mediate --coalgebra delta --point=-1/3 --depth 3"),
    ],
)
def test_a_spaced_negative_value_reads_as_an_attached_one(capsys, spaced, attached):
    # argparse alone reads a separate "-1/100" as an unknown option and exits 2
    code, out, err = run(capsys, *spaced.split())
    assert (code, out) == (1, "") and err.startswith("error: ")
    assert run(capsys, *attached.split()) == (code, out, err)


@pytest.mark.parametrize(
    "argv, message",
    [
        # an unknown option keeps its value apart
        ("address --x 1/2 --z -1/100 --y-coeff 0 --depth 10",
         "unrecognized arguments: --z -1/100"),
        # an abbreviation of an option that takes no rational is not joined
        ("address --x 1/2 --y-coeff 0 --d -1/2", "argument --depth: expected one argument"),
        # after "--" every argument is a positional, so nothing is joined
        ("address --x 1/2 --y-coeff 0 --depth 1 -- --x -1/2",
         "unrecognized arguments: -- --x -1/2"),
    ],
)
def test_a_spaced_negative_value_after_another_option_still_exits_2(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_an_ambiguous_abbreviation_keeps_its_value_apart(capsys):
    # no subcommand has two options sharing a prefix, so these stand in:
    # "--poi" could be --point or --pointer, and argparse refuses it
    options = ("-h", "--help", "--point", "--pointer")
    assert attach_negatives(["--point", "-1/3"], options) == ["--point=-1/3"]
    assert attach_negatives(["--poi", "-1/3"], options) == ["--poi", "-1/3"]
    parser = argparse.ArgumentParser(prog="p")
    parser.add_argument("--point")
    parser.add_argument("--pointer")
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(["--poi", "-1/3"])
    assert exc.value.code == 2
    assert "ambiguous option: --poi could match --point, --pointer" in capsys.readouterr().err


def test_an_option_after_a_rational_option_still_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["address", "--x", "1/2", "--y-coeff", "-q", "--depth", "10"])
    assert exc.value.code == 2
    assert "argument --y-coeff: expected one argument" in capsys.readouterr().err


def test_mediate_delta(capsys):
    code, out, _ = run(
        capsys, "mediate", "--coalgebra", "delta", "--point", "1/2", "--depth", "6"
    )
    assert code == 0
    assert out == (
        "theta_6 = b.R\n"
        "coords = 1/2+0/1√3, 0/1+0/1√3\n"
        "bound = 1/64\n"
    )


def test_mediate_prints_a_level_16000_bound_exactly(capsys):
    # 1/3 stays on the b branch, so theta is .L at every depth; the bound 2^-16000
    # has a 4,817-digit denominator
    code, out, err = run(
        capsys, "mediate", "--coalgebra", "delta", "--point", "1/3", "--depth", "16000"
    )
    assert (code, err) == (0, "")
    theta_line, coords_line, bound_line = out.splitlines()
    assert theta_line == "theta_16000 = .L"
    assert coords_line == "coords = 0/1+0/1√3, 0/1+0/1√3"
    p, q = bound_line.removeprefix("bound = ").split("/")
    assert (p, _decimal_int(q)) == ("1", 2**16000)


def test_mediate_gasket_sigma(capsys):
    code, out, _ = run(
        capsys,
        "mediate", "--coalgebra", "gasket-sigma", "--point", "3/8,1/8",
        "--depth", "5",
    )
    assert code == 0
    assert out.splitlines()[0] == "theta_5 = ba.R"
    assert out.splitlines()[2] == "bound = 1/32"


def test_mediate_apex(capsys):
    code, out, _ = run(
        capsys, "mediate", "--coalgebra", "delta", "--point", "apex", "--depth", "4"
    )
    assert code == 0
    assert out.splitlines()[0] == "theta_4 = .T"


def test_mediate_bad_point_syntax(capsys):
    code, _, err = run(
        capsys,
        "mediate", "--coalgebra", "gasket-sigma", "--point", "1/2", "--depth", "3",
    )
    assert code == 1
    assert "x,ycoeff" in err


def test_mediate_names_the_point_given(capsys):
    # the point leaves the triangle at step 2; the error names the input, not
    # only the remainder sigma_inv saw
    code, out, err = run(
        capsys,
        "mediate", "--coalgebra", "gasket-sigma", "--point", "1/3,1/5", "--depth", "2",
    )
    assert (code, out) == (1, "")
    assert err == (
        "error: gasket-sigma: unfolding (1/3+0/1√3, 0/1+1/5√3) failed at step 2: "
        "point outside the closed triangle: (2/3+0/1√3, 0/1+2/5√3)\n"
    )


def test_render_points(tmp_path, capsys):
    out_file = tmp_path / "pts.txt"
    code, out, _ = run(
        capsys, "render", "--depth", "2", "--format", "points", "--out", str(out_file)
    )
    assert code == 0
    assert out == f"wrote 15 points to {out_file}\n"
    lines = out_file.read_text().splitlines()
    assert lines[0] == "1/2 0/1 0/1 1/2"
    assert len(lines) == count_canonical(2)


def test_render_svg(tmp_path, capsys):
    out_file = tmp_path / "g.svg"
    code, out, _ = run(
        capsys, "render", "--depth", "3", "--format", "svg", "--out", str(out_file)
    )
    assert code == 0
    content = out_file.read_text()
    assert content.startswith("<svg ")
    assert content.count("<circle ") == count_canonical(3)


def test_render_depth_guard(capsys, tmp_path):
    code, _, err = run(
        capsys,
        "render", "--depth", "13", "--format", "svg",
        "--out", str(tmp_path / "x.svg"),
    )
    assert code == 1
    assert "render depth" in err


def test_verify_counterexample_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "counterexamples")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert all(line.startswith("[PASS]") for line in lines)


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_required_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dist", "aa.T", "ab.L"])
    assert exc.value.code == 2


def test_output_is_deterministic(capsys, tmp_path):
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    run(capsys, "render", "--depth", "4", "--format", "svg", "--out", str(a))
    run(capsys, "render", "--depth", "4", "--format", "svg", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()
    _, out1, _ = run(capsys, "verify", "--suite", "counterexamples")
    _, out2, _ = run(capsys, "verify", "--suite", "counterexamples")
    assert out1 == out2


def test_golden_invocations_are_byte_identical(capsys, tmp_path, monkeypatch):
    """Every light invocation and both renders of the benchmark's golden record."""

    def sha(data):
        return hashlib.sha256(data).hexdigest()

    golden = json.loads(GOLDEN.read_text())["cli"]
    # renders write to the recorded relative path, here under tmp_path
    monkeypatch.chdir(tmp_path)
    (tmp_path / "perfbench" / "out").mkdir(parents=True)
    for entry in golden["light"] + golden["render"]:
        argv = entry["argv"]
        assert main(argv) == 0, argv
        assert sha(capsys.readouterr().out.encode()) == entry["stdout_sha256"], argv
        if "file_sha256" in entry:
            out = tmp_path / argv[argv.index("--out") + 1]
            assert sha(out.read_bytes()) == entry["file_sha256"], argv
    assert (len(golden["light"]), len(golden["render"])) == (168, 2)
