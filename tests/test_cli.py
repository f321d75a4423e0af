"""Command line surface: frozen output lines, exit codes, determinism."""

import argparse
import gc
import hashlib
import importlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from trigasket.cli import attach_negatives, entry, main
from trigasket.geometry import coords
from trigasket.metric import dist_G
from trigasket.numerics import MAX_EXPONENT, _fraction, surd_decimal
from trigasket.words import canonicalize, count_canonical, parse_word

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "perfbench" / "golden.json"


def run(capsys, *argv):
    """main's exit code, stdout and stderr; argparse's exits give their code."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


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
    assert dec == surd_decimal(d, 0)


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
        "0.375", "-.25", "+5.", " 12.50 ", "-0.0", "1_0.5", "٣.٤", "2.5E3", "1_0e-1_0",
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


@pytest.mark.parametrize("text", ["1e3000000", "1_0e1_000_000", "-2.5E-131073", "1e+131_073"])
def test_fraction_refuses_an_exponent_past_the_cap_before_any_power(text):
    # uncapped, "1e3000000" took over a second and built a 10-million-bit int
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"^not a rational: .* is outside ±{MAX_EXPONENT}\\)$"):
        _fraction(text)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("sign", ["", "-"])
def test_fraction_reads_the_exponents_at_the_cap(sign):
    assert MAX_EXPONENT == 131_072
    assert _fraction(f"1e{sign}{MAX_EXPONENT}") == Fraction(10) ** int(f"{sign}{MAX_EXPONENT}")


# The grammar is the CLI's own, so these hold on every interpreter: Fraction(str)
# refuses "1_0/20" on 3.10, reads "1 / 2" from 3.12, and refuses "1.dd" on
# 3.11 and 3.12 with int()'s message.
@pytest.mark.parametrize(
    "text", ["1 / 2", "1 /2", "1/ 2", "1.dd", "1__0", "_1", "1_", "1e", "1/2e3"]
)
def test_fraction_refuses_text_outside_its_grammar(text):
    with pytest.raises(ValueError, match=r"^not a rational: .* \(Invalid literal for Fraction: "):
        _fraction(text)


def test_fraction_reads_underscored_digits_in_a_ratio():
    assert _fraction("1_0/20") == Fraction(1, 2)
    # 5,000 digits each side, past CPython's limit for reading one int
    num, den = "1_" * 4999 + "1", "3" + "_0" * 4999
    assert _fraction(f"-{num}/{den}") == -Fraction((10**5000 - 1) // 9, 3 * 10**4999)


def test_fraction_reads_an_exponent_past_leading_zeros():
    # 5,001 digits, of which one is significant
    assert _fraction("1e" + "0" * 5000 + "5") == 10**5
    assert _fraction("1e-" + "0_" * 2500 + "5") == Fraction(1, 10**5)


def test_fraction_refuses_a_long_exponent_by_its_digit_count():
    start = time.perf_counter()
    exponent = "9" * 5000
    with pytest.raises(ValueError, match=f"^not a rational: .* \\(exponent {exponent} is outside "):
        _fraction("1e" + exponent)
    assert time.perf_counter() - start < 0.1


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
        ("1e3000000", "error: not a rational: '1e3000000' (exponent 3000000 is outside ±131072)\n"),
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
    rational = ("--point", "--pointer")
    assert attach_negatives(["--point", "-1/3"], options, rational) == ["--point=-1/3"]
    assert attach_negatives(["--poi", "-1/3"], options, rational) == ["--poi", "-1/3"]
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


_GASKET_SYNTAX = "error: gasket-sigma points are written 'x,ycoeff' (y = ycoeff*sqrt(3)), got "


@pytest.mark.parametrize("coalgebra, point, err", [
    pytest.param("gasket-sigma", "1/2", _GASKET_SYNTAX + "'1/2'\n", id="gasket-sigma-1/2"),
    pytest.param("gasket-sigma", "apex", _GASKET_SYNTAX + "'apex'\n", id="gasket-sigma-apex"),
    pytest.param("gasket-sigma", "1,2,3", _GASKET_SYNTAX + "'1,2,3'\n", id="gasket-sigma-1,2,3"),
    pytest.param("delta", "1,2", "error: not a rational: '1,2' (Invalid literal for Fraction: "
                 "'1,2')\n", id="delta-1,2"),
    pytest.param("delta", "APEX", "error: not a rational: 'APEX' (Invalid literal for Fraction: "
                 "'APEX')\n", id="delta-APEX"),
    pytest.param("delta", "2", "error: segment coordinate must lie in [0, 1], got 2\n",
                 id="delta-2"),
    pytest.param("delta", "-1/3", "error: segment coordinate must lie in [0, 1], got -1/3\n",
                 id="delta--1/3"),
])
def test_mediate_bad_point_syntax(capsys, coalgebra, point, err):
    got = run(capsys, "mediate", "--coalgebra", coalgebra, "--point", point, "--depth", "3")
    assert got == (1, "", err)


@pytest.mark.parametrize("point", ["1" + "0" * 5000, "-1/" + "3" * 5000], ids=["10^5000", "-1/3…3"])
def test_mediate_names_a_delta_point_past_the_int_digit_limit(capsys, point):
    # str() refuses an int of more than 4,300 digits, so the value is printed in chunks
    got = run(capsys, "mediate", "--coalgebra", "delta", "--point", point, "--depth", "3")
    assert got == (1, "", f"error: segment coordinate must lie in [0, 1], got {point}\n")


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


@pytest.mark.parametrize(
    "argv, code, stdout_sha256, stderr_sha256",
    [
        ("--help", 0, "3df81f57e89cfa7e48fcb78036200a38cb38e61495ae940f10c2a5be2e2a3d47", ""),
        ("normalize --help", 0,
         "86393b2e64fd6c51a2703a47c0d32d44f5dfdd823d5d481f4635a35f7b03dcba", ""),
        ("dist --help", 0, "08c4cc2bb650eaaf5e5d33b919f738832a1f30f72bda954d43197bfbd9906dbf", ""),
        ("gdist --help", 0, "a9f5bf37e18910c5023e47599470e76a5e2ee845d7a47ee59a75bf7248902a82", ""),
        ("coords --help", 0, "1e87c2c91b2782983ee95f2fa22d6c4d20e58a49403f78e41d0567a3103d5104", ""),
        ("address --help", 0, "3bcc2beb04fe03d46e541f53f810b87989f11ca58e25eb129cb667a850a2d5a7", ""),
        ("mediate --help", 0, "627207a57e4f1c8db6017d0edb8146b368319fd7e9f3e8b8bd6f5d5f5f3fe0d2", ""),
        ("render --help", 0, "4505977fd91cd54f28295670faaccf292b805e1258de42941f1ab1ce9b413e62", ""),
        ("verify --help", 0, "89d6b4f5f07f7b19b8545e67fbf9aeaf43bd4efd734e6eb75b2e094cb6b0d9d0", ""),
        ("frobnicate", 2, "", "9058608745aec301837084e1bffb1c979ee4a1747b988830f014cde59e94e7a3"),
        ("dist aa.T ab.L", 2, "", "68208514cad5aba0cf507323b291b4b523c9084e55b8f642f62eef1e87fc6721"),
    ],
)
def test_help_and_usage_errors_keep_their_bytes(
    capsys, monkeypatch, argv, code, stdout_sha256, stderr_sha256
):
    # argparse wraps its text to COLUMNS; an empty stream is pinned as ""
    monkeypatch.setenv("COLUMNS", "80")
    got_code, out, err = run(capsys, *argv.split())
    assert got_code == code
    assert (out and sha(out.encode()), err and sha(err.encode())) == (stdout_sha256, stderr_sha256)


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


def _process_cases():
    """One golden invocation of each light kind, both golden renders, and an
    invocation for each other exit code."""
    golden = json.loads(GOLDEN.read_text())["cli"]
    kinds = {}
    for entry in golden["light"]:
        kinds.setdefault(entry["kind"], entry)
    cases = [pytest.param(e["argv"], 0, e, id=e["kind"]) for e in kinds.values()]
    cases += [pytest.param(e["argv"], 0, e, id="render-" + e["argv"][-1]) for e in golden["render"]]
    return cases + [
        pytest.param(["--help"], 0, None, id="help"),
        pytest.param(["gdist", "ab.T"], 2, None, id="usage-error"),
        pytest.param(["coords", ".X"], 1, None, id="bad-word"),
    ]


@pytest.mark.parametrize("argv, code, golden", _process_cases())
def test_the_process_entry_behaves_like_main(capsys, tmp_path, monkeypatch, argv, code, golden):
    # renders write to the recorded relative path, here under tmp_path; the
    # help text wraps at the terminal's width, so both sides get the same one
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    (tmp_path / "perfbench" / "out").mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONIOENCODING="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "trigasket.cli", *argv],
        env=env, capture_output=True, encoding="utf-8", timeout=120,
    )
    if golden is not None:
        assert sha(proc.stdout.encode()) == golden["stdout_sha256"]
        if "file_sha256" in golden:
            out = tmp_path / argv[argv.index("--out") + 1]
            assert sha(out.read_bytes()) == golden["file_sha256"]
    assert (proc.returncode, proc.stdout, proc.stderr) == run(capsys, *argv)
    assert proc.returncode == code


def test_python_m_freezes_before_the_atexit_hooks_run():
    # runpy runs the module's __main__ block, as `python -m trigasket.cli`
    # does; the hook runs after the process entry returns, sees the frozen
    # objects, and its line still reaches stdout after the command's own
    code = (
        "import atexit, gc, runpy, sys\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
        "sys.argv[1:] = ['normalize', 'bbb.L']\n"
        "runpy.run_module('trigasket.cli', run_name='__main__')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, ".L\nfrozen True\n", "")


def test_main_never_freezes(capsys):
    # only the process entry freezes: tests, library callers and the traced
    # benchmark worker run main() and keep normal collection
    before = gc.get_freeze_count()
    calls = (["normalize", "bbb.L"], ["coords", ".X"], ["gdist", "ab.T"])
    assert [run(capsys, *argv)[0] for argv in calls] == [0, 1, 2]
    assert gc.get_freeze_count() == before


def test_the_console_script_is_the_process_entry():
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    module, _, name = scripts["trigasket"].partition(":")
    assert getattr(importlib.import_module(module), name) is entry
