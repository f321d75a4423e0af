"""The ten acceptance criteria, one verdict line each.

Every criterion prints its [PASS]/[FAIL] line so a verbose run reads as a
checklist; the assertion carries the same detail on failure. Run just this
file for the full gate:

    pytest tests/test_acceptance.py -v -s
"""

import json
from pathlib import Path

import pytest

from trigasket import acceptance, metric, words
from trigasket.acceptance import CRITERIA, SUITES, run_criterion, run_suite
from trigasket.cli import main
from trigasket.words import AddressWord

_IDS = [f"{num:02d}-{fn.__name__}" for num, fn in CRITERIA]
GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"


@pytest.mark.parametrize(("number", "fn"), CRITERIA, ids=_IDS)
def test_criterion(number, fn):
    result = run_criterion(number)
    print(result.line())
    assert result.passed, result.line()
    # the verdict line is byte-identical to the benchmark's golden verify output
    assert result.line() == json.loads(GOLDEN.read_text())["verify"]["lines"][number - 1]


def test_criteria_numbering_is_complete():
    assert [num for num, _ in CRITERIA] == list(range(1, 11))
    assert SUITES["all"] == tuple(range(1, 11))
    covered = set()
    for name, nums in SUITES.items():
        if name != "all":
            covered.update(nums)
    assert covered == set(range(1, 11))


def test_run_criterion_rejects_unknown():
    with pytest.raises(ValueError):
        run_criterion(11)
    with pytest.raises(ValueError):
        run_suite("everything")


def test_crashing_criterion_is_a_fail_verdict(monkeypatch, capsys):
    def boom(*args):
        raise AttributeError("no attribute 'x'")

    # only criterion 8 calls sigma_inv through the acceptance module
    monkeypatch.setattr(acceptance, "sigma_inv", boom)
    r = run_criterion(8)
    assert (r.number, r.name, r.passed) == (8, "plane-embedding-roundtrip", False)
    assert r.detail == "raised AttributeError: no attribute 'x'"
    assert main(["verify", "--suite", "all"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [ln[:9] for ln in lines] == [
        f"[{'FAIL' if n == 8 else 'PASS'}] {n:>2}" for n in range(1, 11)
    ]
    assert lines[7] == r.line()


def test_fail_verdict_carries_its_detail(monkeypatch):
    # an oracle numerator of 2 at level 0 (distance 2) disagrees with the
    # kernel on the first pair
    monkeypatch.setattr(acceptance, "_oracle_num", lambda *args: 2)
    r = run_criterion(1)
    assert r.line() == "[FAIL]  1 metric-matches-oracle: mismatch at level 0: .T / .L"


def test_verify_prints_each_line_as_its_criterion_finishes(monkeypatch, capsys):
    seen = []

    def prefix_diameter_bound():
        seen.append(capsys.readouterr().out)
        return "stub"

    criteria = tuple((n, prefix_diameter_bound if n == 2 else fn) for n, fn in CRITERIA)
    monkeypatch.setattr(acceptance, "CRITERIA", criteria)
    monkeypatch.setitem(SUITES, "metric", (1, 2))
    assert main(["verify", "--suite", "metric"]) == 0
    assert len(seen) == 1
    assert seen[0].startswith("[PASS]  1 metric-matches-oracle: ")
    assert seen[0].count("\n") == 1
    assert capsys.readouterr().out == "[PASS]  2 prefix-diameter-bound: stub\n"


def _count_calls(monkeypatch, name):
    calls = []
    fn = getattr(acceptance, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(acceptance, name, counted)
    return calls


def test_gluing_step_isometry_prepends_each_label_once_per_address(monkeypatch):
    # 1000 address pairs, three labels on each side: the nine label pairs
    # reuse the six images
    calls = _count_calls(monkeypatch, "prepend")
    assert run_criterion(3).passed
    assert len(calls) == 6_000


def test_gluing_step_isometry_pads_each_word_once_per_pair(monkeypatch):
    # per address pair: u and v once to their common level, and the six
    # images once to theirs, for all nine label pairs; counted through both
    # modules' bindings, so padding inside a metric helper counts too
    calls = []
    padded = metric._padded

    def counted(*args):
        calls.append(args)
        return padded(*args)

    monkeypatch.setattr(metric, "_padded", counted)
    monkeypatch.setattr(acceptance, "_padded", counted)
    assert run_criterion(3).passed
    assert len(calls) == 8_000


def test_plane_embedding_roundtrip_maps_each_word_once(monkeypatch):
    # once for each of the 1095 canonical addresses of levels <= 6, twice
    # for each of the 1074 junction words of levels 1-5
    calls = _count_calls(monkeypatch, "coords")
    assert run_criterion(8).passed
    assert len(calls) == 1095 + 2 * 1074


def test_prefix_diameter_bound_reads_each_prefix_once_and_builds_no_word(monkeypatch):
    # 20,000 samples read their prefix's digits once each; the 10,000 pairs
    # and 10,000 quadruples make 30,000 kernel calls on digits extended from
    # the tails' cached ones, so the only words built are the 3 + 9 + 27
    # tails of levels 0-2, before the loops. Both constructors are counted:
    # the validating one and the unchecked one the library derives words with
    digit_reads = _count_calls(monkeypatch, "corner_digits")
    kernel = _count_calls(monkeypatch, "_dist")
    built = []
    init, unchecked = AddressWord.__init__, words._word

    def counted_init(self, *args):
        built.append(args)
        init(self, *args)

    def counted_unchecked(*args):
        built.append(args)
        return unchecked(*args)

    monkeypatch.setattr(AddressWord, "__init__", counted_init)
    monkeypatch.setattr(words, "_word", counted_unchecked)
    assert run_criterion(2).passed
    assert len(digit_reads) == 20_000
    assert len(kernel) == 30_000
    assert len(built) == 3 + 9 + 27
