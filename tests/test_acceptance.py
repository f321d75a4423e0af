"""The ten acceptance criteria, one verdict line each.

Every criterion prints its [PASS]/[FAIL] line so a verbose run reads as a
checklist; the assertion carries the same detail on failure. Run just this
file for the full gate:

    pytest tests/test_acceptance.py -v -s
"""

import hashlib
import json
from itertools import product
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, strategies as st

from trigasket import acceptance, metric, words
from trigasket.acceptance import CRITERIA, SUITES, run_criterion, run_suite
from trigasket.cli import main
from trigasket.words import LABELS, AddressWord, iter_words

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
    # an oracle table whose numerators all read 2 (distance 2 at level 0)
    # disagrees with the kernel on the first pair
    def tampered(level):
        table = metric.oracle_table(level)
        return table._replace(dist=[[2] * len(row) for row in table.dist])

    monkeypatch.setattr(acceptance, "oracle_table", tampered)
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
    # 20,000 samples draw their prefixes as digits, so no prefix is ever
    # read: the only readouts are of the 1 + 3 + 9 label strings of the
    # tails of levels 0-2, one per string for its three terminals. The
    # 10,000 pairs and 10,000 quadruples make 30,000 kernel calls on digits
    # extended from the tails' own, so the only words built are the
    # 3 + 9 + 27 tails, before the loops. Both constructors are counted: the
    # validating one and `_word_with`, which builds every word the library
    # derives
    digit_reads = []
    read = words.corner_digits

    def counted_read(labels):
        digit_reads.append(labels)
        return read(labels)

    monkeypatch.setattr(words, "corner_digits", counted_read)
    kernel = _count_calls(monkeypatch, "_dist")
    built = []
    init, unchecked = AddressWord.__init__, words._word_with

    def counted_init(self, *args):
        built.append(args)
        init(self, *args)

    def counted_unchecked(*args):
        built.append(args)
        return unchecked(*args)

    monkeypatch.setattr(AddressWord, "__init__", counted_init)
    monkeypatch.setattr(words, "_word_with", counted_unchecked)
    assert run_criterion(2).passed
    tail_labels = ["".join(p) for t in range(3) for p in product(LABELS, repeat=t)]
    assert sorted(digit_reads) == sorted(tail_labels)
    assert len(kernel) == 30_000
    assert len(built) == 3 + 9 + 27


# sizes where the rejection loop is busiest or idle: 1, powers of two and
# their neighbours, and the sizes the criteria draw from (3 labels or tails,
# 11 prefix lengths, 243 level-4 words, 9,843 canonical words of level <= 8)
_SIZES = st.one_of(
    st.sampled_from([1, 3, 11, 243, 9_843]),
    st.integers(0, 62).flatmap(lambda k: st.sampled_from([2**k - 1, 2**k, 2**k + 1])).filter(bool),
    st.integers(1, 10**6),
)


@given(seed=st.integers(0, 2**64), draws=st.lists(st.tuples(_SIZES, st.booleans()), max_size=40))
def test_below_draws_what_choice_and_randint_draw(seed, draws):
    getrandbits, rng = Random(seed).getrandbits, Random(seed)
    for n, as_choice in draws:
        want = rng.choice(range(n)) if as_choice else rng.randint(0, n - 1)
        assert acceptance._below(getrandbits, n) == want


def metric_matches_oracle_inputs():
    """Criterion 1's kernel inputs in order, on the digits and terminals of
    its word pairs, the level-4 pairs drawn by `Random.choice`."""
    def pair(u, v):
        return u.toward, u.terminal, v.toward, v.terminal

    inputs = []
    for level in range(4):
        ws = list(iter_words(level))
        inputs += [pair(ws[i], ws[j]) for i in range(len(ws)) for j in range(i + 1, len(ws))]
    rng = Random(1001)
    ws4 = list(iter_words(4))
    for _ in range(10_000):
        u = rng.choice(ws4)
        v = rng.choice(ws4)
        inputs.append(pair(u, v))
    return inputs


def prefix_diameter_bound_inputs():
    """Criterion 2's kernel inputs in order, drawn by `Random.choice` and
    `randint`, on the digits of words built from each prefix and tail."""
    rng = Random(1002)
    choice, randint = rng.choice, rng.randint
    tails = {t: list(iter_words(t)) for t in range(3)}

    def built(prefix, x):
        w = AddressWord(prefix + x.labels, x.terminal)
        return w.toward, w.terminal

    inputs = []
    for samples, tails_per_sample in ((10_000, 2), (10_000, 4)):
        for _ in range(samples):
            n = randint(0, 10)
            prefix = "".join([choice(LABELS) for _ in range(n)])
            t = randint(0, 2)
            xs = [choice(tails[t]) for _ in range(tails_per_sample)]
            for x1, x2 in zip(xs[::2], xs[1::2]):
                inputs.append((*built(prefix, x1), *built(prefix, x2)))
    return inputs


@pytest.mark.parametrize(
    "number, kernel, reference",
    [(1, "_dist", metric_matches_oracle_inputs),
     (2, "_dist", prefix_diameter_bound_inputs)],
)
def test_criterion_feeds_the_kernel_what_random_draws_give(monkeypatch, number, kernel, reference):
    calls = _count_calls(monkeypatch, kernel)
    assert run_criterion(number).passed
    assert calls == reference()


# sha256 over repr((args, result)) of each kernel call in order, for the
# criteria whose PASS lines show only counts: a change in which words they
# draw, or in what the kernel returns on them, shows here
KERNEL_DIGESTS = {
    3: "76fb62e40288531c65ea5c43d1686769c2b7e7862525158fdef5ed13b9a52dfd",
    4: "611e4bd1a4fe77a8c1ccf3539d595a65632de4b7a8bebf62892393c074f5ba20",
    9: "a5fae6919b7c08110669fa980b66ec13d803e94c1ef44188c56c7696115de319",
}


@pytest.mark.parametrize("number", sorted(KERNEL_DIGESTS))
def test_criterion_kernel_inputs_are_pinned(monkeypatch, number):
    # wrapped in both modules, so the calls metric's own helpers make count too
    digest = hashlib.sha256()
    kernel = metric._dist

    def hashed(*args):
        result = kernel(*args)
        digest.update(repr((args, result)).encode())
        return result

    monkeypatch.setattr(metric, "_dist", hashed)
    monkeypatch.setattr(acceptance, "_dist", hashed)
    assert run_criterion(number).passed
    assert digest.hexdigest() == KERNEL_DIGESTS[number]
