"""tools/mutants.py's catalogue stays applicable: each mutant's old text
occurs once in its file, and applying it to a copy changes that text only.
The full run, Tier-1 and `verify` per mutant, stays outside Tier-1."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.CATALOGUE, ids=lambda m: m.name)
def test_each_old_text_occurs_once(mutant):
    text = (ROOT / mutant.file).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1
    assert mutant.old != mutant.new and mutant.reason


def test_the_copy_holds_what_the_tests_read_and_takes_the_mutant(tmp_path):
    mutants.copy_tree(tmp_path)
    for name in ("src/trigasket/metric.py", "tests/conftest.py", "pyproject.toml",
                 "perfbench/golden.json", "perfbench/tracer.py", "tools/bench_pairs.py",
                 "BENCHMARK.json"):
        assert (tmp_path / name).is_file(), name
    assert not (tmp_path / "perfbench" / "out").exists()
    mutant = mutants.CATALOGUE[0]
    before = (tmp_path / mutant.file).read_text(encoding="utf-8")
    mutants.apply(mutant, tmp_path)
    after = (tmp_path / mutant.file).read_text(encoding="utf-8")
    assert after == before.replace(mutant.old, mutant.new) != before
    with pytest.raises(ValueError, match="occurs 0 times"):
        mutants.apply(mutant, tmp_path)
