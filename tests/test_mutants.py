"""``tests/mutants.py``, the mutation check of the certified fast paths:
its table stays in step with the source it mutates and the tests that kill it."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tests" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_each_mutant_source_occurs_exactly_once(mutant):
    text = (ROOT / "src" / "cbquant" / mutant.file).read_text()
    assert text.count(mutant.source) == 1
    assert mutant.replacement != mutant.source


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_each_killer_names_a_test_that_exists(mutant):
    assert mutant.killers
    for node in mutant.killers:
        path, *names = node.split("::")
        text = (ROOT / path).read_text()
        names = [name.split("[")[0] for name in names]  # without a parametrized id
        assert all(f"class {name}" in text or f"def {name}(" in text for name in names), node


def test_names_are_distinct():
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)


@pytest.mark.parametrize("code,verdict,exit_code", [(0, "survived (expected)", 0),
                                                    (1, "KILLED (expected to survive)", 1)])
def test_an_expected_survivor_passes_the_run_only_when_it_survives(monkeypatch, capsys, code, verdict, exit_code):
    survivor = next(m for m in mutants.MUTANTS if m.expected_survivor)
    codes = iter([0, code])  # the unmutated selection passes; then the mutant's run
    monkeypatch.setattr(mutants, "pytest_exit", lambda work, node_ids: next(codes))
    assert mutants.main(["mutants.py", survivor.name]) == exit_code
    assert verdict in capsys.readouterr().out
