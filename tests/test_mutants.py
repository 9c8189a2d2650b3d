"""tools/mutants.py without running a mutant: the table against the working
tree, the reading of pytest's summary, and the refusal of a stale row."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "mutants.py"
_SPEC = importlib.util.spec_from_file_location("mutants", _PATH)
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)


def test_every_old_text_occurs_once():
    # a refactor that moves or rewrites a mutated line must update its row
    assert mutants.stale_rows(mutants.ROOT, mutants.MUTANTS) == []


def test_rows_are_well_formed():
    names = [row[0] for row in mutants.MUTANTS]
    assert len(set(names)) == len(names)
    for name, path, old, new, tests in mutants.MUTANTS:
        assert old != new and tests, name
        for test in tests:
            assert (mutants.ROOT / test.split("::")[0]).is_file(), (name, test)


def test_mutate_replaces_in_the_copy_only(tmp_path):
    (tmp_path / "m.py").write_text("a = 1\nb = 2\n")
    mutants.mutate(tmp_path, "m.py", "b = 2", "b = 3")
    assert (tmp_path / "m.py").read_text() == "a = 1\nb = 3\n"


REPORT = """\
..F.E
=========================== short test summary info ============================
FAILED tests/test_a.py::TestX::test_one[1-2] - AssertionError: assert 1 == 2
FAILED tests/test_a.py::test_two
ERROR tests/test_b.py - ImportError: cannot import name 'x'
2 failed, 2 passed, 1 error in 0.50s
"""


def test_failing_ids():
    assert mutants.failing_ids(REPORT) == {
        "tests/test_a.py::TestX::test_one[1-2]", "tests/test_a.py::test_two",
        "tests/test_b.py"}


@pytest.mark.parametrize("test, alive", [
    ("tests/test_a.py::TestX::test_one", False),  # a parametrized case failed
    ("tests/test_a.py::TestX", False),
    ("tests/test_a.py::test_two", False),
    ("tests/test_b.py::TestY::test_three", False),  # its module did not import
    ("tests/test_a.py::TestX::test_on", True),  # a prefix of a name is no test
    ("tests/test_a.py::test_three", True),
    ("tests/test_c.py", True),
])
def test_survivors(test, alive):
    failed = mutants.failing_ids(REPORT)
    assert mutants.survivors([test], failed) == ([test] if alive else [])


def test_stale_row_fails_before_any_test_runs(monkeypatch, tmp_path, capsys):
    (tmp_path / "m.py").write_text("x = 1\nx = 1\n")
    monkeypatch.setattr(mutants, "ROOT", tmp_path)
    monkeypatch.setattr(mutants, "MUTANTS", [
        ("twice", "m.py", "x = 1", "x = 2", ["tests"]),
        ("never", "m.py", "y = 1", "y = 2", ["tests"]),
    ])

    def never(*args):
        raise AssertionError("ran a mutant of a stale table")

    monkeypatch.setattr(mutants, "copy_worktree", never)
    monkeypatch.setattr(mutants, "run_tests", never)
    assert mutants.main() == 1
    out = capsys.readouterr().out
    assert "twice: its old text occurs 2 times in m.py, not once" in out
    assert "never: its old text occurs 0 times in m.py, not once" in out
