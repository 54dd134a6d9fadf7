"""The edit-and-report logic of ``scripts/mutants.py`` on a canned tree.

The tier-1 runner is stubbed, so no mutant runs here: each stub records the
tree it was given and answers as pytest would.
"""
from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "mutants.py"
_spec = importlib.util.spec_from_file_location("mutants", _SCRIPT)
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)

SOURCE = "def twice(x):\n    return x + x\n\n\ndef same(x):\n    return x\n"
KILLED = """\
........F
=========================== short test summary info ============================
FAILED tests/test_twice.py::test_twice[3] - assert 9 == 6
!!!!!!!!!!!!!!!!!!!!!!!!!! stopping after 1 failures !!!!!!!!!!!!!!!!!!!!!!!!!!!
1 failed, 8 passed in 0.12s
"""


@pytest.fixture
def tree(tmp_path):
    root = tmp_path / "repo"
    (root / "src").mkdir(parents=True)
    (root / "src" / "mod.py").write_text(SOURCE)
    (root / ".git").mkdir()
    (root / "perfbench" / "out").mkdir(parents=True)
    return root


class Runner:
    # A stub tier-1 run: records what the mutant's tree held, and answers (code, output).
    def __init__(self, code=1, output=KILLED):
        self.code, self.output, self.seen = code, output, []

    def __call__(self, tree: Path):
        self.seen.append((tree, (tree / "src" / "mod.py").read_text(), sorted(str(p.relative_to(tree)) for p in tree.rglob("*"))))
        return self.code, self.output


@pytest.mark.parametrize("text, old, want", [
    ("a + b", "+", "a * b"),
    ("a + b + c", "+", None),  # twice: stale
    ("a - b", "+", None),  # absent: stale
])
def test_mutate_replaces_exactly_one_occurrence(text, old, want):
    assert mutants.mutate(text, old, "*") == want


@pytest.mark.parametrize("output, want", [
    (KILLED, "tests/test_twice.py::test_twice[3]"),
    ("ERROR tests/test_a.py - ImportError: no module\nFAILED tests/test_b.py::test_c - x\n", "tests/test_a.py"),
    ("1 passed in 0.01s\n", None),
])
def test_first_failure_is_the_first_test_the_summary_names(output, want):
    assert mutants.first_failure(output) == want


def test_a_row_is_applied_in_a_copy_and_its_first_failure_recorded(tree):
    runner = Runner()
    row = ("double", "src/mod.py", "x + x", "x * x", "twice doubles")
    got = mutants.run_row(row, tree, runner)
    assert got == {"name": "double", "file": "src/mod.py", "guards": "twice doubles",
                   "result": "tests/test_twice.py::test_twice[3]"}
    (copy, text, names), = runner.seen
    assert text == SOURCE.replace("x + x", "x * x")
    assert not copy.exists() and not copy.is_relative_to(tree)  # a temporary copy, removed after the run
    assert names == ["perfbench", "src", "src/mod.py"]  # no history and no run outputs
    assert (tree / "src" / "mod.py").read_text() == SOURCE  # the tree itself is never edited


def test_a_row_that_tier1_passes_survives(tree):
    row = ("noop", "src/mod.py", "return x\n", "return x + 0\n", "nothing")
    assert mutants.run_row(row, tree, Runner(0, "9 passed in 0.1s\n"))["result"] == "survived"


@pytest.mark.parametrize("old, occurrences", [("return", 2), ("x - x", 0)])
def test_a_row_whose_old_text_is_not_there_once_is_stale_and_runs_nothing(tree, old, occurrences):
    runner = Runner()
    got = mutants.run_row(("r", "src/mod.py", old, "pass", "g"), tree, runner)
    assert (got["result"], got["occurrences"]) == ("stale", occurrences) and runner.seen == []


def test_main_writes_the_selected_rows_and_fails_on_a_survivor_or_a_stale_row(tree):
    rows = [
        ("double", "src/mod.py", "x + x", "x * x", "g1"),
        ("gone", "src/mod.py", "x - x", "x", "g2"),
        ("same", "src/mod.py", "return x\n", "return -x\n", "g3"),
    ]
    out = tree / "MUTANTS.json"
    assert mutants.main(["--row", "double", "--out", str(out)], tree, Runner(), rows) == 0
    assert [r["name"] for r in json.loads(out.read_text())] == ["double"]
    assert mutants.main(["--out", str(out)], tree, Runner(), rows) == 1  # "gone" is stale
    assert [r["result"] for r in json.loads(out.read_text())] == ["tests/test_twice.py::test_twice[3]", "stale",
                                                                  "tests/test_twice.py::test_twice[3]"]


def test_the_committed_rows_apply_to_this_tree():
    # Every row's old text occurs exactly once, so none is stale here.
    for name, file, old, new, guards in mutants.ROWS:
        assert mutants.mutate((mutants.ROOT / file).read_text(encoding="utf-8"), old, new) is not None, name
