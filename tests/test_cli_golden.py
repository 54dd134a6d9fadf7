"""Golden CLI output: every call of ``scripts/report_diff.py`` against ``tests/golden/cli.txt``.

A line of the file is one call's exit code and the sha256 of its stdout, its
stderr and each file it writes.  Every call prints its summary and its JSON
report (``--json``), so a change to either shows here.  The last lines pin
the library metric path: the sha256 of the ``repr`` of each
``r_sequence_metric`` and ``birkhoff_window_test`` result of the
metric-density benchmark, seed 1, and one sha256 of the ``repr`` lines of
all ``crosscheck_cyclic_equivalence`` results of the crosscheck-sweep
benchmark, seed 1, one of the ``return_times`` windows of
``report_diff.RETURN_TIMES``, and one of the orbits that repeat
(``report_diff.PERIODIC_RETURN_TIMES`` and ``PERIODIC_BIRKHOFF``).  A
change that moves
a line on purpose rewrites the file with
``PYTHONPATH=src python3 scripts/report_diff.py --write`` and explains the
moved line.
"""
from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "report_diff.py"
_spec = importlib.util.spec_from_file_location("report_diff", _SCRIPT)
report_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_diff)


def _by_call(lines: list[str]) -> dict:
    # argv (space-separated) -> fingerprint fields
    return {call: fields for fields, call in (line.split(" :: ", 1) for line in lines)}


@pytest.fixture(scope="module")
def lines() -> tuple[dict, dict]:
    golden = report_diff.GOLDEN.read_text(encoding="utf-8").splitlines()
    return _by_call(report_diff.fingerprints()), _by_call(golden)


def test_golden_file_has_no_moved_line(lines):
    now, golden = lines
    moved = [call for call in golden if call in now and now[call] != golden[call]]
    assert not moved, "moved: " + "; ".join(moved)
    assert list(now) == list(golden), "calls added or removed: regenerate with --write"


@pytest.mark.parametrize("call", report_diff.CALLS)
def test_cli_output_matches_golden_digest(lines, call):
    now, golden = lines
    key = call + " --json"
    assert now[key] == golden[key], call
