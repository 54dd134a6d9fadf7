"""Golden CLI output: every call of ``scripts/report_diff.py`` against ``tests/golden/cli.txt``.

A line of the file is one call's exit code and the sha256 of its stdout, its
stderr and each file it writes.  Every call prints its summary and its JSON
report (``--json``), so a change to either shows here.  The last lines pin
the library calls: one per op of the metric-density benchmark, seed 1, and
one per group of the mapping in ``report_diff.fingerprints()``, each the
sha256 of its results' ``repr`` lines.  A change that moves a line on
purpose rewrites the file with
``PYTHONPATH=src python3 scripts/report_diff.py --write`` and explains the
moved line.  Every system spec the corpus reads parses back, from its
``spec_string()``, to an equal system.
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


def _corpus_specs() -> list[str]:
    # Every system spec the corpus reads: recurrence and product calls, and the library rows.
    specs = []
    for call in report_diff.CALLS:
        argv = call.split()
        if argv[0] == "recurrence" and not argv[2].startswith("cyclic:<="):
            specs.append(argv[2])
        elif argv[0] == "product":
            specs += argv[1:3]
    rows = report_diff.RETURN_TIMES + report_diff.PERIODIC_RETURN_TIMES + report_diff.BATCH_DENOMINATORS
    library = [row[0] for row in rows] + report_diff.PERIODIC_BIRKHOFF + report_diff.BIRKHOFF_CLASSES
    return list(dict.fromkeys(specs + library))


# Specs of the corpus that no system holds: their golden lines pin the error.
_REJECTED = {"rot:nan", "rot:inf", "skew:1e400"}

# Products with a multi-angle rotation factor, whose angles follow the factor's kind.
_MULTI_ANGLE_PRODUCTS = [
    "prod(rot:0.1,0.2,cyclic:3)",
    "prod(cyclic:3,rot:1/3,2/5)",
    "prod(prod(rot:golden,0.3,cyclic:2),rot:0.25,0.5)",
]


@pytest.mark.parametrize("spec", [s for s in _corpus_specs() if s not in _REJECTED] + _MULTI_ANGLE_PRODUCTS)
def test_corpus_spec_round_trips(spec):
    # A spec_string denotes the system it came from, and is a fixed point.
    from dynwindow.systems import parse_system_spec

    system = parse_system_spec(spec)
    again = parse_system_spec(system.spec_string())
    assert again == system and type(again) is type(system)
    assert again.spec_string() == system.spec_string()


def test_a_library_call_that_raises_is_recorded_and_the_list_goes_on():
    def raising():
        raise OverflowError("int too big to convert")

    assert report_diff._library_line("shifted-cyclic", raising) == "repr=raised OverflowError :: library shifted-cyclic"
    assert report_diff._library_line("ok", lambda: "") == f"repr={report_diff._sha(b'')} :: library ok"
