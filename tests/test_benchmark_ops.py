"""The benchmark's ops pass their independent checks in this tree.

``perfbench/workloads.py`` builds the ops and ``perfbench/checks.py`` checks
their results.  The benchmark counts an op tagged ``known_fault`` as failed
but not as incorrect, so a wrong result of such an op would otherwise show
only as a count in a benchmark run.  The crosscheck-sweep ops also pin where
the cross-check's hit kernel decides their windows.
"""
from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from dynwindow import intsets
from dynwindow.recurrence import _comparison_plan

_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(_PERFBENCH) not in sys.path:
    sys.path.insert(0, str(_PERFBENCH))  # workloads imports its sibling checks by name
_spec = importlib.util.spec_from_file_location("perfbench_workloads", _PERFBENCH / "workloads.py")
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)  # its dataclasses look it up
_spec.loader.exec_module(workloads)


@pytest.fixture(scope="module")
def exact_rotation_ops(tmp_path_factory) -> list:
    ops = workloads.build_metric_density(1, tmp_path_factory.mktemp("metric-density"))
    return [op for op in ops if op.name.startswith("metric:exact-rot-")]


def test_metric_density_exact_rotation_ops_pass_their_checks(exact_rotation_ops):
    assert [op.name for op in exact_rotation_ops] == ["metric:exact-rot-1/3", "metric:exact-rot-1/7"]
    for op in exact_rotation_ops:
        assert op.check(op.call(0)) is None, op.name


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_crosscheck_sweep_windows_are_decided_within_the_prefix(seed, tmp_path, monkeypatch):
    # Every (window, shift) pair of each crosscheck-sweep window is met within
    # the prefix that _shifted_hits reads, so no op reaches the bitmask settle:
    # a read of any window's bitmask fails the test.
    def read(self):
        raise AssertionError("a crosscheck-sweep window reached the bitmask settle")

    ops = workloads.build_crosscheck_sweep(seed, tmp_path)
    _comparison_plan.cache_clear()
    monkeypatch.setattr(intsets.Window, "bitmask", property(read))
    try:
        for op in ops:
            assert op.check(op.call(0)) is None, op.name
    finally:
        _comparison_plan.cache_clear()
