"""The hunk parser, the ``--ignore`` span filter and the per-op ratio split of
``scripts/touched_ops.py``, on canned input."""
from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "touched_ops.py"
_spec = importlib.util.spec_from_file_location("touched_ops", _SCRIPT)
touched_ops = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(touched_ops)

DIFF = """\
diff --git a/src/dynwindow/recurrence.py b/src/dynwindow/recurrence.py
index e5d2530..f6a14b6 100644
--- a/src/dynwindow/recurrence.py
+++ b/src/dynwindow/recurrence.py
@@ -1,2 +0,0 @@
-import os
-import re
@@ -74,4 +73,0 @@ _SEGMENTS = tuple((p * (p - 1) // 2, (1 << p) - 1) for p in range(1, _TABLE_PERI
-# _missing_residues keeps the periods and offsets of a block of at most this
-# many periods, 64 blocks at most (1 MiB), and builds a larger block per call.
-_KEPT_BLOCK_PERIODS = 2 ** 10
-
@@ -285,2 +259,2 @@ def _missing_residues(arr: np.ndarray, max_period: int) -> list:
-        block = _period_block if top - m <= _KEPT_BLOCK_PERIODS else _period_block.__wrapped__
-        periods, offsets = block(m, top, w, dtype)
+        periods = np.arange(m, top, dtype=dtype)[:, None]
+        offsets = (periods - m) * (w + 1)
@@ -300 +274 @@ def _missing_residues(arr: np.ndarray, max_period: int) -> list:
-    return least
+    return least  # per period
@@ -400,0 +375,3 @@ def r_sequence_cyclic(a: Window, max_period: int) -> RSequenceReport:
+    x = 1
+    y = 2
+    z = 3
diff --git a/src/dynwindow/gone.py b/src/dynwindow/gone.py
deleted file mode 100644
index 1111111..0000000
--- a/src/dynwindow/gone.py
+++ /dev/null
@@ -1,3 +0,0 @@
-a = 1
-b = 2
-c = 3
diff --git a/src/dynwindow/new.py b/src/dynwindow/new.py
new file mode 100644
index 0000000..2222222
--- /dev/null
+++ b/src/dynwindow/new.py
@@ -0,0 +1,2 @@
+a = 1
+b = 2
"""


def test_changed_lines_take_each_hunks_new_side():
    # A deletion at the top names line 1; a deletion after line 73 names 73
    # and 74; a change names its new lines, a count left out meaning one; an
    # addition names its lines; a deleted file names nothing.
    assert touched_ops.changed_lines(DIFF) == {
        "src/dynwindow/recurrence.py": {1, 73, 74, 259, 260, 274, 375, 376, 377},
        "src/dynwindow/new.py": {1, 2},
    }


def test_changed_lines_of_no_diff_are_none():
    assert touched_ops.changed_lines("") == {}


SOURCE = """\
import os


def helper(x):
    return x


class Engine:
    def run(self):
        return 1

    def stop(self):
        return 0


def main(argv=None):
    code = helper(1)
    return code
"""


def test_def_span_reads_a_function_or_method_from_def_to_its_last_line():
    assert touched_ops.def_span(SOURCE, "helper") == range(4, 6)
    assert touched_ops.def_span(SOURCE, "Engine.stop") == range(12, 14)
    assert touched_ops.def_span(SOURCE, "Engine") == range(8, 14)
    assert touched_ops.def_span(SOURCE, "main") == range(16, 19)
    assert touched_ops.def_span(SOURCE, "missing") is None
    assert touched_ops.def_span(SOURCE, "Engine.missing") is None
    assert touched_ops.def_span(SOURCE, "helper.x") is None  # a def's body holds no def named x


# A diff whose new side is SOURCE: the import, helper's body, Engine.run's
# body, the blank line after it, and main's body changed.
SOURCE_DIFF = """\
diff --git a/src/dynwindow/engine.py b/src/dynwindow/engine.py
--- a/src/dynwindow/engine.py
+++ b/src/dynwindow/engine.py
@@ -1 +1 @@
-import re
+import os
@@ -5 +5 @@ def helper(x):
-    return x + 0
+    return x
@@ -10,2 +10,2 @@ class Engine:
-        return 2
-    
+        return 1
+
@@ -17 +17,2 @@ def main(argv=None):
-    return helper(1)
+    code = helper(1)
+    return code
"""


def test_drop_spans_leaves_out_the_lines_of_an_ignored_def():
    by_file = touched_ops.changed_lines(SOURCE_DIFF)
    assert by_file == {"src/dynwindow/engine.py": {1, 5, 10, 11, 17, 18}}
    # main (16-18) takes 17 and 18; Engine.run (9-10) takes 10 but not the blank 11 after it.
    spans = {"src/dynwindow/engine.py": [touched_ops.def_span(SOURCE, "main"), touched_ops.def_span(SOURCE, "Engine.run")]}
    assert touched_ops.drop_spans(by_file, spans) == {"src/dynwindow/engine.py": {1, 5, 11}}
    # Spans of another file leave this one as it is; a file left with no line is dropped.
    assert touched_ops.drop_spans(by_file, {"src/dynwindow/cli.py": [range(1, 100)]}) == by_file
    assert touched_ops.drop_spans(by_file, {"src/dynwindow/engine.py": [range(1, 19)]}) == {}


def test_an_unknown_ignore_name_is_a_usage_error(capsys):
    for name in ("cli.no_such_def", "no_such_module.main", "cli"):
        with pytest.raises(SystemExit) as exit_:
            touched_ops.main(["HEAD", "--ignore", name])
        assert exit_.value.code == 2
        assert f"--ignore {name}: no such def in src/dynwindow" in capsys.readouterr().err


def test_ranges_join_consecutive_lines():
    assert touched_ops._ranges([9, 3, 5, 4, 11, 12]) == "3-5, 9, 11-12"


def _sides(a: dict, b: dict) -> dict:
    return {"a": {"op_s_median": a}, "b": {"op_s_median": b}}


ENTRY = {
    "workloads": {
        "cli-files": _sides(
            {"classify:random": 2.0, "classify:small": 1.0, "permpoly:x3": 4.0, "construct:20": 1.0, "product:6": 3.0},
            {"classify:random": 1.0, "classify:small": 0.8, "permpoly:x3": 4.4, "construct:20": 1.0, "product:6": 2.7},
        ),
        "metric-density": _sides({"m": 1.0}, {"m": 1.1}),
    }
}


def test_op_time_ratios_split_touched_from_untouched_ops():
    # Touched: 0.5 and 0.8 (median 0.65); untouched: 1.1, 1.0 and 0.9 (median 1.0);
    # a workload with no touched op has no touched ratio.
    ratios = touched_ops.op_time_ratios(ENTRY, {"cli-files": {"classify:random", "classify:small"}})
    assert ratios["cli-files"]["touched"] == (pytest.approx(0.65), 2)
    assert ratios["cli-files"]["untouched"] == (pytest.approx(1.0), 3)
    assert ratios["metric-density"] == {"touched": (None, 0), "untouched": (pytest.approx(1.1), 1)}
