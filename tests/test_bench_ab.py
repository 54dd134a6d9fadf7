"""``scripts/bench_ab.py`` records a comparison, and exits 1 when a side's outputs were rejected.

``run_once`` is stubbed: each call returns the result of a run as
``perfbench/run.py`` prints it, so no benchmark runs here.
"""
from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_ab.py"
_spec = importlib.util.spec_from_file_location("bench_ab", _SCRIPT)
bench_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_ab)


def _run(speed: float, correct: bool = True, failed: int = 0) -> dict:
    metrics = {"ops_per_s": speed, "setup_s": 0.1, "peak_rss_mb": 60.0}
    return {
        "correct": correct,
        "failed": failed,
        "attempted": 10,
        "metrics": {name: {"value": value} for name, value in metrics.items()},
        "op_s": {"op": 1.0 / speed},
    }


@pytest.mark.parametrize(
    "broken, named",
    [
        ({}, None),
        ({"b": {"correct": False}}, "cli-files side b"),
        ({"a": {"failed": 2}}, "cli-files side a"),
    ],
    ids=["both-correct", "b-rejected", "a-failed-ops"],
)
def test_a_rejected_side_is_written_then_exits_1(tmp_path, monkeypatch, capsys, broken, named):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()

    def run_once(checkout, workload, seed, seconds):
        side = "a" if checkout == a.resolve() else "b"
        return _run(100.0 if side == "a" else 110.0, **broken.get(side, {}))

    monkeypatch.setattr(bench_ab, "run_once", run_once)
    out = tmp_path / "bench.json"
    argv = ["--a", str(a), "--b", str(b), "--workload", "cli-files", "--pairs", "2", "--name", "x", "--out", str(out)]
    code = bench_ab.main(argv)
    entry = json.loads(out.read_text(encoding="utf-8"))["x"]["workloads"]["cli-files"]
    assert entry["b"]["pairs_won"] == 2 and entry["b_vs_a_ops_per_s"] == pytest.approx(0.1)
    err = capsys.readouterr().err
    if named is None:
        assert code == 0 and "error" not in err
    else:
        assert code == 1 and named in err.splitlines()[-1]
