"""``scripts/bench_ab.py`` records a comparison, judges its gain and bounds, and exits 1 when a side's outputs were rejected.

``run_once`` is stubbed: each call returns the result of a run as
``perfbench/run.py`` prints it, so no benchmark runs here.  Its own test stubs
``subprocess.run`` and ``resource.getrusage`` instead.
"""
from __future__ import annotations

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_ab.py"
_spec = importlib.util.spec_from_file_location("bench_ab", _SCRIPT)
bench_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_ab)


def _run(speed: float, correct: bool = True, failed: int = 0, nvcsw: int = 0, oublock: int = 0) -> dict:
    metrics = {"ops_per_s": speed, "setup_s": 0.1, "peak_rss_mb": 60.0}
    return {
        "correct": correct,
        "failed": failed,
        "attempted": 10,
        "metrics": {name: {"value": value} for name, value in metrics.items()},
        "op_s": {"op": 1.0 / speed},
        "ru_nvcsw": nvcsw,
        "ru_oublock": oublock,
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


def _stub_runs(monkeypatch, tmp_path, speeds_a, speeds_b, setup_b=0.1, floor=0.02):
    # Runs A and B at the given speeds, pair by pair, against a committed null floor, and
    # returns the written entry of cli-files.
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    monkeypatch.setattr(bench_ab, "committed_null", lambda workload, first=None: ("BENCH_0.json stub", floor))
    left = {a.resolve(): iter(speeds_a), b.resolve(): iter(speeds_b)}

    def run_once(checkout, workload, seed, seconds):
        run = _run(next(left[checkout]))
        if checkout == b.resolve():
            run["metrics"]["setup_s"]["value"] = setup_b
        return run

    monkeypatch.setattr(bench_ab, "run_once", run_once)
    out = tmp_path / "bench.json"
    argv = ["--a", str(a), "--b", str(b), "--workload", "cli-files", "--pairs", str(len(speeds_a)),
            "--name", "x", "--out", str(out)]
    assert bench_ab.main(argv) == 0
    return json.loads(out.read_text(encoding="utf-8"))["x"]["workloads"]["cli-files"]


@pytest.mark.parametrize(
    "speeds_b, won, gain",
    [
        ([110.0] * 9 + [90.0], 9, True),
        ([110.0] * 8 + [90.0] * 2, 8, False),
        ([110.0] * 9 + [100.0], 9, True),  # the tie counts for neither side
        ([110.0] * 8 + [100.0] * 2, 8, False),
    ],
    ids=["9-of-10", "8-of-10", "9-and-a-tie", "8-and-two-ties"],
)
def test_a_gain_needs_9_of_10_pairs_won_ties_counting_for_neither(tmp_path, monkeypatch, capsys, speeds_b, won, gain):
    entry = _stub_runs(monkeypatch, tmp_path, [100.0] * 10, speeds_b)
    assert entry["b"]["pairs_won"] == won and entry["a"]["pairs_won"] == sum(s < 100.0 for s in speeds_b)
    assert entry["gain"] == {"b_won_9_of_10": gain, "gap_exceeds_a_iqr": True, "past_null_floor": True}
    assert f"b won {won}/10 pairs (9/10 met: {gain})" in capsys.readouterr().err


def test_a_median_gap_within_a_iqr_is_no_gain(tmp_path, monkeypatch):
    # A's runs spread over [90, 110] (IQR 10); B wins every pair, by 5 op/s at the median.
    speeds_a = [90.0, 95.0, 100.0, 105.0, 110.0] * 2
    entry = _stub_runs(monkeypatch, tmp_path, speeds_a, [s + 5.0 for s in speeds_a])
    assert entry["a"]["ops_per_s"]["q3"] - entry["a"]["ops_per_s"]["q1"] == pytest.approx(10.0)
    assert entry["gain"] == {"b_won_9_of_10": True, "gap_exceeds_a_iqr": False, "past_null_floor": True}


@pytest.mark.parametrize(
    "speed_b, setup_b, within",
    [
        (85.0, 0.12, {"ops_per_s": True, "setup_s": True, "peak_rss_mb": True}),
        (70.0, 0.1, {"ops_per_s": False, "setup_s": True, "peak_rss_mb": True}),
        (100.0, 0.13, {"ops_per_s": True, "setup_s": False, "peak_rss_mb": True}),
    ],
    ids=["slower-within-bounds", "ops-past-bound", "setup-past-bound"],
)
def test_a_median_worse_than_its_bound_reads_false(tmp_path, monkeypatch, capsys, speed_b, setup_b, within):
    # BENCHMARK.json bounds ops_per_s (higher is better) at 0.2 and setup_s (lower is better) at 0.25.
    entry = _stub_runs(monkeypatch, tmp_path, [100.0] * 3, [speed_b] * 3, setup_b=setup_b)
    assert entry["within_bound"] == within
    assert "within bound: " + ", ".join(f"{k} {v}" for k, v in within.items()) in capsys.readouterr().err


def test_run_once_records_the_childrens_counters_around_the_run(tmp_path, monkeypatch):
    # getrusage(RUSAGE_CHILDREN) is cumulative: the run's counters are the difference across it.
    out = tmp_path / "perfbench" / "out"
    out.mkdir(parents=True)
    (out / "cli-files-seed1-trace0.json").write_text(json.dumps({"ops": [{"name": "op", "op_s": 0.5}]}))
    usage = iter([SimpleNamespace(ru_nvcsw=100, ru_oublock=7000), SimpleNamespace(ru_nvcsw=129, ru_oublock=8032)])
    monkeypatch.setattr(bench_ab.resource, "getrusage", lambda who: next(usage))
    printed = json.dumps({"correct": True, "failed": 0, "attempted": 27, "metrics": {}})
    monkeypatch.setattr(bench_ab.subprocess, "run", lambda argv, **kw: SimpleNamespace(returncode=0, stdout=printed + "\n"))
    result = bench_ab.run_once(tmp_path, "cli-files", 1, 10)
    assert (result["ru_nvcsw"], result["ru_oublock"]) == (29, 1032)
    assert result["op_s"] == {"op": 0.5} and next(usage, None) is None


def test_counters_are_summarised_per_side_and_printed(tmp_path, monkeypatch, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    counters = {a.resolve(): iter([(30, 1000), (28, 1040), (29, 1032)]), b.resolve(): iter([(0, 40), (1, 41), (0, 39)])}

    def run_once(checkout, workload, seed, seconds):
        nvcsw, oublock = next(counters[checkout])
        return _run(100.0, nvcsw=nvcsw, oublock=oublock)

    monkeypatch.setattr(bench_ab, "run_once", run_once)
    out = tmp_path / "bench.json"
    argv = ["--a", str(a), "--b", str(b), "--workload", "cli-files", "--pairs", "3", "--name", "x", "--out", str(out)]
    assert bench_ab.main(argv) == 0
    entry = json.loads(out.read_text(encoding="utf-8"))["x"]["workloads"]["cli-files"]
    assert entry["a"]["ru_nvcsw"] == {"median": 29, "q1": 28.5, "q3": 29.5, "runs": [30, 28, 29]}
    assert entry["b"]["ru_oublock"]["runs"] == [40, 41, 39] and entry["b"]["ru_oublock"]["median"] == 40
    assert set(entry["gain"]) == {"b_won_9_of_10", "gap_exceeds_a_iqr", "past_null_floor"}  # the counters are recorded, not judged
    assert "median per run: ru_nvcsw a 29 b 0, ru_oublock a 1032 b 40" in capsys.readouterr().err



def _is_gain(gain: dict) -> bool:
    return all(value is True for value in gain.values())


def _recorded_series() -> dict:
    # (file, entry, workload) -> (pairs, pairs B won, judgement) for every recorded
    # series with pairs won, judged again by today's rule.
    series = {}
    for path in sorted(_SCRIPT.parent.parent.glob("BENCH_*.json")):
        for name, entry in json.loads(path.read_text(encoding="utf-8")).items():
            for workload, result in entry.get("workloads", {}).items():
                if "pairs_won" in result.get("b", {}):
                    if "null" in result:  # recorded with --null: its own floor
                        floor = result["null"]["floor"]
                    else:
                        floor = (bench_ab.committed_null(workload, path) or (None, None))[1]
                    gain = bench_ab.judge(result["a"], result["b"], entry["pairs"], floor)["gain"]
                    series[path.name, name, workload] = (entry["pairs"], result["b"]["pairs_won"], gain)
    return series


def test_a_recorded_series_of_fewer_than_10_pairs_never_reads_as_a_gain():
    series = _recorded_series()
    assert {key[0] for key in series} >= {f"BENCH_{n}.json" for n in (27, 28, 29, *range(31, 41))}
    assert [key for key, (pairs, _, gain) in series.items() if pairs < 10 and gain["b_won_9_of_10"]] == []
    # B won 5 of 5 pairs in these, which 9 of every 10 once passed, and its median is past A's IQR.
    for key in [
        ("BENCH_31.json", "earlier-922f89d-other-workloads-seed1", "metric-density"),
        ("BENCH_36.json", "crosscheck-sweep-seed2", "crosscheck-sweep"),
        ("BENCH_36.json", "crosscheck-sweep-seed2-first-pass", "crosscheck-sweep"),
        ("BENCH_39.json", "draft-crosscheck-sweep-seed1", "crosscheck-sweep"),
    ]:
        pairs, won, gain = series[key]
        assert (pairs, won, gain["b_won_9_of_10"], gain["gap_exceeds_a_iqr"]) == (5, 5, False, True)
    for key in [
        ("BENCH_31.json", "crosscheck-sweep-seed1", "crosscheck-sweep"),
        ("BENCH_31.json", "crosscheck-sweep-seed2", "crosscheck-sweep"),
        ("BENCH_36.json", "crosscheck-sweep-seed1", "crosscheck-sweep"),
    ]:
        pairs, won, gain = series[key]
        assert (pairs, won, gain["b_won_9_of_10"], gain["gap_exceeds_a_iqr"]) == (10, 10, True, True)


def test_a_null_runs_a_again_in_every_pair_rotating_the_order(tmp_path, monkeypatch):
    # A' is checkout A once more; the pairs run (a, b, a2), (b, a2, a), (a2, a, b), ...
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    speeds = {a.resolve(): iter([100.0, 104.0, 99.0, 100.0, 101.0, 100.0, 100.0, 97.0]), b.resolve(): iter([120.0] * 4)}
    calls = []

    def run_once(checkout, workload, seed, seconds):
        calls.append("b" if checkout == b.resolve() else "a")
        return _run(next(speeds[checkout]))

    monkeypatch.setattr(bench_ab, "run_once", run_once)
    monkeypatch.setattr(bench_ab, "committed_null", lambda workload, first=None: pytest.fail("read a committed null"))
    out = tmp_path / "bench.json"
    argv = ["--a", str(a), "--b", str(b), "--workload", "cli-files", "--pairs", "4", "--null", "--name", "x", "--out", str(out)]
    assert bench_ab.main(argv) == 0
    assert calls == ["a", "b", "a", "b", "a", "a", "a", "a", "b", "a", "b", "a"]
    entry = json.loads(out.read_text(encoding="utf-8"))["x"]["workloads"]["cli-files"]
    # The A runs of the pairs come as a, a2 | a2, a | a2, a | a, a2.
    assert entry["a"]["ops_per_s"]["runs"] == [100.0, 100.0, 100.0, 100.0]
    assert entry["null"]["ratios"] == pytest.approx([1.04, 0.99, 1.01, 0.97])
    assert entry["null"]["floor"] == pytest.approx(0.04)
    assert entry["null_floor"] == {"from": "this entry", "floor": entry["null"]["floor"]}
    assert entry["median_pair_ratio"] == pytest.approx(1.2) and entry["gain"]["past_null_floor"] is True


def _bench_files(tmp_path, monkeypatch, files: dict) -> None:
    # A repository root holding BENCHMARK.json and the given BENCH files.
    (tmp_path / "BENCHMARK.json").write_text(bench_ab.BENCHMARK.read_text(encoding="utf-8"), encoding="utf-8")
    for name, doc in files.items():
        (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
    monkeypatch.setattr(bench_ab, "BENCHMARK", tmp_path / "BENCHMARK.json")


def _entry(src_a: str, src_b: str, speeds_a, speeds_b, null=None) -> dict:
    result = {"a": {"ops_per_s": {"runs": speeds_a}}, "b": {"ops_per_s": {"runs": speeds_b}}}
    if null is not None:
        result["null"] = {"ratios": null}
    return {"a": {"src_sha256": src_a}, "b": {"src_sha256": src_b}, "workloads": {"cli-files": result}}


def test_the_latest_committed_null_is_the_floor_without_one(tmp_path, monkeypatch):
    _bench_files(tmp_path, monkeypatch, {
        "BENCH_12.json": {
            "b-null": _entry("x", "x", [100.0, 100.0], [110.0, 95.0]),
            "a-change": _entry("x", "y", [100.0], [150.0], null=[1.02, 0.99]),
            "c-change": _entry("x", "y", [100.0], [150.0]),
        },
        "BENCH_3.json": {"null": _entry("z", "z", [100.0], [140.0])},  # 3 < 12, though "3" > "12"
    })
    source, floor = bench_ab.committed_null("cli-files")
    assert source == "BENCH_12.json a-change" and floor == pytest.approx(0.02)
    assert bench_ab.committed_null("cli-files", tmp_path / "BENCH_3.json") == ("BENCH_3.json null", pytest.approx(0.4))
    assert bench_ab.committed_null("cli-files", tmp_path / "BENCH_new.json")[0] == "BENCH_12.json a-change"
    assert bench_ab.committed_null("metric-density") is None


def test_no_null_at_all_is_not_judged(tmp_path, monkeypatch, capsys):
    _bench_files(tmp_path, monkeypatch, {"BENCH_1.json": {"change": _entry("x", "y", [100.0], [150.0])}})
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    monkeypatch.setattr(bench_ab, "run_once", lambda checkout, *rest: _run(100.0 if checkout == a.resolve() else 150.0))
    out = tmp_path / "bench.json"
    argv = ["--a", str(a), "--b", str(b), "--workload", "cli-files", "--pairs", "10", "--name", "x", "--out", str(out)]
    assert bench_ab.main(argv) == 0
    entry = json.loads(out.read_text(encoding="utf-8"))["x"]["workloads"]["cli-files"]
    assert entry["gain"] == {"b_won_9_of_10": True, "gap_exceeds_a_iqr": True, "past_null_floor": "not judged"}
    assert entry["null_floor"] == {"from": None, "floor": None} and not _is_gain(entry["gain"])
    assert "against null floor none (past: not judged)" in capsys.readouterr().err


def test_every_committed_series_is_judged_again_against_its_null():
    gains = {key for key, (_, _, gain) in _recorded_series().items() if _is_gain(gain)}
    for path in sorted(_SCRIPT.parent.parent.glob("BENCH_*.json")):
        for name, entry in json.loads(path.read_text(encoding="utf-8")).items():
            for workload, result in entry.get("workloads", {}).items():
                if "pairs_won" in result.get("b", {}) and (
                        entry["pairs"] < 10 or entry["a"].get("src_sha256") == entry["b"].get("src_sha256")):
                    assert (path.name, name, workload) not in gains
    # B won 10 of 10 pairs here, its median past A's IQR, but its median pair ratio is 1.025,
    # inside the floor of the null recorded beside it (0.145).
    assert ("BENCH_35.json", "cli-files-seed1", "cli-files") not in gains
    assert {
        ("BENCH_31.json", "crosscheck-sweep-seed1", "crosscheck-sweep"),
        ("BENCH_31.json", "crosscheck-sweep-seed2", "crosscheck-sweep"),
        ("BENCH_36.json", "crosscheck-sweep-seed1", "crosscheck-sweep"),
    } <= gains


def test_a_trace_runs_each_side_traced_once_a_pair_and_summarises_its_layers(tmp_path, monkeypatch, capsys):
    # Untraced runs (a, b), then traced ones in the same order: (a, b), then (b, a).
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    layer = "recurrence.crosscheck_cyclic_equivalence.self_s"
    self_s = {a.resolve(): iter([0.020, 0.018, 0.024]), b.resolve(): iter([0.015, 0.013, 0.016])}
    calls = []

    def run_once(checkout, workload, seed, seconds, trace=0):
        side = "b" if checkout == b.resolve() else "a"
        calls.append(side + "*" * trace)
        if not trace:
            return _run(100.0 if side == "a" else 110.0)
        run = _run(50.0)  # a traced run prints per-layer metrics, and no end-to-end ones
        run["metrics"] = {layer: {"value": next(self_s[checkout])}, "intsets.Window_init.calls": {"value": 250.0}}
        return run

    monkeypatch.setattr(bench_ab, "run_once", run_once)
    monkeypatch.setattr(bench_ab, "committed_null", lambda workload, first=None: None)
    out = tmp_path / "bench.json"
    argv = ["--a", str(a), "--b", str(b), "--workload", "crosscheck-sweep", "--pairs", "3", "--trace",
            "--name", "x", "--out", str(out)]
    assert bench_ab.main(argv) == 0
    assert calls == ["a", "b", "a*", "b*", "b", "a", "b*", "a*", "a", "b", "a*", "b*"]
    entry = json.loads(out.read_text(encoding="utf-8"))["x"]["workloads"]["crosscheck-sweep"]
    assert entry["a"]["layers"][layer] == pytest.approx({"median": 0.020, "q1": 0.019, "q3": 0.022, "runs": [0.020, 0.018, 0.024]})
    assert entry["b"]["layers"][layer]["median"] == 0.015
    assert entry["b"]["layers"]["intsets.Window_init.calls"]["median"] == 250.0
    # The traced runs' speed enters no end-to-end summary, but their checks count.
    assert entry["a"]["ops_per_s"]["runs"] == [100.0] * 3 and entry["b"]["attempted"] == 60
    assert f"per-layer medians over 3 traced runs a -> b: {layer} 0.02 -> 0.015 s" in capsys.readouterr().err


def test_a_rejected_traced_run_marks_its_side(tmp_path, monkeypatch, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()

    def run_once(checkout, workload, seed, seconds, trace=0):
        run = _run(100.0, correct=not (trace and checkout == b.resolve()))
        if trace:
            run["metrics"] = {"intsets.Window_init.self_s": {"value": 0.004}}
        return run

    monkeypatch.setattr(bench_ab, "run_once", run_once)
    out = tmp_path / "bench.json"
    argv = ["--a", str(a), "--b", str(b), "--workload", "cli-files", "--pairs", "1", "--trace", "--name", "x",
            "--out", str(out)]
    assert bench_ab.main(argv) == 1
    assert "cli-files side b" in capsys.readouterr().err.splitlines()[-1]


def test_a_traced_run_creates_the_output_directory_and_reads_its_details(tmp_path, monkeypatch):
    # In a fresh tree perfbench/out/ is missing, and run.py --trace 1 writes its spans there before it makes it.
    argvs = []

    def run(argv, cwd, **kw):
        out = Path(cwd) / "perfbench" / "out"
        assert out.is_dir()
        (out / "crosscheck-sweep-seed3-trace1.json").write_text(json.dumps({"ops": [{"name": "op", "op_s": 0.25}]}))
        argvs.append(argv)
        return SimpleNamespace(returncode=0, stdout=json.dumps({"correct": True, "metrics": {}}) + "\n")

    monkeypatch.setattr(bench_ab.subprocess, "run", run)
    result = bench_ab.run_once(tmp_path, "crosscheck-sweep", 3, 5, trace=1)
    assert argvs[0][-2:] == ["--trace", "1"] and result["op_s"] == {"op": 0.25}
