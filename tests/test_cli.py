"""CLI surface: subcommands, report determinism, exit codes, error paths."""
from __future__ import annotations

import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dynwindow
from dynwindow import Status, Verdict, Window, cli, parse_sequence_file, write_sequence_file
from dynwindow.cli import main, parse_system_spec, SystemSpecError
from dynwindow.systems import CyclicSystem, OdometerSystem, ProductSystem, RotationSystem, SkewProductSystem, GOLDEN


@pytest.fixture
def squares_file(tmp_path):
    path = tmp_path / "squares.txt"
    write_sequence_file(path, Window(tuple(n * n for n in range(101)), 10_000), "squares")
    return str(path)


@pytest.fixture
def evens_file(tmp_path):
    path = tmp_path / "evens.txt"
    write_sequence_file(path, Window(tuple(range(0, 1001, 2)), 1000))
    return str(path)


# -- system spec parsing -----------------------------------------------------------


def test_parse_system_specs():
    assert parse_system_spec("cyclic:5") == CyclicSystem(5)
    assert parse_system_spec("odo:2^3") == OdometerSystem(2, 3)
    rot = parse_system_spec("rot:1/3")
    assert isinstance(rot, RotationSystem) and rot.angles == (Fraction(1, 3),)
    golden = parse_system_spec("rot:golden")
    assert golden.angles[0] == pytest.approx(GOLDEN)
    skew = parse_system_spec("skew:golden")
    assert isinstance(skew, SkewProductSystem)
    two_d = parse_system_spec("rot:0.25,0.5")
    assert two_d.dimension == 2
    prod = parse_system_spec("prod(cyclic:2,prod(cyclic:3,rot:golden))")
    assert isinstance(prod, ProductSystem) and isinstance(prod.right, ProductSystem)


def test_parse_system_spec_errors():
    for bad in ("cyclic", "cyclic:x", "odo:8", "rot:one", "prod(cyclic:2)", "blah:3",
                "prod(0.1,cyclic:3)", "prod(skew:0.1,0.2)"):
        with pytest.raises(SystemSpecError):
            parse_system_spec(bad)


# -- subcommands ---------------------------------------------------------------------


def test_classify_evens(evens_file, capsys, tmp_path):
    out = tmp_path / "report.json"
    code = main(["classify", evens_file, "--gap", "2", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "syndetic (gap 2): holds" in text
    report = json.loads(out.read_text())
    assert report["checks"]["syndetic"]["verdict"] == "holds"
    assert report["banach_density"]["exact"] == "1/2"
    assert report["params"]["command"] == "classify"
    assert report["sequence"]["count"] == 501


def test_classify_squares_not_syndetic(squares_file, capsys):
    # gaps between consecutive squares grow without bound
    assert main(["classify", squares_file, "--gap", "50"]) == 0
    assert "syndetic (gap 50): fails" in capsys.readouterr().out


def test_recurrence_finite_family_spec_is_operational_error(squares_file, capsys):
    # odo/cyclic single systems are not metric families for `recurrence`
    assert main(["recurrence", squares_file, "odo:2^3"]) == 1
    assert "metric" in capsys.readouterr().err


def test_recurrence_bad_cyclic_bound_is_operational_error(squares_file, capsys):
    assert main(["recurrence", squares_file, "cyclic:<=x"]) == 1
    assert capsys.readouterr().err == "error: bad cyclic bound in 'cyclic:<=x'\n"


def test_recurrence_squares_vs_small_cycles(squares_file, capsys):
    code = main(["recurrence", squares_file, "cyclic:<=3"])
    assert code == 0  # a computed Fails is not an operational error
    text = capsys.readouterr().out
    assert "fails" in text and "(3, 2)" in text


def test_recurrence_interval_vs_cycles(tmp_path, capsys):
    path = tmp_path / "interval.txt"
    write_sequence_file(path, Window(tuple(range(101)), 100))
    assert main(["recurrence", str(path), "cyclic:<=50"]) == 0
    assert "holds" in capsys.readouterr().out


def test_recurrence_to_a_large_period_on_a_short_file_stays_small(tmp_path, capsys):
    # Periods 1..5000 would take 12.5 million counters, one per class; 20
    # elements miss a class below 21, so a period counts at most 21.
    path = tmp_path / "short.txt"
    write_sequence_file(path, Window(tuple(range(3, 400, 20)), 400))
    tracemalloc.start()
    try:
        code = main(["recurrence", str(path), "cyclic:<=5000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and "witness=(2, 0)" in capsys.readouterr().out  # every element is odd
    assert peak < 64 * 2 ** 20


def test_recurrence_metric_family(squares_file, capsys):
    code = main(["recurrence", squares_file, "rot:golden", "--eps", "0.05", "--start-grid", "1.0"])
    assert code == 0
    assert "holds" in capsys.readouterr().out


def test_recurrence_with_shift_family(squares_file, capsys):
    code = main(["recurrence", squares_file, "cyclic:<=3", "--shifts=-2..2"])
    assert code == 0
    assert "fails" in capsys.readouterr().out


def test_permpoly_find_prime(capsys):
    code = main(["permpoly", "find-prime", "x^2", "--cap", "100", "--json"])
    assert code == 0
    out = capsys.readouterr().out
    doc = json.loads(out[out.index("{"):])
    assert doc["p"] == 3 and doc["missing"] == 2 and doc["image_size"] == 2


def test_permpoly_check(capsys):
    code = main(["permpoly", "check", "x^2+3x+1", "--p", "7", "--json"])
    assert code == 0
    out = capsys.readouterr().out
    doc = json.loads(out[out.index("{"):])
    assert doc["p"] == 7 and isinstance(doc["is_permutation"], bool)


def test_permpoly_cap_exceeded_is_operational_error(capsys):
    code = main(["permpoly", "find-prime", "9x^2", "--cap", "10"])
    assert code == 1
    assert "cap" in capsys.readouterr().err


def test_construct_writes_sequence_and_verifies(tmp_path, capsys):
    seq = tmp_path / "seq.txt"
    report = tmp_path / "report.json"
    code = main(
        ["construct", "example", "--blocks", "8", "--out", str(seq), "--report", str(report)]
    )
    assert code == 0
    w = parse_sequence_file(seq)
    assert len(w) == sum(range(2, 10))
    doc = json.loads(report.read_text())
    assert doc["spacing_law"] is True
    assert doc["not_piecewise_syndetic"]["verdict"] == "holds"
    assert len(doc["blocks"]) == 8


def test_construct_with_custom_schedule(tmp_path, capsys):
    sched = tmp_path / "sched.json"
    sched.write_text(json.dumps({"t": [1, 2, 1], "k": [2, 3, 4], "base": 23}))
    code = main(["construct", "example", "--schedule", str(sched), "--json", "--max-period", "2"])
    assert code == 0
    out = capsys.readouterr().out
    doc = json.loads(out[out.index("{"):])
    assert len(doc["blocks"]) == 3


def test_product_subcommand(capsys):
    assert main(["product", "cyclic:2", "cyclic:3"]) == 0
    assert "transitive=True" in capsys.readouterr().out
    assert main(["product", "cyclic:2", "cyclic:2"]) == 0
    assert "transitive=False" in capsys.readouterr().out


def test_product_rejects_non_cyclic(capsys):
    assert main(["product", "rot:golden", "cyclic:2"]) == 1


def test_product_refuses_a_large_orbit(capsys):
    assert main(["product", "cyclic:100003", "cyclic:100019"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "lcm(m, n) = 10002200057 states, past the 4194304 cap" in err


def test_crosscheck_sweep(capsys):
    code = main(["crosscheck", "--count", "5", "--horizon", "500", "--seed", "7"])
    assert code == 0
    assert "holds" in capsys.readouterr().out


def test_crosscheck_single_file(squares_file, capsys):
    code = main(["crosscheck", squares_file, "--max-period", "3", "--shifts=-2..2"])
    assert code == 0
    assert "holds" in capsys.readouterr().out  # the three predicates agree (all fail)


@pytest.mark.parametrize("flag", ["--eps=0", "--eps=-1", "--eps=nan", "--start-grid=0", "--start-grid=-1"])
def test_recurrence_nonpositive_eps_or_grid_is_operational_error(squares_file, capsys, flag):
    assert main(["recurrence", squares_file, "rot:golden", flag]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""


@pytest.mark.parametrize("family", ["rot:golden", "rot:golden,0.3", "skew:golden"])
def test_recurrence_grid_of_more_than_2_to_the_22_starts_is_operational_error(tmp_path, capsys, family):
    # An empty window: no start is dense, and the grid is refused before it is listed.
    path = tmp_path / "e5.txt"
    write_sequence_file(path, Window((), 5))
    assert main(["recurrence", str(path), family, "--start-grid", "1e-300"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: start grid resolution 1e-300 gives more than 2^22 starts\n"


@pytest.mark.parametrize("family", ["rot:nan", "rot:inf", "rot:-inf", "rot:1e400", "rot:0.3,nan", "skew:nan", "skew:1e400"])
def test_non_finite_angle_is_operational_error(squares_file, capsys, family):
    assert main(["recurrence", squares_file, family]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: angle must be finite") and captured.out == ""


def test_crosscheck_max_period_below_one_is_operational_error(squares_file, capsys):
    assert main(["crosscheck", squares_file, "--max-period", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: max_period must be >= 1\n" and captured.out == ""


def test_classify_horizon_zero_file(tmp_path, capsys):
    # The density interval is clamped to length 1 = horizon + 1: the whole window.
    path, out = tmp_path / "zero.txt", tmp_path / "report.json"
    path.write_text("!horizon 0\n0\n")
    assert main(["classify", str(path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["banach_density"]["exact"] == "1/1"
    assert report["sequence"]["horizon"] == 0 and report["sequence"]["count"] == 1


@pytest.mark.parametrize("length, used", [(1000, 100), (7, 7)])
def test_classify_prints_the_density_length_it_used(tmp_path, capsys, length, used):
    # A request longer than the horizon is clamped; the summary names the clamped length.
    path, out = tmp_path / "interval.txt", tmp_path / "report.json"
    write_sequence_file(path, Window(tuple(range(101)), 100))
    assert main(["classify", str(path), "--density-length", str(length), "--out", str(out)]) == 0
    assert f"banach density (length {used}): 1 = 1\n" in capsys.readouterr().out
    assert json.loads(out.read_text())["params"]["density_length"] == length


@pytest.mark.parametrize("length", ["0", "-5"])
def test_classify_density_length_below_one_is_operational_error(evens_file, capsys, length):
    assert main(["classify", evens_file, "--density-length", length]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: --density-length must be >= 1, got {length}\n" and captured.out == ""


@pytest.mark.parametrize("count", ["0", "-3"])
def test_crosscheck_empty_sweep_is_operational_error(capsys, count):
    assert main(["crosscheck", "--count", count, "--horizon", "500"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: count must be >= 1\n" and captured.out == ""


def test_crosscheck_sweep_horizon_past_the_cap_draws_nothing(monkeypatch, capsys):
    def draw(*args, **kwargs):
        raise AssertionError("random_windows called")

    monkeypatch.setattr(cli, "random_windows", draw)
    assert main(["crosscheck", "--count", "2", "--horizon", "1000001"]) == 1
    assert capsys.readouterr().err == "error: sweep horizon 1000001 exceeds the cross-check's 1000000 cap\n"


@pytest.mark.parametrize("horizon", ["0", "30", "49", "-5"])
def test_crosscheck_sweep_horizon_below_the_floor_is_operational_error(capsys, horizon):
    # An explicit --horizon 0 is a horizon, not "unset": it is below the support floor.
    assert main(["crosscheck", "--count", "1", "--horizon", horizon]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: horizon {horizon} is below the sweep's support floor min_element = 50\n"
    assert captured.out == ""


def test_crosscheck_sweep_draws_on_the_given_horizon(tmp_path):
    out = tmp_path / "report.json"
    assert main(["crosscheck", "--count", "1", "--horizon", "50", "--max-period", "3", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["params"]["horizon"] == 50 and report["per_system"][0]["sequence"]["horizon"] == 50


@pytest.mark.parametrize("command", [
    ["classify", "FILE"], ["recurrence", "FILE", "cyclic:<=3"], ["permpoly", "check", "x", "--p", "3"],
    ["construct", "example"], ["product", "cyclic:2", "cyclic:3"],
])
def test_only_crosscheck_takes_seed(squares_file, capsys, command):
    argv = [squares_file if a == "FILE" else a for a in command]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "9"])
    assert exc.value.code == 2 and "unrecognized arguments: --seed 9" in capsys.readouterr().err


def test_parser_is_built_once_per_process():
    assert cli.build_parser() is cli.build_parser()


def test_a_usage_error_leaves_the_shared_parser_as_a_fresh_process_has_it(squares_file, capsys, monkeypatch):
    # The failed call sets --shifts before it dies on --eps; the next call must not see it.
    bad = ["recurrence", squares_file, "cyclic:<=3", "--shifts=-2..2", "--eps", "x"]
    good = ["recurrence", squares_file, "cyclic:<=3", "--json"]
    monkeypatch.setenv("COLUMNS", "80")
    env = {**os.environ, "PYTHONPATH": str(Path(dynwindow.__file__).resolve().parent.parent)}
    fresh = [subprocess.run([sys.executable, "-m", "dynwindow", *argv], capture_output=True, env=env, check=False)
             for argv in (bad, good)]
    with pytest.raises(SystemExit) as exc:
        main(bad)
    err = capsys.readouterr().err
    assert (exc.value.code, err.encode()) == (fresh[0].returncode, fresh[0].stderr) and exc.value.code == 2
    code = main(good)
    out, err = capsys.readouterr()
    assert (code, out.encode(), err.encode()) == (fresh[1].returncode, fresh[1].stdout, fresh[1].stderr)
    assert '"shifts": null' in out


# -- the report writer ----------------------------------------------------------------

_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(2 ** 63 - 2, 2 ** 70)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([-0.0, 0.0, float("nan"), float("inf"), float("-inf")])
    | st.text()
    | st.sampled_from(["", "é∩…", '"\\/\b\f\n\r\t\x00\x1f', "\ud800", "😀"])
)
_REPORTS = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(st.integers(), max_size=30)
    | st.dictionaries(st.text(max_size=8), inner, max_size=5),
    max_leaves=40,
)


@given(_REPORTS)
@example({"image": [0, 1, 2 ** 64], "empty": [], "none": {}, "flags": [True, 1, False], "x": [-0.0]})
@example([[], {}, [[]], {"": {}}])
@settings(max_examples=120, deadline=None)
def test_report_writer_matches_json_dumps(value):
    assert cli._render(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("ints", [
    [0],
    [-7],
    [2 ** 63 + 5],
    [-(2 ** 70), -1, 0, 1, 2 ** 63 - 1, 2 ** 63, 2 ** 64 + 3],
    list(range(-5, 19_869)),
    (3, -4, 0),
])
def test_report_writer_formats_int_lists_like_json_dumps(ints):
    # Alone, nested and beside other values.
    for value in (ints, [ints, [ints]], {"image": ints, "rest": [ints, "x", None]}):
        assert cli._render(value) == json.dumps(value, sort_keys=True, indent=2)


_DECIMAL_EDGES = [0, 2 ** 63 - 1, *(10 ** k for k in range(19)), *(10 ** k - 1 for k in range(1, 19))]
_NATURALS = st.sampled_from(_DECIMAL_EDGES) | st.integers(0, 2 ** 63 - 1) | st.integers(0, 10 ** 5)
_ASCENDING = st.lists(_NATURALS, min_size=1, max_size=60).map(lambda xs: np.array(sorted(xs), dtype=np.int64))
_FALLBACK = [
    np.array([-1, 0, 5]),
    np.array([9, 10, 3]),
    np.array([4, 4, 3]),
    np.array([1, 10, 100], dtype=np.int32),
    np.array([1, 10, 2 ** 64 - 1], dtype=np.uint64),
    np.array([False, True]),
    np.array([0.5, 10.0]),
    np.arange(6).reshape(2, 3),
    np.zeros(0, dtype=np.int64),
]
_ARRAY_REPORTS = st.recursive(
    _SCALARS | _ASCENDING | st.sampled_from(_FALLBACK),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


def _as_lists(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _as_lists(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_as_lists(v) for v in value]
    return value


@given(_ARRAY_REPORTS)
@example({"image": np.array(_DECIMAL_EDGES[:1] + sorted(_DECIMAL_EDGES[2:]) + _DECIMAL_EDGES[1:2]), "p": 7})
@example([np.array([7]), [np.array([0, 0, 9, 10])], {"x": np.array([10 ** 18 - 1, 10 ** 18])}])
@settings(max_examples=150, deadline=None)
def test_report_writer_renders_int64_arrays_as_their_lists(value):
    assert cli._render(value) == json.dumps(_as_lists(value), sort_keys=True, indent=2)


@pytest.mark.parametrize("array", _FALLBACK, ids=[
    "negative", "descending", "repeated-then-descending", "int32", "uint64", "bool", "float", "2-D", "empty"])
def test_report_writer_renders_any_other_array_as_its_tolist(monkeypatch, array):
    monkeypatch.setattr(cli, "_decimal_lines", lambda values, sep: pytest.fail("took the int64 kernel"))
    for value in (array, {"image": [array]}):
        assert cli._render(value) == json.dumps(_as_lists(value), sort_keys=True, indent=2)


@pytest.mark.parametrize("k", range(1, 19))
def test_decimal_lines_cut_each_run_at_its_power_of_ten(k):
    # 10^k - 1 closes the run of k digits and 10^k opens the run of k + 1.
    values = np.array([0, 10 ** k - 2, 10 ** k - 1, 10 ** k, 10 ** k + 1, 2 ** 63 - 1])
    assert cli._decimal_lines(values, ",\n  ") == ",\n  ".join(map(str, values.tolist()))


def test_the_digit_table_is_built_on_first_use():
    env = {**os.environ, "PYTHONPATH": str(Path(dynwindow.__file__).resolve().parent.parent)}
    probe = (
        "import numpy as np, dynwindow.cli as cli; built = cli._digit_words.cache_info().currsize; "
        "cli._render(np.arange(3)); print(built, cli._digit_words.cache_info().currsize)"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.split() == ["0", "1"]


def _ref_jsonify(value):
    # The conversion the writer once ran over the whole report before rendering it.
    if value is None or isinstance(value, (str, int, float)):
        return value
    if isinstance(value, Verdict):
        return value.to_json()
    if isinstance(value, Fraction):
        return {"exact": f"{value.numerator}/{value.denominator}", "float": float(value)}
    if isinstance(value, dict):
        return {str(k): _ref_jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_ref_jsonify(v) for v in value]
    return str(value)


_WITNESSES = st.none() | st.integers() | st.tuples(st.integers(), st.floats(0, 1)) | st.tuples(
    st.tuples(st.floats(0, 1), st.floats(0, 1)), st.integers(0, 2 ** 70)
)
_VERDICTS = st.builds(
    Verdict, st.sampled_from(list(Status)), _WITNESSES, st.text(max_size=12)
)
_FRACTIONS = st.fractions(-(10 ** 6), 10 ** 6, max_denominator=2 ** 70)
_RICH_REPORTS = st.recursive(
    _SCALARS | _VERDICTS | _FRACTIONS,
    lambda inner: st.lists(inner, max_size=5)
    | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=8), inner, max_size=5),
    max_leaves=40,
)


@given(_RICH_REPORTS)
@example({"checks": {"thick": Verdict.fail(30, "longest run")}, "banach_density": Fraction(1, 3)})
@example([Verdict.hold(((0.25, 0.5), 7)), (Fraction(-2, 7), Verdict.undecided("budget"))])
@settings(max_examples=120, deadline=None)
def test_report_writer_renders_verdicts_and_fractions_like_the_reference(value):
    assert cli._render(value) == json.dumps(_ref_jsonify(value), sort_keys=True, indent=2)


# -- determinism and errors ------------------------------------------------------------


def test_reports_byte_identical(squares_file, tmp_path, capsys):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    main(["crosscheck", squares_file, "--max-period", "5", "--out", str(out1), "--seed", "9"])
    main(["crosscheck", squares_file, "--max-period", "5", "--out", str(out2), "--seed", "9"])
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    # params (with the seed) are embedded
    doc = json.loads(b1)
    assert doc["params"]["seed"] == 9 and doc["params"]["max_period"] == 5


def test_parse_error_exit_code_and_line(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("!horizon 10\n3\n2\n")
    assert main(["classify", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "line 3" in err and "3 then 2" in err


def test_superscript_digit_is_a_parse_error_with_line(tmp_path, capsys):
    bad = tmp_path / "sup.txt"
    bad.write_text("!horizon 10\n3\n\u00b2\n", encoding="utf-8")
    assert main(["classify", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "line 3" in err and "not a decimal natural" in err


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("# no directive\n1\n2\n", 2, "missing '!horizon N' directive before data"),
        ("!horizon 10\n1\n5\n3\n9\n", 4, "not strictly ascending: 5 then 3"),
        ("!horizon 10\n1\n5\n11\n", 4, "element 11 exceeds horizon 10"),
        ("!horizon 10\n1\n²\n", 3, "not a decimal natural: '²'"),
        ("!horizon 10\n1\n2 3\n", 3, "not a decimal natural: '2 3'"),
    ],
    ids=["missing-directive", "descent", "over-horizon", "superscript", "space-inside"],
)
def test_malformed_file_exits_1_naming_the_line(tmp_path, capsys, text, line, message):
    bad = tmp_path / "bad.txt"
    bad.write_text(text, encoding="utf-8")
    assert main(["classify", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: line {line}: {message}\n" and captured.out == ""


def test_missing_directive_is_operational_error(tmp_path, capsys):
    bad = tmp_path / "nodirective.txt"
    bad.write_text("1\n2\n")
    assert main(["classify", str(bad)]) == 1
    assert "horizon" in capsys.readouterr().err


@pytest.mark.parametrize("command, message", [
    (["recurrence", "FILE", "rot:1/0"], "bad rational angle '1/0'"),
    (["recurrence", "FILE", "odo:2^x"], "bad odometer spec '2^x'"),
    (["permpoly", "check", "x^2"], "permpoly check needs --p"),
    (["permpoly", "check", "x", "--p", "4"], "4 is not prime"),
    (["permpoly", "check", "x", "--p", "1"], "1 is not prime"),
])
def test_bad_spec_exits_1_with_its_message(squares_file, capsys, command, message):
    assert main([squares_file if a == "FILE" else a for a in command]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


@pytest.mark.parametrize("command", [["recurrence", "FILE", "cyclic:<=3"], ["crosscheck", "FILE"]])
@pytest.mark.parametrize("shifts, message", [
    ("5..1", "empty shift range '5..1'"),
    ("abc", "shift range must look like 'a..b', got 'abc'"),
    ("1..x", "bad shift range '1..x'"),
])
def test_bad_shift_range_is_a_usage_error_with_its_message(squares_file, capsys, command, shifts, message):
    with pytest.raises(SystemExit) as exc:
        main([squares_file if a == "FILE" else a for a in command] + [f"--shifts={shifts}"])
    assert exc.value.code == 2 and capsys.readouterr().err.endswith(f"error: argument --shifts: {message}\n")


def test_unknown_family_is_operational_error(squares_file, capsys):
    assert main(["recurrence", squares_file, "nonsense:3"]) == 1


def test_missing_file_is_operational_error(capsys):
    assert main(["classify", "/nonexistent/file.txt"]) == 1


def test_directory_as_input_is_operational_error(tmp_path, capsys):
    assert main(["classify", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: [Errno 21] Is a directory") and captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["product", "cyclic:2", "cyclic:3", "--out", "{dir}"],
        ["construct", "example", "--blocks", "2", "--out", "{dir}"],
        ["construct", "example", "--blocks", "2", "--report", "{dir}"],
        ["construct", "example", "--blocks", "2", "--schedule", "{dir}"],
    ],
    ids=["product-out", "construct-out", "construct-report", "construct-schedule"],
)
def test_directory_as_output_or_schedule_is_operational_error(tmp_path, capsys, argv):
    assert main([a.format(dir=tmp_path) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: [Errno 21] Is a directory") and captured.out == ""


@pytest.mark.parametrize("command", [["classify", "{path}"], ["product", "cyclic:2", "cyclic:3", "--out", "{path}"]])
def test_path_under_a_regular_file_is_operational_error(tmp_path, capsys, command):
    regular = tmp_path / "plain.txt"
    regular.write_text("!horizon 1\n1\n", encoding="utf-8")
    assert main([a.format(path=regular / "below.txt") for a in command]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: [Errno 20] Not a directory") and captured.out == ""


def test_construct_whose_report_fails_writes_no_sequence_file(tmp_path, capsys):
    # The sequence file is written after the report, so a report that cannot be
    # written leaves no sequence file behind.
    seq = tmp_path / "seq.txt"
    assert main(["construct", "example", "--blocks", "2", "--out", str(seq), "--report", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: [Errno 21] Is a directory") and captured.out == ""
    assert not seq.exists()


def test_classify_into_a_missing_directory_prints_nothing(squares_file, tmp_path, capsys):
    # The report is written before the summary is printed, so a failed write leaves stdout empty.
    assert main(["classify", squares_file, "--out", str(tmp_path / "missing" / "x.json")]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: [Errno 2] No such file or directory") and captured.out == ""


@pytest.mark.parametrize("before", [b"x" * 5000, b"{}"], ids=["longer", "shorter"])
def test_a_report_written_over_a_file_holds_exactly_the_new_report(squares_file, tmp_path, capsys, before):
    out = tmp_path / "report.json"
    out.write_bytes(before)
    assert main(["classify", squares_file, "--out", str(out), "--json"]) == 0
    printed = capsys.readouterr().out
    assert out.read_bytes() == printed[printed.index("{"):].encode()


def test_a_report_to_the_null_device_exits_0(squares_file, capsys):
    assert main(["classify", squares_file, "--out", os.devnull]) == 0
    assert capsys.readouterr().out.startswith("sequence ")


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
@pytest.mark.parametrize("mode", ["ab", "wb"], ids=["appended", "written"])
def test_out_naming_the_file_stdout_writes_keeps_what_it_held(tmp_path, mode):
    # `echo earlier >> f; dynwindow ... >> f` and `(echo earlier; dynwindow ...) > f`: the file
    # holds its earlier bytes, then the report, then the summary.
    argv = [sys.executable, "-m", "dynwindow", "product", "cyclic:2", "cyclic:3"]
    env = {**os.environ, "PYTHONPATH": str(Path(dynwindow.__file__).resolve().parent.parent)}
    printed = subprocess.run(argv + ["--json"], capture_output=True, env=env, check=True).stdout
    summary, report = printed.split(b"\n", 1)
    f = tmp_path / "f"
    f.write_bytes(b"x" * 4000)  # what "> f" truncates
    with open(f, mode) as fh:
        fh.write(b"earlier\n")
        fh.flush()
        subprocess.run(argv + ["--out", "/dev/stdout"], stdout=fh, env=env, check=True)
    kept = b"x" * 4000 if mode == "ab" else b""
    assert f.read_bytes() == kept + b"earlier\n" + report + summary + b"\n"


def test_a_new_report_gets_the_mode_open_gives_it(tmp_path, capsys):
    assert main(["product", "cyclic:2", "cyclic:3", "--out", str(tmp_path / "new.json")]) == 0
    with open(tmp_path / "by-open.json", "w", encoding="utf-8"):
        pass
    assert (tmp_path / "new.json").stat().st_mode == (tmp_path / "by-open.json").stat().st_mode


def test_reports_and_sequence_files_are_opened_without_o_trunc(tmp_path, monkeypatch, capsys):
    # Truncating a file that holds data makes the writer wait for the disk once per
    # call; a write that goes back to open(path, "w") would not call os.open at all.
    flags, os_open = [], os.open

    def recording(path, flag, *args, **kwargs):
        flags.append(flag)
        return os_open(path, flag, *args, **kwargs)

    monkeypatch.setattr(os, "open", recording)
    seq, report = tmp_path / "seq.txt", tmp_path / "report.json"
    for _ in range(2):  # the second pass writes over the first pass's files
        assert main(["construct", "example", "--blocks", "2", "--out", str(seq), "--report", str(report)]) == 0
        assert main(["product", "cyclic:2", "cyclic:3", "--out", str(report)]) == 0
    assert len(flags) == 6 and not any(f & os.O_TRUNC for f in flags)
    assert json.loads(report.read_text(encoding="utf-8"))["params"]["command"] == "product"


def test_horizon_override(tmp_path, capsys):
    path = tmp_path / "seq.txt"
    write_sequence_file(path, Window((0, 2, 40), 50))
    code = main(["classify", str(path), "--horizon", "10", "--json"])
    assert code == 0
    out = capsys.readouterr().out
    doc = json.loads(out[out.index("{"):])
    assert doc["sequence"]["horizon"] == 10 and doc["sequence"]["count"] == 2


def test_permpoly_check_runs_each_decider_once(monkeypatch, capsys):
    import dynwindow.permpoly as permpoly

    calls = {"hermite": 0, "brute": 0}
    hermite, brute = permpoly.hermite_check, permpoly.brute_permutation_check

    def counted_hermite(f):
        calls["hermite"] += 1
        return hermite(f)

    def counted_brute(f):
        calls["brute"] += 1
        return brute(f)

    monkeypatch.setattr(permpoly, "hermite_check", counted_hermite)
    monkeypatch.setattr(permpoly, "brute_permutation_check", counted_brute)
    assert main(["permpoly", "check", "x^3", "--p", "11", "--json"]) == 0
    assert calls == {"hermite": 1, "brute": 1}
    out = capsys.readouterr().out
    doc = json.loads(out[out.index("{"):])
    assert doc["is_permutation"] is True and doc["image_size"] == 11



def _fail_if_reached(monkeypatch, module, *names):
    def reached(*args, **kwargs):
        raise AssertionError("the kernel was reached")

    for name in names:
        monkeypatch.setattr(module, name, reached)


@pytest.mark.parametrize("p", [20_011, 10 ** 18 + 9])
def test_permpoly_check_refuses_a_large_p_before_testing_it(monkeypatch, capsys, p):
    # Past the cap neither is_prime (10^9 trial divisions at 19 digits) nor the Hermite loop runs.
    import dynwindow.permpoly as permpoly

    _fail_if_reached(monkeypatch, permpoly, "is_prime", "hermite_check")
    assert main(["permpoly", "check", "x^3+1", "--p", str(p), "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: --p {p} is past the permpoly check cap of 20000\n" and captured.out == ""


def test_permpoly_check_runs_at_its_cap(monkeypatch, capsys):
    # 409, the largest p a test, README example or golden line checks, is the cap here.
    monkeypatch.setattr(cli, "_CHECK_PRIME_CAP", 409)
    assert main(["permpoly", "check", "x^3+1", "--p", "409"]) == 0
    assert main(["permpoly", "check", "x^3+1", "--p", "419"]) == 1
    assert capsys.readouterr().err == "error: --p 419 is past the permpoly check cap of 409\n"


def test_crosscheck_refuses_a_large_table_before_building_a_window(squares_file, monkeypatch, capsys):
    # ext = 800,000 + 6 + 100,000 is inside the horizon cap, but its table would take about 34 GB.
    import dynwindow.recurrence as recurrence

    _fail_if_reached(monkeypatch, recurrence, "return_times", "difference_set")
    assert main(["crosscheck", squares_file, "--max-period", "100000", "--horizon", "800000"]) == 1
    captured = capsys.readouterr()
    assert captured.err.endswith("words, past the 16777216 cap\n") and captured.out == ""


@pytest.mark.parametrize("argv, message", [
    (["--horizon", "800000", "--max-period", "100000"], "= 900009 x 4688 = 4219242192 words, past the 16777216 cap"),
    (["--horizon", "999990", "--shifts=-6..6"], "= 999990 + 6 + 12 = 1000008, past the 1000000 cap"),
])
def test_crosscheck_sweep_past_a_comparison_cap_draws_nothing(monkeypatch, capsys, argv, message):
    # Every window of a sweep shares its horizon, so the reach and the table are refused before the draw.
    _fail_if_reached(monkeypatch, cli, "random_windows")
    assert main(["crosscheck", "--count", "1000", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.err.endswith(f"{message}\n") and captured.out == ""


def _cyclic_bound_argv(path, schedule, kind, bound):
    # One argv per path that reads a cyclic bound M: r_sequence_cyclic, the
    # cyclic shift family, and verify_shifted_recurrence with the default
    # t-schedule and with a custom one, whose scan over 1..M runs first.
    return {
        "recurrence": ["recurrence", path, f"cyclic:<={bound}"],
        "shifted": ["recurrence", path, f"cyclic:<={bound}", "--shifts=-1..1"],
        "construct": ["construct", "example", "--blocks", "3", "--max-period", str(bound)],
        "schedule": ["construct", "example", "--schedule", schedule, "--max-period", str(bound)],
    }[kind]


@pytest.fixture
def schedule_file(tmp_path):
    path = tmp_path / "sched.json"
    path.write_text(json.dumps({"t": [1, 2, 1], "k": [2, 3, 4], "base": 23}))
    return str(path)


_CYCLIC_BOUND_PATHS = ["recurrence", "shifted", "construct", "schedule"]


@pytest.mark.parametrize("bound", [100_001, 10 ** 7, 10 ** 18])
@pytest.mark.parametrize("kind", _CYCLIC_BOUND_PATHS)
def test_a_cyclic_bound_past_its_cap_is_refused_before_any_period(squares_file, schedule_file, monkeypatch, capsys, kind, bound):
    # Past the cap no period is read: neither the coverage kernel nor a
    # custom schedule's scan over 1..M (it reads the schedule's t first) is reached.
    import dynwindow.constructions as constructions
    import dynwindow.recurrence as recurrence

    _fail_if_reached(monkeypatch, recurrence, "_missing_residues")
    monkeypatch.setattr(constructions.IPBlockSchedule, "uses_default_t", property(lambda self: pytest.fail("t read")))
    assert main(_cyclic_bound_argv(squares_file, schedule_file, kind, bound)) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: max_period {bound} is past the cyclic family's 100000 cap\n" and captured.out == ""


@pytest.mark.parametrize("kind", _CYCLIC_BOUND_PATHS)
def test_a_cyclic_bound_at_its_cap_runs(squares_file, schedule_file, monkeypatch, capsys, kind):
    # The cap patched to 50: M = 50 runs to a verdict, and 51 is refused.
    import dynwindow.recurrence as recurrence

    monkeypatch.setattr(recurrence, "_CYCLIC_PERIOD_CAP", 50)
    assert main(_cyclic_bound_argv(squares_file, schedule_file, kind, 50)) == 0
    assert main(_cyclic_bound_argv(squares_file, schedule_file, kind, 51)) == 1
    assert capsys.readouterr().err == "error: max_period 51 is past the cyclic family's 50 cap\n"


@pytest.mark.parametrize("spec", ["cyclic:5", "prod(cyclic:2,cyclic:3)", "prod(rot:golden,rot:golden)"])
def test_recurrence_non_metric_spec_is_operational_error(squares_file, capsys, spec):
    assert main(["recurrence", squares_file, spec]) == 1
    assert "metric" in capsys.readouterr().err


def test_malformed_schedule_is_operational_error(tmp_path, capsys):
    sched = tmp_path / "sched.json"
    docs = (
        {"t": 5, "k": [2]},
        {"t": [None], "k": [2]},
        [1, 2],
        7,
        {"t": [1.7, 2], "k": [2, "3"], "base": 2.9},
        {"t": [True], "k": [2], "initial_gap": "5"},
    )
    for doc in docs:
        sched.write_text(json.dumps(doc))
        assert main(["construct", "example", "--schedule", str(sched)]) == 1
        assert "schedule JSON" in capsys.readouterr().err


def test_internal_type_error_is_not_bad_input(evens_file, monkeypatch):
    # A TypeError inside a subcommand is a bug: it must keep its traceback.
    import dynwindow.cli as cli

    def broken(*args, **kwargs):
        raise TypeError("internal bug")

    monkeypatch.setattr(cli, "is_syndetic", broken)
    with pytest.raises(TypeError, match="internal bug"):
        main(["classify", evens_file])
