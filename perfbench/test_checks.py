"""Each checker accepts a right hand-made report and rejects wrong ones.

Run with:  python3 -m pytest -q perfbench/test_checks.py
"""
from __future__ import annotations

import copy
from fractions import Fraction
from types import SimpleNamespace

import pytest

import checks


def verdict(status, witness=None, note=""):
    return SimpleNamespace(status=SimpleNamespace(value=status), witness=witness, note=note)


def changed(report, path, value):
    out = copy.deepcopy(report)
    target = out
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return out


# -- residue coverage ----------------------------------------------------------

CYCLIC = {
    "verdict": "fails",
    "witness": [3, 1],
    "note": "residue 1 mod 3 never hit",
    "per_system": [
        {"system": "cyclic:1", "covered": True, "missing": None},
        {"system": "cyclic:2", "covered": True, "missing": None},
        {"system": "cyclic:3", "covered": False, "missing": 1},
    ],
}


def test_cyclic_accepts_right_report():
    assert checks.check_cyclic([0, 3, 6], 6, 3, CYCLIC) is None


@pytest.mark.parametrize("path,value", [
    (("witness",), [3, 2]),
    (("verdict",), "holds"),
    (("per_system", 2, "missing"), 2),
])
def test_cyclic_rejects_wrong_report(path, value):
    assert checks.check_cyclic([0, 3, 6], 6, 3, changed(CYCLIC, path, value)) is not None


SHIFTED = {"verdict": "fails", "witness": -1, "note": "shift -1 fails: residue 0 mod 3 never hit", "per_system": []}


def test_shifted_cyclic_accepts_right_report():
    assert checks.check_cyclic([0, 3, 6], 6, 3, SHIFTED, shifts=range(-1, 2)) is None
    holds = {"verdict": "holds", "witness": None, "note": "all 3 shifts pass", "per_system": []}
    assert checks.check_cyclic([0, 3, 6], 6, 2, holds, shifts=range(-1, 2)) is None


@pytest.mark.parametrize("path,value", [
    (("witness",), 0),
    (("verdict",), "holds"),
    (("note",), "shift -1 fails: residue 2 mod 3 never hit"),
])
def test_shifted_cyclic_rejects_wrong_report(path, value):
    assert checks.check_cyclic([0, 3, 6], 6, 3, changed(SHIFTED, path, value), shifts=range(-1, 2)) is not None


# -- classify ------------------------------------------------------------------

CLASSIFY_ELEMENTS = [0, 1, 2, 3, 4, 20, 21, 22, 23]
CLASSIFY = {
    "checks": {
        "syndetic": {"verdict": "fails", "witness": 5, "note": ""},
        "thick": {
            "verdict": "fails",
            "witness": 30,
            "note": "longest run has length 5 (starts at 0); searched up to horizon 30",
        },
        "piecewise_syndetic": {"verdict": "holds", "witness": 16, "note": ""},
    },
    "banach_density": {"exact": "1/2", "float": 0.5},
}


def test_classify_accepts_right_report():
    assert checks.check_classify(CLASSIFY_ELEMENTS, 30, 5, 6, 10, 10, CLASSIFY) is None


@pytest.mark.parametrize("path,value", [
    (("checks", "syndetic", "witness"), 6),
    (("checks", "thick", "verdict"), "holds"),
    (("checks", "thick", "note"), "longest run has length 4 (starts at 20); searched up to horizon 30"),
    (("checks", "piecewise_syndetic", "witness"), 17),
    (("checks", "piecewise_syndetic", "verdict"), "fails"),
    (("banach_density", "exact"), "2/5"),
])
def test_classify_rejects_wrong_report(path, value):
    assert checks.check_classify(CLASSIFY_ELEMENTS, 30, 5, 6, 10, 10, changed(CLASSIFY, path, value)) is not None


def test_thick_holds_witness_is_the_first_long_run():
    report = changed(CLASSIFY, ("checks", "thick"), {"verdict": "holds", "witness": 0, "note": ""})
    assert checks.check_classify(CLASSIFY_ELEMENTS, 30, 5, 4, 10, 10, report) is None
    report = changed(report, ("checks", "thick", "witness"), 20)
    assert checks.check_classify(CLASSIFY_ELEMENTS, 30, 5, 4, 10, 10, report) is not None


# -- cross-check ---------------------------------------------------------------

CROSSCHECK = {"verdict": "holds", "per_system": [{"sequence": {"source": "f.txt"}, "verdict": "holds"}]}


def test_crosscheck_accepts_holds_and_rejects_disagreement():
    assert checks.check_crosscheck(CROSSCHECK) is None
    assert checks.check_crosscheck(changed(CROSSCHECK, ("per_system", 0, "verdict"), "fails")) is not None
    assert checks.check_crosscheck(verdict("holds")) is None
    assert checks.check_crosscheck(verdict("fails", (3, True, False, True))) is not None


# -- construction --------------------------------------------------------------

# Block 1: offset 1, two copies of 4; block 2: offset 100, three copies of 3.
CONSTRUCT_ELEMENTS = [5, 9, 103, 106, 109]
CONSTRUCT = {
    "sequence": {"horizon": 109},
    "spacing_law": True,
    "blocks": [
        {"index": 1, "t": 1, "offset": 1, "size": 4, "lo": 5, "hi": 9},
        {"index": 2, "t": 2, "offset": 100, "size": 6, "lo": 103, "hi": 109},
    ],
    "not_piecewise_syndetic": {"verdict": "holds"},
    "shifted_recurrence": {"verdict": "holds"},
}


def test_construct_accepts_right_report():
    assert checks.check_construct(CONSTRUCT_ELEMENTS, 10, 100, 2, range(0, 1), CONSTRUCT) is None


@pytest.mark.parametrize("path,value", [
    (("blocks", 1, "offset"), 101),
    (("blocks", 0, "hi"), 103),
    (("blocks", 1, "t"), 1),
    (("shifted_recurrence", "verdict"), "fails"),
    (("not_piecewise_syndetic", "verdict"), "fails"),
])
def test_construct_rejects_wrong_report(path, value):
    assert checks.check_construct(CONSTRUCT_ELEMENTS, 10, 100, 2, range(0, 1), changed(CONSTRUCT, path, value)) is not None


def test_construct_rejects_uncovered_residue():
    # Residues mod 4 are 1, 1, 3, 2, 1: class 0 is missing, yet the report says holds.
    assert checks.check_construct(CONSTRUCT_ELEMENTS, 10, 100, 4, range(0, 1), CONSTRUCT) is not None


# -- permutation polynomials -----------------------------------------------------


def test_permpoly_accepts_right_report():
    cube = {"is_permutation": True, "image_size": 5, "image": [0, 1, 2, 3, 4]}
    assert checks.check_permpoly((0, 0, 0, 1), 5, cube, must_permute=True) is None
    square = {"is_permutation": False, "image_size": 3, "image": [0, 1, 4]}
    assert checks.check_permpoly((0, 0, 1), 5, square, must_permute=False) is None


def test_permpoly_rejects_wrong_report():
    square = {"is_permutation": False, "image_size": 3, "image": [0, 1, 4]}
    assert checks.check_permpoly((0, 0, 1), 5, changed(square, ("image_size",), 4), False) is not None
    assert checks.check_permpoly((0, 0, 1), 5, changed(square, ("image",), [0, 1, 3]), False) is not None
    assert checks.check_permpoly((0, 0, 1), 5, changed(square, ("is_permutation",), True), False) is not None
    cube = {"is_permutation": False, "image_size": 5, "image": [0, 1, 2, 3, 4]}
    assert checks.check_permpoly((0, 0, 0, 1), 5, cube, must_permute=True) is not None


FIND_PRIME = {"p": 3, "missing": 2, "image_size": 2, "image": [0, 1]}


def test_find_prime_accepts_right_report():
    assert checks.check_find_prime((0, 0, 1), FIND_PRIME) is None


@pytest.mark.parametrize("path,value", [
    (("missing",), 1),
    (("image_size",), 3),
    (("p",), 5),  # 3 already qualifies
    (("p",), 4),
])
def test_find_prime_rejects_wrong_report(path, value):
    assert checks.check_find_prime((0, 0, 1), changed(FIND_PRIME, path, value)) is not None


# -- metric systems --------------------------------------------------------------


def test_metric_accepts_right_reports():
    model = checks.MetricModel("rot", (0.125,), 0.5, 1.0)
    # times 1, 5: states 0.125 and 0.625 hit both cells from start 0.0.
    assert checks.check_metric(model, (1, 5), verdict("holds", 0.0),
                               {"0.0": {"cells_hit": 2, "cells": 2}}) is None
    # times 1, 2: states 0.125 and 0.25 leave cell 1 empty.
    assert checks.check_metric(model, (1, 2), verdict("fails", 1),
                               {"0.0": {"cells_hit": 1, "cells": 2, "empty_cell": 1}}) is None


@pytest.mark.parametrize("times,report,detail", [
    ((1, 5), verdict("fails", 1), {"0.0": {"cells_hit": 1, "cells": 2, "empty_cell": 1}}),
    ((1, 2), verdict("fails", 0), {"0.0": {"cells_hit": 1, "cells": 2, "empty_cell": 0}}),
    ((1, 2), verdict("fails", 1), {"0.0": {"cells_hit": 2, "cells": 2, "empty_cell": 1}}),
    ((1, 2), verdict("holds", 0.0), {"0.0": {"cells_hit": 2, "cells": 2}}),
    ((1, 2), verdict("inconclusive"), {}),
])
def test_metric_rejects_wrong_reports(times, report, detail):
    model = checks.MetricModel("rot", (0.125,), 0.5, 1.0)
    assert checks.check_metric(model, times, report, detail) is not None


def test_metric_best_start_is_the_first_with_most_cells():
    # Two starts, 0.0 and 0.5; along time 1 each hits one of two cells.
    model = checks.MetricModel("rot", (0.125,), 0.5, 0.5)
    good = {"0.0": {"cells_hit": 1, "cells": 2, "empty_cell": 1}}
    assert checks.check_metric(model, (1,), verdict("fails", 1), good) is None
    late = {"0.5": {"cells_hit": 1, "cells": 2, "empty_cell": 0}}
    assert checks.check_metric(model, (1,), verdict("fails", 0), late) is not None


def test_metric_exact_rotation_is_held_to_the_exact_orbit():
    # rot:1/3 along multiples of 3: the orbit of 0 is the single point 0 (cell 0).
    model = checks.MetricModel("rot", (Fraction(1, 3),), 0.5, 1.0)
    right = {"0.0": {"cells_hit": 1, "cells": 2, "empty_cell": 1}}
    assert checks.check_metric(model, (3, 6), verdict("fails", 1), right) is None
    wrong = {"0.0": {"cells_hit": 1, "cells": 2, "empty_cell": 0}}
    assert checks.check_metric(model, (3, 6), verdict("fails", 0), wrong) is not None
    assert checks.check_metric(model, (3, 6), verdict("holds", 0.0), {"0.0": {"cells_hit": 2, "cells": 2}}) is not None


def test_metric_skew_state_is_the_closed_form():
    model = checks.MetricModel("skew", (0.125,), 0.5, 0.5)
    # T^n(x, y) = (x + n a, y + n x + n(n-1)/2 a): from (0.5, 0) at n = 3.
    x, y = model.state((0.5, 0.0), 3)
    assert Fraction(x, model.den) == Fraction(7, 8)
    assert Fraction(y, model.den) == Fraction(3, 2) % 1 + Fraction(3, 8)


def test_birkhoff_accepts_right_verdicts():
    model = checks.MetricModel("rot", (0.125,), 0.2, 1.0)
    assert checks.check_birkhoff(model, (3, 8, 9), verdict("holds", (0.0, 8))) is None
    assert checks.check_birkhoff(model, (3, 4, 5), verdict("fails", (0.0, 3))) is None


@pytest.mark.parametrize("times,report", [
    ((3, 8, 9), verdict("holds", (0.0, 9))),
    ((3, 8, 9), verdict("fails", (0.0, 3))),
    ((3, 4, 5), verdict("fails", (0.0, 4))),
    ((3, 4, 5), verdict("holds", (0.0, 3))),
])
def test_birkhoff_rejects_wrong_verdicts(times, report):
    model = checks.MetricModel("rot", (0.125,), 0.2, 1.0)
    assert checks.check_birkhoff(model, times, report) is not None
