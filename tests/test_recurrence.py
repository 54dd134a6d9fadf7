"""Recurrence/density tests: exact cyclic oracles, metric surrogates, cross-checks."""
from __future__ import annotations

import cmath
import gc
import math
import random
import re
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import exact_reference
from conftest import evens, interval, multiples, odds, squares
from dynwindow import (
    GOLDEN,
    CoverageError,
    CyclicSystem,
    OdometerSystem,
    ProductSystem,
    RotationSystem,
    SkewProductSystem,
    Status,
    Verdict,
    Window,
    banach_density_estimate,
    birkhoff_window_test,
    cesaro_average_along,
    cesaro_interval_closed_form,
    crosscheck_cyclic_equivalence,
    difference_set,
    eps_dense,
    finite_ip,
    finite_subcover,
    is_syndetic,
    is_thick,
    piecewise_syndetic_certificate,
    product_transitive_finite,
    r_sequence_cyclic,
    r_sequence_metric,
    random_windows,
    return_times,
    shift_family_test,
    shifted_hit,
)
from dynwindow import recurrence
from dynwindow.systems import parse_system_spec
from dynwindow.intsets import _BITMASK_HORIZON_CAP
from dynwindow.recurrence import (
    ReturnTimesResult,
    _comparison_table,
    _missing_residues,
    _position_table,
    _shift_family_cyclic,
    _shifted_hits,
    _small_ints,
    _step_table_times,
)
from dynwindow.systems import FiniteSystem, TorusSystem


# -- return_times ----------------------------------------------------------------


def test_return_times_cyclic():
    rt = return_times(CyclicSystem(4), 0, 2, 20)
    assert rt.times.elements == (2, 6, 10, 14, 18)
    assert rt.cell == 2 and rt.start == 0


def test_return_times_replayable_and_excludes_zero():
    sys = CyclicSystem(4)
    rt = return_times(sys, 0, 0, 20)
    assert rt.times.elements == (4, 8, 12, 16, 20)  # n = 0 not included
    cover = sys.cover(1.0)
    for n in range(1, 21):
        assert (n in rt.times) == (cover.cell_of((0 + n) % 4) == 0)


def test_return_times_rational_rotation_exact():
    rot = RotationSystem.from_rationals(Fraction(1, 3))
    rt = return_times(rot, Fraction(0), 0, 9, cover=rot.cover(Fraction(1, 3)))
    assert rt.times.elements == (3, 6, 9)


def test_return_times_skew_golden_nonempty():
    skew = SkewProductSystem(GOLDEN)
    rt = return_times(skew, (0.0, 0.0), (0, 0), 10_000, cover=skew.cover(0.1))
    assert len(rt.times) > 0
    # replay the first hit
    n = rt.times.elements[0]
    from dynwindow import orbit_at

    x, y = orbit_at(skew, (0.0, 0.0), n)
    assert x < 0.1 and y < 0.1


def _ref_return_times(sys, start, cell, horizon: int, cover=None) -> ReturnTimesResult:
    # The stepped walk return_times ran on every system before the step table: the reference.
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if cover is None:
        cover = sys.cover(1.0)
    times, state = [], start
    for n in range(1, horizon + 1):
        state = sys.step(state)
        if cover.cell_of(state) == cell:
            times.append(n)
    return ReturnTimesResult(Window(tuple(times), horizon), cell, start)


FINITE_SYSTEMS = [CyclicSystem(1), CyclicSystem(2), CyclicSystem(7), CyclicSystem(12), OdometerSystem(2, 3), OdometerSystem(3, 2)]


@given(st.sampled_from(FINITE_SYSTEMS), st.integers(1, 300))
@example(CyclicSystem(5), 10_000)
@example(OdometerSystem(2, 2), 10_000)
@settings(max_examples=40, deadline=None)
def test_step_table_return_times_match_the_stepped_walk(sys, horizon):
    # Every start (a cycle also from an unreduced one) and every cell, on both
    # sides of size = horizon, where return_times switches to the table.
    cover = sys.cover(1.0)
    starts = sys.starts(1.0) + ([sys.size + 2] if isinstance(sys, CyclicSystem) else [])
    for start in starts:
        for cell in map(cover.cell_at, range(cover.cell_count())):
            want = _ref_return_times(sys, start, cell, horizon)
            assert _step_table_times(sys, start, cell, horizon, cover).tolist() == list(want.times.elements)
            got = return_times(sys, start, cell, horizon)
            assert got == want and "elements" not in got.times.__dict__


def test_return_times_of_a_cycle_larger_than_the_horizon_are_stepped():
    # A table of 10^12 states is never built: the closed form is read at 5 times.
    assert return_times(CyclicSystem(10 ** 12), 10 ** 12 - 3, 0, 5).times.elements == (3,)


_OFF_TABLE_SYSTEMS = [
    ProductSystem(CyclicSystem(2), CyclicSystem(3)),
    ProductSystem(CyclicSystem(4), CyclicSystem(6)),
    ProductSystem(OdometerSystem(2, 2), CyclicSystem(5)),
    ProductSystem(CyclicSystem(3), ProductSystem(CyclicSystem(2), OdometerSystem(3, 1))),
    CyclicSystem(400),
    OdometerSystem(2, 9),
]


def _finite_states(sys) -> list:
    if isinstance(sys, ProductSystem):
        return [(l, r) for l in _finite_states(sys.left) for r in _finite_states(sys.right)]
    return sys.starts(1.0)


@given(st.sampled_from(_OFF_TABLE_SYSTEMS), st.integers(1, 120), st.data())
@settings(max_examples=40, deadline=None)
def test_closed_form_return_times_match_the_stepped_walk(sys, horizon, data):
    # Products and systems with more states than the horizon read along, never a table.
    cover = sys.cover(1.0)
    start = data.draw(st.sampled_from(_finite_states(sys)))
    cell = cover.cell_at(data.draw(st.integers(0, cover.cell_count() - 1)))
    assert return_times(sys, start, cell, horizon) == _ref_return_times(sys, start, cell, horizon)


_TORUS_RETURN_SYSTEMS = [
    RotationSystem.from_angle(GOLDEN),
    RotationSystem.from_angle(0.25),
    SkewProductSystem(0.3),
    ProductSystem(RotationSystem.from_angle(GOLDEN), CyclicSystem(3)),
    ProductSystem(CyclicSystem(2), SkewProductSystem(0.3)),
]


def _torus_start(sys, data):
    # A grid point or any float per torus coordinate; a cycle's start is any of its states.
    if isinstance(sys, ProductSystem):
        return (_torus_start(sys.left, data), _torus_start(sys.right, data))
    if isinstance(sys, CyclicSystem):
        return data.draw(st.sampled_from(sys.starts(1.0)))
    coord = st.one_of(st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.75]), st.floats(0.0, 1.0, exclude_max=True))
    coords = [data.draw(coord) for _ in range(sys.dimension)]
    return coords[0] if sys.dimension == 1 else tuple(coords)


@given(
    st.sampled_from(_TORUS_RETURN_SYSTEMS),
    st.integers(1, 200),
    st.sampled_from([0.5, 0.1, 0.05]),
    st.integers(1, 70),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_along_return_times_match_the_stepped_walk(sys, horizon, eps, block, data):
    # Tori and products read along in blocks; any block length gives the exact stepped walk's times.
    cover = sys.cover(eps)
    start = _torus_start(sys, data)
    cell = cover.cell_at(data.draw(st.integers(0, cover.cell_count() - 1)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(recurrence, "_RETURN_BLOCK", block)
        got = return_times(sys, start, cell, horizon, cover)
    assert got == _ref_return_times(sys, start, cell, horizon, cover)


def test_return_times_of_a_cell_outside_the_cover_are_empty():
    # (0, 12) is numbered 12 with k = 10, as (1, 2) is; it is not a cell, so it is never visited.
    skew = SkewProductSystem(GOLDEN)
    cover = skew.cover(0.1)
    assert len(return_times(skew, (0.0, 0.0), (1, 2), 20_000, cover).times) > 0
    for cell in ((0, 12), (0, -1), (10, 0), (0, 0, 0), 12, [1, 2]):
        assert return_times(skew, (0.0, 0.0), cell, 20_000, cover).times.elements == ()
    prod = ProductSystem(RotationSystem.from_angle(GOLDEN), CyclicSystem(3))
    for cell in ((0, 5), (-1, 2), 5, (0,), ([0], 1)):
        assert return_times(prod, (0.0, 0), cell, 100, prod.cover(0.1)).times.elements == ()
    assert return_times(CyclicSystem(10 ** 12), 0, 10 ** 12, 5).times.elements == ()


def test_return_times_on_a_torus_stay_small_at_horizon_one_million():
    skew = SkewProductSystem(GOLDEN)
    cover = skew.cover(0.1)
    tracemalloc.start()
    try:
        rt = return_times(skew, (0.0, 0.0), (0, 0), 10 ** 6, cover)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
    assert len(rt.times) == 9825  # as a per-time loop of orbit_at and cell_of counts them


# -- r_sequence_cyclic --------------------------------------------------------------


def test_squares_fail_mod_3():
    # n^2 for n <= 10^4 hits only residues {0, 1} mod 3
    report = r_sequence_cyclic(Window(tuple(n * n for n in range(10_001)), 10 ** 8), 3)
    assert report.verdict.fails
    assert report.verdict.witness == (3, 2)
    assert report.per_system["cyclic:3"] == {"covered": False, "missing": 2}


def test_interval_covers_everything():
    report = r_sequence_cyclic(interval(0, 100), 50)
    assert report.verdict.holds
    assert all(d["covered"] for d in report.per_system.values())


def test_evens_fail_mod_2():
    report = r_sequence_cyclic(evens(1000), 2)
    assert report.verdict.fails and report.verdict.witness == (2, 1)


def test_empty_window_fails_mod_1():
    report = r_sequence_cyclic(Window((), 10), 1)
    assert report.verdict.fails and report.verdict.witness == (1, 0)


def _scan_missing_residue(a, m):
    # The residues as a set, one element at a time: the reference for the bincount.
    if not a.elements:
        return 0
    seen = {e % m for e in a.elements}
    for r in range(m):
        if r not in seen:
            return r
    return None


@given(st.lists(st.integers(0, 5000), max_size=60, unique=True), st.sampled_from([0, 2 ** 63]))
@example([], 0)
@example(list(range(70)), 0)
@example(list(range(70)), 2 ** 63)
@example([*range(0, 1000, 2), 1001], 0)  # a prefix of 16·m evens misses what 1001 hits
@example([*range(0, 1000, 2), 1001], 2 ** 63)
@settings(max_examples=80, deadline=None)
def test_missing_residue_matches_brute_force(elems, base):
    # base 2^63 puts the horizon past 2^62, where the array holds Python ints;
    # `wide` keeps the small elements under such a horizon.
    w = Window(tuple(base + e for e in sorted(elems)), base + 5000)
    wide = Window(w.elements, w.horizon + 2 ** 63)
    assert w.array.dtype == (np.int64 if w.horizon < 2 ** 62 else object) and wide.array.dtype == object
    got, got_wide = _missing_residues(w.array, 60), _missing_residues(wide.array, 60)
    for m in range(1, 61):
        missing = set(range(m)) - {e % m for e in w.elements}
        expected = min(missing, default=None)
        assert got[m - 1] == _scan_missing_residue(w, m) == expected
        assert got_wide[m - 1] == expected


@given(
    st.lists(st.integers(0, 3000), max_size=120, unique=True),
    st.sampled_from([(0, np.int64), (0, object), (2 ** 63, object)]),
    st.integers(1, 70),
    st.sampled_from([2 ** 22, 1, 5, 64]),
)
@example([], (0, np.int64), 1, 2 ** 22)
@example([], (2 ** 63, object), 1, 2 ** 22)
@example([5], (0, np.int64), 1, 2 ** 22)
@example(list(range(0, 3000, 150)), (0, np.int64), 3000, 2 ** 22)  # 20 elements: class 20 mod m > 20
@example(list(range(0, 3000, 150)), (2 ** 63, object), 3000, 2 ** 22)
@example([*range(0, 1600, 2), 1601], (0, np.int64), 50, 2 ** 22)  # the 800-element prefix is all even
@example([*range(0, 1600, 2), 1601], (0, object), 50, 64)
@example([*range(0, 1600, 2), 1601], (2 ** 63, object), 50, 5)
# 192-element prefixes (M = 12) of multiples of 3 that end at 2^31 - 1, the
# last int32, and at 2^31, which int32 would wrap to -2^31 (-2^31 mod 3 = 1,
# not 2): each is the one element of its class mod 3.
@example([*range(0, 573, 3), 571], (2 ** 31 - 572, np.int64), 12, 2 ** 22)
@example([*range(0, 573, 3), 572], (2 ** 31 - 572, np.int64), 12, 2 ** 22)
# A prefix of evens below 2^31, reduced in int32, and a tail past it that
# covers the odd classes, recounted in int64.
@example([*range(0, 384, 2), *range(1000, 1100)], (2 ** 31 - 1000, np.int64), 12, 2 ** 22)
# Prefixes shorter than M, whose residues past the pool are clamped into it.
@example([5, 17, 100], (0, np.int64), 12, 2 ** 22)
@example(list(range(7, 3000, 157)), (0, np.int64), 50, 2 ** 22)
@example(list(range(1, 3000, 47)), (0, np.int64), 70, 2 ** 22)
@settings(max_examples=80, deadline=None)
def test_missing_residues_match_a_set_scan_for_every_period(elems, kind, max_period, batch):
    # Blocks of periods are bounded by _BATCH_ELEMENTS: a small one splits them
    # finely, down to one period a block.  Object arrays past 2^63 stay Python
    # ints; below it they are converted to int64 first, and to int32 when
    # the prefix ends below 2^31.  Examples: an empty array, M = 1, a prefix
    # that hits every class below its length, 800-element prefixes that miss
    # a class the last element covers, and the boundaries above.
    base, dtype = kind
    elements = tuple(base + e for e in sorted(elems))
    w = Window(elements, base + 3000)
    want = [_scan_missing_residue(w, m) for m in range(1, max_period + 1)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(recurrence, "_BATCH_ELEMENTS", batch)
        assert _missing_residues(np.array(elements, dtype=dtype), max_period) == want


@pytest.mark.parametrize("max_period", [0, -1, -13])
def test_missing_residues_answer_no_period_below_one(max_period):
    # A shifted family with no shift reads its empty core at any max_period.
    assert _missing_residues(np.arange(0, 3000, 150), max_period) == []
    assert _missing_residues(np.arange(0, 3000, 150).astype(object) + 2 ** 64, max_period) == []


def test_missing_residues_build_one_read_only_class_table():
    # The periods up to _TABLE_PERIODS read one class table, built on the
    # first call, shared by every later one, and so read-only.
    arr = np.arange(0, 3000, 150)
    recurrence._class_table.cache_clear()
    assert _missing_residues(arr, 20) == _missing_residues(arr, 20)
    info = recurrence._class_table.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert not recurrence._class_table().flags.writeable


def _column_loop_missing_residues(arr: np.ndarray, max_period: int) -> list:
    # _missing_residues as it stood when it took Python-int residues one column
    # (one period) at a time, kept verbatim as the reference; its two caps are
    # the module's values at the time.
    _BATCH_ELEMENTS, _RECOUNT_MODULUS_CAP = 2 ** 22, 2 ** 16
    arr = _small_ints(arr)
    head = arr[: 16 * max_period]
    if head.dtype != object and head.size and head[-1] < 2 ** 31:
        head = head.astype(np.int32)
    dtype = np.int64 if head.dtype == object else head.dtype
    width = max(1, _BATCH_ELEMENTS // (max(head.size, 1) + 1))  # periods per block
    least = []  # per period: the least class missed, or None
    for m in range(1, max_period + 1, width):
        top = min(m + width, max_period + 1)  # one past the block's largest period
        w = max(1, min(head.size, top - 1))
        if head.dtype == object:  # by columns: a matrix of Python ints would be ~5 times larger
            residues = np.empty((head.size, top - m), dtype=np.int64)
            for j, p in enumerate(range(m, top)):
                residues[:, j] = head % p
        else:
            residues = np.remainder(head[:, None], np.arange(m, top, dtype=dtype))
        if head.size < top - 1:
            np.minimum(residues, w, out=residues)
        residues += np.arange(0, (top - m) * (w + 1), w + 1, dtype=dtype)
        counts = np.bincount(residues.ravel(), minlength=(top - m) * (w + 1)).reshape(top - m, w + 1)
        # A row hits at most n classes: with every class below w hit, the pool is empty.
        first = counts.argmin(axis=1).tolist()  # its first zero: the least class missed, or w
        least += [r if r < p else None for p, r in zip(range(m, top), first)]
    if head.size < arr.size:
        periods = [p for p, r in enumerate(least, start=1) if r is not None]
        while periods:
            k = 1  # the next block: the longest run of periods with lcm within the cap, or one period
            while k < len(periods) and math.lcm(*periods[: k + 1]) <= _RECOUNT_MODULUS_CAP:
                k += 1
            block, periods, modulus = periods[:k], periods[k:], math.lcm(*periods[:k])
            classes = np.flatnonzero(np.bincount((arr % modulus).astype(np.int64, copy=False), minlength=modulus))
            for p in block:
                hit = np.bincount(classes % p, minlength=p)
                least[p - 1] = None if hit.all() else int(np.argmin(hit))
    return least


@given(
    st.lists(st.integers(0, 5000), max_size=1200, unique=True),
    st.sampled_from([2 ** 63, 2 ** 63 + 12345, 2 ** 200 + 7, 3 ** 150]),
    st.integers(1, 60),
    st.sampled_from([2 ** 62 - 1, 2 ** 20, 60, 12, 1]),
    st.sampled_from([2 ** 22, 64, 1]),
)
@example([], 2 ** 63, 1, 2 ** 62 - 1, 2 ** 22)
@example(list(range(0, 5000, 2)), 2 ** 200 + 7, 60, 2 ** 62 - 1, 2 ** 22)  # runs 1..42, 43..58, 59..60
@example(list(range(0, 5000, 6)), 2 ** 63, 60, 1, 2 ** 22)  # a run per period
@settings(max_examples=80, deadline=None)
def test_missing_residues_on_python_ints_match_the_column_loop(elems, base, max_period, cap, batch):
    # Elements past 2^63 and 2^200 stay Python ints: the prefix is reduced once
    # per lcm run (smaller caps split the periods finer, down to one period a
    # run) and per block of periods.
    arr = np.array([base + e for e in sorted(elems)], dtype=object)
    want = _column_loop_missing_residues(arr, max_period)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(recurrence, "_REDUCE_MODULUS_CAP", cap)
        mp.setattr(recurrence, "_BATCH_ELEMENTS", batch)
        assert _missing_residues(arr, max_period) == want


@pytest.mark.parametrize(
    "periods, cap, runs",
    [
        (list(range(1, 61)), 2 ** 62 - 1, [list(range(1, 43)), list(range(43, 59)), [59, 60]]),
        ([2 ** 31 - 1, 2 ** 31, 3], 2 ** 62 - 1, [[2 ** 31 - 1, 2 ** 31], [3]]),  # lcm 2^62 - 2^31
        ([2 ** 31 + 1, 2 ** 31, 3], 2 ** 62 - 1, [[2 ** 31 + 1], [2 ** 31, 3]]),  # lcm 2^62 + 2^31
        ([2 ** 61, 4, 8, 3], 2 ** 62 - 1, [[2 ** 61, 4, 8], [3]]),
        ([5, 7, 9], 4, [[5], [7], [9]]),  # a period past the cap is a run alone
        ([], 2 ** 16, []),
    ],
)
def test_lcm_runs_split_at_the_cap(periods, cap, runs):
    got = list(recurrence._lcm_runs(periods, cap))
    assert [list(run) for run, _ in got] == runs
    assert [modulus for _, modulus in got] == [math.lcm(*run) for run in runs]


def _per_period_missing(elements: list, max_period: int) -> list:
    # One bincount of the whole array per period: the least class it misses, or None.
    out = []
    for p in range(1, max_period + 1):
        hit = np.bincount(np.array([e % p for e in elements], dtype=np.int64), minlength=p) > 0
        out.append(None if hit.all() else int(np.argmin(hit)))
    return out


@given(
    st.integers(1, 30),
    st.tuples(st.integers(1, 60), st.integers(0, 59)),
    st.integers(0, 3000),
    st.sampled_from([(0, np.int64), (0, object), (2 ** 62 - 10 ** 5, np.int64), (2 ** 64 + 3, object)]),
    st.sampled_from([2 ** 16, 1, 12, 60]),
    st.randoms(use_true_random=False),
)
@example(12, (2, 0), 3000, (0, np.int64), 2 ** 16, random.Random(0))  # odds: every even m is open
@example(12, (7, 0), 3000, (0, np.int64), 2 ** 16, random.Random(0))
@example(30, (29, 5), 3000, (2 ** 64 + 3, object), 2 ** 16, random.Random(1))
@example(30, (1, 0), 3000, (0, object), 1, random.Random(2))  # a block per period
# The 192-element prefix lies below 2^31 and is reduced in int32; the tail
# passes 2^31, and the periods left open (7 at least) are recounted in int64.
@example(12, (7, 3), 3000, (2 ** 31 - 3000, np.int64), 2 ** 16, random.Random(3))
# 20 elements at M = 1,037: past the class table, one block of 1,025 periods,
# each clamped into a pool of w = 20 classes.
@example(1037, (7, 3), 20, (0, np.int64), 2 ** 16, random.Random(4))
@settings(max_examples=60, deadline=None)
def test_uncovered_periods_recount_as_per_period_bincounts(max_period, skipped, size, kind, cap, rnd):
    # Arrays longer than the 16·max_period prefix, most of them missing one
    # class r mod m (none for m = 1): the periods the prefix leaves open are
    # recounted in blocks of lcm at most the cap (2^16, or small ones that
    # split them).
    (m, r), (base, dtype) = skipped, kind
    span = range(base, base + 2 * size + 10)
    elements = sorted(x for x in rnd.sample(span, min(size, len(span))) if m == 1 or x % m != r % m)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(recurrence, "_RECOUNT_MODULUS_CAP", cap)
        got = _missing_residues(np.array(elements, dtype=dtype), max_period)
    assert got == _per_period_missing(elements, max_period)


@given(
    st.integers(1, 30),
    st.tuples(st.integers(2, 30), st.integers(0, 29)),
    st.integers(0, 1500),
    st.sampled_from([(0, np.int64), (0, object), (2 ** 64 + 3, object)]),
    st.randoms(use_true_random=False),
)
@example(30, (3, 1), 1000, (0, np.int64), random.Random(0))  # 1 mod 3, so 1 mod 6, 9, ..., 30
@example(30, (4, 2), 1000, (2 ** 64 + 3, object), random.Random(1))
@example(24, (8, 5), 100, (0, np.int64), random.Random(2))  # the whole array is the prefix
@example(12, (2, 0), 1500, (0, object), random.Random(3))  # the table only, then the recount
@settings(max_examples=80, deadline=None)
def test_missing_residues_respect_the_cyclic_family_law(max_period, skipped, size, kind, rnd):
    # Z/m -> Z/d is a factor map of cycles for d | m: a window that hits c mod
    # m hits c mod d.  So when it misses r mod d, it misses r mod m (r < d <= m),
    # and the least class it misses mod m is at most r.  Arrays are shorter
    # and longer than the 16·max_period prefix, so the prefix settles some
    # and the whole-array recount others; a period past _TABLE_PERIODS and
    # its divisors below it are answered by different stages.
    (k, r), (base, dtype) = skipped, kind
    span = range(base, base + 2 * size + 10)
    elements = sorted(x for x in rnd.sample(span, min(size, len(span))) if x % k != r % k)
    least = _missing_residues(np.array(elements, dtype=dtype), max_period)
    for m in range(1, max_period + 1):
        for d in (d for d in range(1, m + 1) if m % d == 0 and least[d - 1] is not None):
            assert least[m - 1] is not None and least[m - 1] <= least[d - 1], (d, m)


@given(st.lists(st.integers(0, 2000), min_size=0, max_size=150, unique=True), st.integers(1, 20))
@settings(max_examples=60, deadline=None)
def test_exactness_bridge_cyclic_vs_eps_dense(elems, m):
    # Two independent code paths, one truth: residue coverage equals
    # eps-density of the orbit along the window in Z/m with singleton cells.
    w = Window(tuple(sorted(elems)), 2000)
    report = r_sequence_cyclic(w, m)
    covered = report.per_system[f"cyclic:{m}"]["covered"]
    sys = CyclicSystem(m)
    dense = eps_dense(sys, [sys.orbit_at(0, n) for n in w.elements], sys.cover(1.0))
    assert covered == dense.holds


@given(
    st.lists(st.integers(0, 500), min_size=1, max_size=60, unique=True),
    st.lists(st.integers(0, 500), min_size=0, max_size=30, unique=True),
    st.integers(1, 12),
)
@settings(max_examples=50, deadline=None)
def test_monotone_in_window(base, extra, max_period):
    a = Window(tuple(sorted(base)), 1000)
    a_big = Window(tuple(sorted(set(base) | set(extra))), 1000)
    if r_sequence_cyclic(a, max_period).verdict.holds:
        assert r_sequence_cyclic(a_big, max_period).verdict.holds


@given(
    st.lists(st.integers(0, 300), min_size=1, max_size=50, unique=True),
    st.integers(1, 10),
    st.integers(0, 5),
)
@settings(max_examples=50, deadline=None)
def test_shift_soundness_mod_m(elems, m, t):
    # shifting every element by a multiple of m preserves the mod-m verdict
    a = Window(tuple(sorted(elems)), 1000)
    shifted = Window(tuple(e + m * t for e in a.elements), 1000 + m * t)
    before = r_sequence_cyclic(a, m).per_system[f"cyclic:{m}"]
    after = r_sequence_cyclic(shifted, m).per_system[f"cyclic:{m}"]
    assert before["covered"] == after["covered"]


def test_small_elements_under_a_wide_horizon_take_int64_residues():
    # Window.array is object from horizon 2^62 on; residues convert it while
    # the last element is below 2^63, and keep Python ints from there.
    elems = tuple(range(3, 4000, 2))
    small, wide = Window(elems, 4000), Window(elems, 2 ** 63)
    assert wide.array.dtype == object and _small_ints(wide.array).dtype == np.int64
    assert r_sequence_cyclic(wide, 50) == r_sequence_cyclic(small, 50)
    top = Window((3, 2 ** 63 - 1), 2 ** 63)
    assert _small_ints(top.array).dtype == np.int64 and _small_ints(top.array).tolist() == [3, 2 ** 63 - 1]
    beyond = Window((3, 2 ** 63), 2 ** 63)
    assert _small_ints(beyond.array).dtype == object
    assert r_sequence_cyclic(beyond, 6).verdict.witness == (3, 1)  # 2^63 = 2 mod 3


# -- r_sequence_metric ---------------------------------------------------------------


def test_metric_interval_golden_dense():
    report = r_sequence_metric(interval(0, 1000), RotationSystem.from_angle(GOLDEN), 0.02, 1.0)
    assert report.verdict.holds and report.verdict.witness == 0.0


def test_metric_evens_under_half_rotation_fail():
    # orbit along evens under rotation by 1/2 is a single point from any start
    report = r_sequence_metric(evens(1000), RotationSystem.from_angle(0.5), 0.4, 0.5)
    assert report.verdict.fails
    detail = next(iter(report.per_system.values()))
    assert detail["cells_hit"] == 1


def test_metric_squares_golden_dense():
    w = Window(tuple(n * n for n in range(1, 10_001)), 10 ** 8)
    report = r_sequence_metric(w, RotationSystem.from_angle(GOLDEN), 0.05, 1.0)
    assert report.verdict.holds


@pytest.mark.parametrize("angle, start, hit, empty", [(0.3, (0.0, 0.0), 11, (0, 1)), (1 / 3, (0.25, 0.0), 7, (0, 0))])
def test_metric_skew_counts_the_cells_of_the_exact_orbit(angle, start, hit, empty):
    # Float state sums put some states across a cell edge (from (0.5, 0.0)
    # under 0.3, x at time 2 is 0.09999999999999998, cell 1, but 0.5 + 0.6
    # rounds to 0.10000000000000009, cell 2), which made the best starts
    # (0.5, 0.0) with 13/400 and (0.25, 0.25) with 9/400 cells.
    sys = SkewProductSystem(angle)
    report = r_sequence_metric(evens(1000), sys, 0.05, 0.25)
    assert report.per_system == {str(start): {"cells_hit": hit, "cells": 400, "empty_cell": empty}}
    assert report.to_json() == _exact_metric(evens(1000), sys, 0.05, 0.25)


def test_metric_budget_inconclusive():
    w = Window((10 ** 16,), 10 ** 16)
    report = r_sequence_metric(w, RotationSystem.from_angle(GOLDEN), 0.05, 1.0)
    assert report.verdict.inconclusive and "budget" in report.verdict.note
    v = birkhoff_window_test(w, RotationSystem.from_angle(GOLDEN), 0.05)
    assert v.inconclusive and "budget" in v.note


@pytest.mark.parametrize("grid", [0.0, -1.0])
def test_metric_rejects_a_nonpositive_grid_before_the_budget(grid):
    # The window blows the floating-point budget, yet the grid is checked first.
    with pytest.raises(ValueError, match="start grid"):
        r_sequence_metric(Window((10 ** 16,), 10 ** 16), RotationSystem.from_angle(GOLDEN), 0.05, grid)


def test_exact_skew_has_no_budget():
    # skew:1/3 holds the Fraction 1/3, so times near 10^15 (n·2^-53 = 0.11 >
    # eps/10) get a verdict from the exact orbit, not the floating-point budget.
    sys = parse_system_spec("skew:1/3")
    w = Window(tuple(10 ** 15 + 7 * n for n in range(600)), 10 ** 15 + 4200)
    report = r_sequence_metric(w, sys, 0.05, 0.5)
    assert not report.verdict.inconclusive and "budget" not in report.verdict.note
    assert report.family == "skew:1/3 eps=0.05"
    assert report.to_json() == _exact_metric(w, sys, 0.05, 0.5)
    v = birkhoff_window_test(w, sys, 0.05, 0.5)
    assert not v.inconclusive and v == _exact_birkhoff(w, sys, 0.05, 0.5)


def test_metric_rejects_finite_systems():
    with pytest.raises(TypeError):
        r_sequence_metric(interval(0, 10), CyclicSystem(3), 0.5, 1.0)


# -- birkhoff_window_test ---------------------------------------------------------------


def test_birkhoff_odds_fail_on_two_cycle():
    v = birkhoff_window_test(odds(1001), CyclicSystem(2), 0.5)
    assert v.fails


def test_birkhoff_multiples_hold_with_minimal_witness():
    m = 7
    v = birkhoff_window_test(multiples(m, 100), CyclicSystem(m), 0.5)
    assert v.holds and v.witness == (0, m)  # n = 0 skipped, first start wins


def test_birkhoff_ip_window_on_rotation():
    w = finite_ip([2 ** k for k in range(9)])  # IP window = [1, 511]
    v = birkhoff_window_test(w, RotationSystem.from_angle(GOLDEN), 0.1, 1.0)
    assert v.holds
    start, n = v.witness
    assert n in w


def test_birkhoff_compares_the_exact_distance_with_eps():
    # rot:0.25 returns at distance exactly 1/4 at time 1: not below eps = 0.25,
    # below the next double up.
    rot, w = RotationSystem.from_angle(0.25), Window((1,), 1)
    assert birkhoff_window_test(w, rot, 0.25) == Verdict.fail((0.0, 1), note="closest return distance 0.25 >= eps = 0.25")
    eps = math.nextafter(0.25, 1)
    assert birkhoff_window_test(w, rot, eps) == Verdict.hold((0.0, 1), note=f"T^1 returns within 0.25 < {eps}")
    # 3 * 0.1 is exactly halfway between the doubles 0.3 and 0.30000000000000004,
    # so it is below the upper one, although it rounds to it.
    rot, w = RotationSystem.from_angle(0.1), Window((3,), 3)
    assert 3 * Fraction(0.1) < Fraction(0.30000000000000004) and float(3 * Fraction(0.1)) == 0.30000000000000004
    assert birkhoff_window_test(w, rot, 0.30000000000000004).holds
    assert birkhoff_window_test(w, rot, 0.3).fails
    assert birkhoff_window_test(w, rot, math.inf).holds  # past 1/2, every distance is below eps


@pytest.mark.parametrize("elements", [(), (0,)])
@pytest.mark.parametrize("spec", ["cyclic:3", "rot:1/2"])
def test_birkhoff_window_with_no_positive_element_fails_at_0(spec, elements):
    # Element 0 is the trivial return, so no start has a time to return at.
    v = birkhoff_window_test(Window(elements, 5), parse_system_spec(spec), 0.5)
    assert v == Verdict.fail(0, note="window has no positive elements")


@pytest.mark.parametrize("eps", [0.0, -1.0])
@pytest.mark.parametrize("sys", [CyclicSystem(3), RotationSystem.from_angle(GOLDEN)])
def test_birkhoff_rejects_nonpositive_eps(sys, eps):
    with pytest.raises(ValueError, match="eps"):
        birkhoff_window_test(interval(0, 10), sys, eps)


# -- shift_family_test ---------------------------------------------------------------


def test_shift_family_squares_fail():
    sq = squares(100, horizon=10_000)
    v = shift_family_test(sq, range(-2, 3), lambda w: r_sequence_cyclic(w, 3))
    assert v.fails and v.witness == -2  # ascending order; every shift fails at m=3
    # the classical content: the unshifted window itself fails at (3, 2)
    assert r_sequence_cyclic(sq, 3).verdict.witness == (3, 2)


def test_shift_family_interval_holds():
    v = shift_family_test(interval(0, 100), range(-5, 6), lambda w: r_sequence_cyclic(w, 20))
    assert v.holds


def test_shift_family_propagates_inconclusive():
    def tester(w):
        return r_sequence_metric(w, RotationSystem.from_angle(GOLDEN), 0.05, 1.0)

    v = shift_family_test(Window((10 ** 16,), 10 ** 16), range(0, 1), tester)
    assert v.inconclusive


def _cyclic_shift_family(a, shifts, max_period):
    return shift_family_test(a, shifts, lambda w: r_sequence_cyclic(w, max_period))


def _scan_shift_family(a, shifts, max_period):
    # The same verdicts from a set of residues per shifted window and m, sharing no kernel.
    def tester(w):
        for m in range(1, max_period + 1):
            missing = _scan_missing_residue(w, m)
            if missing is not None:
                return Verdict.fail((m, missing), note=f"residue {missing} mod {m} never hit")
        return Verdict.hold()

    return shift_family_test(a, shifts, tester)


@st.composite
def shift_family_cases(draw):
    # Dense and sparse windows, windows hugging 0, elements at 2^63 (residues of
    # Python ints), small elements under a horizon past 2^62 (converted to int64),
    # slices emptied by shifts past the horizon, and windows longer than 16·M,
    # where the covering prefix settles m or falls back to the whole slice.
    span = draw(st.integers(0, 1500))
    density = draw(st.sampled_from([0.0, 0.005, 0.05, 0.3, 0.9, 1.0]))
    low = draw(st.sampled_from([0, 0, 7, 40]))
    offset = draw(st.sampled_from([0, 0, 2 ** 63]))
    wide = draw(st.sampled_from([0, 0, 2 ** 63]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
    elems = np.flatnonzero(rng.random(span + 1) < density)
    elems = elems[elems >= low]
    if draw(st.booleans()):
        elems = elems[np.isin(elems % 6, (0, 1, 3, 4))]  # misses two classes mod 6
    if draw(st.booleans()):
        elems = elems[(elems % 2 == 0) | (elems > span // 2)]  # odd classes only late
    a = Window(tuple(offset + int(e) for e in elems), offset + span + wide)
    first = draw(st.integers(-span - 60, span + 60)) - draw(st.sampled_from([0, offset]))
    shifts = range(first, first + draw(st.integers(0, 14)))
    return a, shifts, draw(st.integers(1, 14))


@given(shift_family_cases())
@example((Window((), 10), range(-2, 3), 5))
@example((Window((*range(0, 3000, 2), 3001), 3001), range(-3, 4), 12))
@example((Window((0, 1, 2, 3), 50), range(-3, 4), 1))
@example((interval(0, 999), range(-1001, -998), 12))
@example((interval(0, 999), range(998, 1002), 12))
@example((Window(tuple(range(0, 3000, 2)), 2 ** 63), range(-2, 3), 12))
@example((interval(0, 99), range(-120, 121, 8), 6))  # shifts past both ends: an empty core
# Every slice covers Z/2 and the core does too; at m = 4 the core misses
# class 1, which each slice still covers until shift -5 drops 999.
@example((Window((1, *range(10, 990, 2), 999), 1000), range(-5, 6), 2))
@example((Window((1, *range(10, 990, 2), 999), 1000), range(-5, 6), 4))
@settings(max_examples=150, deadline=None)
def test_cyclic_shift_family_matches_the_shifted_windows(case):
    a, shifts, max_period = case
    got = _shift_family_cyclic(a, shifts, max_period)
    assert got == _cyclic_shift_family(a, shifts, max_period) == _scan_shift_family(a, shifts, max_period)


def test_cyclic_shift_family_edges():
    # Like the shifted windows: no shift holds vacuously, before max_period is
    # checked; a shift past the horizon leaves an empty window, which misses 0 mod 1.
    assert _shift_family_cyclic(interval(0, 10), [], 0) == Verdict.hold(note="all 0 shifts pass")
    with pytest.raises(ValueError, match="max_period must be >= 1"):
        _shift_family_cyclic(interval(0, 10), [0], 0)
    v = _shift_family_cyclic(interval(0, 10), [3, 11, -11, 0], 4)
    assert v == Verdict.fail(-11, note="shift -11 fails: residue 0 mod 1 never hit")
    assert v == _cyclic_shift_family(interval(0, 10), [3, 11, -11, 0], 4)


@pytest.mark.parametrize(
    "elements, shifts, max_period, fails",
    [
        (range(2 ** 63 - 200, 2 ** 63 - 1), range(-5, 120, 3), 12, False),
        # Evens and 2^63 - 1 cover Z/2 until shift 102 drops 2^63 - 1.
        ((*range(2 ** 63 - 400, 2 ** 63 - 1, 2), 2 ** 63 - 1), range(90, 110, 3), 3, True),
        # 12 elements, each its own prefix: shifts 1..101 move the last past
        # 2^63 and keep Z/12 covered; shift 102 drops 2^63 - 1.
        (range(2 ** 63 - 12, 2 ** 63), range(-2, 110), 12, True),
    ],
)
def test_cyclic_shift_family_shifts_past_2_63(elements, shifts, max_period, fails):
    # Elements just below 2^63 under a horizon past it: e + n passes 2^63, so
    # the shifted windows stay Python ints.
    a = Window(elements, 2 ** 63 + 100)
    got = _shift_family_cyclic(a, shifts, max_period)
    assert got == _cyclic_shift_family(a, shifts, max_period) == _scan_shift_family(a, shifts, max_period)
    assert got.fails == fails


def test_cyclic_shift_family_stops_once_the_first_shift_fails(monkeypatch):
    # Evens past 2^64 under shifts -1..1: the core misses 1 mod 2, so shift
    # -1's slice is read, fails at m = 2, and no later shift is read.  The
    # kernel runs twice: on the core, then on shift -1's shifted slice.
    base = 2 ** 64
    a = Window([base + 2 * k for k in range(700)], base + 1400)
    calls = []

    def recorded(arr, max_period):
        calls.append((arr.tolist(), max_period))
        return _missing_residues(arr, max_period)

    monkeypatch.setattr(recurrence, "_missing_residues", recorded)
    v = _shift_family_cyclic(a, range(-1, 2), 50)
    assert v == Verdict.fail(-1, note="shift -1 fails: residue 0 mod 2 never hit")
    # Every element lies in the core 1 <= e <= horizon - 1, and in shift -1's slice.
    assert calls == [(list(a.elements), 50), ([e - 1 for e in a.elements], 50)]
    monkeypatch.undo()
    assert v == _cyclic_shift_family(a, range(-1, 2), 50)


# -- crosscheck ------------------------------------------------------------------------


def _bits(mask: int) -> list:
    # The columns j, ascending, whose bit is set in mask.
    return [j for j in range(mask.bit_length()) if mask >> j & 1]


def test_crosscheck_internal_windows_coincide():
    # The return-time path and the difference-set path must build the same set.
    # Horizons 500..511 take every residue mod m for each m, so every
    # progression, of either length, is read through its class window.
    _comparison_table.cache_clear()
    try:
        for horizon in range(500, 512):
            _, windows, columns = _comparison_table(horizon, 12)
            for m in (1, 2, 5, 12):
                nuu, diffs = columns[m - 1]
                assert [windows[j].elements for j in _bits(nuu)] == [tuple(range(m, horizon + 1, m))]
                classes = [windows[j] for j in _bits(diffs)]
                assert len(classes) == len({(horizon - r) // m + 1 for r in range(m)})
                for r in range(m):
                    d = difference_set(Window(tuple(range(r, horizon + 1, m)), horizon))
                    assert d.elements == tuple(range(m, horizon + 1 - r, m))
                    assert d in classes
    finally:
        _comparison_table.cache_clear()


def test_crosscheck_keeps_windows_of_the_latest_horizon_only():
    _comparison_table.cache_clear()
    try:
        w = _comparison_table(500, 3)[1][0]
        assert _comparison_table(500, 3)[1][0] is w
        ref = weakref.ref(w)
        del w
        _comparison_table(501, 3)
        gc.collect()
        assert ref() is None
    finally:
        _comparison_table.cache_clear()


@pytest.mark.parametrize("base", [0, 2 ** 63])
def test_engine_entry_points_build_no_elements_tuple(base):
    # The engine reads windows as arrays: no entry point leaves the elements
    # tuple on a fresh input window, on a window it returns, or on the
    # cross-check's cached comparison windows.
    rot, skew, exact = RotationSystem.from_angle(GOLDEN), SkewProductSystem(GOLDEN), RotationSystem.from_rationals(Fraction(2, 7))
    calls = [
        lambda w: is_syndetic(w, 5),
        lambda w: is_thick(w, 3),
        lambda w: piecewise_syndetic_certificate(w, 4, 20),
        lambda w: banach_density_estimate(w, 30),
        difference_set,
        lambda w: difference_set(w.restrict(base + 60)),  # the scan
        lambda w: r_sequence_cyclic(w, 12),
        lambda w: _shift_family_cyclic(w, range(-6, 7), 12),
        lambda w: r_sequence_metric(w, exact, 0.1, 0.5),
        lambda w: birkhoff_window_test(w, CyclicSystem(6), 0.5),
    ]
    if base == 0:
        calls += [
            lambda w: r_sequence_metric(w, rot, 0.05, 0.5),
            lambda w: r_sequence_metric(w, skew, 0.1, 0.5),
            lambda w: birkhoff_window_test(w, rot, 0.001, 0.5),
            lambda w: crosscheck_cyclic_equivalence(w, 12, range(-6, 7)),
        ]
    _comparison_table.cache_clear()
    try:
        for call in calls:
            w = Window([base + e for e in range(50, 2000, 3)] + [base + 2001], base + 2100)
            out = call(w)
            assert "elements" not in w.__dict__
            assert not isinstance(out, Window) or "elements" not in out.__dict__
        if base == 0:
            hits = _comparison_table.cache_info().hits
            windows = _comparison_table(2100 + 6 + 12, 12)[1]
            assert _comparison_table.cache_info().hits == hits + 1 and windows
            assert all("elements" not in c.__dict__ for c in windows)
    finally:
        _comparison_table.cache_clear()


def test_crosscheck_odds_agree_on_failure():
    v = crosscheck_cyclic_equivalence(odds(1001), 2, range(-2, 3))
    assert v.holds  # all three predicates fail together at m = 2


def test_crosscheck_interval_agrees_on_success():
    v = crosscheck_cyclic_equivalence(interval(0, 100), 12, range(-6, 7))
    assert v.holds


def test_crosscheck_reports_the_bottom_edge_disagreement():
    # a - 2 = {-2, ..., 1} misses every positive even time, though a covers Z/2.
    v = crosscheck_cyclic_equivalence(Window((0, 1, 2, 3), 50), 3, range(-2, 3))
    assert v.fails and v.witness == (2, True, False, False)
    assert v.note == "m=2: residue coverage=True, return-time hitting=False, difference-set hitting=False"


@pytest.mark.parametrize(
    "missing, window, witness",
    [(None, odds(1001), (2, True, False, False)), (0, interval(0, 100), (1, False, True, True))],
    ids=["always-covered", "never-covered"],
)
def test_crosscheck_residue_oracle_feeds_only_the_coverage_predicate(monkeypatch, missing, window, witness):
    # A wrong residue answer must show as a disagreement, never move predicates 2 and 3.
    monkeypatch.setattr(recurrence, "_missing_residues", lambda arr, max_period: [missing] * max_period)
    v = crosscheck_cyclic_equivalence(window, 2, range(-2, 3))
    assert v.fails and v.witness == witness


def test_crosscheck_sees_a_corrupted_step(monkeypatch):
    # Return times read the dynamics through step alone: send 4 to 1 on Z/5, so
    # the orbit of 0 never comes back, and only predicate (2) moves, at m = 5.
    step = CyclicSystem.step

    def corrupted(self, state):
        return 1 if (self.period, state) == (5, 4) else step(self, state)

    w = interval(20, 400)
    assert crosscheck_cyclic_equivalence(w, 6, range(-6, 7)).holds
    monkeypatch.setattr(CyclicSystem, "step", corrupted)
    _comparison_table.cache_clear()
    try:
        v = crosscheck_cyclic_equivalence(w, 6, range(-6, 7))
    finally:
        _comparison_table.cache_clear()
    assert v.fails and v.witness == (5, True, False, True)


def test_crosscheck_sees_a_corrupted_difference_set(monkeypatch):
    # Predicate (3) reads S - S through difference_set alone: empty it for the
    # m = 5 progressions, and only predicate (3) moves, at m = 5.
    honest = recurrence.difference_set

    def corrupted(w):
        return Window((), w.horizon) if w.elements[1] - w.elements[0] == 5 else honest(w)

    w = interval(20, 400)
    assert crosscheck_cyclic_equivalence(w, 6, range(-6, 7)).holds
    monkeypatch.setattr(recurrence, "difference_set", corrupted)
    _comparison_table.cache_clear()
    try:
        v = crosscheck_cyclic_equivalence(w, 6, range(-6, 7))
    finally:
        _comparison_table.cache_clear()
    assert v.fails and v.witness == (5, True, True, False)


def test_crosscheck_builds_one_difference_set_per_translation_class(monkeypatch):
    # The m progressions on [0, ext] have at most two lengths, so a cold
    # M = 12 cross-check builds at most 1 + 2·11 = 2M - 1 difference sets,
    # and gives each one column of the position table, besides one column
    # for each m's return-time window.
    calls = []

    def counted(w):
        calls.append(len(w))
        return difference_set(w)

    monkeypatch.setattr(recurrence, "difference_set", counted)
    _comparison_table.cache_clear()
    try:
        v = crosscheck_cyclic_equivalence(interval(20, 2000), 12, range(-6, 7))
        ext = 2000 + 6 + 12
        table, windows, columns = _comparison_table(ext, 12)
    finally:
        _comparison_table.cache_clear()
    assert v.holds
    assert len(calls) == len({(m, (ext - r) // m + 1) for m in range(1, 13) for r in range(m)}) <= 23
    assert len(windows) == len(columns) + len(calls) == 12 + len(calls)
    assert sum(bin(nuu | diffs).count("1") for nuu, diffs in columns) == len(windows)
    assert table.shape == (ext + 3, 1)
    assert all(np.array_equal(_column(table, j), w.array + 1) for j, w in enumerate(windows))


def _column(table, j):
    # The rows with bit j set.
    return np.flatnonzero(table[:, j // 64] >> np.uint64(j % 64) & np.uint64(1))


def _kernel_windows(seed: int, count: int) -> list:
    # Progressions {m, 2m, ...} like the cross-check's, random subsets and
    # empty windows on [0, 500].
    rng = np.random.default_rng(seed)
    windows = []
    for _ in range(count):
        kind, top = rng.integers(3), int(rng.integers(0, 501))
        if kind == 0:
            m = int(rng.integers(1, 30))
            windows.append(Window(np.arange(m, top + 1, m), top))
        elif kind == 1:
            windows.append(Window(np.flatnonzero(rng.random(top + 1) < rng.random() / 4), top))
        else:
            windows.append(Window((), top))
    return windows


@given(
    st.lists(st.integers(0, 400), max_size=80, unique=True),
    st.integers(1, 90),
    st.integers(0, 2 ** 32 - 1),
    st.lists(st.integers(-600, 600), max_size=12),
    st.sampled_from([0, -1, 1]),
)
@example([], 3, 0, [0], 0)  # an empty window
@example(list(range(0, 400, 3)), 70, 1, [2, -5, 2, 0, -5, 9], 0)
@example(list(range(1, 400, 2)), 66, 2, [4, -3, 1, 0], -1)
@example(list(range(1, 400, 2)), 66, 3, [4, -3, 1, 0], 1)
# Two windows: the prefix reads 8 elements, and window 1 meets a + 0, a + 3
# and a - 2 first at elements 24, 17 and 18, past it, so the bitmask settle
# decides them, on a window of 40 elements and on one of 80.
@example(list(range(3, 200, 5)), 2, 16, [0, 3, -2], 0)
@example(list(range(3, 400, 5)), 2, 16, [0, 3, -2], 0)
@settings(max_examples=120, deadline=None)
def test_shifted_hits_hold_iff_every_shifted_hit_holds(a_elems, count, seed, shifts, far):
    # Shifts come duplicated, sorted as the cross-check passes them, or (far)
    # all past int64 below -horizon or above every window; J reaches past one
    # 64-bit word; a window longer than the prefix sends its open pairs to the
    # bitmask settle.
    a = Window(tuple(sorted(a_elems)), 450)
    if far:
        shifts = [far * (a.horizon + 10 ** 20) + n for n in shifts]
    windows = _kernel_windows(seed, count)
    table = _position_table(windows)
    assert all(np.array_equal(_column(table, j), w.array + 1) for j, w in enumerate(windows))
    hits = _shifted_hits(a, sorted(shifts), table, windows)
    assert hits >> len(windows) == 0
    for j, d in enumerate(windows):
        assert bool(hits >> j & 1) == all(shifted_hit(a, d, -n).holds for n in shifts), j


@pytest.mark.parametrize("batch", [1, 600, 2 ** 22])
def test_shifted_hits_gather_the_shifts_in_blocks(batch):
    # A gather of rows x prefix x words past _BATCH_ELEMENTS takes the shifts
    # in blocks (one shift a block at 1, four at 600 for the 4·34-element
    # prefix), and their met pairs join in shift order.
    a = Window(tuple(n for n in range(50, 2_001) if n % 7 != 3), 2_000)
    _comparison_table.cache_clear()
    try:
        table, windows, _ = _comparison_table(2_000 + 6 + 12, 12)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(recurrence, "_BATCH_ELEMENTS", batch)
            hits = _shifted_hits(a, range(-6, 7), table, windows)
        for j, d in enumerate(windows):
            assert bool(hits >> j & 1) == all(shifted_hit(a, d, -n).holds for n in range(-6, 7)), j
        assert hits != (1 << len(windows)) - 1
    finally:
        _comparison_table.cache_clear()


@pytest.mark.parametrize("missed", [0, 3])
def test_shifted_hits_settle_a_window_longer_than_the_prefix_cap(missed):
    # Past the prefix the pairs left open (the shifts n = -missed mod 7, at
    # m = 7) go to the bitmask settle, which must answer as shifted_hit does.
    a = Window(tuple(n for n in range(50, 10_001) if n % 7 != missed), 10_000)
    _comparison_table.cache_clear()
    try:
        table, windows, _ = _comparison_table(10_000 + 6 + 12, 12)
        assert len(a) > recurrence._SLICE_PER_WINDOW * len(windows)
        hits = _shifted_hits(a, range(-6, 7), table, windows)
        for j, d in enumerate(windows):
            assert bool(hits >> j & 1) == all(shifted_hit(a, d, -n).holds for n in range(-6, 7)), j
        assert hits != (1 << len(windows)) - 1
        assert crosscheck_cyclic_equivalence(a, 12, range(-6, 7)).holds
    finally:
        _comparison_table.cache_clear()


def test_shifted_hits_settle_a_window_one_element_past_the_prefix():
    # The prefix holds only elements = 1 mod 7, so no pair at m = 7 is met in
    # it; the one element left unread, a multiple of 7, meets every m = 7
    # window, which the settle must see.
    _comparison_table.cache_clear()
    try:
        table, windows, columns = _comparison_table(2_000 + 0 + 7, 7)
        prefix = recurrence._SLICE_PER_WINDOW * len(windows)
        a = Window(tuple(range(1, 7 * prefix, 7)) + (7 * prefix,), 2_000)
        assert len(a) == prefix + 1
        hits = _shifted_hits(a, [0], table, windows)
        for j, d in enumerate(windows):
            assert bool(hits >> j & 1) == shifted_hit(a, d, 0).holds, j
        nuu, diffs = columns[6]
        assert hits & (nuu | diffs) == nuu | diffs
    finally:
        _comparison_table.cache_clear()


def test_crosscheck_shifts_far_below_the_window_allocate_nothing_for_them():
    # A shift below -horizon meets nothing and is read as -horizon - 1: the
    # table is never padded by the shift range.
    w = interval(50, 10_000)
    _comparison_table.cache_clear()
    tracemalloc.start()
    try:
        v = crosscheck_cyclic_equivalence(w, 12, range(-10 ** 9, -10 ** 9 + 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        _comparison_table.cache_clear()
    assert peak < 2 * 2 ** 20
    note = "m=1: residue coverage=True, return-time hitting=False, difference-set hitting=False"
    assert v == Verdict.fail((1, True, False, False), note=note)


def test_crosscheck_windows_all_have_bitmasks():
    # _shifted_hits settles open pairs on bitmasks only: every window the
    # cross-check accepts or builds lies within the bitmask cap.
    assert recurrence._CROSSCHECK_HORIZON_CAP <= _BITMASK_HORIZON_CAP


def test_crosscheck_rejects_huge_elements():
    with pytest.raises(ValueError):
        crosscheck_cyclic_equivalence(Window((10 ** 9,), 10 ** 9), 3, range(-1, 2))


def test_crosscheck_cap_bounds_the_horizon(monkeypatch):
    # The comparison windows reach the horizon, so small elements under a wide one are refused.
    with pytest.raises(ValueError, match="30000000 exceeds the 1000000 cap"):
        crosscheck_cyclic_equivalence(Window((50, 77), 30_000_000), 2, range(-1, 2))
    monkeypatch.setattr(recurrence, "_CROSSCHECK_HORIZON_CAP", 400)
    # Horizon 397 builds windows up to 397 + 1 + 2 = 400, the cap itself.
    assert crosscheck_cyclic_equivalence(Window((50, 77), 397), 2, range(-1, 2)).holds
    with pytest.raises(ValueError, match="401 exceeds the 400 cap"):
        crosscheck_cyclic_equivalence(Window((50, 77), 401), 2, range(-1, 2))


@pytest.mark.parametrize("shift, refused", [(13, False), (14, True), (-5 - 10 ** 9, False)])
def test_crosscheck_cap_bounds_the_comparison_windows(monkeypatch, shift, refused):
    # The windows reach ext = horizon + max(largest shift, 0) + max_period:
    # 980 + 13 + 7 = 1000 is the cap and passes, one more is refused, and
    # shifts below 0 add nothing.
    monkeypatch.setattr(recurrence, "_CROSSCHECK_HORIZON_CAP", 1000)
    _comparison_table.cache_clear()
    w = Window(tuple(range(100, 981, 3)), 980)
    if refused:
        with pytest.raises(ValueError, match=r"= 980 \+ 14 \+ 7 = 1001, past the 1000 cap"):
            crosscheck_cyclic_equivalence(w, 7, [-2, shift])
        assert _comparison_table.cache_info().currsize == 0  # refused before any window is built
    else:
        crosscheck_cyclic_equivalence(w, 7, [-2, shift])


def test_crosscheck_refuses_a_far_shift_before_building_windows():
    # A horizon far below the cap, but a shift that takes the windows past it.
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"= 10 \+ 2000000 \+ 3 = 2000013, past the 1000000 cap"):
            crosscheck_cyclic_equivalence(Window((5,), 10), 3, [2_000_000])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_crosscheck_rejects_max_period_below_one():
    # As r_sequence_cyclic does: no m <= 0 to agree on, so nothing holds vacuously.
    for max_period in (0, -1):
        with pytest.raises(ValueError, match="max_period must be >= 1"):
            crosscheck_cyclic_equivalence(interval(0, 10), max_period, range(-1, 2))


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_crosscheck_agreement_property(data):
    max_period = data.draw(st.integers(1, 6))
    span = data.draw(st.integers(max_period, 8))
    elems = data.draw(st.lists(st.integers(20, 400), min_size=0, max_size=60, unique=True))
    # support floor 20 >= max_period + |min shift| keeps the equivalence exact
    w = Window(tuple(sorted(elems)), 400)
    v = crosscheck_cyclic_equivalence(w, max_period, range(-span, span + 1))
    assert v.holds, v.note


def _reference_crosscheck(a: Window, max_period: int, shifts: list) -> Verdict:
    # The cross-check's verdict rebuilt from three sources: a set scan of the
    # residues, shifted_hit against each window _comparison_table returns, and
    # a comparison of the three predicates at every m in turn.
    ext = a.horizon + max(shifts[-1], 0) + max_period
    _, windows, columns = _comparison_table(ext, max_period)
    hit = [all(shifted_hit(a, d, -n).holds for n in shifts) for d in windows]
    for m, (nuu, diffs) in enumerate(columns, start=1):
        covered = {e % m for e in a.elements} == set(range(m))
        return_hit = all(hit[j] for j in range(len(windows)) if nuu >> j & 1)
        diff_hit = all(hit[j] for j in range(len(windows)) if diffs >> j & 1)
        if not covered == return_hit == diff_hit:
            note = f"m={m}: residue coverage={covered}, return-time hitting={return_hit}, difference-set hitting={diff_hit}"
            return Verdict.fail((m, covered, return_hit, diff_hit), note=note)
    return Verdict.hold(note=f"all three predicates agree for every m <= {max_period} across {len(shifts)} shifts")


def test_crosscheck_verdict_matches_a_reference_where_predicates_can_disagree():
    # Windows from 0 up and shift ranges of 1 to 2M + 1 integers, some shorter
    # than M, so the predicates can disagree honestly at the bottom edge: the
    # whole verdict, witness and note included, must match the reference, and
    # both agreeing and disagreeing windows must be drawn.
    kinds = set()

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def check(data):
        max_period = data.draw(st.integers(1, 15))
        count = data.draw(st.integers(1, 2 * max_period + 1))
        first = data.draw(st.integers(-max_period - 6, max_period + 6))
        elems = data.draw(st.lists(st.integers(0, 400), max_size=60, unique=True))
        w, shifts = Window(tuple(sorted(elems)), 400), list(range(first, first + count))
        v = crosscheck_cyclic_equivalence(w, max_period, shifts)
        assert v == _reference_crosscheck(w, max_period, shifts)
        kinds.add(v.status)

    check()
    assert kinds == {Status.HOLDS, Status.FAILS}


# -- finite_subcover ----------------------------------------------------------------


def test_subcover_of_interval():
    b = finite_subcover(interval(0, 100), 7)
    assert b.elements == tuple(range(7))
    assert len(b) == 7


def test_subcover_squares_mod_5_fails():
    sq = squares(100, horizon=10_000)
    with pytest.raises(CoverageError) as info:
        finite_subcover(sq, 5)
    assert info.value.missing == 2  # squares mod 5 = {0, 1, 4}


@given(st.lists(st.integers(0, 400), min_size=1, max_size=80, unique=True), st.integers(1, 15))
@settings(max_examples=60, deadline=None)
def test_subcover_minimal_and_replayable(elems, m):
    a = Window(tuple(sorted(elems)), 400)
    if r_sequence_cyclic(a, m).per_system[f"cyclic:{m}"]["covered"]:
        b = finite_subcover(a, m)
        assert len(b) == m  # one element per class is forced and minimal
        assert {e % m for e in b.elements} == set(range(m))
        assert set(b.elements) <= set(a.elements)


@given(
    st.lists(st.integers(0, 400), max_size=80, unique=True),
    st.sampled_from([0, 2 ** 62, 2 ** 64 + 5]),
    st.integers(1, 40),
)
@example([], 0, 1)  # an empty window misses 0
@example([], 2 ** 64 + 5, 7)
@example([0, 1, 3, 4, 6, 7], 0, 3)  # {0, 1} mod 3: 2 is missing
@example(list(range(0, 400, 2)), 2 ** 64 + 5, 4)  # past 2^64, 1 and 3 mod 4: 0 is missing
@example([0, 1, 2], 0, 40)  # m larger than the window: every class below it is hit, 3 is missing
@settings(max_examples=80, deadline=None)
def test_subcover_failure_names_the_least_missing_class(elems, base, m):
    # finite_subcover's CoverageError carries the class the coverage kernel
    # reports for m; a window that covers Z/m gets its subcover.
    a = Window(tuple(base + e for e in sorted(elems)), base + 400)
    entry = r_sequence_cyclic(a, m).per_system[f"cyclic:{m}"]
    if entry["covered"]:
        assert len(finite_subcover(a, m)) == m
    else:
        with pytest.raises(CoverageError) as info:
            finite_subcover(a, m)
        assert (info.value.period, info.value.missing) == (m, entry["missing"])


# -- product transitivity --------------------------------------------------------------


def test_product_transitive_examples():
    r = product_transitive_finite(2, 3)
    assert r.coprime and r.orbit_size == 6 and r.agrees
    r = product_transitive_finite(2, 2)
    assert not r.coprime and r.orbit_size == 2 and r.agrees


def test_product_refuses_a_large_orbit_before_building_a_state(monkeypatch):
    # lcm(100003, 100019) states would not fit in memory: the refusal comes first.
    def reached(self, state):
        raise AssertionError("a state was built")

    monkeypatch.setattr(ProductSystem, "step", reached)
    with pytest.raises(ValueError, match=r"lcm\(m, n\) = 10002200057 states, past the 4194304 cap"):
        product_transitive_finite(100_003, 100_019)


def test_product_cap_reads_the_orbit_not_the_product():
    # m·n = 2^22, but the orbit of (0, 0) has lcm = 2048 states.
    r = product_transitive_finite(2048, 2048)
    assert not r.coprime and r.orbit_size == 2048 and r.agrees


def test_product_cap_boundary(monkeypatch):
    monkeypatch.setattr(recurrence, "_PRODUCT_ORBIT_CAP", 12)
    assert product_transitive_finite(3, 4).orbit_size == 12  # the cap itself
    assert product_transitive_finite(4, 6).orbit_size == 12  # m·n = 24 past it
    with pytest.raises(ValueError, match="lcm\\(m, n\\) = 15 states, past the 12 cap"):
        product_transitive_finite(3, 5)


# -- cesaro averages ---------------------------------------------------------------------


def test_cesaro_closed_form_cross_check():
    rot = RotationSystem.from_angle(GOLDEN)
    w = interval(1, 2000, horizon=2000)
    trace = cesaro_average_along(w, rot, 1)
    for n in (1, 2, 10, 55, 610, 987, 1597, 2000):
        cf = cesaro_interval_closed_form(n, GOLDEN, 1)
        assert abs(trace[n - 1] - cf) <= 1e-9 * cf


def test_cesaro_geometric_bound_decreasing():
    rot = RotationSystem.from_angle(GOLDEN)
    n_max = 2000
    trace = cesaro_average_along(interval(1, n_max, horizon=n_max), rot, 1)
    z = cmath.exp(2j * math.pi * GOLDEN)
    bounds = [2.0 / (n * abs(1 - z)) for n in range(1, n_max + 1)]
    assert all(t <= b + 1e-12 for t, b in zip(trace, bounds))
    assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))


def test_cesaro_zero_rotation_stays_at_one():
    rot = RotationSystem.from_angle(0.0)
    trace = cesaro_average_along(interval(1, 50, horizon=50), rot, 1)
    assert all(abs(t - 1.0) < 1e-12 for t in trace)


def test_cesaro_evens_under_half_rotation_stay_at_one():
    rot = RotationSystem.from_angle(0.5)
    trace = cesaro_average_along(evens(200), rot, 1)
    assert all(abs(t - 1.0) < 1e-12 for t in trace)


def test_cesaro_reads_the_double_of_an_exact_angle():
    # The Cesàro pair reads float(angle): an exact 1/3 gives what the double 1/3 gives.
    w = squares(300)
    exact, double = RotationSystem.from_rationals(Fraction(1, 3)), RotationSystem.from_angle(1 / 3)
    for k in (1, 5):
        assert cesaro_average_along(w, exact, k, 0.25) == cesaro_average_along(w, double, k, 0.25)


def _reference_cesaro(a, sys, k, start=0.0):
    # One exact n·x mod 1 per element, each rounded once, then the same sums as the engine.
    def mult_angle_mod1(n, x):
        num, den = float(x).as_integer_ratio()
        return ((n * num) % den) / den

    if not len(a):
        return []
    base = mult_angle_mod1(k, float(start)) if start else 0.0
    phases = np.array([(base + mult_angle_mod1(k * n, sys.angles[0])) % 1.0 for n in a.array.tolist()])
    terms = np.exp(2j * np.pi * phases).astype(np.clongdouble)
    mags = np.abs(np.cumsum(terms)) / np.arange(1, len(terms) + 1, dtype=np.longdouble)
    return [float(x) for x in mags]


_CESARO_ANGLES = [GOLDEN, 0.0, 0.5, 0.1, 1 / 3, 5e-300, 1 - 2 ** -53, Fraction(1, 3), Fraction(5, 7)]


@given(
    st.sampled_from(_CESARO_ANGLES),
    st.sampled_from([0, 2 ** 40, 2 ** 63 - 50, 2 ** 64 - 20, 2 ** 70]),
    st.lists(st.integers(0, 200), max_size=40, unique=True),
    st.integers(-(2 ** 70), 2 ** 70).filter(bool),
    st.sampled_from([0.0, 0.25, 0.3, -0.7, 5e-300, Fraction(2, 5)]),
)
@settings(max_examples=200, deadline=None)
@example(5e-300, 2 ** 64 - 20, [0, 19, 20, 21, 200], -3, 0.3)
@example(GOLDEN, 2 ** 70, [1, 2, 3], 2 ** 64 + 1, 0.0)
def test_cesaro_matches_the_per_element_reference(alpha, base, offsets, k, start):
    # Times past 2^64, exact and double angles (an exact one is read as its double), starts, k of both signs.
    a, sys = Window(sorted(base + x for x in offsets), base + 200), RotationSystem((alpha,))
    assert cesaro_average_along(a, sys, k, start) == _reference_cesaro(a, sys, k, start)


@pytest.mark.parametrize("alpha, k", [(0.5, 2), (0.25, -4), (0.0, 3), (Fraction(3, 4), 4)])
def test_cesaro_closed_form_is_one_when_k_alpha_is_an_integer(alpha, k):
    # Every term is e^0: the geometric sum degenerates, and the average is 1.
    assert cesaro_interval_closed_form(7, alpha, k) == 1.0


def test_cesaro_k_zero_rejected():
    with pytest.raises(ValueError):
        cesaro_average_along(interval(1, 10), RotationSystem.from_angle(GOLDEN), 0)
    with pytest.raises(TypeError):
        cesaro_average_along(interval(1, 10), CyclicSystem(3), 1)


# -- seeded window sweep --------------------------------------------------------------------


@pytest.mark.parametrize("count", [0, -3])
def test_random_windows_rejects_an_empty_sweep(count):
    with pytest.raises(ValueError, match="count must be >= 1"):
        random_windows(count, 500)


def test_random_windows_deterministic():
    a = random_windows(5, 1000, seed=42)
    b = random_windows(5, 1000, seed=42)
    c = random_windows(5, 1000, seed=43)
    assert a == b
    assert a != c
    assert all(w.elements[0] >= 50 for w in a if w.elements)
    assert all(w.horizon == 1000 for w in a)


# -- exact rational rotations --------------------------------------------------------


def test_metric_exact_rotation_is_exact_at_large_times():
    # The exact orbit of every start along multiples of 3 is a single point.
    w = Window(tuple(3 * 10 ** 17 + 3 * i for i in range(2000)), 3 * 10 ** 17 + 3 * 1999)
    report = r_sequence_metric(w, RotationSystem.from_rationals(Fraction(1, 3)), 0.1, 0.25)
    assert report.verdict.fails and report.verdict.witness == 1
    assert report.per_system == {"0.0": {"cells_hit": 1, "cells": 10, "empty_cell": 1}}


@pytest.mark.parametrize("base", [3 * 10 ** 12, 3 * 10 ** 17])
def test_birkhoff_exact_rotation_returns_exactly(base):
    w = Window(tuple(base + 3 * i for i in range(1, 51)), base + 150)
    v = birkhoff_window_test(w, RotationSystem.from_rationals(Fraction(1, 3)), 0.01)
    assert v.holds and v.witness == (0.0, base + 3)
    assert "within 0 <" in v.note


# -- window-at-once engine vs the exact reference ------------------------------------
#
# tests/exact_reference.py restates both window tests from the definitions,
# in Fraction arithmetic on the exact orbits of the doubles a system holds.
# The engine's reports must equal them, byte for byte.


def _exact_metric(a, sys, eps, start_grid_resolution):
    return exact_reference.r_sequence_metric(a.array.tolist(), a.horizon, sys, eps, start_grid_resolution)


def _exact_birkhoff(a, sys, eps, start_grid_resolution=1.0):
    status, witness, note = exact_reference.birkhoff(a.array.tolist(), a.horizon, sys, eps, start_grid_resolution)
    return Verdict(Status(status), witness, note)


METRIC_SYSTEMS = [
    RotationSystem.from_angle(GOLDEN),
    RotationSystem((GOLDEN, math.sqrt(2.0) - 1.0)),
    RotationSystem.from_angle(0.1),
    SkewProductSystem(GOLDEN),
    SkewProductSystem(0.3),
    RotationSystem.from_rationals(Fraction(2, 7)),
    RotationSystem.from_rationals(Fraction(1, 3), Fraction(2, 5)),
    # Angles whose exact states land on cell edges.
    RotationSystem.from_angle(0.25),
    RotationSystem((0.5, 0.3)),
    SkewProductSystem(0.25),
    # Exact skews: no floating-point budget.
    SkewProductSystem(Fraction(1, 3)),
    SkewProductSystem(Fraction(2, 7)),
]


@st.composite
def metric_windows(draw):
    # Times up to 10^digits, so the float budget passes at small digits and
    # not at large ones; some windows hold 0, some are empty.
    top = 10 ** draw(st.integers(1, 15))
    times = set(draw(st.lists(st.integers(1, top), max_size=150)))
    if draw(st.booleans()):
        times.add(0)
    times = tuple(sorted(times))
    return Window(times, max(times, default=0) + draw(st.integers(0, 5)))


@given(
    st.sampled_from(METRIC_SYSTEMS),
    metric_windows(),
    st.sampled_from([0.6, 0.25, 0.1, 0.05, 0.02, 0.007]),
    st.sampled_from([1.0, 0.5, 0.3, 0.25]),
)
@settings(max_examples=200, deadline=None)
def test_metric_engine_matches_per_state_loops(sys, w, eps, grid):
    expected = _exact_metric(w, sys, eps, grid)
    assert r_sequence_metric(w, sys, eps, grid).to_json() == expected
    assert birkhoff_window_test(w, sys, eps, grid) == _exact_birkhoff(w, sys, eps, grid)


@pytest.mark.parametrize("sys", METRIC_SYSTEMS, ids=lambda v: v.spec_string())
def test_metric_engine_on_empty_and_zero_windows(sys):
    for w in (Window((), 0), Window((), 9), Window((0,), 0), Window((0, 5), 6)):
        for eps in (0.6, 0.05):
            expected = _exact_metric(w, sys, eps, 0.5)
            assert r_sequence_metric(w, sys, eps, 0.5).to_json() == expected
            assert birkhoff_window_test(w, sys, eps, 0.5) == _exact_birkhoff(w, sys, eps, 0.5)


@pytest.mark.parametrize("sys", [CyclicSystem(5), OdometerSystem(2, 3)], ids=lambda v: v.spec_string())
@pytest.mark.parametrize("eps", [0.5, 1.5])
def test_finite_birkhoff_matches_per_state_loop(sys, eps):
    for w in (odds(101), multiples(8, 200), Window((), 0), Window((0,), 3), Window((0, 3, 2 ** 70), 2 ** 70)):
        assert birkhoff_window_test(w, sys, eps) == _exact_birkhoff(w, sys, eps)


def test_birkhoff_late_return_crosses_slices():
    # A late return (at 377 for eps 0.001), and the closest return when the
    # first start never comes back.
    rot = RotationSystem.from_angle(GOLDEN)
    w = Window(tuple(range(1, 400)), 400)
    for eps in (0.001, 0.0005, 1e-4):
        v = birkhoff_window_test(w, rot, eps, 0.5)
        assert v == _exact_birkhoff(w, rot, eps, 0.5)
    assert birkhoff_window_test(w, rot, 0.001, 0.5).witness == (0.0, 377)


@pytest.mark.parametrize("zero", [False, True])
def test_birkhoff_return_at_every_slice_edge(zero):
    # Only the time at index b returns on Z/7; b runs over indices 29-35,
    # 157-163 and 669-675, and the last, 699, with and without a leading 0:
    # the witness is that one time wherever it lies in the window.
    sys = CyclicSystem(7)
    for b in [*range(29, 36), *range(157, 164), *range(669, 676), 699]:
        times = [7 * i + 1 + i % 6 for i in range(700)]
        times[b] = 7 * b
        w = Window(((0,) if zero else ()) + tuple(times), 7 * 700)
        expected = _exact_birkhoff(w, sys, 0.5)
        assert expected.witness == (0, 7 * b)
        assert birkhoff_window_test(w, sys, 0.5) == expected


@given(
    st.sampled_from([(1, 7), (2, 7), (3, 10), (1, 2)]),
    st.integers(1, 900),
    st.integers(0, 2 ** 32),
    st.lists(st.sampled_from([0.0, 0.1, 0.2, 0.5, 0.9, 1.0]), max_size=2),
    st.sampled_from([0.25, 0.5]),
    st.booleans(),
)
@example((2, 7), 700, 1, [1.0], 0.25, False)  # a return at the last time
@example((3, 10), 900, 2, [], 0.5, True)  # no return: the first start and time of the least distance
@settings(max_examples=40, deadline=None)
def test_birkhoff_ties_and_late_returns_match_every_start_at_every_time(angle, count, seed, planted, grid, wide):
    # Rotation by p/q along times off the multiples of q: no return below
    # 1/q, and the least distance is tied at many times across the window.
    # Multiples of q planted at fractions of the window, up to its last time,
    # return exactly.
    p, q = angle
    rot = RotationSystem.from_rationals(Fraction(p, q))
    offsets = np.random.default_rng(seed).choice(10 ** 6, size=count, replace=False)
    times = sorted(int(t) * q + 1 + int(t) % (q - 1) for t in offsets)
    for at in planted:
        i = round(at * (count - 1))
        times[i] -= times[i] % q
    w = Window(tuple(times), times[-1])
    eps = 1.5 / q if wide else 0.5 / q
    expected = _exact_birkhoff(w, rot, eps, grid)
    assert expected.holds == bool(planted) or wide
    assert birkhoff_window_test(w, rot, eps, grid) == expected


@given(
    st.sampled_from([RotationSystem.from_angle(GOLDEN), RotationSystem((GOLDEN, math.sqrt(2.0) - 1.0)),
                     SkewProductSystem(GOLDEN), SkewProductSystem(0.3)]),
    st.integers(150, 800),
    st.integers(0, 2 ** 32),
    st.sampled_from([0.002, 0.01, 0.03]),
)
@settings(max_examples=20, deadline=None)
def test_birkhoff_long_windows_match_every_start_at_every_time(sys, count, seed, eps):
    # Windows of 150-800 times on irrational rotations and the skew product:
    # a late return or the closest one.
    times = np.sort(np.random.default_rng(seed).choice(10 ** 7, size=count, replace=False) + 1)
    w = Window(times.tolist(), int(times[-1]))
    assert birkhoff_window_test(w, sys, eps, 0.5) == _exact_birkhoff(w, sys, eps, 0.5)


# -- the start grid as batches --------------------------------------------------------

LATER_START_CASES = [
    # (system, window, eps, grid, the start whose orbit is dense)
    (RotationSystem.from_angle(GOLDEN), Window((4, 8, 11), 40), 0.34, 0.25, 0.5),
    (SkewProductSystem(GOLDEN), Window((1, 4, 5, 25, 30, 31, 32, 35, 36), 40), 0.34, 0.25, (0.75, 0.75)),
]


@pytest.mark.parametrize("sys, w, eps, grid, start", LATER_START_CASES, ids=["rot", "skew"])
def test_metric_dense_only_from_a_later_start(sys, w, eps, grid, start):
    # The first start fails and the batch of the others holds, at a row past its first.
    report = r_sequence_metric(w, sys, eps, grid)
    assert report.verdict.holds and report.verdict.witness == start != sys.starts(grid)[0]
    assert report.to_json() == _exact_metric(w, sys, eps, grid)


@pytest.fixture
def grids_built(monkeypatch) -> list:
    # The resolution of every start grid built, in call order.
    built = []

    def starts(self, resolution, starts=TorusSystem.starts):
        built.append(resolution)
        return starts(self, resolution)

    monkeypatch.setattr(TorusSystem, "starts", starts)
    return built


@pytest.mark.parametrize("sys", [RotationSystem((GOLDEN, 0.41421356237309503)), SkewProductSystem(GOLDEN)])
def test_metric_builds_no_grid_when_the_first_start_is_dense(grids_built, sys):
    report = r_sequence_metric(interval(1, 20000), sys, 0.1, 0.002)
    assert report.verdict.holds and report.verdict.witness == (0.0, 0.0)
    assert grids_built == []


@pytest.mark.parametrize("sys, w, eps, grid", [case[:4] for case in LATER_START_CASES] + [
    (RotationSystem((GOLDEN, 0.3)), interval(0, 10), 0.1, 0.5),  # no start is dense
])
def test_metric_builds_the_grid_once_past_the_first_start(grids_built, sys, w, eps, grid):
    report = r_sequence_metric(w, sys, eps, grid)
    assert grids_built == [grid]
    assert report.to_json() == _exact_metric(w, sys, eps, grid)


def test_exact_rotation_returns_at_the_distance_below_the_double_eps():
    # The exact distance 1/10 lies below the double 0.1, and 1/5 below 0.2:
    # the return is within eps, as it is exactly.
    for q, eps in ((10, 0.1), (5, 0.2)):
        w, rot = Window([1], 1), RotationSystem.from_rationals(Fraction(1, q))
        v = birkhoff_window_test(w, rot, eps)
        assert v.holds and v.witness == (0.0, 1)
        assert v == _exact_birkhoff(w, rot, eps)


@pytest.mark.parametrize("q", [3, 5, 7, 10, 12, 49])
def test_exact_rotation_birkhoff_at_eps_the_double_nearest_the_distance(q):
    # Rotation by 1/q returns to within j/q at time j; eps is the double
    # nearest j/q, so the return holds exactly when that double rounds up.
    rot = RotationSystem.from_rationals(Fraction(1, q))
    for j in range(1, q // 2 + 1):
        w, eps = Window([j], j), j / q
        expected = _exact_birkhoff(w, rot, eps)
        assert expected.holds == (Fraction(eps) > Fraction(j, q))
        assert birkhoff_window_test(w, rot, eps) == expected
        assert birkhoff_window_test(w, rot, eps, 0.25) == _exact_birkhoff(w, rot, eps, 0.25)


def test_metric_tests_break_exact_ties_by_the_first_start():
    # Rotation by 1/2 along odd times: every start hits one cell and returns
    # at distance 0.5 at every time, so the first start, then the first time, wins.
    rot, w = RotationSystem.from_angle(0.5), odds(99)
    report = r_sequence_metric(w, rot, 0.25, 0.25)
    assert report.per_system == {"0.0": {"cells_hit": 1, "cells": 4, "empty_cell": 0}}
    assert report.to_json() == _exact_metric(w, rot, 0.25, 0.25)
    v = birkhoff_window_test(w, rot, 0.1, 0.25)
    assert v == Verdict.fail((0.0, 1), note="closest return distance 0.5 >= eps = 0.1")
    assert v == _exact_birkhoff(w, rot, 0.1, 0.25)


def test_birkhoff_an_earlier_start_that_returns_later_wins():
    # In the batch of x classes, x = 0.75 returns at index 24 and x = 0.5
    # at index 38: the earlier start wins over the earlier time.
    skew = SkewProductSystem(GOLDEN)
    w = Window((15, 48, 57, 61, 74, 76, 93, 94, 126, 142, 149, 159, 160, 171, 176, 187, 190, 197, 205, 242,
                257, 280, 282, 295, 301, 306, 320, 329, 333, 348, 353, 369, 370, 376, 382, 384, 389, 408, 411), 600)
    v = birkhoff_window_test(w, skew, 0.05, 0.25)
    assert v.witness == ((0.5, 0.0), 411) and v == _exact_birkhoff(w, skew, 0.05, 0.25)
    assert birkhoff_window_test(w.restrict(410), skew, 0.05, 0.25).witness == ((0.75, 0.0), 301)


def test_birkhoff_a_later_x_class_returns_first():
    # No start with x = 0 returns on skew:0.3; the first that does has x = 0.25.
    skew = SkewProductSystem(0.3)
    times = np.sort(np.random.default_rng(4).choice(10 ** 6, 40, replace=False) + 1)
    w = Window(times.tolist(), int(times[-1]))
    v = birkhoff_window_test(w, skew, 0.02, 0.25)
    assert v.witness == ((0.25, 0.0), 219650) and v == _exact_birkhoff(w, skew, 0.02, 0.25)


def test_birkhoff_closest_return_tied_across_x_classes():
    # Odd times on skew:3/8 stay 1/8 away in x: every x class comes as close
    # as 1/8, x = 0 only at index 48 and the others before index 32.  The
    # earliest start wins over the earliest time.
    skew = SkewProductSystem(Fraction(3, 8))
    times = 2 * np.sort(np.random.default_rng(18).choice(10 ** 6, 60, replace=False)) + 1
    w = Window(times.tolist(), int(times[-1]))
    v = birkhoff_window_test(w, skew, 0.02, 0.25)
    assert v == Verdict.fail(((0.0, 0.0), 1654131), note="closest return distance 0.125 >= eps = 0.02")
    assert v == _exact_birkhoff(w, skew, 0.02, 0.25)


def _first_start_per_class(sys, grid: float) -> list:
    # Every start of the grid, keyed by the coordinates its return distance
    # d(T^n s, s) reads: x on the skew product, none on a group rotation.
    classes = {}
    for s in sys.starts(grid):
        classes.setdefault((s[0],) if isinstance(sys, SkewProductSystem) else (), s)
    return list(classes.values())


@pytest.mark.parametrize("spec", [
    "rot:golden", "rot:golden,0.41421356", "rot:1/3", "rot:1/3,2/5", "cyclic:7", "odo:2^3",
    "skew:golden", "skew:0.3", "skew:1/3",
])
@pytest.mark.parametrize("grid", [1.0, 0.5, 0.25, 0.1, 1 / 7])
def test_class_starts_are_the_first_start_of_each_class_of_the_grid(spec, grid):
    sys = parse_system_spec(spec)
    starts = sys._class_starts(grid)
    assert repr(starts) == repr(_first_start_per_class(sys, grid))


def test_class_starts_reject_what_starts_rejects():
    with pytest.raises(ValueError):
        RotationSystem.from_angle(GOLDEN)._class_starts(0.0)
    with pytest.raises(ValueError):
        SkewProductSystem(GOLDEN)._class_starts(-1.0)
    with pytest.raises(TypeError):
        ProductSystem(CyclicSystem(2), CyclicSystem(3))._class_starts(1.0)


@pytest.mark.parametrize("sys", [RotationSystem.from_angle(GOLDEN), RotationSystem((GOLDEN, 0.3)), SkewProductSystem(GOLDEN)],
                         ids=lambda v: v.spec_string())
@pytest.mark.parametrize("grid", [1e-300, 5e-324, 2.0 ** -22 * 0.999])
def test_a_grid_of_more_than_2_to_the_22_starts_is_refused_before_it_is_listed(monkeypatch, sys, grid):
    # The full grid is checked before the first start is read, so the refusal
    # does not hang on listing the grid and does not depend on whether the
    # first start is dense (in an empty window none is).
    real = TorusSystem.starts
    monkeypatch.setattr(TorusSystem, "starts", lambda self, resolution: pytest.fail("the grid was listed"))
    with pytest.raises(ValueError, match=re.escape("gives more than 2^22 starts")):
        r_sequence_metric(Window((), 5), sys, 0.1, grid)
    monkeypatch.undo()
    with pytest.raises(ValueError, match=re.escape("gives more than 2^22 starts")):
        real(sys, grid)
    w = Window((1, 2), 5)
    if isinstance(sys, SkewProductSystem):  # one class start per x of the grid
        with pytest.raises(ValueError, match=re.escape("gives more than 2^22 starts")):
            birkhoff_window_test(w, sys, 0.1, grid)
    else:  # one class start, whatever the grid
        assert birkhoff_window_test(w, sys, 0.1, grid) == birkhoff_window_test(w, sys, 0.1, 1.0)


def test_a_grid_of_2_to_the_22_starts_is_not_refused():
    for sys, axes in ((RotationSystem((GOLDEN, 0.3)), 2), (SkewProductSystem(GOLDEN), 1)):
        k = round((2 ** 22) ** (1 / axes))
        assert sys._grid(1 / k, axes) == k and k ** axes == 2 ** 22
        with pytest.raises(ValueError, match=re.escape("gives more than 2^22 starts")):
            sys._grid(1 / (k + 1), axes)


@pytest.mark.parametrize("spec, grid, rows", [
    ("rot:golden", 0.1, 1), ("rot:1/3,2/5", 0.25, 1), ("cyclic:7", 1.0, 1), ("odo:2^3", 1.0, 1),
    ("skew:golden", 0.25, 4), ("skew:0.3", 0.1, 10), ("skew:1/3", 0.5, 2),
])
def test_birkhoff_reads_one_start_per_return_class(monkeypatch, spec, grid, rows):
    # A rotation, cycle or odometer has one return class; the skew product one per x of its grid.
    read = set()
    for family in (FiniteSystem, TorusSystem):
        def along(self, a, starts, along=family.along):
            read.update(starts)
            return along(self, a, starts)

        monkeypatch.setattr(family, "along", along)
    sys = parse_system_spec(spec)
    w = odds(999)
    v = birkhoff_window_test(w, sys, 0.01, grid)
    assert len(read) == rows and read <= set(sys.starts(grid))
    monkeypatch.undo()
    assert v == _exact_birkhoff(w, sys, 0.01, grid)


@pytest.mark.parametrize("sys, w, eps, grid, den", [
    # A start 1/5000 needs a denominator past 2^64, and 0.1 one of 3·2^55: neither is read.
    (RotationSystem.from_angle(GOLDEN), interval(1, 2000), 1e-7, 1 / 5000, 2 ** 64),
    (RotationSystem.from_rationals(Fraction(1, 3)),
     Window(tuple(3 * 10 ** 17 + 3 * i + 1 for i in range(2000)), 3 * 10 ** 17 + 6000), 0.001, 0.1, 3),
])
def test_birkhoff_keeps_the_angles_denominator_on_a_fine_grid(monkeypatch, sys, w, eps, grid, den):
    engines = []

    def along(self, a, starts, along=TorusSystem.along):
        engines.append((list(starts), along(self, a, starts)))
        return engines[-1][1]

    monkeypatch.setattr(TorusSystem, "along", along)
    v = birkhoff_window_test(w, sys, eps, grid)
    assert [(starts, e.den, e._times.dtype) for starts, e in engines] == [([0.0], den, np.uint64)]
    assert v.witness[0] == 0.0


@pytest.mark.parametrize("cap", [1, 70, 100])
def test_metric_tests_split_large_batches(monkeypatch, cap):
    # Windows of 30 times: batches of 1, 2 and 3 starts after the first one.
    monkeypatch.setattr(recurrence, "_BATCH_ELEMENTS", cap)
    rows = max(1, cap // 30)
    skew = SkewProductSystem(GOLDEN)
    starts = skew.starts(0.25)
    batches = list(recurrence._start_batches(skew, 0.25, 30))
    assert [len(b) for b in batches] == [1] + [rows] * (15 // rows) + ([15 % rows] if 15 % rows else [])
    assert [s for b in batches for s in b] == starts
    squares30 = Window(tuple(n * n for n in range(30)), 29 ** 2)
    windows = [squares30, odds(59), Window(tuple(range(1, 31)), 30)]
    for sys in METRIC_SYSTEMS + [RotationSystem.from_angle(0.5)]:
        for w in windows:
            for eps, grid in ((0.34, 0.25), (0.1, 0.25), (0.02, 0.5)):
                expected = _exact_metric(w, sys, eps, grid)
                assert r_sequence_metric(w, sys, eps, grid).to_json() == expected
                assert birkhoff_window_test(w, sys, eps, grid) == _exact_birkhoff(w, sys, eps, grid)
    for sys, w, eps, grid, _ in LATER_START_CASES:
        expected = _exact_metric(w, sys, eps, grid)
        assert r_sequence_metric(w, sys, eps, grid).to_json() == expected


def test_metric_huge_cover_reports_without_listing_cells():
    # 10^10 x 10^10 cells: flat ids past int64, and far too many cells to list
    # (the per-state loop's itertools.product over them raises MemoryError).
    rot = RotationSystem((GOLDEN, 0.3))
    w = interval(0, 100)
    cover = rot.cover(1e-10)
    hit = len({cover.cell_of(rot.orbit_at((0.0, 0.0), n)) for n in w.elements})
    report = r_sequence_metric(w, rot, 1e-10, 0.5)
    assert report.verdict.fails and report.verdict.witness == (0, 1)
    assert report.per_system == {"(0.0, 0.0)": {"cells_hit": hit, "cells": 10 ** 20, "empty_cell": (0, 1)}}


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: return_times(CyclicSystem(3), 0, 0, 0), "horizon must be >= 1", id="return_times"),
        pytest.param(lambda: r_sequence_cyclic(interval(0, 9), 0), "max_period must be >= 1", id="r_sequence_cyclic"),
        pytest.param(lambda: crosscheck_cyclic_equivalence(interval(0, 9), 3, []), "shift range must be nonempty",
                     id="crosscheck_cyclic_equivalence"),
        pytest.param(lambda: finite_subcover(interval(0, 9), 0), "m must be >= 1", id="finite_subcover"),
        pytest.param(lambda: product_transitive_finite(0, 3), "m, n must be >= 1", id="product_transitive_finite"),
        pytest.param(lambda: cesaro_interval_closed_form(5, GOLDEN, 0), "k must be nonzero", id="cesaro-k"),
        pytest.param(lambda: cesaro_interval_closed_form(0, GOLDEN, 1), "need at least one term", id="cesaro-terms"),
    ],
)
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
