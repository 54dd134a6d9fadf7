"""Window type and classifier tests, with brute-force oracles for derived values."""
from __future__ import annotations

import bisect
import operator
import os
import re
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import evens, interval, multiples, odds
from dynwindow import intsets
from dynwindow import (
    SequenceFormatError,
    Verdict,
    Window,
    banach_density_estimate,
    difference_set,
    finite_ip,
    format_sequence,
    is_syndetic,
    is_thick,
    parse_sequence_file,
    parse_sequence_text,
    piecewise_syndetic_certificate,
    shifted_hit,
    write_sequence_file,
)
from dynwindow.intsets import _BITMASK_HORIZON_CAP, _fft_size
from dynwindow.recurrence import _comparison_table, crosscheck_cyclic_equivalence


# -- Window type ---------------------------------------------------------------


def test_window_validation():
    with pytest.raises(ValueError):
        Window((3, 2), 10)
    with pytest.raises(ValueError):
        Window((1, 1), 10)
    with pytest.raises(ValueError):
        Window((5,), 4)
    with pytest.raises(ValueError):
        Window((), -1)
    assert len(Window((), 0)) == 0
    assert Window((0, 5, 9), 9).horizon == 9


def test_window_validation_names_the_fault():
    with pytest.raises(ValueError, match=r"^negative element -5$"):
        Window((-5, 3), 10)
    with pytest.raises(ValueError, match=r"^elements not strictly ascending at 2, -1$"):
        Window((2, -1), 10)


def test_window_is_an_immutable_value():
    w = Window((1, 5), 10)
    for name in ("array", "horizon", "elements", "bitmask"):
        with pytest.raises(AttributeError):
            setattr(w, name, None)
        with pytest.raises(AttributeError):
            delattr(w, name)
    assert w.__eq__((1, 5)) is NotImplemented and w != (1, 5)
    assert repr(w) == "Window(elements=(1, 5), horizon=10)" and hash(w) == hash(((1, 5), 10))


def _loop_window_check(elements, horizon):
    # Window validation one element at a time, each read by operator.index:
    # the reference for the array checks.
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    elements = [operator.index(e) for e in elements]
    if elements and elements[0] < 0:
        raise ValueError(f"negative element {elements[0]}")
    prev = -1
    for e in elements:
        if e <= prev:
            raise ValueError(f"elements not strictly ascending at {prev}, {e}")
        prev = e
    if elements and elements[-1] > horizon:
        raise ValueError(f"element {elements[-1]} exceeds horizon {horizon}")


def _outcome(check, *args):
    try:
        check(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return "accepted"


WINDOW_CASES = [
    ((), -1),
    ((), 0),
    ((-5, 3), 10),
    ((2, -1), 10),
    ((1, 5, 5), 10),
    ((1, 5, 3, 2), 10),
    ((1, 20), 10),
    ((1, 2 ** 62 + 1), 10),
    ((1, 2 ** 63), 10),  # numpy reads this pair as float64: operator.index reads each
    ((1, 2 ** 63), 2 ** 64),
    ((5, 2 ** 63 - 1, -5), 10),  # a difference of these wraps in int64
    ((3, 2 ** 64, 5), 10),
    ((0, 5, 9), 9),
    ((2, 1), 2 ** 62),
    ((1, 2), 2 ** 62),
    ((True, 2), 10),
    ((True, 1), 10),  # bools are ints: the message names 1, 1
    ((True, False), 10),
    ((False, True), 10),
    ((1.0, 2.5), 10),
    ((2.5, 1.0), 10),
    ((0, float("nan")), 10),
    ((np.int64(1), np.int64(7)), 10),
    ((np.int64(7), 3), 10),
    ((np.int32(1), 2), 10),
    ((0, (1, 2)), 10),
    ((0, "a"), 10),
    ((0, None), 10),
    ([1, 2], 5),
    ([2, 1], 5),
    (range(3), 5),
    (range(5, 0, -1), 5),
    ((np.uint64(3), np.uint64(5)), 10),
    ((np.uint64(3), np.uint64(2 ** 63)), 2 ** 64),
    ((np.uint64(5), np.uint64(3)), 10),
    (np.array([4, 9], dtype=np.uint64), 10),
]


@pytest.mark.parametrize("elements, horizon", WINDOW_CASES, ids=repr)
def test_window_errors_are_the_same_on_the_array_and_loop_paths(elements, horizon):
    want = _outcome(_loop_window_check, elements, horizon)
    assert _outcome(Window, elements, horizon) == want
    if want == "accepted":  # the window is its array, of the horizon's dtype
        w, ints = Window(elements, horizon), [operator.index(e) for e in elements]
        assert w.array.dtype == (np.int64 if horizon < 2 ** 62 else object) and w.array.tolist() == ints
        assert w == Window(tuple(ints), horizon) and hash(w) == hash((tuple(ints), horizon))
        assert all(type(e) is int for e in w.elements)


def _numpy_read_elements(elements):
    # The element reader before tuples and lists were packed by struct:
    # numpy's type discovery, else one operator.index per element.
    try:
        arr = np.array(elements)
    except ValueError:
        arr = None
    if arr is not None and arr.ndim == 1 and np.can_cast(arr.dtype, np.int64):
        return arr.astype(np.int64, copy=False)
    return np.array([operator.index(e) for e in elements], dtype=object)


class _Index:
    # An int-like that is no int: read through __index__.  __radd__ lets it
    # pass a sum() type check, which must not be mistaken for an int check.
    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value

    def __radd__(self, other):
        return other

    def __repr__(self):
        return f"_Index({self.value})"


_NUMPY_INTS = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]

_ANY_ELEMENT = st.one_of(
    st.integers(-3, 300),
    st.integers(2 ** 63 - 3, 2 ** 63 + 3),
    st.integers(-(2 ** 63) - 3, -(2 ** 63) + 3),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.builds(lambda t, v: t(v), st.sampled_from(_NUMPY_INTS), st.integers(0, 100)),
    st.integers(2 ** 63 - 2, 2 ** 64 - 1).map(np.uint64),
    st.sampled_from([np.int64(2 ** 63 - 1), np.int64(-(2 ** 63))]),
    st.floats(-5, 300) | st.sampled_from([float("nan"), float("inf"), 2.0 ** 63]),
    st.text(max_size=2),
    st.none(),
    st.lists(st.integers(0, 5), max_size=3).map(tuple),
    st.integers(-3, 2 ** 64).map(_Index),
)


@st.composite
def _int_like(draw, value):
    # value as one of the int-likes that read as it.
    kinds = [int, _Index] + [t for t in _NUMPY_INTS if np.iinfo(t).min <= value <= np.iinfo(t).max]
    if value < 2:
        kinds.append(bool)
    return draw(st.sampled_from(kinds))(value)


@st.composite
def _element_lists(draw):
    # Mostly ascending naturals of mixed int-like types (accepted windows),
    # else anything at all.
    if draw(st.booleans()):
        values = sorted(draw(st.lists(st.integers(0, 2 ** 63 + 5), max_size=12, unique=True)))
        return [draw(_int_like(v)) for v in values]
    return draw(st.lists(_ANY_ELEMENT, max_size=8))


def _containers(elements) -> dict:
    # Each container kind of these elements, as a factory: a generator is read once.
    def object_array():
        arr = np.empty(len(elements), dtype=object)
        for i, e in enumerate(elements):
            arr[i] = e
        return arr

    makers = {
        "tuple": lambda: tuple(elements),
        "list": lambda: list(elements),
        "generator": lambda: (e for e in elements),
        "object ndarray": object_array,
    }
    try:
        ints = [operator.index(e) for e in elements]
        np.array(ints)
    except (TypeError, OverflowError):
        return makers
    makers["ndarray"] = lambda: np.array(ints)
    if ints:
        makers["range"] = lambda: range(ints[0], ints[0] + 3 * len(ints), 3)
    return makers


def _read_outcome(elements, horizon):
    try:
        w = Window(elements, horizon)
    except Exception as exc:
        return type(exc), str(exc)
    return w.array.dtype, w.array.tolist()


@given(_element_lists(), st.sampled_from([10, 2 ** 62 - 1, 2 ** 62, 2 ** 64]))
@example([1, _Index(2)], 10)
@example([np.bool_(False), 1], 10)
@example([np.uint64(2 ** 63), 2 ** 64 - 1], 2 ** 64)
@example([], 10)
@example([1, 2.0], 10)
@example([0, [1, 2]], 10)
# Chunk edges of the struct read (2^14 elements a call), and a float it
# refuses in the second chunk.
@example(list(range(2 ** 14 - 1)), 2 ** 62 - 1)
@example(list(range(2 ** 14)), 2 ** 62 - 1)
@example(list(range(2 ** 14 + 1)), 2 ** 62)
@example([float(i) if i == 2 ** 14 + 3 else i for i in range(2 ** 14 + 10)], 2 ** 62 - 1)
@settings(max_examples=300, deadline=None)
def test_window_reads_elements_as_the_numpy_reader(elements, horizon):
    # Every container of every element mix gives the numpy reader's array and
    # dtype, or its exception type and message: the struct read of a tuple
    # or list, in chunks or falling through, changes no outcome.
    for kind, make in _containers(elements).items():
        fast = _read_outcome(make(), horizon)
        original = intsets._read_elements
        intsets._read_elements = _numpy_read_elements
        try:
            reference = _read_outcome(make(), horizon)
        finally:
            intsets._read_elements = original
        assert fast == reference, kind


@given(
    st.one_of(st.integers(-5, 40), st.integers(2 ** 63 - 8, 2 ** 63 + 8), st.integers(2 ** 64 - 4, 2 ** 64 + 4)),
    st.integers(0, 12),
    st.integers(-4, 4).filter(bool),
    st.sampled_from([50, 2 ** 62, 2 ** 64 + 8]),
)
@example(0, 10, 1, 50)
@example(5, 5, -1, 50)  # descending: the message names 5, 4
@example(2 ** 63 - 2, 4, 1, 2 ** 64 + 8)  # past int64: Python ints
@example(-2, 5, 1, 50)
@settings(max_examples=150, deadline=None)
def test_window_reads_a_range_as_its_tuple(start, length, step, horizon):
    # A range is packed as a tuple is: the same array and dtype, or the same
    # exception type and message.
    r = range(start, start + length * step, step)
    assert _read_outcome(r, horizon) == _read_outcome(tuple(r), horizon)


@given(
    st.lists(st.integers(0, 60), max_size=20, unique=True),
    st.sampled_from([0, 2 ** 62 - 30, 2 ** 63 - 30, 2 ** 70]),
    st.one_of(st.integers(-5, 90), st.sampled_from([2 ** 70, -(2 ** 70)])),
)
@example([0, 5], 0, 2 ** 70)
@example([0, 5], 0, -(2 ** 70))
@example([0, 5], 2 ** 70, -(2 ** 70))
@settings(max_examples=80, deadline=None)
def test_window_membership_matches_a_set(elems, base, n):
    w = Window(tuple(base + e for e in sorted(elems)), base + 64)
    assert (base + n in w) == (base + n in frozenset(w.elements))


def test_window_shift_drops_out_of_range():
    w = Window((0, 3, 7), 10)
    assert w.shift(-1).elements == (2, 6)
    assert w.shift(5).elements == (5, 8)
    assert w.shift(0) == w


@given(
    st.lists(st.integers(0, 500), max_size=40, unique=True),
    st.sampled_from([0, 2 ** 63]),
    st.sampled_from([0, 37, 2 ** 64]),
    st.one_of(st.integers(-600, 600), st.sampled_from([2 ** 62 - 1, 2 ** 62, 2 ** 63, -(2 ** 63)])),
)
@example([], 0, 0, 0)
@example([0, 5], 0, 2 ** 64, 2 ** 63)
@settings(max_examples=120, deadline=None)
def test_window_shift_matches_filtering(elems, base, slack, n):
    # base 2^63 or slack 2^64 puts the horizon past 2^62, where the array holds Python ints.
    w = Window(tuple(base + e for e in sorted(elems)), base + max(elems, default=0) + slack)
    assert w.array.dtype == (np.int64 if w.horizon < 2 ** 62 else object)
    kept = tuple(e + n for e in w.elements if 0 <= e + n <= w.horizon)
    shifted = w.shift(n)
    assert shifted == Window(kept, w.horizon)
    assert shifted.array.dtype == w.array.dtype and shifted.array.tolist() == list(kept)


def test_window_shift_does_not_wrap_at_the_int64_edge():
    # Horizon 2^64 keeps Python ints, so 2^62 + 2^62 does not wrap.
    assert Window((0, 2 ** 62), 2 ** 64).shift(2 ** 62).elements == (2 ** 62, 2 ** 63)


def test_window_restrict():
    w = Window((0, 3, 7), 10)
    assert w.restrict(6).elements == (0, 3)
    assert w.restrict(6).horizon == 6


@given(st.lists(st.integers(0, 2000), max_size=80, unique=True), st.integers(0, 100))
@example([], 0)
@settings(max_examples=80, deadline=None)
def test_window_bitmask_sets_one_bit_per_element(elems, slack):
    w = Window(tuple(sorted(elems)), max(elems, default=0) + slack)
    assert w.bitmask == sum(1 << e for e in w.elements)
    # A window holds its array, plus its mask once that is read; the
    # cross-check's cached windows, beside their position table, hold no more.
    trusted = Window._trusted(w.array, w.horizon)
    assert trusted.bitmask == w.bitmask and set(trusted.__dict__) == {"array", "horizon", "bitmask"}
    _comparison_table.cache_clear()
    try:
        crosscheck_cyclic_equivalence(w, 3, range(-2, 3))
        hits = _comparison_table.cache_info().hits
        windows = _comparison_table(w.horizon + 2 + 3, 3)[1]
        assert _comparison_table.cache_info().hits == hits + 1 and windows
        assert all(set(c.__dict__) <= {"array", "horizon", "bitmask"} for c in windows)
    finally:
        _comparison_table.cache_clear()


# -- is_syndetic ---------------------------------------------------------------


def test_syndetic_evens_gap2():
    assert is_syndetic(evens(100), 2).holds


def test_syndetic_prefix_fails_at_51():
    v = is_syndetic(interval(0, 50, horizon=100), 10)
    assert v.fails and v.witness == 51


def test_syndetic_odds_gap1_fails_at_0():
    v = is_syndetic(odds(1000), 1)
    assert v.fails and v.witness == 0


def test_syndetic_witness_replays():
    w = Window((0, 4, 5, 20), 30)
    v = is_syndetic(w, 3)
    assert v.fails
    start = v.witness
    assert all(x not in w for x in range(start, start + 3))


def test_syndetic_vacuous_when_no_run_fits():
    assert is_syndetic(Window((), 3), 10).holds


# -- is_thick ------------------------------------------------------------------


def test_thick_run_of_4():
    v = is_thick(Window((10, 11, 12, 13), 20), 4)
    assert v.holds and v.witness == 10


def test_thick_evens_fail():
    assert is_thick(evens(100), 2).fails


def test_thick_square_blocks_run_50():
    # Union of [i^2, i^2 + i] up to horizon 10^4; oracle scans runs directly.
    horizon = 10_000
    members = set()
    i = 1
    while i * i <= horizon:
        members.update(range(i * i, min(i * i + i, horizon) + 1))
        i += 1
    w = Window(tuple(sorted(members)), horizon)

    def oracle_first_run(length):
        run = 0
        for x in range(horizon + 1):
            run = run + 1 if x in members else 0
            if run == length:
                return x - length + 1
        return None

    expected_start = oracle_first_run(50)
    assert expected_start == 49 * 49  # block at i=49 is the first with 50 consecutive
    v = is_thick(w, 50)
    assert v.holds and v.witness == expected_start


# -- piecewise_syndetic_certificate ---------------------------------------------


def test_pws_evens_certificate_at_0():
    v = piecewise_syndetic_certificate(evens(150), 2, 100)
    assert v.holds and v.witness == 0


def _pws_oracle(w: Window, gap: int, block: int):
    """Exhaustive scan over every interval; vectorized but definition-literal."""
    ind = np.zeros(w.horizon + 1, dtype=bool)
    ind[list(w.elements)] = True
    # hit[y] = does [y, y+gap-1] meet w
    hit = np.convolve(ind, np.ones(gap, dtype=int))[gap - 1 : w.horizon + 1] > 0
    n_runs = block - gap + 1
    for x in range(0, w.horizon - block + 2):
        if hit[x : x + n_runs].all():
            return x
    return None


def test_pws_powers_of_two_fail():
    w = Window(tuple(2 ** k for k in range(0, 21)), 2 ** 20)
    assert _pws_oracle(w.restrict(5000), 4, 16) is None  # oracle on a prefix
    v = piecewise_syndetic_certificate(w, 4, 16)
    assert v.fails


@given(
    st.lists(st.integers(0, 300), min_size=0, max_size=40, unique=True),
    st.integers(1, 6),
    st.integers(0, 20),
)
@settings(max_examples=60, deadline=None)
def test_pws_matches_exhaustive_oracle(elems, gap, extra):
    block = gap + extra
    w = Window(tuple(sorted(elems)), 320)
    expected = _pws_oracle(w, gap, block)
    v = piecewise_syndetic_certificate(w, gap, block)
    if expected is None:
        assert v.fails
    else:
        assert v.holds and v.witness == expected


@given(
    st.lists(st.integers(0, 400), min_size=1, max_size=60, unique=True),
    st.integers(1, 5),
    st.integers(0, 10),
    st.integers(0, 3),
    st.integers(0, 10),
)
@settings(max_examples=50, deadline=None)
def test_pws_parameter_monotonicity(elems, gap, extra, gap_up, block_down):
    # Holds at (g, b) implies Holds at any g' >= g, b' <= b (with b' >= g').
    block = gap + extra
    w = Window(tuple(sorted(elems)), 450)
    if piecewise_syndetic_certificate(w, gap, block).holds:
        g2 = gap + gap_up
        b2 = max(block - block_down, g2)
        if b2 <= block:
            assert piecewise_syndetic_certificate(w, g2, b2).holds


# -- difference_set --------------------------------------------------------------


def test_difference_set_examples():
    assert difference_set(evens(100)).elements == tuple(range(2, 101, 2))
    assert difference_set(Window((0, 3, 7), 10)).elements == (3, 4, 7)
    w = multiples(5, 100)
    assert difference_set(w).elements == tuple(range(5, 101, 5))


def test_difference_set_excludes_zero():
    assert 0 not in difference_set(Window((2, 4), 10))


def test_difference_set_dense_and_sparse_paths_agree():
    elems = tuple(sorted({(7 * i * i + 3 * i) % 900 for i in range(200)}))
    w = Window(elems, 900)
    brute = sorted({b - a for a in elems for b in elems if b > a})
    assert list(difference_set(w).elements) == brute


def test_difference_set_fft_path_matches_brute():
    # 900 elements on a span of 9001: the autocorrelation is far cheaper than the scan
    elems = tuple(sorted({(11 * i * i + 5 * i) % 9001 for i in range(900)}))
    w = Window(elems, 9001)
    assert len(w) > 400
    brute = sorted({b - a for a in elems for b in elems if b > a})
    assert list(difference_set(w).elements) == brute


def _ref_difference_set(w: Window) -> Window:
    # The quadratic scan over all pairs.
    return Window(tuple(sorted({b - a for a, b in combinations(w.elements, 2)})), w.horizon)


@given(
    st.lists(st.integers(0, 120), min_size=2, max_size=60, unique=True),
    st.sampled_from([0, 7, 2 ** 62 - 200_000, 2 ** 70]),
    st.sampled_from([1, 3, 12, 1000, 2 ** 40, 2 ** 70]),
    st.sampled_from(["default", "scan", "fft"]),
)
@example(list(range(30)), 0, 12, "default")  # a short progression: the strided transform wins
@example([0, 1], 0, 2 ** 70, "fft")  # a stride past 2^63 on the transform's path
@settings(max_examples=120, deadline=None)
def test_difference_set_matches_the_pair_scan_on_both_paths(elems, base, stride, path):
    w = Window(tuple(base + stride * e for e in sorted(elems)), base + stride * 121)
    with pytest.MonkeyPatch.context() as mp:
        if path == "scan":
            mp.setattr(intsets, "_FFT_POINTS_PER_PAIR", 0)
        elif path == "fft":
            mp.setattr(intsets, "_FFT_SETUP_POINTS", 0)
            mp.setattr(intsets, "_FFT_POINTS_PER_PAIR", 10 ** 9)
        got = difference_set(w)
    assert got == _ref_difference_set(w)


@st.composite
def _dense_offsets(draw):
    # Sorted offsets from 0 to the span, holding a share of 1/2 to 1 of its points.
    span = draw(st.integers(1, 2000))
    count = max(2, min(span + 1, round(draw(st.floats(0.5, 1.0)) * (span + 1))))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
    return [0, *sorted(rng.choice(np.arange(1, span), size=count - 2, replace=False).tolist()), span]


@given(
    _dense_offsets(),
    st.sampled_from([1, 3, 2 ** 40, 2 ** 70]),
    st.sampled_from([0, 7, 2 ** 62 - 200_000]),
    st.sampled_from(["default", "fft"]),
)
@example(list(range(301)), 1, 0, "default")  # an interval: every lag, no transform
@example(list(range(301)), 2 ** 70, 2 ** 62 - 200_000, "fft")
@example([t for t in range(301) if t != 150], 3, 7, "default")  # an interval minus one point
# 39 lies in no pair of [0, 40] minus {1, 39}, a set of density 0.95.
@example([t for t in range(41) if t not in (1, 39)], 1, 0, "default")
@example([t for t in range(41) if t not in (1, 39)], 2 ** 70, 2 ** 62 - 200_000, "fft")
@example([0, 2], 1, 0, "fft")  # an interval once strided by 2: lag 1 is no difference
@settings(max_examples=80, deadline=None)
def test_dense_difference_sets_match_the_pair_scan(offsets, stride, base, path):
    w = Window(tuple(base + stride * t for t in offsets), base + stride * offsets[-1] + 5)
    with pytest.MonkeyPatch.context() as mp:
        if path == "fft":  # the transform wherever the scan would run instead
            mp.setattr(intsets, "_FFT_SETUP_POINTS", 0)
            mp.setattr(intsets, "_FFT_POINTS_PER_PAIR", 10 ** 9)
        got = difference_set(w)
    assert got == _ref_difference_set(w)


def test_difference_set_takes_no_transform_on_an_interval(monkeypatch):
    # A progression is an interval once strided: every multiple of its step
    # up to its span is a difference, on int64 and on Python-int windows,
    # with the transform disabled.  One point fewer and the transform runs.
    def transform(*args):
        raise AssertionError("transform")

    monkeypatch.setattr(intsets.np.fft, "rfft", transform)
    for base, horizon in [(0, 3000), (2 ** 62, 2 ** 63)]:
        got = difference_set(Window(tuple(range(base, base + 3001, 3)), horizon))
        assert got == Window(tuple(range(3, 3001, 3)), horizon)
        assert got.array.dtype == Window((), horizon).array.dtype
    with pytest.raises(AssertionError, match="transform"):
        difference_set(Window(tuple(t for t in range(0, 3001, 3) if t != 1500), 3000))


@given(st.lists(st.integers(0, 500), min_size=2, max_size=40, unique=True), st.integers(0, 200))
@settings(max_examples=60, deadline=None)
def test_difference_set_shift_invariant(elems, c):
    base = Window(tuple(sorted(elems)), 500)
    shifted = Window(tuple(e + c for e in base.elements), 500 + c)
    assert difference_set(base).elements == difference_set(shifted).elements


# -- shifted_hit -----------------------------------------------------------------


def test_shifted_hit_odds_vs_even_differences():
    d = difference_set(evens(100))
    v = shifted_hit(odds(99), d, 0)
    assert v.fails and v.witness == min(99, 100)
    v = shifted_hit(odds(99), d, 1)
    assert v.holds and v.witness == 3


def test_shifted_hit_squares_vs_multiples_of_3():
    squares = Window(tuple(n * n for n in range(1, 101)), 10_000)
    v = shifted_hit(squares, multiples(3, 10_000), 0)
    assert v.holds and v.witness == 9


def test_shifted_hit_paths_agree():
    # bitmask path vs set path must return the same witness
    a = Window(tuple(range(3, 5000, 7)), 5000)
    d = Window(tuple(range(2, 5000, 11)), 5000)
    v_fast = shifted_hit(a, d, 5)
    big = 5_000_000_000  # horizon beyond the bitmask cap forces the set path
    v_slow = shifted_hit(Window(a.elements, big), Window(d.elements, big), 5)
    assert v_fast.holds == v_slow.holds and v_fast.witness == v_slow.witness


_SMALL_ELEMENTS = st.lists(st.integers(0, 300), max_size=40, unique=True)


def _small_window(elems, set_path: bool) -> Window:
    # A horizon above the bitmask cap sends the window down the set path.
    return Window(tuple(sorted(elems)), _BITMASK_HORIZON_CAP + 1 if set_path else 300)


def _ref_shifted_hit(a: Window, d: Window, shift: int) -> Verdict:
    # shifted_hit by a scan of d against a frozenset of a.
    members = frozenset(a.elements)
    x = next((y + shift for y in d.elements if y + shift in members), None)
    if x is None:
        bound = min(a.horizon, d.horizon)
        return Verdict.fail(bound, note=f"a ∩ ({shift:+d} + d) empty up to horizon {bound}")
    return Verdict.hold(x, note=f"{x} = {shift:+d} + {x - shift}")


@given(_SMALL_ELEMENTS, _SMALL_ELEMENTS, st.integers(-320, 320))
@example([3, 10], [1, 8], 2)
@example([3], [5], 0)
@settings(max_examples=150, deadline=None)
def test_shifted_hit_report_is_the_same_on_both_paths(a_elems, d_elems, shift):
    # The engine with and without bitmasks against the set-scan reference.
    a, d = _small_window(a_elems, False), _small_window(d_elems, True)
    assert shifted_hit(a, d, shift) == _ref_shifted_hit(a, d, shift)
    assert shifted_hit(d, a, shift) == _ref_shifted_hit(d, a, shift)


_BASES = st.sampled_from([0, 2 ** 62 - 100, 2 ** 63 - 5, 2 ** 64, 2 ** 70])


@given(_SMALL_ELEMENTS, _BASES, st.integers(0, 400), _SMALL_ELEMENTS, _BASES, st.integers(0, 400), st.integers(-350, 350))
@example([5], 2 ** 63 - 5, 0, [0, 5], 0, 10, 0)  # 2^63 - 5 + int64 d would wrap
@example([0, 7], 0, 2 ** 63, [7], 0, 0, 0)
@settings(max_examples=200, deadline=None)
def test_shifted_hit_matches_a_set_scan_on_int64_and_object_windows(a_elems, a_base, a_slack, d_elems, d_base, d_slack, offset):
    # Bases past 2^62 make object arrays; shifts near a_base - d_base carry d onto a.
    a = Window(tuple(a_base + e for e in sorted(a_elems)), a_base + 300 + a_slack)
    d = Window(tuple(d_base + e for e in sorted(d_elems)), d_base + 300 + d_slack)
    for shift in (a_base - d_base + offset, offset, a.horizon + 1, -d.horizon - 1, -d.horizon):
        assert shifted_hit(a, d, shift) == _ref_shifted_hit(a, d, shift), shift


# -- finite_ip --------------------------------------------------------------------


def test_finite_ip_examples():
    assert finite_ip([1, 2, 4]).elements == (1, 2, 3, 4, 5, 6, 7)
    assert finite_ip([5]).elements == (5,)
    assert finite_ip([3, 3]).elements == (3, 6)


def test_finite_ip_matches_subset_enumeration():
    gens = [2, 3, 3, 10]
    expected = set()
    for r in range(1, len(gens) + 1):
        for combo in combinations(range(len(gens)), r):
            expected.add(sum(gens[i] for i in combo))
    got = finite_ip(gens)
    assert set(got.elements) == expected
    assert got.horizon == sum(gens)


def _finite_ip_set_loop(generators) -> Window:
    # finite_ip as it stood before it added each distinct value once, kept verbatim as the reference.
    gens = list(generators)
    if not gens:
        raise ValueError("generators must be nonempty")
    if any(g < 1 for g in gens):
        raise ValueError("generators must all be >= 1")
    sums = {0}
    for g in gens:
        sums |= {s + g for s in sums}
    sums.discard(0)
    return Window(tuple(sorted(sums)), sum(gens))


@given(
    st.lists(st.sampled_from([1, 2, 3, 5, 12, 2 ** 62 - 1, 2 ** 62 + 3, 2 ** 64, 3 ** 90]), min_size=1, max_size=14),
    st.randoms(use_true_random=False),
)
@example([7] * 31, None)  # a block of the construction: one value, repeated
@example([2 ** 62 + 3] * 5 + [1, 1], None)
@settings(max_examples=80, deadline=None)
def test_finite_ip_matches_the_set_loop(gens, rnd):
    # Repeated and distinct values, in any order, past 2^62 too: the same window.
    if rnd is not None:
        rnd.shuffle(gens)
    got, want = finite_ip(gens), _finite_ip_set_loop(gens)
    assert got == want and got.array.dtype == want.array.dtype


def test_finite_ip_rejects_bad_generators():
    with pytest.raises(ValueError):
        finite_ip([])
    with pytest.raises(ValueError):
        finite_ip([0, 2])


@given(st.lists(st.integers(1, 30), min_size=1, max_size=6), st.lists(st.integers(1, 30), max_size=3))
@settings(max_examples=60, deadline=None)
def test_finite_ip_monotone(gens, extra):
    small = set(finite_ip(gens).elements)
    large = set(finite_ip(gens + extra).elements)
    assert small <= large


# -- banach_density_estimate -------------------------------------------------------


def test_density_examples():
    assert banach_density_estimate(evens(10_000), 100) == Fraction(1, 2)
    assert banach_density_estimate(interval(0, 500), 37) == 1


def _density_oracle(w: Window, length: int) -> Fraction:
    members = set(w.elements)
    best = 0
    for x in range(0, w.horizon - length + 2):
        best = max(best, sum(1 for y in range(x, x + length) if y in members))
    return Fraction(best, length)


@given(st.lists(st.integers(0, 200), min_size=0, max_size=30, unique=True), st.integers(1, 50))
@example([], 221)  # length horizon + 1: the whole window is the one interval
@example([0, 7, 200], 221)
@settings(max_examples=50, deadline=None)
def test_density_matches_exhaustive_oracle(elems, length):
    w = Window(tuple(sorted(elems)), 220)
    assert banach_density_estimate(w, length) == _density_oracle(w, length)


@given(
    st.lists(st.tuples(st.integers(0, 400), st.integers(0, 12)), min_size=1, max_size=6),
    st.integers(1, 60),
    st.integers(2, 5),
)
@settings(max_examples=50, deadline=None)
def test_density_monotone_under_length_multiples(spans, length, k):
    # Non-increasing along multiples of the interval length: an interval of
    # length k*L splits into k blocks of length L, each no denser than the max.
    # (Plain non-increase in L is false even for interval unions: for
    # [0,2] ∪ [4,6] the density at length 5 exceeds the one at length 4.)
    members: set[int] = set()
    for lo, width in spans:
        members.update(range(lo, lo + width + 1))
    w = Window(tuple(sorted(members)), 450)
    if k * length <= w.horizon:
        assert banach_density_estimate(w, k * length) <= banach_density_estimate(w, length)


@given(st.integers(0, 100), st.integers(0, 80), st.integers(1, 90), st.integers(1, 90))
@settings(max_examples=50, deadline=None)
def test_density_monotone_for_single_interval(lo, width, l1, l2):
    w = Window(tuple(range(lo, lo + width + 1)), 250)
    shorter, longer = sorted((l1, l2))
    assert banach_density_estimate(w, longer) <= banach_density_estimate(w, shorter)


# -- thick/syndetic interplay -------------------------------------------------------


@given(
    st.lists(st.tuples(st.integers(0, 300), st.integers(0, 20)), min_size=1, max_size=5),
    st.integers(1, 8),
    st.integers(0, 6),
)
@settings(max_examples=50, deadline=None)
def test_every_long_run_meets_a_syndetic_set(spans, gap, slack):
    # a gap-syndetic set meets every run of length >= gap; scan all such runs
    run_len = gap + slack
    members: set[int] = set()
    for lo, width in spans:
        members.update(range(lo, lo + width + 1))
    w = Window(tuple(sorted(members)), 330)
    s = multiples(gap, 330)
    assert is_syndetic(s, gap).holds
    if is_thick(w, run_len).holds:
        for x in range(0, 330 - run_len + 1):
            if all(y in members for y in range(x, x + run_len)):
                assert any(y in s for y in range(x, x + run_len))


# -- sequence file format ------------------------------------------------------------


def test_sequence_roundtrip():
    w = Window((0, 2, 17), 50)
    text = format_sequence(w, comment="demo")
    assert text.splitlines()[0] == "!horizon 50"
    assert parse_sequence_text(text) == w


def test_sequence_missing_directive():
    with pytest.raises(SequenceFormatError):
        parse_sequence_text("1\n2\n")


def test_sequence_error_carries_line_number():
    with pytest.raises(SequenceFormatError) as info:
        parse_sequence_text("!horizon 10\n1\n5\n3\n")
    assert info.value.line == 4
    assert "5 then 3" in str(info.value)


def test_sequence_rejects_element_beyond_horizon():
    with pytest.raises(SequenceFormatError):
        parse_sequence_text("!horizon 4\n7\n")


@pytest.mark.parametrize("token", ["\u00b2", "\uff11", "\u0661", "1\u00b2"])
def test_sequence_rejects_non_ascii_digits(token):
    # '²' once escaped as a bare int() error; '１' and '١' were read as 1.
    with pytest.raises(SequenceFormatError) as info:
        parse_sequence_text(f"!horizon 10\n0\n{token}\n")
    assert info.value.line == 3 and "not a decimal natural" in str(info.value)


@pytest.mark.parametrize("token", ["\u00b2", "\uff11\uff10", "\u0661"])
def test_sequence_directive_rejects_non_ascii_digits(token):
    with pytest.raises(SequenceFormatError) as info:
        parse_sequence_text(f"# header\n!horizon {token}\n1\n")
    assert info.value.line == 2 and "bad directive" in str(info.value)


def test_sequence_comments_and_blanks_ok():
    w = parse_sequence_text("!horizon 9\n# a comment\n\n3\n9\n")
    assert w.elements == (3, 9) and w.horizon == 9


# -- the parse fork: array path vs the line loop ------------------------------------


def _reference_parse(text: str) -> Window:
    # The line loop as it stood before the array path, kept verbatim as the reference.
    horizon = None
    elements: list[int] = []
    prev = -1
    saw_directive = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("!"):
            if saw_directive:
                raise SequenceFormatError("duplicate directive", lineno)
            parts = line[1:].split()
            if len(parts) != 2 or parts[0] != "horizon" or not (
                parts[1].isascii() and parts[1].isdigit()
            ):
                raise SequenceFormatError(f"bad directive {line!r}, expected '!horizon N'", lineno)
            horizon = int(parts[1])
            saw_directive = True
            continue
        if not saw_directive:
            raise SequenceFormatError("missing '!horizon N' directive before data", lineno)
        if not (line.isascii() and line.isdigit()):
            raise SequenceFormatError(f"not a decimal natural: {line!r}", lineno)
        value = int(line)
        if value <= prev:
            raise SequenceFormatError(f"not strictly ascending: {prev} then {value}", lineno)
        if value > horizon:
            raise SequenceFormatError(f"element {value} exceeds horizon {horizon}", lineno)
        elements.append(value)
        prev = value
    if not saw_directive:
        raise SequenceFormatError("missing '!horizon N' directive", 1)
    return Window(tuple(elements), horizon)


def _parse_outcome(parse, text):
    try:
        w = parse(text)
    except SequenceFormatError as exc:
        return ("error", exc.line, str(exc))
    return ("window", w.elements, w.horizon)


_ODD_LINES = [
    "", "   ", "# note", " 7", "7 ", "\t7", "+7", "-3", "1 2", "1_000", "0x1f", "²", "１",
    "١", "7\r", "7\x0c8", "# a\x85b", "!horizon 5", "!horizon", "9" * 19, str(2 ** 62 + 1), "0" * 20 + "1",
]


@st.composite
def _sequence_texts(draw):
    # 1 to 18 digits: lines of one, two and three eight-digit words, each digit count drawn.
    digits = st.integers(1, 18).flatmap(lambda k: st.integers(0, 10 ** k - 1))
    values = sorted(draw(st.lists(digits, max_size=25, unique=True)))
    lines = ["0" * draw(st.integers(0, 2)) + str(v) for v in values]
    if len(lines) >= 2 and draw(st.booleans()):
        i = draw(st.integers(0, len(lines) - 2))
        lines[i], lines[i + 1] = lines[i + 1], lines[i]  # a descent
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(_ODD_LINES)))
    horizon = max(values, default=0) + draw(st.integers(-3, 3))
    directive = draw(st.sampled_from([f"!horizon {horizon}", f"!horizon  {horizon}", f" !horizon {horizon}"]))
    header = draw(st.sampled_from([[], ["# head"], ["", "#"]])) + [directive]
    header += draw(st.sampled_from([[], ["# after"], ["", "# after", ""]]))
    if draw(st.integers(0, 9)) == 0:
        header = header[:-1]  # no directive
    sep = draw(st.sampled_from(["\n", "\n", "\n", "\r\n", "\r", " "]))
    return sep.join(header + lines) + draw(st.sampled_from([sep, sep, "", "\n\n"]))


@given(st.one_of(
    _sequence_texts(),
    st.text(alphabet="0123456789\n\r #!horizn²１", max_size=60),
    st.text(alphabet="0123456789\n", max_size=60).map(lambda body: "!horizon 500000\n" + body),
))
@example("!horizon 10\n")
@example("!horizon 10")
@example("")
@example("!horizon 10\n5\n5\n")
@example(f"!horizon {10 ** 19}\n" + "".join(f"{10 ** (k - 1) + k}\n" for k in (8, 9, 16, 17, 18)))
@example(f"!horizon {10 ** 19}\n1\n{10 ** 18}\n")  # 19 digits
@example(f"!horizon {10 ** 18}\n5\n{10 ** 17 + 3}\n")  # a first line shorter than the 24 bytes of padding
@example("!horizon 100000000000\n1\n1x123456789\n")  # a bad byte in the second word from the right
@example("!horizon 10000000000000000000\n1\n1x3456789012345678\n")  # and in the third
@example("!horizon 10000000000000000000\n1\n1 3456789012345678\n")
@example("!horizon 99999999\n99999998\n99999999\n")
@example("!horizon 10\n1\n000000000000000002\n")  # a first word before the file: zeros go in front
@example("!horizon 100\n1:\n")  # ':' and '/' sit next to the digits
@example("!horizon 100\n/5\n")
@example("!horizon 10\n# \ud800\n3\n")  # a lone surrogate in a comment: no UTF-8 to read as bytes
@settings(max_examples=400, deadline=None)
def test_parse_matches_the_line_loop_on_every_text(text):
    assert _parse_outcome(parse_sequence_text, text) == _parse_outcome(_reference_parse, text)


def test_parse_well_formed_text_takes_the_array_path():
    text = "# made by hand\n!horizon 2000000000000000000\n# header comment\n\n0\n007\n019\n999999999999999999\n"
    w = intsets._parse_well_formed(text.encode())
    assert w == _reference_parse(text) and w.elements == (0, 7, 19, 10 ** 18 - 1)
    assert w.array.dtype == np.int64 and w.array.tolist() == list(w.elements)
    assert intsets._parse_well_formed(b"!horizon 4\n") == Window((), 4)
    # 007 then 19 is a shorter line: the line loop reads it, to the same window and dtype.
    descent = text.replace("\n019\n", "\n19\n")
    assert intsets._parse_well_formed(descent.encode()) is None
    w = parse_sequence_text(descent)
    assert w == _reference_parse(descent) and w.elements == (0, 7, 19, 10 ** 18 - 1)
    assert w.array.dtype == np.int64 and w.array.tolist() == list(w.elements)


@st.composite
def _runs_of_equal_lines(draw):
    # Lines whose lengths never decrease, as runs of 1-18 digits with leading
    # zeros allowed: each run's values ascend from the run before's, below 10^L.
    lengths = sorted(draw(st.sets(st.integers(1, 18), min_size=1, max_size=4)))
    probe = intsets._RUN_PROBE
    counts = st.one_of(st.integers(1, 3), st.sampled_from([probe - 1, probe, probe + 1, 9 * probe]), st.integers(1, 700))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    lines, start = [], 0
    for length in lengths:
        count = min(draw(counts), 10 ** length - start)
        room = min(10 ** length - start - count, 10 ** draw(st.integers(0, length)))  # spread, or bunched near start
        offsets = np.sort(rng.integers(0, room, count, endpoint=True, dtype=np.uint64)).tolist()
        values = [start + r + i for i, r in enumerate(offsets)]
        lines += [f"{v:0{length}d}" for v in values]
        start = values[-1] + 1
    header = draw(st.sampled_from(["", "# a comment\n", "\n# café\n\n"]))
    after = draw(st.sampled_from(["", "# after\n", "\n"]))
    return f"{header}!horizon {start - 1 + draw(st.integers(0, 2))}\n{after}" + "".join(line + "\n" for line in lines)


def _one_run(count, length=4, then=""):
    # count lines of length digits, 0, 1, ... zero-padded, then the text then.
    return f"!horizon {10 ** 6}\n" + "".join(f"{v:0{length}d}\n" for v in range(count)) + then


@given(_runs_of_equal_lines())
@example(_one_run(intsets._RUN_PROBE))  # exactly the gallop's first window of lines
@example(_one_run(intsets._RUN_PROBE - 1))
@example(_one_run(intsets._RUN_PROBE + 1))
@example(_one_run(9 * intsets._RUN_PROBE))  # the first two windows
@example(_one_run(intsets._RUN_PROBE, then="12345\n"))  # a window's worth, then a longer run
@example(_one_run(3000))  # a run past every window that ends at the end of the file
@example("!horizon 5\n5\n")  # a one-line body
@example(f"!horizon {10 ** 18}\n" + "".join(f"{10 ** k - 1}\n" for k in range(1, 19)))  # 18 runs of one line
@settings(max_examples=150, deadline=None)
def test_parse_well_formed_reads_every_file_whose_lines_never_get_shorter(text):
    # The differential test above cannot see a kernel that refuses too often:
    # the line loop would give the same window.  Here the array path must answer.
    w = intsets._parse_well_formed(text.encode())
    assert w is not None
    assert w == _reference_parse(text) and w.array.tolist() == list(w.elements)
    assert w.array.dtype == (np.int64 if w.horizon < 2 ** 62 else object)


@pytest.mark.parametrize(
    "text",
    [
        _one_run(intsets._RUN_PROBE + 5, then="99\n"),  # a run, then a shorter line
        "!horizon 100\n007\n19\n",
        "!horizon 9\n005\n6\n7\n",  # "6\n7" fills a line of the run of length 3: its newline sits among the digits
        _one_run(71, length=5, then="71\n72\n"),  # "71\n72" fills a line of a run of 5 digits, past the first window
    ],
    ids=["run-then-shorter", "descent", "newline-in-a-run", "newline-in-a-long-run"],
)
def test_a_line_shorter_than_the_one_before_goes_to_the_line_loop(text):
    assert intsets._parse_well_formed(text.encode()) is None
    w = parse_sequence_text(text)
    assert w == _reference_parse(text) and w.array.dtype == np.int64 and w.array.tolist() == list(w.elements)


def test_a_construct_file_is_refused_before_its_body_is_read(monkeypatch):
    # Its last line has more than 18 digits; under the rule the last line is the
    # longest, so the kernel refuses the file without one array operation.
    from dynwindow.constructions import IPBlockSchedule, build_ip_block_sequence

    w = build_ip_block_sequence(IPBlockSchedule.default(20)).window
    assert len(str(w.elements[-1])) > 18
    data = format_sequence(w, "ip-block sequence: 20 blocks").encode()
    monkeypatch.setattr(intsets, "np", None)  # any array operation raises
    assert intsets._parse_well_formed(data) is None
    monkeypatch.undo()
    assert parse_sequence_text(data) == w


@pytest.mark.parametrize("zeros", [False, True])
def test_parse_reads_every_line_length_in_words(zeros):
    # 1 to 18 digits, so 1, 2 and 3 words and every mask, each line also
    # zero-padded to 18 digits, which puts the leading zeros in other words.
    values = [int(("918273645" * 2)[:k]) for k in range(1, 19)]
    text = f"!horizon {10 ** 18}\n" + "".join(f"{v:018d}\n" if zeros else f"{v}\n" for v in values)
    w = intsets._parse_well_formed(text.encode())
    assert w is not None and w.elements == tuple(values) == _reference_parse(text).elements


@pytest.mark.parametrize(
    "text, expected",
    [
        ("!horizon 10\r\n1\r\n5\r\n", Window((1, 5), 10)),  # CRLF
        ("!horizon 10\n1\n# body comment\n5\n", Window((1, 5), 10)),
        ("!horizon 10\n1\n2 3\n", SequenceFormatError("not a decimal natural: '2 3'", 3)),
        (f"!horizon {10 ** 19}\n{10 ** 18}\n", Window((10 ** 18,), 10 ** 19)),  # 19 digits
        (f"!horizon {2 ** 63}\n5\n{2 ** 62 + 1}\n", Window((5, 2 ** 62 + 1), 2 ** 63)),
    ],
    ids=["crlf", "body-comment", "space-inside", "19-digits", "above-2^62"],
)
def test_parse_falls_back_to_the_line_loop(text, expected):
    assert intsets._parse_well_formed(text.encode()) is None
    if isinstance(expected, SequenceFormatError):
        with pytest.raises(SequenceFormatError) as info:
            parse_sequence_text(text)
        assert (info.value.line, str(info.value)) == (expected.line, str(expected))
    else:
        w = parse_sequence_text(text)
        assert w == expected
        assert w.array.dtype == (np.int64 if w.horizon < 2 ** 62 else object)
        assert w.array.tolist() == list(w.elements)


def _text_mode_parse(path) -> Window:
    # The reader as it stood before files were read as bytes, kept verbatim as the reference.
    with open(path, "r", encoding="utf-8") as fh:
        return parse_sequence_text(fh.read())


def _file_outcome(parse, path):
    try:
        w = parse(path)
    except (SequenceFormatError, UnicodeDecodeError) as exc:
        return (type(exc), str(exc))
    return ("window", w.elements, w.horizon, w.array.dtype)


# Pieces of files near the read boundary: line ends of both kinds, comments,
# directives, a BOM, bytes that are not UTF-8, NEL and U+2028 (line breaks
# to str.splitlines), and non-ASCII digits.
_FILE_PIECES = [
    b"0", b"1", b"7", b"42", b"\n", b"\r", b"#", b" ", b"!horizon ", b"\xef\xbb\xbf", b"\xff",
    b"\xc2\x85", b"\xe2\x80\xa8", "\u00b2".encode(), "\u0661".encode(),
]


@st.composite
def _sequence_files(draw):
    # A soup of pieces, or a well-formed file with pieces spliced into its header or body.
    pieces = st.lists(st.sampled_from(_FILE_PIECES), max_size=12).map(b"".join)
    if draw(st.booleans()):
        return draw(pieces)
    values = sorted(draw(st.lists(st.integers(0, 10 ** 6), max_size=8, unique=True)))
    header = [b"!horizon 1000000\n"]
    header.insert(draw(st.integers(0, 1)), b"#" + draw(pieces) + b"\n")
    body = [b"%d\n" % v for v in values]
    if draw(st.booleans()):
        body.insert(draw(st.integers(0, len(body))), draw(pieces))
    return b"".join(header + body)


@given(_sequence_files())
@example(b"!horizon 10\n1\n\xff\n")  # invalid UTF-8 in the body
@example(b"# caf\xc3\xa9\n!horizon 10\n1\n")  # a non-ASCII comment
@example(b"# \xff\n!horizon 10\n1\n")  # invalid UTF-8 in a comment
@example(b"\xef\xbb\xbf!horizon 10\n1\n")  # a BOM before the directive
@example(b"!horizon 10\n# a\x0cb\n1\n")  # a form feed inside a comment
@example(b"!horizon 10\n# a\xe2\x80\xa8b\n1\n")  # U+2028 inside a comment
@example(b"!horizon 10\r\n1\r\n5\r\n")  # CRLF
@example(b"!horizon 10\r1\r5\r")  # CR
@settings(max_examples=300, deadline=None)
def test_a_file_read_as_bytes_parses_as_its_text(tmp_path_factory, data):
    # The same window, dtype included, or the same exception and message, as
    # the text-mode read that decodes the whole file first.
    path = tmp_path_factory.getbasetemp() / "bytes-read.txt"
    path.write_bytes(data)
    assert _file_outcome(parse_sequence_file, path) == _file_outcome(_text_mode_parse, path)


def test_a_file_of_the_common_layout_reaches_the_array_path_from_bytes(tmp_path, monkeypatch):
    # A non-ASCII comment is read in place; a CRLF file once decoded.
    def refuse(text):
        raise AssertionError("the line loop ran")

    monkeypatch.setattr(intsets, "_parse_lines", refuse)
    for data in (b"# caf\xc3\xa9\n!horizon 10\n1\n5\n", b"!horizon 10\r\n1\r\n5\r\n"):
        path = tmp_path / "seq.txt"
        path.write_bytes(data)
        assert parse_sequence_file(path) == Window((1, 5), 10)


def test_a_file_the_array_path_refuses_is_read_by_it_once(tmp_path, monkeypatch):
    # A 19-digit element sends a file to the line loop; with no \r in it, the
    # decoded text is the same bytes, and the kernel is not run on it again.
    calls = []

    def counted(data, parse=intsets._parse_well_formed):
        calls.append(data)
        return parse(data)

    monkeypatch.setattr(intsets, "_parse_well_formed", counted)
    path = tmp_path / "seq.txt"
    path.write_bytes(f"!horizon {10 ** 19}\n1\n{10 ** 18}\n".encode())
    assert parse_sequence_file(path) == Window((1, 10 ** 18), 10 ** 19)
    assert len(calls) == 1


@pytest.mark.parametrize("before", [b"9" * 4000 + b"\n", b"!horizon 1\n"], ids=["longer", "shorter"])
def test_a_sequence_file_written_over_a_file_holds_exactly_the_new_text(tmp_path, before):
    w = Window((0, 3, 10 ** 20), 10 ** 21)
    path = tmp_path / "seq.txt"
    path.write_bytes(before)
    write_sequence_file(path, w, "over\nan old file")
    assert path.read_bytes() == format_sequence(w, "over\nan old file").encode()
    assert parse_sequence_file(path) == w


def test_a_new_sequence_file_gets_the_mode_open_gives_it(tmp_path):
    write_sequence_file(tmp_path / "new.txt", Window((1,), 1))
    with open(tmp_path / "by-open.txt", "w", encoding="utf-8"):
        pass
    assert (tmp_path / "new.txt").stat().st_mode == (tmp_path / "by-open.txt").stat().st_mode


def test_a_sequence_file_is_opened_without_o_trunc(tmp_path, monkeypatch):
    # Truncating a file that holds data makes the writer wait for the disk; a
    # write that goes back to open(path, "w") would not call os.open at all.
    flags, os_open = [], os.open

    def recording(path, flag, *args, **kwargs):
        flags.append(flag)
        return os_open(path, flag, *args, **kwargs)

    monkeypatch.setattr(os, "open", recording)
    path = tmp_path / "seq.txt"
    for w in (Window((1, 2, 3), 10), Window((1,), 10)):
        write_sequence_file(path, w)
    assert len(flags) == 2 and not any(f & os.O_TRUNC for f in flags)
    assert path.read_bytes() == b"!horizon 10\n1\n"


def test_a_sequence_file_can_be_written_to_a_device():
    # A device cannot be truncated: it is written as open(path, "w") writes it.
    write_sequence_file(os.devnull, Window((1,), 1))


def test_a_parsed_window_retains_its_array_alone():
    # Eight bytes an element for the int64 array; an elements tuple of Python
    # ints would add about 40 more.
    count = 200_000
    text = f"!horizon {3 * count}\n" + "".join(f"{3 * i}\n" for i in range(count))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        w = parse_sequence_text(text)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(w) == count and retained <= 12 * count


def test_a_tuple_is_read_without_an_argument_tuple_of_its_size():
    # The int64 array (7.6 MiB) and the ascent check's bools are the peak; a
    # struct.pack of the whole tuple at once would add an 8 MB argument tuple.
    elements = tuple(range(10 ** 6))
    tracemalloc.start()
    try:
        w = Window(elements, 10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(w) == 10 ** 6 and peak < 10 * 2 ** 20


@pytest.mark.parametrize(
    "make",
    [
        lambda: Window(np.arange(10 ** 6), 10 ** 6).restrict(10),
        lambda: Window(np.arange(10 ** 6), 10 ** 6).shift(2 * 10 ** 6),
        lambda: Window(np.arange(10 ** 6), 10 ** 6).shift(-2 * 10 ** 6),
        lambda: difference_set(Window._trusted(np.arange(10 ** 6)[:1], 10 ** 6)),
        lambda: difference_set(Window(np.arange(10 ** 6), 10 ** 6).restrict(0)),
    ],
    ids=["restrict", "empty shift up", "empty shift down", "empty difference set", "restricted difference set"],
)
def test_a_small_window_does_not_keep_its_source(make):
    # The 10^6-element source (7.6 MiB) is gone once make returns; what the
    # result keeps alive is its own few elements.
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        w = make()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(w) <= 11 and retained < 64 * 1024


# -- classifiers and difference_set vs element-by-element scans --------------------
#
# The scans read the definitions one element at a time: the reference for the
# array classifiers.


def _scan_is_syndetic(w, gap_bound):
    if w.horizon + 1 < gap_bound:
        return Verdict.hold(note=f"vacuous: no run of {gap_bound} fits inside [0, {w.horizon}]")
    prev = -1
    for e in w.elements:
        if e - prev - 1 >= gap_bound:
            break
        prev = e
    if w.horizon - prev >= gap_bound:
        return Verdict.fail(prev + 1, note=f"empty run [{prev + 1}, {prev + gap_bound}]")
    return Verdict.hold(note=f"every {gap_bound}-run in [0, {w.horizon}] meets the window")


def _scan_is_thick(w, run_length):
    found, best_len, best_start = None, 0, None
    run_start = prev = None
    for e in w.elements:
        if prev is None or e != prev + 1:
            run_start = e
        run_len = e - run_start + 1
        if run_len > best_len:
            best_len, best_start = run_len, run_start
        if run_len >= run_length:
            found = run_start
            break
        prev = e
    if found is not None:
        return Verdict.hold(found, note=f"run of {run_length} starting at {found}")
    return Verdict.fail(
        w.horizon,
        note=f"longest run has length {best_len}"
        + (f" (starts at {best_start})" if best_start is not None else "")
        + f"; searched up to horizon {w.horizon}",
    )


def _scan_piecewise_syndetic_certificate(w, gap_bound, block_length):
    if block_length > w.horizon + 1:
        return Verdict.fail(w.horizon, note=f"no interval of length {block_length} fits")
    i, n = 0, len(w.elements)
    while i < n:
        j = i
        while j + 1 < n and w.elements[j + 1] - w.elements[j] <= gap_bound:
            j += 1
        lo = max(0, w.elements[i] - gap_bound + 1)
        hi = min(w.horizon, w.elements[j] + gap_bound - 1)
        if hi - lo + 1 >= block_length:
            return Verdict.hold(lo, note=f"interval [{lo}, {lo + block_length - 1}]")
        i = j + 1
    return Verdict.fail(
        w.horizon, note=f"no {gap_bound}-syndetic interval of length {block_length} up to {w.horizon}"
    )


def _scan_banach_density_estimate(w, interval_length):
    if not w.elements:
        return Fraction(0)
    elems = w.elements
    last_start = w.horizon - interval_length + 1
    best = 0
    starts = [e for e in elems if e <= last_start]
    starts.append(last_start)
    for x in starts:
        count = bisect.bisect_right(elems, x + interval_length - 1) - bisect.bisect_left(elems, x)
        if count > best:
            best = count
    return Fraction(best, interval_length)


# base 2^62 - 3000 keeps the window just under 2^62 (int64 arrays near their
# edge); base 2^63 or slack 2^63 puts the horizon past it (arrays of Python ints).
_FORK_BASES = st.sampled_from([0, 2 ** 62 - 3000, 2 ** 63])
_FORK_SLACK = st.sampled_from([0, 1, 7, 400, 2 ** 63])


def _fork_window(elems, base, slack):
    return Window(tuple(base + e for e in sorted(elems)), base + max(elems, default=0) + slack)


@given(
    st.lists(st.integers(0, 1200), max_size=80, unique=True),
    _FORK_BASES,
    _FORK_SLACK,
    st.integers(1, 60),
    st.integers(0, 200),
    st.integers(1, 1300),
)
@example([], 0, 0, 1, 0, 1)
@example([5], 0, 0, 1, 0, 1)
@example([0], 2 ** 63, 0, 1, 0, 1)
@example(list(range(0, 40)) + list(range(100, 200)), 0, 7, 12, 150, 100)
@example([0, 2, 4], 2 ** 62 - 3000, 0, 3, 2, 1)
@example([0, 1, 2, 5, 9, 10, 11], 0, 2 ** 63, 2, 1, 3)  # small elements, object arrays
# Banach density: no element is an admissible start (the last start, 1198, is below them all) ...
@example([1199, 1200], 0, 0, 1, 0, 3)
@example([1199, 1200], 2 ** 63, 0, 1, 0, 3)
# ... the last admissible start, 96, beats every element start ...
@example([0, 97, 98, 99, 100], 0, 0, 1, 0, 5)
@example([0, 97, 98, 99, 100], 2 ** 62 - 3000, 0, 1, 0, 5)
# ... and n >> L.
@example([x for x in range(3000) if x % 3], 0, 7, 1, 0, 4)
@example([x for x in range(3000) if x % 3], 2 ** 63, 7, 1, 0, 4)
@settings(max_examples=300, deadline=None)
def test_classifiers_match_the_python_scans(elems, base, slack, gap, extra, length):
    w = _fork_window(elems, base, slack)
    block = gap + extra
    length = min(length, w.horizon) if w.horizon else None
    fast = [is_syndetic(w, gap).to_json(), is_thick(w, gap).to_json()]
    slow = [_scan_is_syndetic(w, gap).to_json(), _scan_is_thick(w, gap).to_json()]
    if block <= w.horizon + 1:
        fast.append(piecewise_syndetic_certificate(w, gap, block).to_json())
        slow.append(_scan_piecewise_syndetic_certificate(w, gap, block).to_json())
    if length:
        fast.append(banach_density_estimate(w, length))
        slow.append(_scan_banach_density_estimate(w, length))
    assert fast == slow


@given(
    st.lists(st.integers(0, 3000), max_size=60, unique=True),
    st.integers(1, 5000),
    st.integers(1, 5000),
    st.sampled_from([0, 2 ** 62 - 6000]),
)
@settings(max_examples=200, deadline=None)
def test_classifiers_with_parameters_up_to_the_horizon(elems, gap, length, base):
    # gap_bound, block_length and interval_length near horizon + 1, at both ends of int64 room.
    w = Window(tuple(base + e for e in sorted(elems)), base + 3000)
    length = min(length, w.horizon)
    block = max(gap, length)
    slow = [_scan_is_syndetic(w, gap), _scan_is_thick(w, length), _scan_piecewise_syndetic_certificate(w, gap, block),
            _scan_banach_density_estimate(w, length)]
    assert [is_syndetic(w, gap), is_thick(w, length), piecewise_syndetic_certificate(w, gap, block),
            banach_density_estimate(w, length)] == slow


@given(
    st.integers(0, 2 ** 32),
    st.integers(0, 900),
    st.sampled_from([0.002, 0.05, 0.5, 0.95, 1.0]),
    st.sampled_from([1, 2, 3, 7, 12]),
    st.sampled_from([0, 5, 2 ** 63]),
)
@example(0, 0, 0.5, 1, 0)
@example(0, 1, 0.5, 1, 0)
@example(0, 1, 0.5, 1, 2 ** 63)
@example(0, 401, 1.0, 12, 5)  # a progression: an interval of 401 points, no transform
@example(0, 401, 1.0, 7, 2 ** 63)
@settings(max_examples=60, deadline=None)
def test_difference_set_matches_the_quadratic_scan(seed, count, density, stride, base):
    # Windows base + stride·S, with sizes on both sides of the 400-element
    # switch to the FFT, which runs on S and scales its lags back by the
    # common stride; base 2^63 builds the indicator from Python ints.
    rng = np.random.default_rng(seed)
    span = max(1, int(count / density))
    elems = [stride * e for e in np.sort(rng.choice(span, size=min(count, span), replace=False)).tolist()]
    w = Window(tuple(base + e for e in elems), base + stride * span + 3)
    scan = Window(tuple(sorted({b - a for a, b in combinations(elems, 2)})), w.horizon)
    got = difference_set(w)
    assert "elements" not in got.__dict__  # built on the array alone
    assert got == scan and hash(got) == hash(scan)


def _is_5_smooth(n):
    for q in (2, 3, 5):
        while n % q == 0:
            n //= q
    return n == 1


def test_fft_size_is_the_least_5_smooth_length():
    least = {}
    m = 5000
    for n in range(5000, 0, -1):
        if _is_5_smooth(n):
            m = n
        least[n] = m
    assert [_fft_size(n) for n in range(1, 5001)] == [least[n] for n in range(1, 5001)]
    assert _fft_size(2 * 10 ** 4 + 1) == 20250  # 32768 as a power of two


# Spans whose 5-smooth FFT length is below the power of two: 2·span+1 is itself
# 5-smooth for 562 (1125), 607 (1215), 1012 (2025) and 1687 (3375).
@pytest.mark.parametrize("span", [562, 607, 1012, 1687, 1100, 3000])
@pytest.mark.parametrize("seed", [0, 1])
def test_difference_set_on_5_smooth_fft_lengths(span, seed):
    size = _fft_size(2 * span + 1)
    assert size < 1 << (2 * span).bit_length() and size >= 2 * span + 1
    rng = np.random.default_rng(seed)
    inner = rng.choice(np.arange(1, span), size=min(span - 1, 420 + seed * span // 3), replace=False)
    elems = [7, *sorted(int(e) + 7 for e in inner), span + 7]  # the span is pinned by both ends
    w = Window(tuple(elems), span + 20)
    assert len(w) > 400
    assert difference_set(w) == Window(tuple(sorted({b - a for a, b in combinations(elems, 2)})), w.horizon)


# -- the trusted constructor ---------------------------------------------------------


@given(st.lists(st.integers(0, 10 ** 6), max_size=30, unique=True), st.integers(0, 10))
@settings(max_examples=60, deadline=None)
def test_trusted_window_equals_and_hashes_like_a_checked_one(elems, slack):
    elements = tuple(sorted(elems))
    horizon = max(elements, default=0) + slack
    checked = Window(elements, horizon)
    trusted = Window._trusted(np.array(elements, dtype=np.int64), horizon)
    assert trusted == checked and hash(trusted) == hash(checked) and repr(trusted) == repr(checked)
    assert trusted.array.tolist() == checked.array.tolist() and trusted.array.dtype == checked.array.dtype
    assert trusted.restrict(horizon // 2) == checked.restrict(horizon // 2)
    assert trusted.restrict(horizon // 2).array.tolist() == list(checked.restrict(horizon // 2).elements)


def test_trusted_window_keeps_the_array_cap_and_the_horizon_check():
    # The values take the dtype of the window's horizon.
    big = (5, 2 ** 62 + 1)
    widened = Window._trusted(np.array(big, dtype=np.int64), 2 ** 63)
    assert widened.array.dtype == object and widened.array.tolist() == list(big)
    assert Window((0, 2 ** 62), 2 ** 64).shift(2 ** 62 - 1).array.dtype == object
    narrowed, widened = Window((5,), 2 ** 63).restrict(10), Window((5,), 10).restrict(2 ** 63)
    assert narrowed.array.dtype == np.int64 and widened.array.dtype == object
    assert narrowed.array.tolist() == widened.array.tolist() == [5]
    with pytest.raises(ValueError, match="horizon must be >= 0"):
        Window((0, 3), 10).restrict(-1)
    assert Window((0, 3), 10).restrict(20) == Window((0, 3), 20)
    far = Window((0, 3), 10).restrict(2 ** 70)
    assert far == Window((0, 3), 2 ** 70) and far.array.dtype == object


_BELOW_ONE = "need 1 <= interval_length <= horizon + 1"


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: is_syndetic(interval(0, 9), 0), "gap_bound must be >= 1", id="is_syndetic"),
        pytest.param(lambda: is_thick(interval(0, 9), 0), "run_length must be >= 1", id="is_thick"),
        pytest.param(lambda: piecewise_syndetic_certificate(interval(0, 9), 0, 3), "gap_bound must be >= 1",
                     id="piecewise_syndetic_certificate"),
        pytest.param(lambda: banach_density_estimate(interval(0, 9), 0), _BELOW_ONE, id="banach-length-0"),
        pytest.param(lambda: banach_density_estimate(interval(0, 9), 11), _BELOW_ONE, id="banach-length-past-horizon"),
    ],
)
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_window_past_the_bitmask_cap_has_no_bitmask():
    assert Window((1,), _BITMASK_HORIZON_CAP + 1).bitmask is None
