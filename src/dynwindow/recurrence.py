"""Window-bounded recurrence and orbit-density tests.

The cyclic systems are the exact oracle family: every finite minimal system
is a single cycle, so "recurrence/density for all minimal systems of size
<= M" is literally decidable as residue coverage mod every m <= M.  Metric
systems (rotations, skew products) get numeric eps-density tests with an
explicit floating-point error budget; their verdicts never claim asymptotic
membership in any recurrence family.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .intsets import Verdict, Window, _small_ints, _span, difference_set
from .systems import (
    CyclicSystem,
    FiniteSystem,
    ProductSystem,
    RotationSystem,
    TorusSystem,
    _coverage,
)

__all__ = [
    "ReturnTimesResult",
    "RSequenceReport",
    "CoverageError",
    "ProductTransitivityResult",
    "DEFAULT_SWEEP_SEED",
    "return_times",
    "r_sequence_cyclic",
    "r_sequence_metric",
    "birkhoff_window_test",
    "shift_family_test",
    "crosscheck_cyclic_equivalence",
    "finite_subcover",
    "product_transitive_finite",
    "cesaro_average_along",
    "cesaro_interval_closed_form",
    "random_windows",
]

DEFAULT_SWEEP_SEED = 1729

# random_windows' least element and the range of its log-uniform window densities.
_SWEEP_MIN_ELEMENT, _SWEEP_DENSITY_RANGE = 50, (5e-4, 0.5)

# Horizon beyond which the cross-check would have to materialize
# impractically large return-time / difference windows.
_CROSSCHECK_HORIZON_CAP = 1_000_000

# product_transitive_finite enumerates the orbit of (0, 0), lcm(m, n) states
# held in a set: 4,192,256 of them took 4.3 s and 638 MB, so a larger orbit
# is refused.
_PRODUCT_ORBIT_CAP = 2 ** 22

# _missing_residues recounts the periods its prefix leaves open in blocks of
# lcm at most this: one bincount of that many counters per block.
_RECOUNT_MODULUS_CAP = 2 ** 16

# _missing_residues reads the periods up to this from one class table of
# lcm(1..12) = 27,720 columns of two uint64 words (443 kB): 12 is the
# largest P with lcm(1..P) within _RECOUNT_MODULUS_CAP.
_TABLE_PERIODS = 12

# Period p's segment of the class table's bits: its offset p(p-1)/2, and its value when every class is hit.
_SEGMENTS = tuple((p * (p - 1) // 2, (1 << p) - 1) for p in range(1, _TABLE_PERIODS + 1))

# _missing_residues reduces a prefix of Python ints once per run of periods
# whose lcm is at most this, then takes each period's remainder in int64.
_REDUCE_MODULUS_CAP = 2 ** 62 - 1

# The cross-check's shifted hits read this many of a window's elements per
# comparison window against the position table, and settle the pairs left
# open on bitmasks.  At 4 (140 elements for the 35 windows of M = 12) one
# gather settles every (window, shift) pair of each of the 250
# crosscheck-sweep windows at seeds 1, 2 and 3, whose pairs are all met
# within their first 91, 96 and 94 elements; a pass gathers about 299k rows,
# against 508k at 8.
_SLICE_PER_WINDOW = 4

# return_times reads orbits in blocks of this many times: 5.6 MiB at the peak for 10^6 on skew:golden, not 76.
_RETURN_BLOCK = 2 ** 16

# The metric tests evaluate starts in batches of at most this many states
# per coordinate array (32 MiB of uint64 numerators, or as many Python ints); a larger grid is split.
_BATCH_ELEMENTS = 2 ** 22


class CoverageError(ValueError):
    """Residue coverage precondition failed; carries the missing class."""

    def __init__(self, period: int, missing: int):
        super().__init__(f"residues mod {period} do not cover Z/{period}: class {missing} is missing")
        self.period = period
        self.missing = missing


@dataclass(frozen=True)
class ReturnTimesResult:
    """The set {1 <= n <= horizon : T^n(start) in cell}, replayable."""

    times: Window
    cell: object
    start: object


@dataclass(frozen=True)
class RSequenceReport:
    """Verdict plus per-system evidence for an orbit-density family test."""

    family: str
    verdict: Verdict
    per_system: dict

    def to_json(self) -> dict:
        out = self.verdict.to_json()
        out["family"] = self.family
        out["per_system"] = [
            {"system": k, **v} for k, v in self.per_system.items()
        ]
        return out


def return_times(sys, start, cell, horizon: int, cover=None) -> ReturnTimesResult:
    """Positive times n <= horizon at which the orbit of start visits the cell.

    Time 0 is deliberately excluded: these windows feed recurrence tests,
    where the trivial visit at n = 0 would make everything pass.  Finite
    systems of at most horizon states read a table of ``step``; the rest
    read ``sys.along`` in blocks of _RETURN_BLOCK times.  A cell that is
    not one of the cover's is never visited.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if cover is None:
        cover = sys.cover(1.0)
    if isinstance(sys, FiniteSystem) and sys.size <= horizon:
        times = _step_table_times(sys, start, cell, horizon, cover)
    else:
        try:  # (0, 12) has the number of (1, 2) when k = 10: a number is the cell's if cell_at gives it back
            flat = cover.flat_id(cell)
            blocks = range(1, horizon + 1, _RETURN_BLOCK) if cover.cell_at(flat) == cell else ()
        except (TypeError, IndexError):  # not even shaped like a cell
            blocks = ()
        hits = [np.zeros(0, dtype=np.int64)]
        for lo in blocks:
            block = np.arange(lo, min(lo + _RETURN_BLOCK, horizon + 1))
            ids = sys.along(Window._trusted(block, horizon), [start]).cells(cover)[0]
            hits.append(block[ids == flat])
        times = np.concatenate(hits)
    return ReturnTimesResult(Window._trusted(times, horizon), cell, start)


def _step_table_times(sys: FiniteSystem, start, cell, horizon: int, cover) -> np.ndarray:
    # The step is tabulated once over the codes, table[v] = encode(step(decode(v))),
    # and squared while the orbit doubles: with the orbit at T^0..T^(L-1) of the
    # start, the table is T^L, so table[orbit] is T^L..T^(2L-1).  The dynamics
    # enter only through step, never as n mod size.
    states = [sys.decode(v) for v in range(sys.size)]
    table = np.array([sys.encode(sys.step(s)) for s in states], dtype=np.int64)
    inside = np.array([cover.cell_of(s) == cell for s in states], dtype=bool)
    orbit = np.array([sys.encode(start)], dtype=np.int64)
    while orbit.size <= horizon:
        orbit = np.concatenate((orbit, table[orbit]))
        table = table[table]
    return np.flatnonzero(inside[orbit[1 : horizon + 1]]) + 1


def _lcm_runs(periods: Sequence[int], cap: int):
    # The periods in runs of consecutive ones, each the longest whose lcm is at
    # most cap, or one period: yields (run, its lcm).
    i = 0
    while i < len(periods):
        j, modulus = i + 1, periods[i]
        while j < len(periods) and math.lcm(modulus, periods[j]) <= cap:
            modulus, j = math.lcm(modulus, periods[j]), j + 1
        yield periods[i:j], modulus
        i = j


@lru_cache(maxsize=None)
def _class_table() -> np.ndarray:
    # Column r, for r below lcm(1.._TABLE_PERIODS), sets bit p(p-1)/2 + r mod p
    # for each period p <= _TABLE_PERIODS: a segment of p bits per period, in
    # little-endian uint64 words, one row per word (each word's OR over a
    # prefix then runs along a row: 1.9 µs against 3.6 µs across the rows of
    # a (27,720, 2) table, for 157 elements on a 2-vCPU x86-64 host).  Built
    # on the first call, by ORs in place over a (words, columns / p, p) view
    # per period; read-only, as it is shared.
    size, words = math.lcm(*range(1, _TABLE_PERIODS + 1)), -(-(_SEGMENTS[-1][0] + _TABLE_PERIODS) // 64)
    table = np.zeros((words, size), dtype=np.uint64)
    for p, (offset, _) in enumerate(_SEGMENTS, start=1):
        view = table.reshape(words, size // p, p)
        for c in range(p):
            view[(offset + c) // 64, :, c] |= np.uint64(1 << (offset + c) % 64)
    table.flags.writeable = False
    return table


def _missing_residues(arr: np.ndarray, max_period: int) -> list:
    """The least class mod m that arr misses (None when it covers Z/m), for m = 1..max_period.

    arr holds the ascending, non-negative elements of a window, so its last
    element bounds the rest.  A prefix of n = 16·max_period elements is read
    first.  The periods up to _TABLE_PERIODS are read from the class table
    (``_class_table``): the OR of its columns at the prefix's elements mod
    the table's lcm (no reduction when the last is below it) holds a p-bit
    segment per period p, whose set bits are the classes the prefix hits, and
    the segment's lowest zero bit is p's least missing class.  The periods
    from _TABLE_PERIODS + 1 on are reduced against a block of periods at once
    and counted in one offset bincount, a segment per period; the first zero
    of a segment is that period's least missing class.  There the prefix is
    reduced in int32 when its last element is below
    2^31, else in int64 (Python ints past 2^63 once per run of periods whose
    lcm is below 2^62, then in int64 mod each period).  n elements hit at
    most n classes, so the least class they miss is at most n: a segment
    counts the classes below w = min(n, largest period) and pools the rest
    in one more counter, which stays zero when every class below w is hit.
    Residues are clamped into the pool only when n is below the largest
    period; otherwise each is already below w.  A block's periods and
    bincount offsets are columns, built per call, so the block × prefix
    matrix is reduced a row per period.  Blocks keep both that matrix and
    the bincount within _BATCH_ELEMENTS.  A prefix that covers Z/m settles
    m; the m's it leaves uncovered are recounted on the whole array, in
    int64 or Python ints, mod the lcm of a block of them, and reduce its hit
    classes mod m.  This is the cyclic engine's one coverage kernel:
    r_sequence_cyclic, the cross-check and the cyclic shift families (the
    core and each shifted window) read it.
    """
    arr = _small_ints(arr)
    head = arr[: 16 * max_period]
    table = _class_table()
    rows = head % table.shape[1] if head.size and head[-1] >= table.shape[1] else head
    seen = np.bitwise_or.reduce(table.take(rows.astype(np.intp, copy=False), axis=1), axis=1)
    hit = int.from_bytes(seen.tobytes(), "little")  # bit p(p-1)/2 + c: the prefix hits c mod p
    least = []  # per period: the least class missed, or None
    for offset, full in _SEGMENTS[: max(max_period, 0)]:
        seg = hit >> offset & full  # the classes the prefix hits
        least.append(None if seg == full else (~seg & seg + 1).bit_length() - 1)  # its lowest zero bit
    if max_period > _TABLE_PERIODS and head.dtype != object and head.size and head[-1] < 2 ** 31:
        head = head.astype(np.int32)
    dtype = np.int64 if head.dtype == object else head.dtype
    width = max(1, _BATCH_ELEMENTS // (max(head.size, 1) + 1))  # periods per block
    for m in range(_TABLE_PERIODS + 1, max_period + 1, width):
        top = min(m + width, max_period + 1)  # one past the block's largest period
        w = max(1, min(head.size, top - 1))
        periods = np.arange(m, top, dtype=dtype)[:, None]
        offsets = (periods - m) * (w + 1)  # period p's segment of the bincount starts at (p - m)·(w + 1)
        if head.dtype == object:  # one Python-int reduction per lcm run, then int64 remainders
            residues = np.empty((top - m, head.size), dtype=np.int64)
            for run, modulus in _lcm_runs(range(m, top), _REDUCE_MODULUS_CAP):
                reduced = (head % modulus).astype(np.int64)
                np.remainder(reduced, periods[run.start - m : run.stop - m], out=residues[run.start - m : run.stop - m])
        else:
            residues = np.remainder(head, periods)
        if head.size < top - 1:
            np.minimum(residues, w, out=residues)
        residues += offsets
        counts = np.bincount(residues.ravel(), minlength=(top - m) * (w + 1)).reshape(top - m, w + 1)
        # A row hits at most n classes: with every class below w hit, the pool is empty.
        first = counts.argmin(axis=1).tolist()  # its first zero: the least class missed, or w
        least += [r if r < p else None for p, r in zip(range(m, top), first)]
    if head.size < arr.size:
        periods = [p for p, r in enumerate(least, start=1) if r is not None]
        for block, modulus in _lcm_runs(periods, _RECOUNT_MODULUS_CAP):
            classes = np.flatnonzero(np.bincount((arr % modulus).astype(np.int64, copy=False), minlength=modulus))
            for p in block:
                hit = np.bincount(classes % p, minlength=p)
                least[p - 1] = None if hit.all() else int(np.argmin(hit))
    return least


def r_sequence_cyclic(a: Window, max_period: int) -> RSequenceReport:
    """Exact orbit-density test against every cycle of period m <= max_period.

    On Z/m, "the orbit of some point along a is dense" is exactly "a covers
    every residue class mod m".  Holds iff all m pass; the failure witness is
    (m, smallest missing residue) for the smallest failing m.
    """
    if max_period < 1:
        raise ValueError("max_period must be >= 1")
    per_system = {}
    verdict = None
    for m, missing in enumerate(_missing_residues(a.array, max_period), start=1):
        per_system[f"cyclic:{m}"] = {"covered": missing is None, "missing": missing}
        if missing is not None and verdict is None:
            verdict = Verdict.fail((m, missing), note=f"residue {missing} mod {m} never hit")
    if verdict is None:
        verdict = Verdict.hold(note=f"covers every residue class mod m for all m <= {max_period}")
    return RSequenceReport(f"cyclic m <= {max_period}", verdict, per_system)


def _metric_budget_note(a: Window, sys, eps: float) -> Optional[str]:
    # Angle representation error (half an ulp of a number < 1) amplified by
    # the largest time (the horizon when the window is empty) must stay well
    # under the cell size: t·2^-53 > eps/10 is inconclusive.  Exact orbits
    # carry no such error.
    if sys.exact_orbits:
        return None
    drift = (int(a.array[-1]) if len(a) else a.horizon) * 2.0 ** -53
    if drift > eps / 10.0:
        return (
            f"floating-point budget exceeded: time-amplified angle error {drift:.3g} "
            f"> eps/10 = {eps / 10.0:.3g}"
        )
    return None


def _batches(starts: list, length: int, first: int = 0):
    # starts[first:] in batches of at most _BATCH_ELEMENTS states per coordinate
    # array over a window of length elements.
    rows = max(1, _BATCH_ELEMENTS // max(1, length))
    return (starts[i : i + rows] for i in range(first, len(starts), rows))


def _start_batches(sys, resolution: float, length: int):
    # The grid's first start alone, taken without building the grid: a dense orbit
    # is usually found there.  Then the rest of the grid, built only now.
    yield sys._class_starts(resolution)[:1]
    yield from _batches(sys.starts(resolution), length, first=1)


def r_sequence_metric(a: Window, sys, eps: float, start_grid_resolution: float) -> RSequenceReport:
    """Numeric orbit-density test on a rotation or skew product.

    Searches start points on a lexicographic grid; Holds iff some start's
    orbit along a is eps-dense.  Otherwise reports the best start (the first
    with the most cells hit) and its first empty cell.  The report is a
    claim about this window and eps only.  Orbits are evaluated over the
    whole window at once (``sys.along``): on every torus they are the exact
    orbits of the doubles or exact rationals the system holds, as integer
    numerators, and each state's cell is its exact floor.  The first start
    is evaluated alone, taken without building the grid; only then is the
    rest of the grid built and evaluated as one array, split at
    ``_BATCH_ELEMENTS`` states; each batch is read by an engine whose
    denominator its own starts fix.  A batch's cells are counted in one
    bincount when they are few against the window, and sorted per start
    otherwise (``_coverage``).  Exact rational angles (``rot:p/q``,
    ``skew:p/q``) skip the floating-point budget; finite systems and
    products raise TypeError, and eps <= 0 or a start grid <= 0 raise
    ValueError before the budget is checked.
    """
    if not isinstance(sys, TorusSystem):
        raise TypeError(f"not a metric catalog system: {sys!r}")
    family = f"{sys.spec_string()} eps={eps}"
    cover = sys.cover(eps)
    sys._grid(start_grid_resolution, sys.dimension)  # a grid <= 0, or too fine, raises before the budget is read
    note = _metric_budget_note(a, sys, eps)
    if note is not None:
        return RSequenceReport(family, Verdict.undecided(note=note), {})
    total = cover.cell_count()
    window_desc = f"{len(a)} elements on [0, {a.horizon}], eps={eps}"
    best = None  # (hit count, start, first empty cell)
    for batch in _start_batches(sys, start_grid_resolution, len(a)):
        # Flat ids are clamped into the cells, so an orbit is eps-dense iff it hits `total` of them.
        hits, empties = _coverage(sys.along(a, batch).cells(cover), total)
        i = int(np.argmax(hits))
        if hits[i] == total:
            start = batch[i]
            detail = {str(start): {"cells_hit": total, "cells": total}}
            return RSequenceReport(
                family,
                Verdict.hold(start, note=f"orbit of {start} along {window_desc} is dense"),
                detail,
            )
        if best is None or hits[i] > best[0]:
            best = (int(hits[i]), batch[i], cover.cell_at(int(empties[i])))
    hit, start, empty = best
    detail = {str(start): {"cells_hit": hit, "cells": total, "empty_cell": empty}}
    verdict = Verdict.fail(
        empty,
        note=f"best start {start} hits {hit}/{total} cells along {window_desc}; cell {empty} stays empty",
    )
    return RSequenceReport(family, verdict, detail)


def birkhoff_window_test(a: Window, sys, eps: float, start_grid_resolution: float = 1.0) -> Verdict:
    """Does some start return eps-close to itself at a time in the window?

    Starts come from the system's start set (all states of a finite system,
    the grid of a torus), first witness (start, n) wins.  Element 0 of the
    window is ignored (trivial return).  eps <= 0 raises ValueError.  Return
    distances are evaluated as arrays (``sys.along``); on every torus, exact
    rational angles included, they are exact integer numerators, compared
    with eps exactly (``orbits.limit``) and reported rounded once, and on a
    finite system they are 0 at the multiples of its size and 1 elsewhere.

    A return distance d(T^n s, s) reads only some coordinates of the start
    s: none on a rotation, cycle or odometer, which is a group rotation,
    and x on the skew product, whose y cancels.  So only the first start of
    each return class in grid order is read (``sys._class_starts``, taken
    from the grid's resolution without building the grid): the grid's
    first start, or (x, 0.0) for each x of the skew's grid.  The
    witness rule is unchanged by this: a later start of a class returns iff
    the first one does, at the same times and distances, so the least start
    that returns, and the earliest start of a closest return, are the first
    of their class.  These starts are read in batches of at most
    ``_BATCH_ELEMENTS`` states, each over the whole window, at a cost of
    O(len(a) · class starts).  The witness is the least start that returns,
    at its first return; with no return at all, the closest return is the
    least distance, the earliest start and time first among equals.
    """
    if not eps > 0:
        raise ValueError("eps must be > 0")
    note = _metric_budget_note(a, sys, eps)
    if note is not None:
        return Verdict.undecided(note=note)
    starts = sys._class_starts(start_grid_resolution)
    positive = Window._trusted(a.array[1:] if len(a) and a.array[0] == 0 else a.array, a.horizon)
    closest = None  # (distance, start, n)
    for batch in _batches(starts, len(positive)):
        # One engine per batch: distances stay numerators over its den until batches are compared.
        orbits = sys.along(positive, batch)
        d = orbits.distances()
        near = d < orbits.limit(eps)
        if near.any():  # the earliest start that returns, at its first return
            i = int(np.argmax(near.any(axis=1)))
            j = int(np.argmax(near[i]))
            n = int(positive.array[j])
            return Verdict.hold((batch[i], n), note=f"T^{n} returns within {float(orbits.value(d[i, j])):.3g} < {eps}")
        if d.size:  # row-major: the earliest start, then time, of the least distance
            i, j = divmod(int(np.argmin(d)), d.shape[1])
            if closest is None or orbits.value(d[i, j]) < closest[0]:
                closest = (orbits.value(d[i, j]), batch[i], int(positive.array[j]))
    if closest is None:
        return Verdict.fail(0, note="window has no positive elements")
    d, start, n = closest
    return Verdict.fail((start, n), note=f"closest return distance {float(d):.3g} >= eps = {eps}")


def shift_family_test(a: Window, shifts: Iterable[int], tester: Callable) -> Verdict:
    """Apply a window test to (a + n) ∩ [0, horizon] for every shift n.

    Holds iff all shifts pass; the witness is the first failing shift in
    ascending order.  Inconclusive inner verdicts propagate.
    """
    shifts = sorted(shifts)
    for n in shifts:
        result = tester(a.shift(n))
        verdict = result.verdict if isinstance(result, RSequenceReport) else result
        if verdict.fails:
            return Verdict.fail(n, note=f"shift {n:+d} fails: {verdict.note or verdict.witness}")
        if verdict.inconclusive:
            return Verdict.undecided(note=f"shift {n:+d} inconclusive: {verdict.note}")
    return Verdict.hold(note=f"all {len(shifts)} shifts pass")


def _shift_family_cyclic(a: Window, shifts: Iterable[int], max_period: int) -> Verdict:
    """shift_family_test(a, shifts, lambda w: r_sequence_cyclic(w, max_period)), verdict for verdict.

    Shift n keeps the slice of a with -n <= e <= horizon - n.  Both ends of
    that slice fall as n grows, so every slice contains the core
    -shifts[0] <= e <= horizon - shifts[-1], and a shift permutes Z/m: when
    one ``_missing_residues`` call on the core covers Z/m for every m, every
    shift passes.  Otherwise each shifted window (``Window.shift``, in the
    window's own dtype, so e + n may pass 2^63) gets one ``_missing_residues``
    call, in ascending order of shift, up to the first that misses a class:
    the least failing shift, at its least failing period and that period's
    least missing class.
    """
    shifts = sorted(shifts)
    if shifts and max_period < 1:
        raise ValueError("max_period must be >= 1")
    core = a.array[slice(*_span(a, -shifts[0], a.horizon - shifts[-1]))] if shifts else a.array[:0]
    if any(missing is not None for missing in _missing_residues(core, max_period)):  # an empty core misses 0
        for n in shifts:
            for m, missing in enumerate(_missing_residues(a.shift(n).array, max_period), start=1):
                if missing is not None:
                    return Verdict.fail(n, note=f"shift {n:+d} fails: residue {missing} mod {m} never hit")
    return Verdict.hold(note=f"all {len(shifts)} shifts pass")


def _position_table(windows: list) -> np.ndarray:
    # Row p + 1 for each position p from 0 to the largest element of any
    # window, between two all-zero rows; bit j of a row (bit j % 64 of its
    # word j // 64) is set when the position lies in windows[j], and is filled
    # from that window alone.
    top = max((int(w.array[-1]) for w in windows if len(w)), default=-1)
    table = np.zeros((top + 3, -(-len(windows) // 64)), dtype=np.uint64)
    for j, w in enumerate(windows):
        table[w.array + 1, j // 64] |= np.uint64(1 << (j % 64))
    return table


@lru_cache(maxsize=1)
def _comparison_table(ext: int, max_period: int) -> tuple:
    # The cross-check's windows on [0, ext] for every m <= max_period, as
    # (position table, windows in column order, per m the bit of its return
    # window's column and the bits of its difference windows' columns).  Only
    # the latest table is kept: a sweep shares one, and older ones hold MiBs.
    # A window holds its array, and its mask once a bitmask settle reads it,
    # never an elements tuple.
    windows, columns = [], []
    for m in range(1, max_period + 1):
        j = len(windows)
        # N(U,U) for the singleton cell {0} of Z/m, computed by honest stepping.
        windows.append(return_times(CyclicSystem(m), 0, 0, ext).times)
        # S - S for the progressions S = {r, r+m, r+2m, ...} on [0, ext].  S is a
        # translate of {0, m, ..., (k-1)m}, k = |S|, and S - S is translation
        # invariant; progressions r <= ext mod m have one element more than the
        # rest: two translation classes, one window each, built from the least r
        # (at most 2·max_period - 1 windows in all, not max_period·(max_period + 1)/2).
        leaders = (0,) if ext % m == m - 1 else (0, ext % m + 1)
        windows += [difference_set(Window._trusted(np.arange(r, ext + 1, m), ext)) for r in leaders]
        columns.append((1 << j, (1 << len(windows)) - (2 << j)))
    return _position_table(windows), windows, columns


def _shifted_hits(a: Window, shifts: Sequence[int], table: np.ndarray, windows: list) -> int:
    """The columns j, as bits, for which a + n meets windows[j] for every shift n.

    Stage 1 reads a prefix of a, its first _SLICE_PER_WINDOW elements per
    window (140 for the 35 windows of M = 12): the pair (n, j) is met when
    bit j of the row of x + n is set for some x in it, a position off the
    table reading an all-zero row.  The gather stays within _BATCH_ELEMENTS
    words, taking the shifts in blocks.  A prefix that is the whole window
    decides every pair.  Otherwise stage 2 settles each window's open pairs
    on whole-window bitmasks and stops at the window's first miss: every
    window of a cross-check lies within _CROSSCHECK_HORIZON_CAP, where each
    has its bitmask.  shifts come ascending, as the cross-check sorts them
    (a repeated shift reads the same row twice), and are read as given.  A
    shift below -horizon - 1 or past the table meets nothing, as that bound
    does, so when one is there, shifts are clamped to those bounds and
    taken once each.
    """
    top = len(table) - 2  # past the largest position
    if shifts and (shifts[0] < -a.horizon - 1 or shifts[-1] > top):
        shifts = sorted({min(max(n, -a.horizon - 1), top) for n in shifts})
    # The row offset n + 1 of each shift n: the row of x + n is x + n + 1.
    rows = np.array([n + 1 for n in shifts], dtype=np.int64)
    x = a.array[: _SLICE_PER_WINDOW * len(windows)]
    block = max(1, _BATCH_ELEMENTS // max(1, x.size * table.shape[1]))
    # mode="clip" sends a row index off the table to the zero row at that end;
    # with no shift, one empty block gives met no row, and every column is hit.
    parts = [np.bitwise_or.reduce(table.take(rows[i : i + block, None] + x, axis=0, mode="clip"), axis=1)
             for i in range(0, max(rows.size, 1), block)]
    met = parts[0] if len(parts) == 1 else np.concatenate(parts)
    hits = (1 << len(windows)) - 1 & int.from_bytes(np.bitwise_and.reduce(met, axis=0).tobytes(), "little")
    if x.size == len(a):
        return hits
    for j, d in enumerate(windows):
        if hits >> j & 1:
            continue
        open_ = [r - 1 for r, bits in zip(rows.tolist(), met[:, j // 64].tolist()) if not bits >> j % 64 & 1]
        mask_a, mask_d = a.bitmask, d.bitmask
        hit = all((mask_a << n if n >= 0 else mask_a >> -n) & mask_d for n in open_)
        hits |= hit << j
    return hits


def crosscheck_cyclic_equivalence(a: Window, max_period: int, shifts: Iterable[int]) -> Verdict:
    """Cross-check three window forms of the shift-invariant recurrence test.

    For each m <= max_period the following are computed by independent code
    paths and must agree:

      (1) a covers every residue class mod m;
      (2) for every shift n, (a + n) meets the return-time set N(U,U) of the
          m-cycle (built by orbit stepping);
      (3) for every shift n and every progression S = mN + r, (a + n) meets
          S - S (built by difference_set).  On [0, ext] the m progressions
          fall into at most two translation classes (ext // m + 1 elements
          or one fewer), and S - S is the same across a class, so one
          difference set is built and met per class.

    (2) and (3) read their windows through one position table, each window
    its own column (``_shifted_hits``); the table and its windows are built
    once per (ext, max_period), and only the latest is kept
    (``_comparison_table``).  When every column is hit and every
    m is covered, all three hold for every m and the verdict is given at
    once; otherwise each m is compared in turn.  Any disagreement is an
    implementation bug, reported as Fails with the offending (m, coverage,
    return-hit, difference-hit) tuple.  Exact agreement is guaranteed when
    the shift range spans at least max_period consecutive integers and every
    inhabited residue class has an element >= max_period + |most negative
    shift|; windows hugging 0 can disagree honestly at the bottom edge.
    max_period < 1 raises ValueError.
    """
    if max_period < 1:
        raise ValueError("max_period must be >= 1")
    if a.horizon > _CROSSCHECK_HORIZON_CAP:
        raise ValueError(
            f"cross-check materializes comparison windows up to the horizon; "
            f"{a.horizon} exceeds the {_CROSSCHECK_HORIZON_CAP} cap"
        )
    shifts = sorted(shifts)
    if not shifts:
        raise ValueError("shift range must be nonempty")
    ext = a.horizon + max(shifts[-1], 0) + max_period
    if ext > _CROSSCHECK_HORIZON_CAP:
        raise ValueError(f"cross-check windows reach ext = horizon + max(largest shift, 0) + max_period = {a.horizon} + "
                         f"{max(shifts[-1], 0)} + {max_period} = {ext}, past the {_CROSSCHECK_HORIZON_CAP} cap")
    table, windows, columns = _comparison_table(ext, max_period)
    hits = _shifted_hits(a, shifts, table, windows)
    missing = _missing_residues(a.array, max_period)
    if hits != (1 << len(windows)) - 1 or missing.count(None) != max_period:  # not all three hold everywhere
        for m, (nuu, diffs) in enumerate(columns, start=1):
            covered = missing[m - 1] is None
            return_hit, diff_hit = hits & nuu == nuu, hits & diffs == diffs
            if not (covered == return_hit == diff_hit):
                return Verdict.fail(
                    (m, covered, return_hit, diff_hit),
                    note=(
                        f"m={m}: residue coverage={covered}, "
                        f"return-time hitting={return_hit}, difference-set hitting={diff_hit}"
                    ),
                )
    return Verdict.hold(
        note=f"all three predicates agree for every m <= {max_period} across {len(shifts)} shifts"
    )


def finite_subcover(a: Window, m: int) -> Window:
    """Minimal-cardinality B ⊆ a whose residues cover Z/m (the least element per class).

    Raises CoverageError with the least missing class if a does not cover
    Z/m: the classes a hits ascend, so that is the first one that differs
    from its index, or their count when none does (0 for an empty window).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    # a ascends, so the first index of each class holds its least element.
    classes, first = np.unique(_small_ints(a.array) % m, return_index=True)
    if classes.size < m:
        gaps = np.flatnonzero(classes != np.arange(classes.size))
        raise CoverageError(m, int(gaps[0]) if gaps.size else classes.size)
    return Window._trusted(a.array[np.sort(first)], a.horizon)


@dataclass(frozen=True)
class ProductTransitivityResult:
    """gcd formula vs honest orbit enumeration for a product of two cycles."""

    m: int
    n: int
    coprime: bool
    orbit_size: int
    full_product: bool

    @property
    def agrees(self) -> bool:
        return self.full_product == self.coprime and self.orbit_size == math.lcm(self.m, self.n)

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "transitive": self.coprime,
            "orbit_size": self.orbit_size,
            "full_product": self.full_product,
            "agrees": self.agrees,
        }


def product_transitive_finite(m: int, n: int) -> ProductTransitivityResult:
    """Is Z/m x Z/n a single orbit?  Formula gcd(m,n)=1, verified by enumeration.

    The orbit of (0, 0) has lcm(m, n) states; past _PRODUCT_ORBIT_CAP it is
    refused with ValueError before any state is built.
    """
    if m < 1 or n < 1:
        raise ValueError("m, n must be >= 1")
    if math.lcm(m, n) > _PRODUCT_ORBIT_CAP:
        raise ValueError(f"the orbit of (0,0) has lcm(m, n) = {math.lcm(m, n)} states, "
                         f"past the {_PRODUCT_ORBIT_CAP} cap")
    sys = ProductSystem(CyclicSystem(m), CyclicSystem(n))
    seen = set()
    state = (0, 0)
    while state not in seen:
        seen.add(state)
        state = sys.step(state)
    size = len(seen)
    return ProductTransitivityResult(m, n, math.gcd(m, n) == 1, size, size == m * n)


def cesaro_average_along(a: Window, sys: RotationSystem, k: int, start: float = 0.0) -> list[float]:
    """Magnitudes |1/N * sum_{i<=N} e^{2 pi i k (start + a_i alpha)}| per prefix N.

    The character average along the window: it decays when the orbit along a
    equidistributes, stays at 1 when the orbit is a single point.  k·a_i·alpha
    mod 1 is the orbit engine's phase (alpha read as its double, exactly),
    rounded once; k·start mod 1 is added in double.  Prefix sums accumulate
    in extended precision.
    """
    if k == 0:
        raise ValueError("k must be nonzero: the constant character is trivial")
    if not isinstance(sys, RotationSystem) or sys.dimension != 1:
        raise TypeError("cesaro_average_along expects a 1-dimensional RotationSystem")
    phases = RotationSystem.from_angle(sys.angles[0]).along(a, [0.0]).phases(k)[0][0]
    phases = (float(k * Fraction(float(start)) % 1) + phases) % 1.0
    terms = np.exp(2j * np.pi * phases).astype(np.clongdouble)
    sums = np.cumsum(terms)
    mags = np.abs(sums) / np.arange(1, len(terms) + 1, dtype=np.longdouble)
    return [float(x) for x in mags]


def cesaro_interval_closed_form(n_terms: int, alpha: float, k: int) -> float:
    """|1/N * sum_{n=1}^{N} e^{2 pi i k n alpha}| via the geometric sum.

    Cross-check for cesaro_average_along on the full interval [1, N]; the
    double of alpha is read exactly, as there.
    """
    if k == 0:
        raise ValueError("k must be nonzero")
    if n_terms < 1:
        raise ValueError("need at least one term")
    x = Fraction(float(alpha))
    y1 = float(k * x % 1)
    if y1 == 0.0:
        return 1.0
    y_top = float(k * n_terms * x % 1)
    return abs(math.sin(math.pi * y_top)) / (n_terms * abs(math.sin(math.pi * y1)))


def random_windows(count: int, horizon: int, seed: int = DEFAULT_SWEEP_SEED) -> list[Window]:
    """Seeded random windows with per-window density varied log-uniformly.

    Support starts at _SWEEP_MIN_ELEMENT so the cross-check's bottom-edge
    caveat never triggers; identical (count, horizon, seed) give identical
    windows byte for byte.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if _SWEEP_MIN_ELEMENT > horizon:
        raise ValueError(f"horizon {horizon} is below the sweep's support floor min_element = {_SWEEP_MIN_ELEMENT}")
    rng = np.random.default_rng(seed)
    out = []
    span = horizon - _SWEEP_MIN_ELEMENT + 1
    for _ in range(count):
        density = 10.0 ** rng.uniform(*map(math.log10, _SWEEP_DENSITY_RANGE))
        mask = rng.random(span) < density
        out.append(Window(np.flatnonzero(mask) + _SWEEP_MIN_ELEMENT, horizon))
    return out
