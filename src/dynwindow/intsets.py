"""Finite-window combinatorics of subsets of the naturals.

Everything here works on a Window: a finite, strictly ascending set of
naturals observed on [0, horizon].  Classifiers answer with a three-valued
Verdict because the underlying notions (syndetic, thick, piecewise
syndetic, ...) are asymptotic and undecidable from finite data: HoldsOnWindow
and FailsWithWitness are claims about the observed window only.
"""
from __future__ import annotations

import io
import operator
import os
import stat
import struct
import sys
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Iterable, Optional, Sequence, Union

import numpy as np

__all__ = [
    "Status",
    "Verdict",
    "Window",
    "SequenceFormatError",
    "is_syndetic",
    "is_thick",
    "piecewise_syndetic_certificate",
    "difference_set",
    "shifted_hit",
    "finite_ip",
    "banach_density_estimate",
    "parse_sequence_text",
    "parse_sequence_file",
    "format_sequence",
    "write_sequence_file",
]

# Bitmask representations are only built for windows up to this horizon;
# sparse windows with huge horizons fall back to element-based algorithms.
_BITMASK_HORIZON_CAP = 4_000_000

# Spans beyond this would need >128MB FFT scratch; fall back to the scan.
_FFT_SPAN_CAP = 8_000_000

# difference_set's transform costs about one scanned pair per 4 points, plus
# 1600 points (~35 us) to set up: measured on a 2-vCPU x86-64 host, where the
# crossover lay at 2.5-5 points a pair for 40-1280 elements.
_FFT_POINTS_PER_PAIR = 4
_FFT_SETUP_POINTS = 1600

# Element arrays are int64 for horizons below this, so the sum of two values up
# to the horizon (an element plus a shift, say) still fits; past it they hold
# Python ints (dtype object).
_INT64_HORIZON_CAP = 2 ** 62

# Elements packed by one struct call: the call's argument tuple holds this
# many references (128 KiB), where one call for a 10^6-element window would
# hold 8 MB of them.  "l" is the native long, the faster code where it is
# eight bytes wide.
_PACK_CHUNK = 2 ** 14
_PACK_CODE = "l" if struct.calcsize("l") == 8 else "q"

# _DIGIT_MASKS[c, L] keeps the low nibbles of the bytes of word c (the 8 bytes
# ending 8c bytes before a line's newline) that lie inside a line of L <= 18
# digits: one scalar mask for a whole run of lines of length L.  _FOLDS (factor,
# shift, mask) turn a word's digits, first byte most significant, into byte
# pairs 10a + b, then 100p + q, then 10^4·p + q (unmasked: >> 32 leaves 32 bits).
_DIGIT_MASKS = np.array(
    [[0x0F0F0F0F0F0F0F0F & -(1 << 64 - 8 * min(max(L - 8 * c, 0), 8)) for L in range(19)] for c in range(3)], np.uint64
)
_FOLDS = [(np.uint64(factor), np.uint64(shift), mask and np.uint64(mask)) for factor, shift, mask in (
    (10 << 8 | 1, 8, 0x00FF00FF00FF00FF), (100 << 16 | 1, 16, 0x0000FFFF0000FFFF), (10_000 << 32 | 1, 32, None))]

# A run's line count is read from its newline column this many lines at first,
# then 8 times as many lines a step.
_RUN_PROBE = 64

Witness = Union[int, tuple, None]


def _dtype(horizon: int):
    return np.int64 if horizon < _INT64_HORIZON_CAP else object


def _small_ints(arr: np.ndarray) -> np.ndarray:
    # Window.array holds Python ints from horizon 2^62 on, but a residue needs
    # no sum: an ascending array whose last element is below 2^63 fits int64.
    if arr.dtype == object and arr.size and arr[-1] < 2 ** 63:
        return arr.astype(np.int64)
    return arr


def _packed(elements: Sequence) -> np.ndarray:
    # A tuple, list or range of ints packed into int64 by struct, _PACK_CHUNK
    # at a time: one argument tuple per chunk, not one for the whole sequence.
    out = np.empty(len(elements), dtype=np.int64)
    if len(elements) <= _PACK_CHUNK:  # one chunk: no slice, no loop
        struct.pack_into(f"{len(elements)}{_PACK_CODE}", out, 0, *elements)
        return out
    for i in range(0, len(elements), _PACK_CHUNK):
        chunk = elements[i : i + _PACK_CHUNK]
        struct.pack_into(f"{len(chunk)}{_PACK_CODE}", out, 8 * i, *chunk)
    return out


def _read_elements(elements) -> np.ndarray:
    # The elements, each read as operator.index reads it.  A tuple, list or
    # range is packed into int64 by struct, which takes each element's
    # __index__ at C speed (about twice as fast as array('q') for times past
    # 2^30); one it refuses (a float, a str, np.bool_, a value
    # past int64, ...) falls through.  Then: int64 when numpy reads them as
    # ints or bools that fit it, else Python ints (object), one operator.index
    # per element, which raises TypeError on anything else.
    if isinstance(elements, (tuple, list, range)):
        try:
            return _packed(elements)
        except (struct.error, TypeError, OverflowError):
            pass
    try:
        arr = np.array(elements)
    except ValueError:  # ragged nesting: operator.index refuses the nested element
        arr = None
    if arr is not None and arr.ndim == 1 and np.can_cast(arr.dtype, np.int64):
        return arr.astype(np.int64, copy=False)
    return np.array([operator.index(e) for e in elements], dtype=object)


def _span(w: "Window", lo: int, hi: int) -> tuple[int, int]:
    # (i, j) with w.array[i:j] the elements in [lo, hi].  Both bounds are first
    # clamped into [-1, horizon + 1], which holds every element, so they fit
    # the array's dtype: a bound past int64 would make numpy compare the whole
    # array as Python ints (42 ms, not 5 us, on 10^6 elements).
    top = w.horizon + 1
    i, j = np.searchsorted(w.array, [min(max(b, -1), top) for b in (lo, hi + 1)])
    return int(i), int(j)


class Status(Enum):
    """Three-valued outcome of a window-bounded check."""

    HOLDS = "holds"
    FAILS = "fails"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Verdict:
    """Window-bounded answer with a replayable witness.

    ``HOLDS`` never asserts the asymptotic property, only the window-bounded
    one.  ``FAILS`` always carries a witness the caller can replay against
    the definition; ``INCONCLUSIVE`` is reserved for checks that cannot be
    trusted on this input (e.g. a blown floating-point error budget).
    """

    status: Status
    witness: Witness = None
    note: str = ""

    @classmethod
    def hold(cls, witness: Witness = None, note: str = "") -> "Verdict":
        return cls(Status.HOLDS, witness, note)

    @classmethod
    def fail(cls, witness: Witness, note: str = "") -> "Verdict":
        return cls(Status.FAILS, witness, note)

    @classmethod
    def undecided(cls, note: str = "") -> "Verdict":
        return cls(Status.INCONCLUSIVE, None, note)

    @property
    def holds(self) -> bool:
        return self.status is Status.HOLDS

    @property
    def fails(self) -> bool:
        return self.status is Status.FAILS

    @property
    def inconclusive(self) -> bool:
        return self.status is Status.INCONCLUSIVE

    def to_json(self) -> dict:
        witness = self.witness
        if isinstance(witness, tuple):
            witness = list(witness)
        return {"verdict": self.status.value, "witness": witness, "note": self.note}


class Window:
    """A strictly ascending set of naturals observed on [0, horizon].

    The horizon is the declared observation bound, not max(elements); an
    empty element list is permitted.

    The array is the window: ``array`` holds the elements, int64 below
    horizon 2^62 and Python ints (object) from there, and is all a window
    stores besides its horizon and, once read, its ``bitmask``: the
    cross-check reads that only for the (window, shift) pairs a prefix of
    the window leaves open, and meets the rest through a position table.
    ``elements``, the same values as a tuple of Python ints, is built when
    it is first read.  Each element is read as ``operator.index`` reads it:
    ints, numpy ints and bools give ints, anything else (a float, a string,
    None, a nested sequence) raises TypeError.  A tuple or list of ints that
    fit int64 is packed into the array by ``struct``, in one call when it
    has at most _PACK_CHUNK elements; other input, and a tuple or list with
    an element ``struct`` refuses, goes through numpy, element by element
    where numpy cannot type it.  The array's three checks (non-negative,
    strictly ascending by one ``count_nonzero`` over the pairs, within the
    horizon) run only when it is non-empty.  Windows are immutable values:
    equal and hashed as ``(elements, horizon)``.
    """

    def __init__(self, elements: Iterable[int], horizon: int) -> None:
        if horizon < 0:
            raise ValueError(f"horizon must be >= 0, got {horizon}")
        arr = _read_elements(elements)
        if arr.size:  # an empty array passes all three checks
            if arr[0] < 0:
                raise ValueError(f"negative element {arr[0]}")
            if np.count_nonzero(arr[1:] <= arr[:-1]):  # no np.diff: it can wrap
                i = int(np.flatnonzero(arr[1:] <= arr[:-1])[0])
                raise ValueError(f"elements not strictly ascending at {arr[i]}, {arr[i + 1]}")
            if int(arr[-1]) > horizon:
                raise ValueError(f"element {arr[-1]} exceeds horizon {horizon}")
        self.__dict__.update(array=arr.astype(_dtype(horizon), copy=False), horizon=horizon)

    @classmethod
    def _trusted(cls, values: np.ndarray, horizon: int) -> "Window":
        # For values already known to be strictly ascending naturals <= horizon:
        # skips their checks.  They become Window.array in the dtype of this horizon.
        if horizon < 0:
            raise ValueError(f"horizon must be >= 0, got {horizon}")
        w = object.__new__(cls)
        w.__dict__.update(array=values.astype(_dtype(horizon), copy=False), horizon=horizon)
        return w

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if not isinstance(other, Window):
            return NotImplemented
        return self.horizon == other.horizon and np.array_equal(self.array, other.array)

    def __hash__(self) -> int:
        return hash((self.elements, self.horizon))

    def __repr__(self) -> str:
        return f"Window(elements={self.elements!r}, horizon={self.horizon!r})"

    def __len__(self) -> int:
        return len(self.array)

    def __contains__(self, n: int) -> bool:
        i = _span(self, n, n)[0]
        return i < len(self.array) and self.array[i] == n

    @cached_property
    def elements(self) -> tuple[int, ...]:
        """The elements as a tuple of Python ints."""
        return tuple(self.array.tolist())

    @cached_property
    def bitmask(self) -> Optional[int]:
        """Bitmask with bit e set per element, or None if the horizon is too large."""
        if self.horizon > _BITMASK_HORIZON_CAP:
            return None
        if not self.array.size:
            return 0
        # Pack an indicator array little-endian: O(n + max element) for the whole mask.
        bits = np.zeros(int(self.array[-1]) + 1, dtype=np.uint8)
        bits[self.array] = 1
        return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")

    def shift(self, n: int) -> "Window":
        """(self + n) truncated back to [0, horizon]; the horizon is kept."""
        # The survivors are the one contiguous run with -n <= e <= horizon - n,
        # and a survivor e + n lies in [0, horizon], so n fits the array's dtype.
        # No survivor gives a fresh empty array: array[:0] would keep the buffer.
        lo, hi = _span(self, -n, self.horizon - n)
        return Window._trusted(self.array[lo:hi] + n if lo < hi else np.empty(0, self.array.dtype), self.horizon)

    def restrict(self, horizon: int) -> "Window":
        """Re-windowed copy: elements above the new horizon are dropped, a larger one keeps all."""
        # Dropped elements are copied away, so a small window does not keep its source's buffer.
        j = _span(self, 0, horizon)[1]
        return Window._trusted(self.array if j == len(self.array) else self.array[:j].copy(), horizon)


class SequenceFormatError(ValueError):
    """Malformed sequence file; carries the 1-based offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def is_syndetic(w: Window, gap_bound: int) -> Verdict:
    """Does every run of gap_bound consecutive integers inside [0, horizon] meet w?

    Fails with the left endpoint of the first empty gap_bound-length run.
    """
    if gap_bound < 1:
        raise ValueError("gap_bound must be >= 1")
    if w.horizon + 1 < gap_bound:
        return Verdict.hold(note=f"vacuous: no run of {gap_bound} fits inside [0, {w.horizon}]")
    # prev: the element (or -1) before the first empty gap_bound-run, else the last one.
    prevs = np.concatenate(([-1], w.array))
    gaps = np.flatnonzero(np.diff(prevs) > gap_bound)
    prev = int(prevs[gaps[0]] if gaps.size else prevs[-1])
    # A gap found before an element leaves horizon - prev > gap_bound, so this test fails it too.
    if w.horizon - prev >= gap_bound:
        return Verdict.fail(prev + 1, note=f"empty run [{prev + 1}, {prev + gap_bound}]")
    return Verdict.hold(note=f"every {gap_bound}-run in [0, {w.horizon}] meets the window")


def is_thick(w: Window, run_length: int) -> Verdict:
    """Does w contain run_length consecutive integers?  Witness: the run's start."""
    if run_length < 1:
        raise ValueError("run_length must be >= 1")
    # found: the start of the first run of run_length; best_*: the first longest run.
    found, best_len, best_start = None, 0, None
    a = w.array
    if a.size:
        firsts = np.concatenate(([0], np.flatnonzero(np.diff(a) != 1) + 1))
        lengths = np.diff(firsts, append=a.size)
        long_runs = np.flatnonzero(lengths >= min(run_length, a.size + 1))
        if long_runs.size:
            found = int(a[firsts[long_runs[0]]])
        i = int(np.argmax(lengths))
        best_len, best_start = int(lengths[i]), int(a[firsts[i]])
    if found is not None:
        return Verdict.hold(found, note=f"run of {run_length} starting at {found}")
    return Verdict.fail(
        w.horizon,
        note=f"longest run has length {best_len}"
        + (f" (starts at {best_start})" if best_start is not None else "")
        + f"; searched up to horizon {w.horizon}",
    )


def piecewise_syndetic_certificate(w: Window, gap_bound: int, block_length: int) -> Verdict:
    """Search for an interval of block_length on which w is gap_bound-syndetic.

    Holds with the interval's start if one exists inside [0, horizon]; Fails
    means no such interval exists for THESE parameters on this window.
    """
    if gap_bound < 1:
        raise ValueError("gap_bound must be >= 1")
    if block_length < gap_bound:
        raise ValueError("block_length must be >= gap_bound")
    if block_length > w.horizon + 1:
        return Verdict.fail(w.horizon, note=f"no interval of length {block_length} fits")
    # A valid interval must sit around a maximal chain of elements whose
    # successive differences are <= gap_bound; it may extend gap_bound-1
    # past the chain on either side.
    a = w.array
    if a.size:
        breaks = np.flatnonzero(np.diff(a) > gap_bound)
        lo = np.maximum(a[np.concatenate(([0], breaks + 1))] - (gap_bound - 1), 0)
        hi = np.minimum(a[np.append(breaks, a.size - 1)] + (gap_bound - 1), w.horizon)
        fits = np.flatnonzero(hi - lo >= block_length - 1)
        if fits.size:
            lo = int(lo[fits[0]])
            return Verdict.hold(lo, note=f"interval [{lo}, {lo + block_length - 1}]")
    return Verdict.fail(
        w.horizon, note=f"no {gap_bound}-syndetic interval of length {block_length} up to {w.horizon}"
    )


def _fft_size(n: int) -> int:
    """The least 2^a·3^b·5^c >= n: a length on which pocketfft is fast."""
    best, p5 = 1 << (n - 1).bit_length(), 1
    while p5 < best:
        p = p5
        while p < best:  # p = 3^b·5^c, lifted to n by the least power of two
            best, p = min(best, p << (-(-n // p) - 1).bit_length()), p * 3
        p5 *= 5
    return best


def difference_set(w: Window) -> Window:
    """All positive differences {s - s' : s, s' in w, s > s'}.

    Zero is excluded: recurrence tests care about returns at positive times
    and 0 would make every such test trivially pass.  Result horizon is the
    input horizon.

    The autocorrelation runs on the common stride: with g the gcd of the
    offsets from the least element b, S - S is g·(T - T) for T = (S - b)/g,
    so a progression of step m costs a transform of about 2·span/m points.
    That transform of the indicator is taken when it is cheaper than the
    quadratic scan of all pairs (counts are integers <= |w|, so
    double-precision FFT roundoff of ~1e-9 cannot cross the 0.5 decision
    threshold); sparse or extremely wide-spanned windows use the scan.  A T
    of top + 1 elements, top its largest, is all of [0, top] (a progression
    is one): every lag 1..top is a difference, and no transform runs.
    """
    n = len(w)
    if n < 2:
        return Window._trusted(np.empty(0, w.array.dtype), w.horizon)
    offsets = w.array - w.array[0]
    stride = int(np.gcd.reduce(offsets))
    top = int(offsets[-1]) // stride
    if top <= _FFT_SPAN_CAP and 2 * top + _FFT_SETUP_POINTS < _FFT_POINTS_PER_PAIR * (n * (n - 1) // 2):
        if n == top + 1:
            is_lag = np.ones(top, dtype=bool)
        else:
            offsets = (offsets // stride).astype(np.int64, copy=False)
            ind = np.zeros(top + 1)
            ind[offsets] = 1.0
            # Lags -top..top fill 2·top+1 points, so no wrapped lag lands in 1..top.
            size = _fft_size(2 * top + 1)
            spectrum = np.fft.rfft(ind, size)
            counts = np.fft.irfft(spectrum * np.conj(spectrum), size)[1 : top + 1]
            is_lag = counts > 0.5
        lags = (np.flatnonzero(is_lag) + 1).astype(w.array.dtype) * stride
        return Window._trusted(lags, w.horizon)
    # Sorted positive differences of naturals <= horizon: ascending and inside it.
    out = {b - a for a, b in combinations(w.array.tolist(), 2)}
    return Window._trusted(np.array(sorted(out), dtype=w.array.dtype), w.horizon)


def _least_common(a: Window, d: Window, shift: int) -> Optional[int]:
    # The least element of a ∩ (shift + d), or None when they do not meet.
    # Only the y in d with 0 <= y + shift <= a.horizon can meet a.
    lo, hi = _span(d, -shift, a.horizon - shift)
    if not len(a) or lo == hi:
        return None
    moved = d.array[lo:hi]
    if object in (a.array.dtype, moved.dtype):
        moved = moved.astype(object)  # an int64 y + shift may pass 2^63
    moved = (moved + shift).astype(a.array.dtype, copy=False)
    at = np.searchsorted(a.array, moved)
    found = np.flatnonzero(a.array[np.minimum(at, len(a) - 1)] == moved)
    return int(moved[found[0]]) if found.size else None


def shifted_hit(a: Window, d: Window, shift: int) -> Verdict:
    """Does a meet (shift + d)?  Holds with the least common element.

    Fails carries min(horizons) to signal how far the search reached.
    """
    x = _least_common(a, d, shift)
    if x is None:
        bound = min(a.horizon, d.horizon)
        return Verdict.fail(bound, note=f"a ∩ ({shift:+d} + d) empty up to horizon {bound}")
    return Verdict.hold(x, note=f"{x} = {shift:+d} + {x - shift}")


def finite_ip(generators: Sequence[int]) -> Window:
    """All sums of nonempty sub-multisets of the generators, deduplicated.

    Horizon is the total sum.  Repeated generator values are allowed and
    collapse the sum set (e.g. (3, 3) -> {3, 6}): each distinct value g,
    given c times, is added once, as the sums s + j·g for 0 <= j <= c.  The
    cost is linear in each value's multiplicity and exponential only in the
    number of distinct values; callers wanting large blocks should repeat
    values.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("generators must be nonempty")
    if any(g < 1 for g in gens):
        raise ValueError("generators must all be >= 1")
    sums = {0}
    for g, c in Counter(gens).items():
        sums = {s + j * g for s in sums for j in range(c + 1)}
    sums.discard(0)
    return Window(tuple(sorted(sums)), sum(gens))


def banach_density_estimate(w: Window, interval_length: int) -> Fraction:
    """Max of |w ∩ I| / interval_length over intervals I of that length in [0, horizon].

    Exact rational; a window-bounded stand-in for upper Banach density.  The
    longest admissible interval, horizon + 1, is the whole window.
    """
    if not 1 <= interval_length <= w.horizon + 1:
        raise ValueError("need 1 <= interval_length <= horizon + 1")
    if not len(w):
        return Fraction(0)
    a, last_start = w.array, w.horizon - interval_length + 1
    # The max is attained by an interval starting at an element, or at the
    # rightmost admissible start, whose interval holds every element from it
    # on.  One from element i holds c elements iff a[i + c - 1] - a[i] <
    # interval_length: c is bisected from the last start's count up to
    # min(interval_length, n), one pass over the element starts a step.
    n, starts = len(a), int(np.searchsorted(a, last_start, side="right"))
    lo, hi = n - int(np.searchsorted(a, last_start)), min(interval_length, n)
    while lo < hi:
        c = (lo + hi + 1) // 2
        k = min(starts, n - c + 1)  # element starts i with a[i + c - 1] inside the window
        lo, hi = (c, hi) if k > 0 and (a[c - 1 : c - 1 + k] - a[:k] < interval_length).any() else (lo, c - 1)
    return Fraction(lo, interval_length)


# -- sequence file format -----------------------------------------------------
#
# UTF-8 text: a mandatory first directive line `!horizon N`, then one decimal
# natural per line, strictly ascending; `#` starts a comment line.


def parse_sequence_text(text: Union[str, bytes]) -> Window:
    """The window a sequence file declares, from its text or its bytes.

    Bytes are what ``parse_sequence_file`` reads: the common layout is
    parsed from them as they are, and any other file is first decoded as
    ``open(path, encoding="utf-8")`` decodes it (universal newlines, the
    same ``UnicodeDecodeError``), then parsed as its text.  That decode
    changes only line breaks, so its text can reach the array path only
    when the bytes held a carriage return.
    """
    if isinstance(text, bytes):
        window = _parse_well_formed(text)
        if window is not None:
            return window
        retry = b"\r" in text
        text = io.TextIOWrapper(io.BytesIO(text), encoding="utf-8").read()
        if not retry:
            return _parse_lines(text)
    try:
        window = _parse_well_formed(text.encode("utf-8"))
    except UnicodeEncodeError:  # a lone surrogate, which no well-formed file holds
        window = None
    return window if window is not None else _parse_lines(text)


def _parse_well_formed(data: bytes) -> Optional[Window]:
    # The common file, checked and converted as arrays: '!horizon N' among
    # '#' and blank lines, then only lines of 1-18 ASCII digits, each ending in
    # '\n' and none shorter than the line before (a shorter line needs leading
    # zeros), strictly ascending and at most N.  The header must be UTF-8 whose
    # comments hold no other line break.  Anything else gives None, and
    # _parse_lines then parses the text or reports the offending line.
    horizon, pos = None, 0
    while pos < len(data):
        end = data.find(b"\n", pos)
        if end < 0:
            return None
        line = data[pos:end]
        digits = line[9:] if line.startswith(b"!horizon ") else b""
        if horizon is None and digits.isdigit():  # bytes.isdigit() is ASCII only
            horizon = int(digits)
        elif line and line[0] != ord("#"):
            break
        pos = end + 1
    if horizon is None:
        return None
    try:
        header = data[:pos].decode("utf-8")
    except UnicodeDecodeError:
        return None
    if len(header.splitlines()) != header.count("\n"):  # a comment holds another line break
        return None
    if pos == len(data):
        return Window._trusted(np.zeros(0, dtype=np.int64), horizon)
    end = len(data)
    if data[-1] != ord("\n"):
        return None
    # The last line is then the longest, so every line has at most 18 digits
    # (which stay below 2^62) iff it has.  A file past that (every file construct
    # writes) goes to the line loop before its body is read.
    if end - 2 - data.rfind(b"\n", 0, end - 1) > 18:
        return None
    # The body as runs of lines of one length, each run's line count found by
    # galloping over its newline column.  A line of the next run is longer, so
    # there are at most 18 runs.
    buf = np.frombuffer(data, dtype=np.uint8)
    runs, s, shortest = [], pos, 1
    while s < end:
        length = data.find(b"\n", s) - s
        if length < shortest:  # a blank line, or a line shorter than the one before
            return None
        column, k, probe = buf[s + length :: length + 1], 0, _RUN_PROBE
        while True:  # k: the newlines at the head of the column
            other = column[k : k + probe] != ord("\n")
            if other.any():
                k += int(other.argmax())
                break
            k += other.size
            if other.size < probe:
                break
            probe *= 8
        runs.append((s, length, k))
        s, shortest = s + k * (length + 1), length
    # The runs' newline columns tile the body; it holds nothing else (no newline
    # among a run's digits, no other byte) iff its other bytes are all digits.
    lines = sum(k for _, _, k in runs)
    body = buf[pos:]
    if np.count_nonzero(body - np.uint8(ord("0")) < 10) != body.size - lines:
        return None
    # Word c of a line: the 8 bytes ending 8c bytes before its newline, read as a
    # little-endian uint64 through a view with the run's line stride, and masked
    # to the line's digits.  The header ("!horizon N\n", 11 bytes at least) lies
    # before the body, so a first line's first word starts inside the file.  Lines
    # never get shorter, so the lines that have a word c are a suffix of the body:
    # words_of[c] holds their words, from line first on.
    words_of, k0 = [], 0
    for s, length, k in runs:
        for c in range(-(-length // 8)):
            if c == len(words_of):
                words_of.append((k0, np.empty(lines - k0, dtype=np.uint64)))
            first, words = words_of[c]
            view = np.ndarray(k, dtype="<u8", buffer=data, offset=s + length - 8 * (c + 1), strides=(length + 1,))
            np.bitwise_and(view, _DIGIT_MASKS[c, length], out=words[k0 - first : k0 - first + k])
        k0 += k
    values = words_of[0][1]
    for c, (first, words) in enumerate(words_of):
        for factor, shift, mask in _FOLDS:  # in place: a temporary costs more than the op
            words *= factor
            words >>= shift
            if mask is not None:
                words &= mask
        if c:
            words *= np.uint64(10 ** (8 * c))
            values[first:] += words
    values = values.view(np.int64)
    if (values[1:] <= values[:-1]).any() or int(values[-1]) > horizon:
        return None
    return Window._trusted(values, horizon)


def _parse_lines(text: str) -> Window:
    # ASCII digits only: str.isdigit() alone also accepts '²', '１' and '١'.
    horizon = None
    elements: list[int] = []
    prev = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("!"):
            if horizon is not None:
                raise SequenceFormatError("duplicate directive", lineno)
            parts = line[1:].split()
            if len(parts) != 2 or parts[0] != "horizon" or not (
                parts[1].isascii() and parts[1].isdigit()
            ):
                raise SequenceFormatError(f"bad directive {line!r}, expected '!horizon N'", lineno)
            horizon = int(parts[1])
            continue
        if horizon is None:
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
    if horizon is None:
        raise SequenceFormatError("missing '!horizon N' directive", 1)
    # Each line was checked above: ascending naturals, none past the horizon.
    return Window._trusted(np.array(elements, dtype=object), horizon)


def parse_sequence_file(path) -> Window:
    with open(path, "rb") as fh:
        return parse_sequence_text(fh.read())


def format_sequence(w: Window, comment: str = "") -> str:
    lines = [f"!horizon {w.horizon}"]
    if comment:
        lines.extend(f"# {c}" for c in comment.splitlines())
    lines.extend(map(str, w.array.tolist()))
    return "\n".join(lines) + "\n"


def _open_in_place(path, flags):
    # open(path, "w")'s flags and mode less O_TRUNC: truncating a file that holds data
    # frees its blocks, and on ext4 the writer then waits for the disk once per write.
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def _write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` as ``open(path, "w", encoding="utf-8")`` would, in place.

    An existing regular file is overwritten and then cut at the end of ``text``, so
    it ends up with exactly these bytes; a new file gets the mode ``open`` gives it.
    Anything else (``/dev/null``, a FIFO) is written as ``open`` writes it, since it
    cannot be truncated.  The file stdout writes (``/dev/stdout``, or the file it
    is redirected to) is written through stdout, after what stdout holds, and is
    not cut: the path opened anew would start at offset 0.  Like
    ``open(path, "w")`` this is not atomic.
    """
    with open(path, "w", encoding="utf-8", opener=_open_in_place) as fh:
        st = os.fstat(fh.fileno())
        try:
            to_stdout = os.path.samestat(st, os.fstat(1))
        except OSError:  # fd 1 is closed
            to_stdout = False
        if to_stdout:
            sys.stdout.flush()
            with open(1, "w", encoding="utf-8", closefd=False) as out:
                out.write(text)
            return
        fh.write(text)
        if stat.S_ISREG(st.st_mode):
            fh.truncate()


def write_sequence_file(path, w: Window, comment: str = "") -> None:
    """Write ``w`` to ``path`` in the sequence file format, ``comment`` as ``#`` lines after the horizon.

    ``parse_sequence_file`` reads it back as an equal window.  An existing file is
    overwritten in place and ends up with exactly the new text.
    """
    _write_text(path, format_sequence(w, comment))
