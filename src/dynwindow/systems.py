"""Catalog of concrete dynamical systems with exact or high-precision dynamics.

Finite systems (cycles, truncated odometers) are exact.  Metric systems
(torus rotations, the skew product (x, y) -> (x + a, y + x)) run in double
precision, with integer-times-angle products reduced mod 1 exactly so closed
forms do not lose accuracy at large times; rotations with exact rational
angles run in Fraction arithmetic.  Every system is an immutable value
object; all operations are pure.

Every system answers one protocol: ``step``, ``orbit_at``, ``along``,
``cover``, ``distance``, ``starts``, ``rational_structure`` and
``exact_orbits``.  ``cover(eps)`` raises ValueError unless eps > 0; its cover
partitions the space into cells of mesh <= eps, numbered 0..cell_count()-1,
and answers ``cell_of``, ``ids_of`` (many states' cell numbers, as an array),
``cell_at`` (the cell with a number) and ``cell_count`` for its ``system``.
Cycles and odometers share ``FiniteSystem``; rotations and the skew product
share ``TorusSystem``; ``ProductSystem`` answers componentwise.

``along(a)`` evaluates orbits over a whole window at once, for a batch of
starts: ``cells(starts, cover)`` and ``distances(starts, lo, hi)`` answer
one row per start.  On a float torus the start-free phases
``m * angle mod 1`` are numpy arrays computed once per window with the same
doubles and the same single rounding as ``orbit_at``; the start coordinates,
as a column, are added to them, reduced mod 1 as ``x - floor(x)`` (bit for
bit ``np.remainder(x, 1.0)``) and turned into cells and distances in a few
array operations, so every state, cell and distance equals the per-state
one bit for bit.  Systems whose orbits repeat (cycles, odometers, exact
rational rotations) evaluate ``orbit_at`` once per start and distinct
residue of the time.  ``orbit_at`` and ``step`` stay per state:
``return_times`` reads one of them, and both are the reference the window
form is tested against.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Optional, Sequence, Union

import numpy as np

from .intsets import Verdict, Window, _small_ints

__all__ = [
    "FiniteSystem",
    "TorusSystem",
    "CyclicSystem",
    "RotationSystem",
    "OdometerSystem",
    "SkewProductSystem",
    "ProductSystem",
    "FiniteCover",
    "TorusCover",
    "ProductCover",
    "CoverMismatchError",
    "GOLDEN",
    "orbit_at",
    "eps_dense",
    "is_totally_minimal",
    "mult_angle_mod1",
]

# (sqrt(5) - 1) / 2, the classical well-distributed rotation angle.
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Covers with more cells than this number their cells with Python ints.
_FLAT_ID_CAP = 2 ** 62

# _coverage counts rows of cell numbers when a row has at least one number per
# this many cells, and sorts them otherwise.  Measured on a 2-vCPU x86-64 host
# at 1-64 rows of 200-30000 random numbers: counting took 38-54 % of the
# sort's time at one cell per number, 56-78 % at two and 64-95 % at three,
# and lost to it at four to six (sooner for longer rows).  At 3 the count
# table stays within three times the size of the rows.
_CELLS_PER_ID_COUNTED = 3


def mult_angle_mod1(n: int, x: float) -> float:
    """n * x mod 1 computed exactly for the binary rational that x is.

    Doubles are dyadic rationals, so (n * num) % den is exact in integer
    arithmetic; the final division rounds once.  This keeps closed-form
    orbits accurate for astronomically large n.
    """
    if x == 0.0:
        return 0.0
    num, den = float(x).as_integer_ratio()
    return ((n * num) % den) / den


def _mod1(x: float) -> float:
    y = x % 1.0
    return y if y < 1.0 else 0.0


def _angle(a) -> float:
    a = float(a)
    if not math.isfinite(a):
        raise ValueError(f"angle must be finite, got {a!r}")
    return _mod1(a)


def _mod1_array(x: np.ndarray) -> np.ndarray:
    # x - floor(x) is np.remainder(x, 1.0) bit for bit on finite doubles: both
    # round the same exact value once (exactly, by Sterbenz, for x >= 1).
    y = np.floor(x)
    np.subtract(x, y, out=y)
    y[y >= 1.0] = 0.0
    return y


def _mult_angle_mod1_array(
    times: np.ndarray, u64: Optional[np.ndarray], x: float, tri: bool = False
) -> np.ndarray:
    """mult_angle_mod1(m, x) for m = n in times, or m = n(n-1)/2 with ``tri``.

    ``u64`` holds the times as uint64, or is None when one reaches 2^64.  A
    double x is num / 2^e; for e <= 64, (m * num) mod 2^e depends only on
    m mod 2^64, so wrapping uint64 products are exact, and the conversion to
    float64 is the one correctly rounded step, as in the scalar form.
    """
    num, den = float(x).as_integer_ratio()
    if u64 is None or den > 2 ** 64:
        ms = [n * (n - 1) // 2 if tri else n for n in times.tolist()]  # Python ints: no wrap
        return np.array([mult_angle_mod1(m, x) for m in ms], dtype=np.float64)
    if tri:
        u64 = np.where(u64 & 1, u64 * (u64 >> 1), (u64 >> 1) * (u64 - 1))
    r = (u64 * np.uint64(num % 2 ** 64)) & np.uint64(den - 1)
    return r.astype(np.float64) / float(den)


class _TorusOrbits:
    """T^n(start) for the times n of one window on a float torus, as arrays.

    Every answer is for a batch of starts: one row per start, one column per
    time.  The start-free phases are computed once per slice of the window
    and shared by every row.  Slices are keyed by their bounds, so a caller
    that walks the window in growing prefixes pays only for what it reads.
    """

    def __init__(self, sys: "TorusSystem", a: Window):
        self.sys, self.times, self._slices = sys, a.array, {}
        # The times as uint64 once per window; a time past 2^64 takes Python ints.
        self._u64 = a.array.astype(np.uint64) if not len(a) or int(a.array[-1]) < 2 ** 64 else None

    def _columns(self, starts: Sequence) -> np.ndarray:
        # The start coordinates, one row per start.
        return np.array([self.sys._coords(s) for s in starts], dtype=np.float64)

    def _along(self, columns: np.ndarray, lo: int, hi: int) -> list:
        if (lo, hi) not in self._slices:
            times, u64 = self.times[lo:hi], None if self._u64 is None else self._u64[lo:hi]
            self._slices[lo, hi] = times, u64, self.sys._phases(times, u64)
        return self.sys._coords_along(columns, *self._slices[lo, hi])

    def coords(self, starts: Sequence, lo: int, hi: int) -> list:
        """One float64 array per coordinate, of shape (len(starts), len(times[lo:hi])): the states."""
        return self._along(self._columns(starts), lo, hi)

    def cells(self, starts: Sequence, cover: "TorusCover") -> np.ndarray:
        return cover.flat_ids(self.coords(starts, 0, len(self.times)))

    def distances(self, starts: Sequence, lo: int, hi: int) -> np.ndarray:
        """distance(T^n(start), start) for each start and each time n in times[lo:hi].

        Every start coordinate lies in [0, 1), as in ``TorusSystem.starts``,
        and so does every orbit coordinate: each gap |x - c| is below 1, and
        its reduction mod 1 in ``distance`` leaves it as it is.
        """
        columns = self._columns(starts)
        gaps = []
        for j, x in enumerate(self._along(columns, lo, hi)):
            g = np.abs(x - columns[:, j : j + 1])
            gaps.append(np.minimum(g, 1.0 - g))
        return reduce(np.maximum, gaps)


class _PeriodicOrbits:
    """T^n(start) for the times n of one window, when T^period is the identity.

    T^n(start) = T^(n mod period)(start), so orbit_at runs once per start and
    distinct residue of a slice of the window, and the results are spread by
    index, one row per start.
    """

    def __init__(self, sys, a: Window, period: int):
        self.sys, self.period, self._slices = sys, period, {}
        # int64 times where they and the period fit, Python ints otherwise.
        times = _small_ints(a.array)
        self.times = times if times.dtype == object or period < 2 ** 63 else times.astype(object)

    def _states(self, start, lo: int, hi: int) -> tuple[list, np.ndarray]:
        if (lo, hi) not in self._slices:
            residues, index = np.unique(self.times[lo:hi] % self.period, return_inverse=True)
            self._slices[lo, hi] = residues.tolist(), index
        residues, index = self._slices[lo, hi]
        return [self.sys.orbit_at(start, m) for m in residues], index

    def cells(self, starts: Sequence, cover) -> np.ndarray:
        rows = []
        for start in starts:
            states, index = self._states(start, 0, len(self.times))
            rows.append(cover.ids_of(states)[index])
        return np.stack(rows)

    def distances(self, starts: Sequence, lo: int, hi: int) -> np.ndarray:
        rows = []
        for start in starts:
            states, index = self._states(start, lo, hi)
            rows.append(np.array([self.sys.distance(s, start) for s in states], dtype=np.float64)[index])
        return np.stack(rows)


class FiniteSystem:
    """A cycle of ``size`` states behind a codec: T^n(s) = decode((encode(s) + n) mod size)."""

    exact_orbits = True

    def orbit_at(self, start, n: int):
        return self.decode((self.encode(start) + n) % self.size)

    def along(self, a: Window) -> _PeriodicOrbits:
        return _PeriodicOrbits(self, a, self.size)

    def cover(self, eps: float) -> "FiniteCover":
        if not eps > 0:
            raise ValueError("eps must be > 0")
        return FiniteCover(self, self.size)

    def distance(self, s1, s2) -> float:
        return 0.0 if self.encode(s1) == self.encode(s2) else 1.0

    def starts(self, resolution: float) -> list:
        return [self.decode(v) for v in range(self.size)]

    def rational_structure(self) -> tuple[Optional[int], bool, bool]:
        return self.size, False, True


@dataclass(frozen=True)
class CyclicSystem(FiniteSystem):
    """x -> x + 1 on Z/period.  Minimal for every period; the exact oracle family."""

    period: int

    def __post_init__(self) -> None:
        if self.period < 1:
            raise ValueError("period must be >= 1")

    @property
    def size(self) -> int:
        return self.period

    def encode(self, state: int) -> int:
        return state % self.period

    def decode(self, value: int) -> int:
        return value

    def step(self, state: int) -> int:
        return (state + 1) % self.period

    def spec_string(self) -> str:
        return f"cyclic:{self.period}"


@dataclass(frozen=True)
class OdometerSystem(FiniteSystem):
    """Truncated adding machine: add-1-with-carry on depth base-p digits.

    States are digit tuples, least significant first; integer states are
    accepted and decoded.  Equivalent to a cycle of period base**depth.
    """

    base: int
    depth: int

    def __post_init__(self) -> None:
        if self.base < 2:
            raise ValueError("base must be >= 2")
        if self.depth < 1:
            raise ValueError("depth must be >= 1")

    @property
    def size(self) -> int:
        return self.base ** self.depth

    def encode(self, state) -> int:
        if isinstance(state, int):
            if not 0 <= state < self.size:
                raise ValueError(f"state {state} outside [0, {self.size})")
            return state
        digits = tuple(state)
        if len(digits) != self.depth or any(not 0 <= d < self.base for d in digits):
            raise ValueError(f"bad digit state {state!r}")
        value = 0
        for d in reversed(digits):
            value = value * self.base + d
        return value

    def decode(self, value: int) -> tuple[int, ...]:
        digits = []
        for _ in range(self.depth):
            digits.append(value % self.base)
            value //= self.base
        return tuple(digits)

    def step(self, state):
        digits = list(self.decode(self.encode(state)))
        for i in range(self.depth):
            digits[i] += 1
            if digits[i] < self.base:
                break
            digits[i] = 0
        return tuple(digits)

    def spec_string(self) -> str:
        return f"odo:{self.base}^{self.depth}"


class TorusSystem:
    """A map on the d-torus; states are coordinate tuples (bare coordinates when d = 1)."""

    exact_orbits = False

    def _coords(self, state) -> tuple:
        if self.dimension == 1 and not isinstance(state, tuple):
            return (state,)
        return tuple(state)

    def _state(self, coords):
        return coords[0] if self.dimension == 1 else tuple(coords)

    def along(self, a: Window):
        """Orbits over the window a, start by start, as arrays (see the module docstring)."""
        return _TorusOrbits(self, a)

    def cover(self, eps: float) -> "TorusCover":
        if not eps > 0:
            raise ValueError("eps must be > 0")
        return TorusCover(self, self.dimension, max(1, math.ceil(1.0 / eps)), eps)

    def distance(self, s1, s2) -> float:
        """Max circular distance over the coordinates."""
        gaps = [abs(float(a) - float(b)) % 1.0 for a, b in zip(self._coords(s1), self._coords(s2))]
        return max(min(d, 1.0 - d) for d in gaps)

    def starts(self, resolution: float) -> list:
        if not resolution > 0:
            raise ValueError(f"start grid resolution must be > 0, got {resolution}")
        k = max(1, math.ceil(1.0 / resolution))
        axis = [i / k for i in range(k)]
        return [self._state(p) for p in itertools.product(axis, repeat=self.dimension)]


@dataclass(frozen=True)
class RotationSystem(TorusSystem):
    """Rotation by a fixed angle vector on the d-torus.

    Angles live in [0,1); an optional exact rational form switches orbit
    computations to exact Fraction arithmetic (a float start counts as the
    dyadic rational it stores) and makes the system equivalent to a cycle of
    period lcm of the denominators.
    """

    angles: tuple[float, ...]
    exact: Optional[tuple[Fraction, ...]] = None

    def __post_init__(self) -> None:
        if not self.angles:
            raise ValueError("need at least one angle")
        object.__setattr__(self, "angles", tuple(_angle(a) for a in self.angles))
        if self.exact is not None:
            ex = tuple(Fraction(e) % 1 for e in self.exact)
            if len(ex) != len(self.angles):
                raise ValueError("exact form must match dimension")
            object.__setattr__(self, "exact", ex)

    @classmethod
    def from_angle(cls, angle: float) -> "RotationSystem":
        return cls((float(angle),))

    @classmethod
    def from_rationals(cls, *fracs: Fraction) -> "RotationSystem":
        fracs = tuple(Fraction(f) % 1 for f in fracs)
        return cls(tuple(float(f) for f in fracs), fracs)

    @property
    def dimension(self) -> int:
        return len(self.angles)

    @property
    def exact_orbits(self) -> bool:
        return self.exact is not None

    @property
    def rational_period(self) -> Optional[int]:
        """lcm of denominators when an exact rational form is present."""
        if self.exact is None:
            return None
        return math.lcm(*(f.denominator for f in self.exact))

    def step(self, state):
        coords = self._coords(state)
        if self.exact is not None:
            out = tuple((Fraction(c) + f) % 1 for c, f in zip(coords, self.exact))
        else:
            out = tuple(_mod1(float(c) + a) for c, a in zip(coords, self.angles))
        return self._state(out)

    def orbit_at(self, start, n: int):
        coords = self._coords(start)
        if self.exact is None:
            out = tuple(_mod1(float(c) + mult_angle_mod1(n, a)) for c, a in zip(coords, self.angles))
        else:
            # (c + n p/q) mod 1 over the common denominator: one gcd, not three.
            out = []
            for c, f in zip(coords, self.exact):
                num, den = c.as_integer_ratio()
                d = den * f.denominator
                out.append(Fraction((num * f.denominator + n * f.numerator * den) % d, d))
        return self._state(out)

    def along(self, a: Window):
        if self.exact is not None:
            return _PeriodicOrbits(self, a, self.rational_period)
        return _TorusOrbits(self, a)

    def _phases(self, times, u64) -> list:
        return [_mult_angle_mod1_array(times, u64, a) for a in self.angles]

    def _coords_along(self, columns: np.ndarray, times, u64, phases) -> list:
        return [_mod1_array(columns[:, j : j + 1] + p) for j, p in enumerate(phases)]

    def rational_structure(self) -> tuple[Optional[int], bool, bool]:
        # Float angles: no rational factor, asserted under the irrationality caveat.
        return self.rational_period or 1, self.exact is None, True

    def spec_string(self) -> str:
        if self.exact is not None:
            return "rot:" + ",".join(f"{f.numerator}/{f.denominator}" for f in self.exact)
        return "rot:" + ",".join(repr(a) for a in self.angles)


@dataclass(frozen=True)
class SkewProductSystem(TorusSystem):
    """(x, y) -> (x + a, y + x) on the 2-torus over a circle rotation.

    Closed form: T^n(x, y) = (x + n a, y + n x + n(n-1)/2 a) mod 1.
    """

    angle: float
    exact: Optional[Fraction] = None

    dimension = 2

    def __post_init__(self) -> None:
        object.__setattr__(self, "angle", _angle(self.angle))
        if self.exact is not None:
            object.__setattr__(self, "exact", Fraction(self.exact) % 1)

    def step(self, state):
        x, y = state
        return (_mod1(float(x) + self.angle), _mod1(float(y) + float(x)))

    def orbit_at(self, start, n: int):
        x, y = float(start[0]), float(start[1])
        nx = _mod1(x + mult_angle_mod1(n, self.angle))
        ny = _mod1(y + mult_angle_mod1(n, x) + mult_angle_mod1(n * (n - 1) // 2, self.angle))
        return (nx, ny)

    def _phases(self, times, u64) -> list:
        return [
            _mult_angle_mod1_array(times, u64, self.angle),
            _mult_angle_mod1_array(times, u64, self.angle, tri=True),
        ]

    def _coords_along(self, columns: np.ndarray, times, u64, phases) -> list:
        # n x mod 1 depends on the start: one row per start.
        x, y = columns[:, :1], columns[:, 1:]
        nx = np.array([_mult_angle_mod1_array(times, u64, float(v)) for v in x[:, 0]], dtype=np.float64)
        return [_mod1_array(x + phases[0]), _mod1_array(y + nx + phases[1])]

    def rational_structure(self) -> tuple[Optional[int], bool, bool]:
        # A rational angle leaves orbit closures finitely many circles: not minimal.
        return (1, True, True) if self.exact is None else (None, False, False)

    def spec_string(self) -> str:
        return f"skew:{self.angle!r}"


@dataclass(frozen=True)
class ProductSystem:
    """Componentwise product of any two catalog systems; it has no start set."""

    left: object
    right: object

    @property
    def exact_orbits(self) -> bool:
        return self.left.exact_orbits and self.right.exact_orbits

    def step(self, state):
        sl, sr = state
        return (self.left.step(sl), self.right.step(sr))

    def orbit_at(self, start, n: int):
        return (self.left.orbit_at(start[0], n), self.right.orbit_at(start[1], n))

    def cover(self, eps: float) -> "ProductCover":
        return ProductCover(self, self.left.cover(eps), self.right.cover(eps))

    def distance(self, s1, s2) -> float:
        return max(self.left.distance(s1[0], s2[0]), self.right.distance(s1[1], s2[1]))

    def starts(self, resolution: float) -> list:
        raise TypeError(f"not a metric catalog system: {self!r}")

    def rational_structure(self) -> tuple[Optional[int], bool, bool]:
        ql, cl, ml = self.left.rational_structure()
        qr, cr, mr = self.right.rational_structure()
        if not (ml and mr and math.gcd(ql, qr) == 1):
            return None, cl or cr, False
        return ql * qr, cl or cr, True

    def spec_string(self) -> str:
        return f"prod({self.left.spec_string()},{self.right.spec_string()})"


def orbit_at(sys, start, n: int):
    """T^n(start) by closed form: ``sys.orbit_at(start, n)``."""
    return sys.orbit_at(start, n)


class CoverMismatchError(ValueError):
    """The cover was built for a different system."""


@dataclass(frozen=True)
class FiniteCover:
    """Singleton cells for a finite system; ids are cycle positions 0..size-1."""

    system: FiniteSystem
    size: int
    resolution: float = 1.0

    def cell_of(self, state):
        return self.system.encode(state)

    def ids_of(self, states) -> np.ndarray:
        return _id_array([self.cell_of(s) for s in states], self.size)

    def cell_at(self, flat: int):
        return flat

    def cell_count(self) -> int:
        return self.size


@dataclass(frozen=True)
class TorusCover:
    """Half-open boxes [k/K, (k+1)/K)^d with K = ceil(1/eps), tiling exactly."""

    system: TorusSystem
    dimension: int
    k: int
    resolution: float

    def _coord_cell(self, x) -> int:
        if isinstance(x, Fraction):
            idx = self._exact_cell(x)
        else:
            product = float(x) * self.k
            idx = int(product)
            if idx == product:
                # x * k may have rounded up onto a cell edge: take the exact floor.
                idx = self._exact_cell(float(x))
        return min(max(idx, 0), self.k - 1)

    def _exact_cell(self, x: Union[float, Fraction]) -> int:
        num, den = x.as_integer_ratio()
        return num * self.k // den

    def cell_of(self, state):
        if self.dimension == 1 and not isinstance(state, tuple):
            return self._coord_cell(state)
        cells = tuple(self._coord_cell(c) for c in state)
        return cells[0] if self.dimension == 1 else cells

    def flat_id(self, cell) -> int:
        """The number of a cell: base-k digits, first coordinate first."""
        flat = 0
        for c in cell if isinstance(cell, tuple) else (cell,):
            flat = flat * self.k + c
        return flat

    def cell_at(self, flat: int):
        """The cell numbered flat; the inverse of flat_id."""
        digits = []
        for _ in range(self.dimension):
            flat, c = divmod(flat, self.k)
            digits.append(c)
        return digits[0] if self.dimension == 1 else tuple(reversed(digits))

    def ids_of(self, states) -> np.ndarray:
        """flat_id(cell_of(s)) for each state; int64, or Python ints past 2^62 cells."""
        return _id_array([self.flat_id(self.cell_of(s)) for s in states], self.cell_count())

    def flat_ids(self, coords: Sequence[np.ndarray]) -> np.ndarray:
        """ids_of for states given as float64 coordinate arrays of any one shape, clamped like cell_of."""
        shape = coords[0].shape
        if self.cell_count() > _FLAT_ID_CAP:
            return self.ids_of(zip(*(x.ravel().tolist() for x in coords))).reshape(shape)
        ids = np.zeros(shape, dtype=np.int64)
        for x in coords:
            product = x * float(self.k)
            cells = product.astype(np.int64)
            for i in np.flatnonzero(np.trunc(product) == product).tolist():  # as in _coord_cell
                cells.flat[i] = self._exact_cell(float(x.flat[i]))
            ids = ids * self.k + np.clip(cells, 0, self.k - 1)
        return ids

    def cell_count(self) -> int:
        return self.k ** self.dimension


@dataclass(frozen=True)
class ProductCover:
    """Product of component covers; cell (l, r) is numbered l * right.cell_count() + r."""

    system: ProductSystem
    left: object
    right: object

    @property
    def resolution(self) -> float:
        return max(self.left.resolution, self.right.resolution)

    def cell_of(self, state):
        sl, sr = state
        return (self.left.cell_of(sl), self.right.cell_of(sr))

    def ids_of(self, states) -> np.ndarray:
        left = self.left.ids_of([s[0] for s in states])
        right = self.right.ids_of([s[1] for s in states])
        if self.cell_count() > _FLAT_ID_CAP:
            left = left.astype(object)
        return left * self.right.cell_count() + right

    def cell_at(self, flat: int):
        left, right = divmod(flat, self.right.cell_count())
        return (self.left.cell_at(left), self.right.cell_at(right))

    def cell_count(self) -> int:
        return self.left.cell_count() * self.right.cell_count()


def _id_array(ids: list, cells: int) -> np.ndarray:
    # Cell numbers are int64, or Python ints past 2^62 cells.
    return np.array(ids, dtype=np.int64 if cells <= _FLAT_ID_CAP else object)


def _coverage(ids: np.ndarray, cells: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row of cell numbers in [0, cells): (number of distinct ones, least one not among them).

    A row that hits every cell misses ``cells``.  When the cells are few
    against the row length (at most _CELLS_PER_ID_COUNTED per number), the
    rows are counted in one bincount, row r's numbers offset by r·cells:
    the least missing number is a row's first zero count.  Otherwise, and
    for Python-int numbers, each row is sorted: a sorted row that starts
    at 0 holds every number up to its first step of more than 1, and the
    least missing number is one past that step's lower end; a row with no
    such step misses the number of its distinct ones.
    """
    rows, n = ids.shape
    if not n:
        return np.zeros(rows, dtype=np.int64), np.zeros(rows, dtype=np.int64)
    if ids.dtype != object and cells <= _CELLS_PER_ID_COUNTED * n:
        offset = ids + np.arange(0, rows * cells, cells)[:, None]
        counts = np.bincount(offset.ravel(), minlength=rows * cells).reshape(rows, cells)
        hits = np.count_nonzero(counts, axis=1)
        return hits, np.where(hits < cells, counts.argmin(axis=1), cells)
    ids = np.sort(ids, axis=1)
    step = ids[:, 1:] - ids[:, :-1]
    hits = 1 + np.count_nonzero(step, axis=1)
    jump = np.zeros((rows, n), dtype=bool)
    jump[:, :-1] = step > 1
    at, r = jump.argmax(axis=1), np.arange(rows)
    empty = np.where(jump[r, at], ids[r, at] + 1, hits)
    return hits, np.where(ids[:, 0] == 0, empty, 0).astype(np.int64)


def eps_dense(sys, states: Sequence, cover) -> Verdict:
    """Does every cell of the cover contain at least one listed state?

    Fails with the first empty cell in canonical order.
    """
    if cover.system != sys:
        raise CoverMismatchError(f"cover built for {cover.system!r}, not {sys!r}")
    total = cover.cell_count()
    hits, empties = _coverage(cover.ids_of(states)[None], total)
    if int(hits[0]) < total:
        cell = cover.cell_at(int(empties[0]))
        return Verdict.fail(cell, note=f"cell {cell} of {total} is unvisited")
    return Verdict.hold(note=f"all {total} cells visited by {len(states)} states")


def _smallest_prime_factor(n: int) -> int:
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


def is_totally_minimal(sys) -> Verdict:
    """Is (X, T^n) minimal for every n?

    Exact on finite systems and rational rotations (any rational period q > 1
    fails at n = smallest prime factor of q).  For irrational angles the
    verdict is asserted on the window with the caveat recorded in the note.
    ``rational_structure()`` is (order of the finite cyclic factor, or None
    when the system is not minimal; irrationality caveat; minimal).
    """
    q, caveat, minimal = sys.rational_structure()
    if not minimal:
        return Verdict.fail(1, note="system is not minimal on its space")
    if q is not None and q > 1:
        n = _smallest_prime_factor(q)
        return Verdict.fail(n, note=f"T^{n} splits the period-{q} cyclic factor")
    note = "exact: trivial rational factor"
    if caveat:
        note = (
            "asserted assuming the double-precision angles are irrational and "
            "rationally independent; not decidable from floats"
        )
    return Verdict.hold(note=note)
