"""Catalog of concrete dynamical systems with exact or high-precision dynamics.

Finite systems (cycles, truncated odometers) are exact.  Metric systems
(torus rotations, the skew product (x, y) -> (x + a, y + x)) hold what
their spec denotes: Fractions when every angle is p/q, else doubles, which
are dyadic rationals.  A torus point is the rational number it stores (a
float, an int or a Fraction): ``orbit_at``, ``step``, ``cell_of`` and
``along`` all compute its exact orbit and cells, so they agree at every
cell edge.  Every system is an immutable value object; all operations are
pure.

Every system answers one protocol: ``step``, ``orbit_at``, ``along``,
``cover``, ``distance``, ``starts``, ``rational_structure`` and
``exact_orbits``.  A system with a start set (all but ``ProductSystem``,
whose ``starts`` raises TypeError) also answers
``_class_starts(resolution)``: the first start of each return class, in
the order of ``starts(resolution)``, without building that grid.  Two
starts of one class have equal return distances d(T^n s, s) at every
time n.  A rotation, cycle or odometer is a group rotation, so its return
distance reads no start coordinate: one class, whose first start is the
grid's first.  The skew product's reads x only: one class per x of the
grid, first (x, 0.0).  A torus also answers ``_class_axes``: a start's
class is its first ``_class_axes`` coordinates (none on a rotation, x on
the skew product), and its orbit is its class's first start's orbit
translated by its other coordinates.  ``cover(eps)`` raises ValueError
unless eps > 0; its cover partitions the space into cells of mesh <= eps,
numbered 0..cell_count()-1, and answers ``cell_of``, ``flat_id`` (a cell's
number, so a state's is ``flat_id(cell_of(s))``), ``cell_at`` (the cell
with a number) and ``cell_count`` for its ``system``, which it reads and
never copies.
Cycles and odometers share ``FiniteSystem``; rotations and the skew product
share ``TorusSystem``; ``ProductSystem`` answers componentwise, and its
``along`` answers ``cells`` only, joined from its factors' cells.

``along(a, starts)`` builds an engine for one window and one batch of
starts, fixed when it is built: ``cells(cover)`` and ``distances()``
answer one row per start; ``limit(eps)`` and ``value(d)`` read a distance
against eps and as a number.  On every torus, exact rational angles
included, a state is an exact integer numerator over the lcm of the
angles' and this batch's starts' denominators (2^64 in wrapping uint64
for doubles): a start column plus the start-free phase ``n * angle``; its
cell is floor(s·k / den).  A finite system's code at time n is
(code + n) mod size, which is its cell's number, in one array operation
for all starts.
A torus ``step(s)`` is ``orbit_at(s, 1)``; finite systems keep their own.
The spec codec is here: ``spec_string()`` writes a system's spec and
``parse_system_spec`` reads it back, or raises ``SystemSpecError``.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Optional, Sequence

import numpy as np

from .intsets import Verdict, Window

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
    "SystemSpecError",
    "parse_system_spec",
]

# (sqrt(5) - 1) / 2, the classical well-distributed rotation angle.
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Covers with more cells than this number their cells with Python ints.
_FLAT_ID_CAP = 2 ** 62

# A start grid lists at most this many starts: a finer one is refused before its list is built.
_MAX_STARTS = 2 ** 22

# _coverage counts rows of cell numbers when a row has at least one number per
# this many cells, and sorts them otherwise.  Measured on a 2-vCPU x86-64 host
# at 1-64 rows of 200-30000 random numbers: counting took 38-54 % of the
# sort's time at one cell per number, 56-78 % at two and 64-95 % at three,
# and lost to it at four to six (sooner for longer rows).  At 3 the count
# table stays within three times the size of the rows.
_CELLS_PER_ID_COUNTED = 3


def _angle(a, exact: bool):
    # a mod 1: the Fraction when exact, else a double (a Fraction is reduced mod 1 before it is rounded).
    if isinstance(a, Fraction):
        a %= 1
        if exact:
            return a
    a = float(a)
    if not math.isfinite(a):
        raise ValueError(f"angle must be finite, got {a!r}")
    a %= 1.0
    return a if a < 1.0 else 0.0


def _token(a) -> str:
    # The spec token of an angle: p/q for a Fraction, the repr of a double.
    return f"{a.numerator}/{a.denominator}" if isinstance(a, Fraction) else repr(a)


def _numerator(x, den: int) -> int:
    # x mod 1 over den, which x's denominator divides; x is read exactly.
    num, d = x.as_integer_ratio()
    return num * (den // d) % den


def _wrap(x: np.ndarray, den: int) -> np.ndarray:
    # uint64 numerators over 2^64 wrap by themselves; the rest are reduced mod den, uint64 ones
    # as x - x // den·den: numpy's // by a scalar ran 6x faster than its % (2-vCPU x86-64).
    if x.dtype == object or den == 2 ** 64:
        return x % den if x.dtype == object else x
    d = np.uint64(den)
    return x - x // d * d


def _phase_numerators(times: np.ndarray, x, den: int, tri: bool = False) -> np.ndarray:
    """m * x mod 1 over den, for m = n in times, or m = n(n-1)/2 with ``tri``.

    uint64 times over den = 2^64 wrap mod 2^64, that is mod 1, and n(n-1)/2
    halves its even factor first; over a den below 2^31 they are n mod 2·den,
    which fixes n(n-1)/2 mod den, and each product is reduced mod den.
    ``object`` times reduce mod den.
    """
    num = _numerator(x, den)
    if times.dtype == object:
        return (times * (times - 1) // 2 if tri else times) * num % den
    if tri:  # n(n-1)/2 is n//2 times n - 1 or n, whichever is odd
        times = _wrap((times >> 1) * ((times - 1) | 1), den)
    return _wrap(times * np.uint64(num), den)


class _TorusOrbits:
    """T^n(start) for the times n of one window and one batch of starts on a torus, as numerators over ``den``.

    ``den`` is fixed at construction: the lcm of the angles' and the starts'
    denominators, where a power of 2 up to 2^64 is 2^64 (wrapping uint64 for
    times below 2^64), a den below 2^31 takes times mod 2·den in uint64, and
    any other den Python ints (``object``).  ``columns`` holds the starts'
    coordinates as numerators (``_numerator``, exact for a double too), one
    row per start.  Every answer has one row per start, one column per time.
    """

    def __init__(self, sys: "TorusSystem", a: Window, starts: Sequence):
        coords = [sys._coords(s) for s in starts]
        lcm = math.lcm(*(v.as_integer_ratio()[1] for v in (*sys._angles, *(c for row in coords for c in row))))
        den = 2 ** 64 if lcm <= 2 ** 64 and not lcm & (lcm - 1) else lcm
        small = den < 2 ** 31
        fits = small or den == 2 ** 64 and (not len(a) or int(a.array[-1]) < 2 ** 64)
        times = (a.array % (2 * den) if small else a.array).astype(np.uint64 if fits else object)
        columns = np.array([[_numerator(c, den) for c in row] for row in coords], dtype=times.dtype)
        self.sys, self.den, self.columns, self._times = sys, den, columns, times

    def states(self) -> list:
        """One numerator array over ``den`` per coordinate, of shape (len(starts), len(times)): the states."""
        moves = self.sys._moves(self.columns, self._times, self.den)
        return [_wrap(self.columns[:, j : j + 1] + m, self.den) for j, m in enumerate(moves)]

    def cells(self, cover: "TorusCover") -> np.ndarray:
        return cover.flat_ids(self.states(), self.den)

    def phases(self, k: int) -> list:
        """k·T^n(start) mod 1 per coordinate, shaped as ``states``: each exact numerator times k, reduced
        mod den and rounded once to a double."""
        states = self.states()
        if self._times.dtype == object:
            return [(s * k % self.den / self.den).astype(float) for s in states]
        return [_wrap(s * np.uint64(k % self.den), self.den) / float(self.den) for s in states]

    def distances(self) -> np.ndarray:
        """distance(T^n(start), start) over ``den`` for each start and time n: min(d, den - d) of each move d."""
        moves = self.sys._moves(self.columns, self._times, self.den)
        wraps = self.den == 2 ** 64 and moves[0].dtype == np.uint64  # then den - d is -d
        d = reduce(np.maximum, [np.minimum(m, -m if wraps else self.den - m) for m in moves])
        return d if d.ndim == 2 else np.broadcast_to(d, (len(self.columns), d.size))

    def limit(self, eps: float) -> int:
        """The least numerator of a distance that is not below eps: d < limit iff d / den < eps."""
        if eps > 0.5:  # every distance is at most 1/2; eps may be inf
            return self.den // 2 + 1
        num, den = float(eps).as_integer_ratio()
        return -(-num * self.den // den)

    def value(self, d) -> Fraction:
        return Fraction(int(d), self.den)


class _FiniteOrbits:
    """T^n(start) for the times n of one window and one batch of starts on a finite system, in closed form.

    The code of T^n(s), which ``FiniteCover`` takes as its cell's number, is
    (encode(s) + n) mod size; a return distance is 0 at the multiples of size
    and 1 elsewhere.  Arrays are int64 while size <= 2^62, Python ints past it.
    """

    def __init__(self, sys: "FiniteSystem", a: Window, starts: Sequence):
        dtype = np.int64 if sys.size <= _FLAT_ID_CAP else object
        times = a.array.astype(object) if dtype is object else a.array
        self.size, self.residues = sys.size, (times % sys.size).astype(dtype, copy=False)
        self.codes = np.array([sys.encode(s) for s in starts], dtype=dtype)

    def cells(self, cover: "FiniteCover") -> np.ndarray:
        return (self.codes[:, None] + self.residues) % self.size

    def distances(self) -> np.ndarray:
        return np.repeat((self.residues != 0)[None], len(self.codes), axis=0)

    def limit(self, eps: float) -> int:
        """The least distance that is not below eps: d < limit iff d < eps, for d in {0, 1}."""
        return 2 if eps > 1 else 1

    def value(self, d) -> Fraction:
        return Fraction(int(d))


class FiniteSystem:
    """A cycle of ``size`` states behind a codec: T^n(s) = decode((encode(s) + n) mod size)."""

    exact_orbits = True

    def orbit_at(self, start, n: int):
        return self.decode((self.encode(start) + n) % self.size)

    def along(self, a: Window, starts: Sequence) -> _FiniteOrbits:
        return _FiniteOrbits(self, a, starts)

    def cover(self, eps: float) -> "FiniteCover":
        if not eps > 0:
            raise ValueError("eps must be > 0")
        return FiniteCover(self)

    def distance(self, s1, s2) -> float:
        return 0.0 if self.encode(s1) == self.encode(s2) else 1.0

    def starts(self, resolution: float) -> list:
        return [self.decode(v) for v in range(self.size)]

    def _class_starts(self, resolution: float) -> list:
        # d(T^n s, s) is 0 at the multiples of size and 1 elsewhere, whatever s is: one class.
        return [self.decode(0)]

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
    """A map on the d-torus; states are coordinate tuples (bare coordinates when d = 1).

    Equality and hash are keyed on (type, ``spec_string()``): the angle 1/2
    and the double 0.5 make different systems, as ``exact_orbits`` tells.
    """

    exact_orbits = property(lambda self: all(isinstance(a, Fraction) for a in self._angles))

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.spec_string() == other.spec_string()

    def __hash__(self) -> int:
        return hash((type(self), self.spec_string()))

    def _coords(self, state) -> tuple:
        if self.dimension == 1 and not isinstance(state, tuple):
            return (state,)
        return tuple(state)

    def _state(self, coords):
        return coords[0] if self.dimension == 1 else tuple(coords)

    def step(self, state):
        return self.orbit_at(state, 1)

    def along(self, a: Window, starts: Sequence) -> _TorusOrbits:
        """The orbits of the starts over the window a, as arrays (see the module docstring)."""
        return _TorusOrbits(self, a, starts)

    def cover(self, eps: float) -> "TorusCover":
        if not eps > 0:
            raise ValueError("eps must be > 0")
        return TorusCover(self, max(1, math.ceil(1.0 / eps)))

    def distance(self, s1, s2) -> float:
        """Max circular distance over the coordinates, exact, then rounded once."""
        gaps = [(Fraction(a) - Fraction(b)) % 1 for a, b in zip(self._coords(s1), self._coords(s2))]
        return float(max(min(d, 1 - d) for d in gaps))

    def _grid(self, resolution: float, axes: int = 0) -> int:
        # k = ceil(1/resolution): the start grid's coordinates are i/k for i < k on each axis.
        # A list of k^axes starts past _MAX_STARTS raises; k stops at 2^64, as 1/resolution may be inf.
        if not resolution > 0:
            raise ValueError(f"start grid resolution must be > 0, got {resolution}")
        k = max(1, math.ceil(min(1.0 / resolution, 2.0 ** 64)))
        if k ** axes > _MAX_STARTS:
            raise ValueError(f"start grid resolution {resolution} gives more than 2^22 starts")
        return k

    def starts(self, resolution: float) -> list:
        k = self._grid(resolution, self.dimension)
        return [self._state(p) for p in itertools.product([i / k for i in range(k)], repeat=self.dimension)]


@dataclass(frozen=True, eq=False)
class RotationSystem(TorusSystem):
    """Rotation by a fixed angle vector on the d-torus.

    Angles live in [0,1): Fractions when every angle given is one, which
    makes the system equivalent to a cycle of period lcm of the
    denominators, and doubles otherwise (a mixed tuple holds doubles, as
    ``rot:1/3,0.5`` does).  Orbits are exact either way, per state in
    Fractions and along a window as numerators (``_TorusOrbits``): a float
    angle or start counts as the dyadic rational it stores.
    """

    angles: tuple[float | Fraction, ...]

    def __post_init__(self) -> None:
        if not self.angles:
            raise ValueError("need at least one angle")
        exact = all(isinstance(a, Fraction) for a in self.angles)
        object.__setattr__(self, "angles", tuple(_angle(a, exact) for a in self.angles))

    @classmethod
    def from_angle(cls, angle: float) -> "RotationSystem":
        return cls((float(angle),))

    @classmethod
    def from_rationals(cls, *fracs: Fraction) -> "RotationSystem":
        return cls(tuple(Fraction(f) for f in fracs))

    @property
    def dimension(self) -> int:
        return len(self.angles)

    def orbit_at(self, start, n: int):
        return self._state([(Fraction(c) + n * Fraction(a)) % 1 for c, a in zip(self._coords(start), self.angles)])

    _angles = property(lambda self: self.angles)

    def _moves(self, columns: np.ndarray, times, den: int) -> list:
        # T^n(start) - start per coordinate, as numerators over den: n·angle, whatever the start.
        return [_phase_numerators(times, a, den) for a in self.angles]

    def _class_starts(self, resolution: float) -> list:
        # d(T^n s, s) = d(T^n 0, 0): a return distance reads no coordinate of the start,
        # so the one class starts at the grid's first point, 0/k on every axis.
        return [self._state((0 / self._grid(resolution),) * self.dimension)]

    _class_axes = 0  # T^n(s) = T^n(0) + s: the one class, translated along every axis

    def rational_structure(self) -> tuple[Optional[int], bool, bool]:
        # Float angles: no rational factor, asserted under the irrationality caveat.
        if not self.exact_orbits:
            return 1, True, True
        return math.lcm(*(a.denominator for a in self.angles)), False, True

    def spec_string(self) -> str:
        return "rot:" + ",".join(map(_token, self.angles))


@dataclass(frozen=True, eq=False)
class SkewProductSystem(TorusSystem):
    """(x, y) -> (x + a, y + x) on the 2-torus over a circle rotation.

    Closed form: T^n(x, y) = (x + n a, y + n x + n(n-1)/2 a) mod 1.  The
    angle is a Fraction when given as one (not minimal), else a double.
    """

    angle: float | Fraction

    dimension = 2

    def __post_init__(self) -> None:
        object.__setattr__(self, "angle", _angle(self.angle, isinstance(self.angle, Fraction)))

    def orbit_at(self, start, n: int):
        x, y = (Fraction(*c.as_integer_ratio()) for c in start)
        a = Fraction(self.angle)
        return (x + n * a) % 1, (y + n * x + n * (n - 1) // 2 * a) % 1

    _angles = property(lambda self: (self.angle,))

    def _moves(self, columns: np.ndarray, times, den: int) -> list:
        # n x depends on the start's x only: one row per start.
        tri = _phase_numerators(times, self.angle, den, tri=True)
        return [_phase_numerators(times, self.angle, den), _wrap(columns[:, :1] * times + tri, den)]

    def _class_starts(self, resolution: float) -> list:
        # d(T^n s, s) = max(‖n a‖, ‖n x + n(n-1)/2 a‖) reads the start's x only.
        k = self._grid(resolution, 1)
        return [(i / k, 0.0) for i in range(k)]

    _class_axes = 1  # T^n(x, y) = T^n(x, 0) + (0, y): a class per x, translated along y

    def rational_structure(self) -> tuple[Optional[int], bool, bool]:
        # A rational angle leaves orbit closures finitely many circles: not minimal.
        return (None, False, False) if self.exact_orbits else (1, True, True)

    def spec_string(self) -> str:
        return f"skew:{_token(self.angle)}"


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

    def along(self, a: Window, starts: Sequence) -> "_ProductOrbits":
        return _ProductOrbits(self, a, starts)

    def cover(self, eps: float) -> "ProductCover":
        return ProductCover(self, self.left.cover(eps), self.right.cover(eps))

    def distance(self, s1, s2) -> float:
        return max(self.left.distance(s1[0], s2[0]), self.right.distance(s1[1], s2[1]))

    def starts(self, resolution: float) -> list:
        raise TypeError(f"not a metric catalog system: {self!r}")

    _class_starts = starts  # no start set, so no first start of a class either

    def rational_structure(self) -> tuple[Optional[int], bool, bool]:
        ql, cl, ml = self.left.rational_structure()
        qr, cr, mr = self.right.rational_structure()
        if not (ml and mr and math.gcd(ql, qr) == 1):
            return None, cl or cr, False
        return ql * qr, cl or cr, True

    def spec_string(self) -> str:
        return f"prod({self.left.spec_string()},{self.right.spec_string()})"


class _ProductOrbits:
    """T^n(start) for the times n of one window and one batch of starts on a product: its factors' orbits, cells only."""

    def __init__(self, sys: ProductSystem, a: Window, starts: Sequence):
        self.left, self.right = sys.left.along(a, [s[0] for s in starts]), sys.right.along(a, [s[1] for s in starts])

    def cells(self, cover: "ProductCover") -> np.ndarray:
        # Cell (l, r) is numbered l * right.cell_count() + r, as Python ints past 2^62 cells.
        left = self.left.cells(cover.left)
        if cover.cell_count() > _FLAT_ID_CAP:
            left = left.astype(object)
        return left * cover.right.cell_count() + self.right.cells(cover.right)


def orbit_at(sys, start, n: int):
    """T^n(start) by closed form: ``sys.orbit_at(start, n)``; the benchmark tracer wraps it by name."""
    return sys.orbit_at(start, n)


class CoverMismatchError(ValueError):
    """The cover was built for a different system."""


@dataclass(frozen=True)
class FiniteCover:
    """Singleton cells for a finite system; ids are cycle positions 0..size-1."""

    system: FiniteSystem

    def cell_of(self, state):
        return self.system.encode(state)

    def cell_at(self, flat: int):
        return flat

    flat_id = cell_at  # a cell is its number

    def cell_count(self) -> int:
        return self.system.size


@dataclass(frozen=True)
class TorusCover:
    """Half-open boxes [k/K, (k+1)/K)^d with K = ceil(1/eps), tiling exactly."""

    system: TorusSystem
    k: int

    def _coord_cell(self, x) -> int:
        # The exact floor of x·k, clamped into the cells.
        num, den = x.as_integer_ratio()
        return min(max(num * self.k // den, 0), self.k - 1)

    def cell_of(self, state):
        return self.system._state([self._coord_cell(c) for c in self.system._coords(state)])

    def flat_id(self, cell) -> int:
        """The number of a cell: base-k digits, first coordinate first."""
        flat = 0
        for c in cell if isinstance(cell, tuple) else (cell,):
            flat = flat * self.k + c
        return flat

    def cell_at(self, flat: int):
        """The cell numbered flat; the inverse of flat_id."""
        digits = []
        for _ in range(self.system.dimension):
            flat, c = divmod(flat, self.k)
            digits.append(c)
        return self.system._state(digits[::-1])

    def flat_ids(self, coords: Sequence[np.ndarray], den: int) -> np.ndarray:
        """The cell numbers of states given as numerator arrays over den (uint64, or Python ints) of any one shape.

        A coordinate s is in cell floor(s·k / den): for uint64 and k < 2^32, s·k // den
        for den < 2^31, else (hi·k + (lo·k >> 32)) >> 32 on the 32-bit halves of s.
        """
        ids, dtype = None, np.int64 if self.cell_count() <= _FLAT_ID_CAP else object
        for s in coords:
            cells = _floor_cells(s, self.k, den, dtype)
            ids = cells if ids is None else ids * self.k + cells
        return ids

    def cell_count(self) -> int:
        return self.k ** self.system.dimension


def _floor_cells(s: np.ndarray, k: int, den: int, dtype=np.int64) -> np.ndarray:
    # floor(s·k / den) of numerators s over den (see TorusCover.flat_ids), in dtype.
    if s.dtype == object or k >= 2 ** 32 or dtype is object:
        return (s.astype(object) * k // den).astype(dtype)
    if den < 2 ** 64:
        return (s * np.uint64(k) // np.uint64(den)).view(np.int64)
    k = np.uint64(k)
    return (((s >> 32) * k + ((s & 0xFFFFFFFF) * k >> 32)) >> 32).view(np.int64)


@dataclass(frozen=True)
class ProductCover:
    """Product of component covers; cell (l, r) is numbered l * right.cell_count() + r."""

    system: ProductSystem
    left: object
    right: object

    def cell_of(self, state):
        sl, sr = state
        return (self.left.cell_of(sl), self.right.cell_of(sr))

    def flat_id(self, cell) -> int:
        return self.left.flat_id(cell[0]) * self.right.cell_count() + self.right.flat_id(cell[1])

    def cell_at(self, flat: int):
        left, right = divmod(flat, self.right.cell_count())
        return (self.left.cell_at(left), self.right.cell_at(right))

    def cell_count(self) -> int:
        return self.left.cell_count() * self.right.cell_count()


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
    ids = np.array([cover.flat_id(cover.cell_of(s)) for s in states], dtype=np.int64 if total <= _FLAT_ID_CAP else object)
    hits, empties = _coverage(ids[None], total)
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

    Exact on finite systems, rational rotations (any rational period q > 1
    fails at n = smallest prime factor of q) and rational skews.  For
    irrational angles the verdict is asserted on the window with the caveat
    recorded in the note.
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


class SystemSpecError(ValueError):
    pass


def _parse_angle_token(token: str):
    """'golden' | 'p/q' | decimal float -> GOLDEN, the Fraction p/q or the float."""
    token = token.strip()
    if token == "golden":
        return GOLDEN
    if "/" in token:
        num, _, den = token.partition("/")
        try:
            return Fraction(int(num), int(den))
        except (ValueError, ZeroDivisionError) as exc:
            raise SystemSpecError(f"bad rational angle {token!r}") from exc
    try:
        return float(token)
    except ValueError as exc:
        raise SystemSpecError(f"bad angle {token!r}") from exc


def _split_top_level(text: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def parse_system_spec(spec: str):
    """cyclic:m | rot:angle[,angle...] | odo:p^d | skew:angle | prod(a,b); an angle is golden, p/q or a decimal."""
    spec = spec.strip()
    if spec.startswith("prod(") and spec.endswith(")"):
        inner = []
        for part in _split_top_level(spec[5:-1]):  # a part with no kind continues the one before: rot:a,b
            if inner and ":" not in part and not part.strip().startswith("prod("):
                inner[-1] += "," + part
            else:
                inner.append(part)
        if len(inner) != 2:
            raise SystemSpecError(f"prod(...) takes exactly two specs: {spec!r}")
        return ProductSystem(parse_system_spec(inner[0]), parse_system_spec(inner[1]))
    kind, sep, arg = spec.partition(":")
    if not sep:
        raise SystemSpecError(f"bad system spec {spec!r}")
    if kind == "cyclic":
        try:
            return CyclicSystem(int(arg))
        except ValueError as exc:
            raise SystemSpecError(f"bad cyclic period {arg!r}") from exc
    if kind == "rot":
        return RotationSystem(tuple(_parse_angle_token(t) for t in arg.split(",")))
    if kind == "odo":
        base, sep2, depth = arg.partition("^")
        if not sep2:
            raise SystemSpecError(f"odometer spec needs p^d, got {arg!r}")
        try:
            return OdometerSystem(int(base), int(depth))
        except ValueError as exc:
            raise SystemSpecError(f"bad odometer spec {arg!r}") from exc
    if kind == "skew":
        return SkewProductSystem(_parse_angle_token(arg))
    raise SystemSpecError(f"unknown system kind {kind!r}")
