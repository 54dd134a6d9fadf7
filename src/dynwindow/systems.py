"""Catalog of concrete dynamical systems with exact or high-precision dynamics.

Finite systems (cycles, truncated odometers) are exact.  Metric systems
(torus rotations, the skew product (x, y) -> (x + a, y + x)) run in double
precision, with integer-times-angle products reduced mod 1 exactly so closed
forms do not lose accuracy at large times; rotations with exact rational
angles run in Fraction arithmetic.  Every system is an immutable value
object; all operations are pure.

Every system answers one protocol: ``step``, ``orbit_at``, ``trajectory``,
``cover``, ``distance``, ``starts``, ``rational_structure`` and
``exact_orbits``.  Cycles and odometers share ``FiniteSystem``; rotations
and the skew product share ``TorusSystem``.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence, Union

from .intsets import Verdict, Window

__all__ = [
    "FiniteSystem",
    "TorusSystem",
    "CyclicSystem",
    "RotationSystem",
    "OdometerSystem",
    "SkewProductSystem",
    "ProductSystem",
    "GridCover",
    "FiniteCover",
    "TorusCover",
    "ProductCover",
    "CoverMismatchError",
    "GOLDEN",
    "orbit_at",
    "orbit_along",
    "cover_for",
    "eps_dense",
    "is_totally_minimal",
    "system_distance",
    "mult_angle_mod1",
]

# (sqrt(5) - 1) / 2, the classical well-distributed rotation angle.
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


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


class FiniteSystem:
    """A cycle of ``size`` states behind a codec: T^n(s) = decode((encode(s) + n) mod size)."""

    exact_orbits = True

    def orbit_at(self, start, n: int):
        return self.decode((self.encode(start) + n) % self.size)

    def trajectory(self, start, horizon: int) -> Iterator:
        # Honest stepping, kept apart from the closed form it is checked against.
        state = start
        for _ in range(horizon):
            state = self.step(state)
            yield state

    def cover(self, eps: float) -> "FiniteCover":
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

    def trajectory(self, start, horizon: int) -> Iterator:
        return (orbit_at(self, start, n) for n in range(1, horizon + 1))

    def cover(self, eps: float) -> "TorusCover":
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
        object.__setattr__(self, "angles", tuple(_mod1(float(a)) for a in self.angles))
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
        object.__setattr__(self, "angle", _mod1(float(self.angle)))
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

    trajectory = FiniteSystem.trajectory  # stepped componentwise

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


System = Union[CyclicSystem, RotationSystem, OdometerSystem, SkewProductSystem, ProductSystem]


def orbit_at(sys: System, start, n: int):
    """T^n(start) by closed form (exact for finite systems, mod-1 exact products otherwise)."""
    return sys.orbit_at(start, n)


def orbit_along(sys: System, start, a: Window) -> list:
    """States T^n(start) for n in a.elements, in order."""
    return [orbit_at(sys, start, n) for n in a.elements]


class CoverMismatchError(ValueError):
    """The cover was built for a different system."""


class GridCover:
    """Resolution-eps partition of a system's space into replayable cells."""

    system: System
    resolution: float

    def cell_of(self, state):
        raise NotImplementedError

    def cell_ids(self) -> Iterable:
        raise NotImplementedError

    def cell_count(self) -> int:
        raise NotImplementedError


@dataclass(frozen=True)
class FiniteCover(GridCover):
    """Singleton cells for a finite system; ids are cycle positions 0..size-1."""

    system: FiniteSystem
    size: int
    resolution: float = 1.0

    def cell_of(self, state):
        return self.system.encode(state)

    def cell_ids(self):
        return range(self.size)

    def cell_count(self) -> int:
        return self.size


@dataclass(frozen=True)
class TorusCover(GridCover):
    """Half-open boxes [k/K, (k+1)/K)^d with K = ceil(1/eps), tiling exactly."""

    system: System
    dimension: int
    k: int
    resolution: float

    def _coord_cell(self, x) -> int:
        if isinstance(x, Fraction):
            idx = x.numerator * self.k // x.denominator
        else:
            idx = int(float(x) * self.k)
        return min(max(idx, 0), self.k - 1)

    def cell_of(self, state):
        if self.dimension == 1 and not isinstance(state, tuple):
            return self._coord_cell(state)
        cells = tuple(self._coord_cell(c) for c in state)
        return cells[0] if self.dimension == 1 else cells

    def cell_ids(self):
        if self.dimension == 1:
            return range(self.k)
        return itertools.product(range(self.k), repeat=self.dimension)

    def cell_count(self) -> int:
        return self.k ** self.dimension


@dataclass(frozen=True)
class ProductCover(GridCover):
    """Product of component covers; ids are (left id, right id) pairs."""

    system: System
    left: GridCover
    right: GridCover

    @property
    def resolution(self) -> float:  # type: ignore[override]
        return max(self.left.resolution, self.right.resolution)

    def cell_of(self, state):
        sl, sr = state
        return (self.left.cell_of(sl), self.right.cell_of(sr))

    def cell_ids(self):
        return itertools.product(self.left.cell_ids(), self.right.cell_ids())

    def cell_count(self) -> int:
        return self.left.cell_count() * self.right.cell_count()


def cover_for(sys: System, eps: float = 1.0) -> GridCover:
    """The canonical cover: singletons for finite systems, mesh <= eps grids otherwise."""
    if eps <= 0:
        raise ValueError("eps must be > 0")
    return sys.cover(eps)


def eps_dense(sys: System, states: Sequence, cover: GridCover) -> Verdict:
    """Does every cell of the cover contain at least one listed state?

    Fails with the first empty cell in canonical order.
    """
    if cover.system != sys:
        raise CoverMismatchError(f"cover built for {cover.system!r}, not {sys!r}")
    hit = {cover.cell_of(s) for s in states}
    for cell in cover.cell_ids():
        if cell not in hit:
            return Verdict.fail(cell, note=f"cell {cell} of {cover.cell_count()} is unvisited")
    return Verdict.hold(note=f"all {cover.cell_count()} cells visited by {len(states)} states")


def _smallest_prime_factor(n: int) -> int:
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


def is_totally_minimal(sys: System) -> Verdict:
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


def system_distance(sys: System, s1, s2) -> float:
    """Discrete metric on finite systems, max circular distance on tori."""
    return sys.distance(s1, s2)
