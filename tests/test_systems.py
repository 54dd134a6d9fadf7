"""System catalog: exact dynamics, closed forms vs stepping, covers, minimality."""
from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import exact_reference as ref
from conftest import squares
from dynwindow import (
    GOLDEN,
    CoverMismatchError,
    FiniteCover,
    ProductCover,
    TorusCover,
    CyclicSystem,
    OdometerSystem,
    ProductSystem,
    RotationSystem,
    SkewProductSystem,
    Verdict,
    Window,
    eps_dense,
    is_totally_minimal,
    orbit_at,
)
from dynwindow import systems
from dynwindow.systems import _coverage


def test_step_examples():
    assert CyclicSystem(3).step(2) == 0
    assert RotationSystem.from_angle(0.25).step(0.9) == pytest.approx(0.15)
    skew = SkewProductSystem(GOLDEN)
    x, y = skew.step((0.0, 0.0))
    assert x == pytest.approx(GOLDEN) and y == 0.0


def test_orbit_along_squares_mod_5():
    w = squares(10, horizon=100)
    states = [CyclicSystem(5).orbit_at(0, n) for n in w.elements]
    assert states == [n * n % 5 for n in range(11)]
    assert set(states) == {0, 1, 4}


def test_orbit_along_zero_rotation_is_constant():
    rot = RotationSystem.from_angle(0.0)
    states = [rot.orbit_at(0.3, n) for n in Window((1, 5, 9), 10).elements]
    assert states == [0.3, 0.3, 0.3]


def test_orbit_along_odometer_positional():
    odo = OdometerSystem(2, 3)
    assert [odo.orbit_at(0, n) for n in Window((1, 2, 4), 8).elements] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert orbit_at(odo, (1, 1, 1), 1) == (0, 0, 0)  # wraps at p^d


@pytest.mark.parametrize(
    "sys,start",
    [
        (CyclicSystem(7), 3),
        (OdometerSystem(3, 2), 0),
        (RotationSystem.from_angle(GOLDEN), 0.0),
        (RotationSystem.from_rationals(Fraction(2, 7)), Fraction(0)),
        (RotationSystem((0.3, 0.71)), (0.1, 0.9)),
        (SkewProductSystem(GOLDEN), (0.0, 0.0)),
        (ProductSystem(CyclicSystem(4), RotationSystem.from_angle(GOLDEN)), (1, 0.25)),
        (RotationSystem.from_rationals(Fraction(2, 7)), 0.25),
    ],
)
def test_closed_form_agrees_with_stepping(sys, start):
    # absolute tolerance 1e-9 for metric coordinates, exact for finite ones
    def flat(state):
        if isinstance(state, tuple):
            out = []
            for c in state:
                out.extend(flat(c))
            return out
        return [state]

    state = start
    checkpoints = set(list(range(1, 101)) + [500, 1000, 5000, 10_000])
    for n in range(1, 10_001):
        state = sys.step(state)
        if n in checkpoints:
            closed = orbit_at(sys, start, n)
            for a, b in zip(flat(state), flat(closed)):
                if isinstance(a, (int,)) and isinstance(b, (int,)):
                    assert a == b
                else:
                    diff = abs(float(a) - float(b)) % 1.0
                    assert min(diff, 1.0 - diff) <= 1e-9


def test_rational_rotation_matches_cycle():
    q = 12
    rot = RotationSystem.from_rationals(Fraction(5, q))
    cyc = CyclicSystem(q)
    w = Window(tuple(range(0, 3 * q)), 3 * q)
    rot_orbit = [rot.orbit_at(Fraction(0), n) for n in w.elements]
    cyc_orbit = [cyc.orbit_at(0, n) for n in w.elements]
    assert set(rot_orbit) == {Fraction(k, q) for k in range(q)}
    # bijection k/q <-> k intertwines the two orbits exactly
    assert [Fraction(5 * k % q, q) for k in cyc_orbit] == rot_orbit


def test_product_orbit_projects_to_components():
    sysp = ProductSystem(CyclicSystem(4), OdometerSystem(2, 2))
    w = Window(tuple(range(10)), 10)
    states = [sysp.orbit_at((1, 0), n) for n in w.elements]
    assert [s[0] for s in states] == [CyclicSystem(4).orbit_at(1, n) for n in w.elements]
    assert [s[1] for s in states] == [OdometerSystem(2, 2).orbit_at(0, n) for n in w.elements]


@pytest.mark.parametrize("m,n", [(2, 3), (2, 2), (4, 6), (5, 7), (1, 9)])
def test_product_cycle_orbit_size_is_lcm(m, n):
    sysp = ProductSystem(CyclicSystem(m), CyclicSystem(n))
    seen = set()
    state = (0, 0)
    while state not in seen:
        seen.add(state)
        state = sysp.step(state)
    assert len(seen) == math.lcm(m, n)
    assert (len(seen) == m * n) == (math.gcd(m, n) == 1)


# -- covers and eps_dense ---------------------------------------------------------


def test_eps_dense_squares_mod_3_misses_cell_2():
    cyc = CyclicSystem(3)
    states = [cyc.orbit_at(0, n) for n in squares(100, horizon=10_000).elements]
    v = eps_dense(cyc, states, cyc.cover(1.0))
    assert v.fails and v.witness == 2


def test_eps_dense_full_residues_holds():
    cyc = CyclicSystem(6)
    v = eps_dense(cyc, list(range(6)), cyc.cover(1.0))
    assert v.holds


def test_eps_dense_golden_orbit_by_three_distance_oracle():
    rot = RotationSystem.from_angle(GOLDEN)
    w = Window(tuple(range(0, 201)), 200)
    states = [rot.orbit_at(0.0, n) for n in w.elements]
    # oracle: sorted points, max circular gap below the cell size
    pts = sorted(states)
    gaps = [b - a for a, b in zip(pts, pts[1:])] + [1.0 - pts[-1] + pts[0]]
    assert max(gaps) < 0.02
    v = eps_dense(rot, states, rot.cover(0.02))
    assert v.holds


def _ref_cells(cover):
    # Every cell in canonical order, listed lazily from the cover's structure.
    if isinstance(cover, FiniteCover):
        yield from range(cover.system.size)
    elif isinstance(cover, ProductCover):
        for left in _ref_cells(cover.left):
            for right in _ref_cells(cover.right):
                yield (left, right)
    else:
        def digits(d):
            if d == 0:
                yield ()
            else:
                for c in range(cover.k):
                    for rest in digits(d - 1):
                        yield (c,) + rest
        dim = cover.system.dimension
        yield from (cell[0] if dim == 1 else cell for cell in digits(dim))


def _ref_eps_dense(sys, states, cover) -> Verdict:
    # eps_dense by a set of visited cells, scanned against the listed cells.
    hit = {cover.cell_of(s) for s in states}
    for cell in _ref_cells(cover):
        if cell not in hit:
            return Verdict.fail(cell, note=f"cell {cell} of {cover.cell_count()} is unvisited")
    return Verdict.hold(note=f"all {cover.cell_count()} cells visited by {len(states)} states")


_DENSE_CASES = [
    (CyclicSystem(7), 1.0),
    (OdometerSystem(2, 3), 1.0),
    (RotationSystem.from_angle(GOLDEN), 0.1),
    (RotationSystem((GOLDEN, 0.3)), 0.25),
    (SkewProductSystem(GOLDEN), 0.34),
    (ProductSystem(CyclicSystem(3), OdometerSystem(2, 2)), 1.0),
    (ProductSystem(CyclicSystem(2), RotationSystem.from_angle(GOLDEN)), 0.2),
    (ProductSystem(OdometerSystem(3, 1), RotationSystem((GOLDEN, 0.3))), 0.5),
]


@given(st.sampled_from(_DENSE_CASES), st.lists(st.integers(0, 2 ** 40), max_size=60), st.integers(0, 40))
@settings(max_examples=150, deadline=None)
def test_eps_dense_matches_the_set_scan(case, times, prefix):
    # Orbit points at random times, plus every time below prefix so some covers fill up.
    sys, eps = case
    start = _start_of(sys)
    states = [sys.orbit_at(start, n) for n in list(range(prefix)) + times]
    cover = sys.cover(eps)
    assert eps_dense(sys, states, cover) == _ref_eps_dense(sys, states, cover)


def _start_of(sys):
    if isinstance(sys, ProductSystem):
        return (_start_of(sys.left), _start_of(sys.right))
    return sys.starts(1.0)[0]


def test_eps_dense_matches_the_set_scan_on_covers_past_2_62_cells():
    # 10^20 cells, numbered as Python ints: the torus, a product of two 10^10 circles, and a finite factor.
    rot2 = RotationSystem((GOLDEN, 0.3))
    circles = ProductSystem(RotationSystem.from_angle(GOLDEN), RotationSystem.from_angle(0.3))
    with_cycle = ProductSystem(CyclicSystem(3), rot2)
    cases = [
        (rot2, [(0.0, 0.0), (0.0, 1.5e-10), (0.0, 2.5e-10), (0.5, 0.5)]),
        (circles, [(0.0, 0.0), (0.0, 1.5e-10), (0.0, 3.5e-10)]),
        (with_cycle, [(0, (0.0, 0.0)), (0, (0.0, 1.5e-10)), (2, (0.0, 0.0))]),
        (with_cycle, []),
    ]
    for sys, states in cases:
        cover = sys.cover(1e-10)
        last = cover.cell_count() - 1
        assert last > 2 ** 63 and cover.flat_id(cover.cell_at(last)) == last
        assert eps_dense(sys, states, cover) == _ref_eps_dense(sys, states, cover)


def test_eps_dense_cover_mismatch_raises():
    with pytest.raises(CoverMismatchError):
        eps_dense(CyclicSystem(3), [0], CyclicSystem(4).cover(1.0))


def test_torus_cover_tiles_half_open():
    cover = RotationSystem.from_angle(GOLDEN).cover(0.02)
    assert cover.k == 50
    assert cover.cell_of(0.0) == 0
    assert cover.cell_of(0.02) == 1  # left-closed boundary
    assert cover.cell_of(0.9999999999999999) == 49
    assert cover.cell_count() == 50


@given(st.floats(min_value=0.0, max_value=1.0, exclude_max=True), st.integers(1, 40))
@example(0.3333333333333333, 33)
@settings(max_examples=80, deadline=None)
def test_torus_cover_every_point_in_exactly_one_cell(x, k):
    rot = RotationSystem.from_angle(GOLDEN)
    cover = rot.cover(1.0 / k)
    cell = cover.cell_of(x)
    assert 0 <= cell < cover.cell_count()
    # cell boundaries replay: x lies in [cell/k', (cell+1)/k')
    width = 1.0 / cover.k
    assert cell * width <= x < (cell + 1) * width or math.isclose(x, (cell + 1) * width)


def _numerators(xs, den=2 ** 64):
    # Doubles in [0, 1) as numerators over den: uint64 over 2^64, Python ints over a wider den.
    nums = [int(Fraction(x) * den) for x in xs]
    return np.array(nums, dtype=np.uint64 if den == 2 ** 64 else object)


def test_torus_cover_cell_is_the_exact_floor_at_float_cell_edges():
    # x * k can round up onto a cell edge (0.3333333333333333 * 33 == 11.0);
    # cell_of and the array path flat_ids (on numerators, over 2^64 or wider)
    # both take floor(Fraction(x) * k).
    xs = [0.3333333333333333, 0.6, 0.3, 0.7, 0.1, 0.9, 0.0, 0.5, 1 / 3, 2 / 3, 0.9999999999999999]
    for k in range(1, 41):
        cover = RotationSystem.from_angle(GOLDEN).cover(1.0 / k)
        expected = [min(math.floor(Fraction(x) * cover.k), cover.k - 1) for x in xs]
        assert [cover.cell_of(x) for x in xs] == expected
        assert cover.flat_ids([_numerators(xs)], 2 ** 64).tolist() == expected
        assert cover.flat_ids([_numerators(xs, 2 ** 70)], 2 ** 70).tolist() == expected


def test_torus_cover_flat_ids_in_two_dimensions_at_float_cell_edges():
    # Both coordinates on, or rounding onto, a cell edge (x * 33 rounds up to
    # 11.0, 22.0 and 30.0 for the first three): the array ids, built digit by
    # digit, are the per-state numbers' and the exact floors' for every pair.
    cover = TorusCover(RotationSystem((GOLDEN, 0.3)), 33)
    xs = [0.3333333333333333, 0.6666666666666666, 0.9090909090909091, 0.9999999999999999, 0.0, 0.5, 1 / 33, 32 / 33]
    pairs = list(itertools.product(xs, repeat=2))
    x, y = (_numerators([p[i] for p in pairs]).reshape(len(xs), len(xs)) for i in (0, 1))
    ids = cover.flat_ids([x, y], 2 ** 64)
    assert ids.shape == (len(xs), len(xs)) and ids.dtype == np.int64
    assert ids.ravel().tolist() == [cover.flat_id(cover.cell_of(p)) for p in pairs]
    assert ids.ravel().tolist() == [math.floor(Fraction(a) * 33) * 33 + math.floor(Fraction(b) * 33) for a, b in pairs]
    # Numerators are on the torus by construction; per state, a coordinate
    # off the torus is clamped into [0, 32].
    off = list(itertools.product([-1.5, -1.0, -0.25, 1.0, 1.25, 0.5], repeat=2))
    clamp = [min(max(math.floor(Fraction(v) * 33), 0), 32) for v in (-1.5, -1.0, -0.25, 1.0, 1.25, 0.5)]
    assert [cover.flat_id(cover.cell_of(p)) for p in off] == [a * 33 + b for a, b in itertools.product(clamp, repeat=2)]


@given(st.integers(1, 2 ** 32 - 1), st.data())
@example(1, None)
@example(2 ** 32 - 1, None)
@example(2 ** 31 + 1, None)
@example(3, None)
@settings(max_examples=200, deadline=None)
def test_cell_kernel_is_the_exact_floor_for_every_k_below_two_to_the_32(k, data):
    # floor(s·k / 2^64) from the 32-bit halves of s equals Python's s*k >> 64
    # at both ends and on either side of cell edges j/k.
    cover = TorusCover(RotationSystem.from_angle(GOLDEN), k)
    js = [1, k - 1, k // 2] + ([] if data is None else data.draw(st.lists(st.integers(0, k - 1), max_size=8)))
    s = {0, 2 ** 64 - 1}
    for j in js:
        edge = -(-j * 2 ** 64 // k)
        s.update(v for v in (edge - 1, edge, edge + 1) if 0 <= v < 2 ** 64)
    s = sorted(s)
    assert cover.flat_ids([np.array(s, dtype=np.uint64)], 2 ** 64).tolist() == [v * k >> 64 for v in s]
    # In two dimensions, past 2^31 cells a side the ids are Python ints.
    square = TorusCover(RotationSystem((GOLDEN, 0.3)), k)
    ids = square.flat_ids([np.array(s, dtype=np.uint64), np.array(s[::-1], dtype=np.uint64)], 2 ** 64)
    assert ids.dtype == (object if k * k > 2 ** 62 else np.int64)
    assert ids.tolist() == [(a * k >> 64) * k + (b * k >> 64) for a, b in zip(s, s[::-1])]


def test_eps_dense_on_a_cover_too_large_to_list():
    # 10^10 x 10^10 cells: the cells are visited in order, never listed.
    sys = RotationSystem((GOLDEN, 0.3))
    verdict = eps_dense(sys, [(0.0, 0.0)], sys.cover(1e-10))
    assert verdict.fails and verdict.witness == (0, 1)
    prod = ProductSystem(CyclicSystem(2), sys)
    verdict = eps_dense(prod, [(0, (0.0, 0.0))], prod.cover(1e-10))
    assert verdict.fails and verdict.witness == (0, (0, 1))


def test_product_cover_cells_are_pairs():
    sysp = ProductSystem(CyclicSystem(2), CyclicSystem(3))
    cover = sysp.cover(1.0)
    assert list(map(cover.cell_at, range(cover.cell_count()))) == [(a, b) for a in range(2) for b in range(3)]
    assert cover.cell_of((1, 2)) == (1, 2)


def test_skew_cover_is_2d():
    cover = SkewProductSystem(GOLDEN).cover(0.25)
    assert cover.cell_count() == 16
    assert cover.cell_of((0.3, 0.8)) == (1, 3)


# -- total minimality --------------------------------------------------------------


def test_totally_minimal_examples():
    v = is_totally_minimal(CyclicSystem(3))
    assert v.fails and v.witness == 3
    assert is_totally_minimal(CyclicSystem(1)).holds
    v = is_totally_minimal(RotationSystem.from_rationals(Fraction(1, 2)))
    assert v.fails and v.witness == 2
    v = is_totally_minimal(CyclicSystem(6))
    assert v.fails and v.witness == 2  # smallest prime factor
    v = is_totally_minimal(CyclicSystem(9))
    assert v.fails and v.witness == 3  # the search steps past 2
    v = is_totally_minimal(RotationSystem.from_rationals(Fraction(1, 25)))
    assert v.fails and v.witness == 5


def test_totally_minimal_irrational_holds_with_caveat():
    v = is_totally_minimal(RotationSystem.from_angle(GOLDEN))
    assert v.holds and "irrational" in v.note
    v = is_totally_minimal(SkewProductSystem(GOLDEN))
    assert v.holds and v.note


def test_totally_minimal_odometer_fails():
    v = is_totally_minimal(OdometerSystem(2, 3))
    assert v.fails and v.witness == 2


def test_totally_minimal_products():
    v = is_totally_minimal(ProductSystem(CyclicSystem(2), CyclicSystem(2)))
    assert v.fails and v.witness == 1  # not even minimal
    v = is_totally_minimal(ProductSystem(CyclicSystem(2), CyclicSystem(3)))
    assert v.fails and v.witness == 2
    v = is_totally_minimal(ProductSystem(RotationSystem.from_angle(GOLDEN), CyclicSystem(1)))
    assert v.holds


def test_rational_skew_not_minimal():
    v = is_totally_minimal(SkewProductSystem(Fraction(1, 2)))
    assert v.fails and v.witness == 1


# -- metric helpers ------------------------------------------------------------------


def test_system_distance():
    assert CyclicSystem(5).distance(1, 6) == 0.0
    assert CyclicSystem(5).distance(1, 2) == 1.0
    assert RotationSystem.from_angle(0.1).distance(0.95, 0.05) == pytest.approx(0.1)
    skew = SkewProductSystem(GOLDEN)
    assert skew.distance((0.0, 0.9), (0.0, 0.1)) == pytest.approx(0.2)


def test_torus_systems_are_keyed_on_type_and_spec():
    # 0.5 == Fraction(1, 2), yet the double and the exact angle make
    # different systems: they differ in exact_orbits and in spec_string.
    for double, exact in (
        (RotationSystem((0.5,)), RotationSystem.from_rationals(Fraction(1, 2))),
        (SkewProductSystem(0.5), SkewProductSystem(Fraction(1, 2))),
    ):
        assert double != exact and not double == exact
        assert (double.exact_orbits, exact.exact_orbits) == (False, True)
        assert double.spec_string() != exact.spec_string()
    assert RotationSystem((0.5,)) != SkewProductSystem(0.5)
    # Equal specs: equal systems with equal hashes.
    for one, other in (
        (RotationSystem.from_angle(0.5), RotationSystem((0.5,))),
        (RotationSystem.from_rationals(Fraction(2, 6)), RotationSystem((Fraction(4, 3),))),
        (RotationSystem((Fraction(1, 3), 0.5)), RotationSystem((1 / 3, 0.5))),
        (SkewProductSystem(Fraction(1, 3)), SkewProductSystem(Fraction(-2, 3))),
        (SkewProductSystem(GOLDEN), SkewProductSystem(1 + GOLDEN)),
    ):
        assert one == other and hash(one) == hash(other) and one.spec_string() == other.spec_string()
    assert len({RotationSystem((0.5,)), RotationSystem.from_angle(0.5), RotationSystem.from_rationals(Fraction(1, 2))}) == 2


def test_a_mixed_angle_tuple_holds_doubles():
    # A Fraction among doubles is reduced mod 1, then rounded: 4/3 gives the double of 1/3.
    rot = RotationSystem((Fraction(4, 3), 0.5))
    assert rot.angles == (1 / 3, 0.5) and all(type(a) is float for a in rot.angles)
    assert not rot.exact_orbits and rot.rational_structure() == (1, True, True)
    exact = RotationSystem((Fraction(4, 3), Fraction(1, 2)))
    assert exact.angles == (Fraction(1, 3), Fraction(1, 2)) and exact.rational_structure() == (6, False, True)


def test_spec_strings():
    assert CyclicSystem(5).spec_string() == "cyclic:5"
    assert OdometerSystem(2, 3).spec_string() == "odo:2^3"
    assert RotationSystem.from_rationals(Fraction(1, 3)).spec_string() == "rot:1/3"
    assert SkewProductSystem(Fraction(1, 3)).spec_string() == "skew:1/3"
    assert RotationSystem((Fraction(1, 3), 0.5)).spec_string() == "rot:0.3333333333333333,0.5"
    assert ProductSystem(CyclicSystem(2), CyclicSystem(3)).spec_string() == "prod(cyclic:2,cyclic:3)"


_ANGLES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(Fraction, st.integers(-(10 ** 6), 10 ** 6), st.integers(1, 10 ** 6)),
)
_LEAF_SYSTEMS = st.one_of(
    st.builds(CyclicSystem, st.integers(1, 10 ** 6)),
    st.builds(OdometerSystem, st.integers(2, 50), st.integers(1, 8)),
    st.lists(_ANGLES, min_size=1, max_size=2).map(lambda angles: RotationSystem(tuple(angles))),
    st.builds(SkewProductSystem, _ANGLES),
)


def _products(inner):
    return st.builds(ProductSystem, inner, inner)


@given(st.one_of(_LEAF_SYSTEMS, _products(st.one_of(_LEAF_SYSTEMS, _products(_LEAF_SYSTEMS)))))
@example(RotationSystem((0.1 + 0.2, GOLDEN)))
@example(ProductSystem(CyclicSystem(3), RotationSystem((Fraction(1, 3), Fraction(2, 5)))))
@example(ProductSystem(ProductSystem(RotationSystem((GOLDEN, 0.3)), CyclicSystem(2)), SkewProductSystem(0.25)))
def test_spec_string_round_trips_through_the_reader(system):
    # parse_system_spec reads back the system a spec_string came from, and the spec is a fixed point.
    # A torus system's == reads spec_string, so its fields are compared through repr as well.
    again = systems.parse_system_spec(system.spec_string())
    assert again == system and type(again) is type(system) and repr(again) == repr(system)
    assert again.spec_string() == system.spec_string()


# -- the system protocol -------------------------------------------------------------


PROTOCOL_CASES = [
    (CyclicSystem(5), 3, FiniteCover),
    (OdometerSystem(2, 3), (1, 0, 1), FiniteCover),
    (RotationSystem((GOLDEN, 0.3)), (0.25, 0.5), TorusCover),
    (SkewProductSystem(GOLDEN), (0.25, 0.5), TorusCover),
    (ProductSystem(CyclicSystem(2), RotationSystem.from_angle(GOLDEN)), (1, 0.25), ProductCover),
]


@pytest.mark.parametrize("sys,start,cover_type", PROTOCOL_CASES, ids=lambda v: type(v).__name__)
def test_every_system_answers_the_protocol(sys, start, cover_type):
    stepped = sys.step(start)
    assert sys.distance(sys.orbit_at(start, 1), stepped) <= 1e-12
    assert orbit_at(sys, start, 12) == sys.orbit_at(start, 12)
    walk = [stepped]
    while len(walk) < 4:
        walk.append(sys.step(walk[-1]))
    assert len(walk) == 4 and sys.distance(walk[0], stepped) <= 1e-12
    assert sys.distance(walk[3], sys.orbit_at(start, 4)) <= 1e-12
    cover = sys.cover(0.25)
    assert type(cover) is cover_type and cover.system == sys
    assert sys.distance(start, start) == 0.0
    q, caveat, minimal = sys.rational_structure()
    assert isinstance(caveat, bool) and isinstance(minimal, bool) and (q is None) == (not minimal)
    assert isinstance(sys.exact_orbits, bool)
    if isinstance(sys, ProductSystem):
        with pytest.raises(TypeError):
            sys.starts(0.5)
    else:
        starts = sys.starts(0.5)
        assert len(starts) == len({cover.cell_of(s) for s in starts})


@pytest.mark.parametrize("eps", [0.0, -1.0, math.nan])
@pytest.mark.parametrize("sys", [case[0] for case in PROTOCOL_CASES], ids=lambda v: type(v).__name__)
def test_cover_rejects_eps_not_above_zero(sys, eps):
    with pytest.raises(ValueError, match="eps must be > 0"):
        sys.cover(eps)


@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
def test_non_finite_angles_are_rejected(angle):
    for make, arg in ((RotationSystem, (angle,)), (RotationSystem, (GOLDEN, angle)), (SkewProductSystem, angle)):
        with pytest.raises(ValueError, match="angle must be finite"):
            make(arg)


def test_start_sets():
    assert CyclicSystem(4).starts(0.5) == [0, 1, 2, 3]
    assert OdometerSystem(2, 2).starts(0.5) == [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert RotationSystem.from_angle(GOLDEN).starts(0.25) == [0.0, 0.25, 0.5, 0.75]
    grid = [(0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (0.5, 0.5)]
    assert RotationSystem((GOLDEN, 0.3)).starts(0.5) == grid
    assert SkewProductSystem(GOLDEN).starts(0.5) == grid


@pytest.mark.parametrize(
    "sys", [CyclicSystem(6), OdometerSystem(3, 2), ProductSystem(CyclicSystem(2), OdometerSystem(2, 2))],
    ids=lambda v: v.spec_string(),
)
def test_finite_closed_form_lands_in_the_stepped_cell(sys):
    if isinstance(sys, ProductSystem):
        states = [(a, b) for a in sys.left.starts(1.0) for b in sys.right.starts(1.0)]
    else:
        states = sys.starts(1.0)
    cover = sys.cover(1.0)
    for start in states:
        state = start
        for n in range(1, 2 * len(states) + 1):
            state = sys.step(state)
            assert cover.cell_of(sys.orbit_at(start, n)) == cover.cell_of(state)


def test_exact_rotation_computes_from_the_exact_start():
    rot = RotationSystem.from_rationals(Fraction(1, 3))
    n = 3 * 10 ** 17
    assert rot.orbit_at(0.0, n) == 0 and orbit_at(rot, 0.25, n + 1) == Fraction(7, 12)
    assert rot.step(0.25) == Fraction(7, 12)


# -- window-at-once orbits (along) ---------------------------------------------------

ALONG_SYSTEMS = [
    RotationSystem.from_angle(GOLDEN),
    RotationSystem((GOLDEN, math.sqrt(2.0) - 1.0)),
    RotationSystem.from_angle(0.1),
    SkewProductSystem(GOLDEN),
    SkewProductSystem(0.3),
    RotationSystem.from_rationals(Fraction(2, 7)),
    RotationSystem.from_rationals(Fraction(1, 3), Fraction(2, 5)),
    # Angles whose exact states land on cell edges.
    RotationSystem.from_angle(0.5),
    RotationSystem((0.25, 0.3)),
    SkewProductSystem(0.25),
    # An odd numerator over 2^64: n(n-1)/2 must not wrap before it is halved.
    SkewProductSystem(2.0 ** -12 + 2.0 ** -64),
    # Exact skews: times mod 2·den, n(n-1)/2 reduced mod den.
    SkewProductSystem(Fraction(1, 3)),
    SkewProductSystem(Fraction(2, 7)),
]

unit_floats = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
window_times = st.lists(st.integers(0, 10 ** 15), max_size=60, unique=True).map(sorted)


def _start(sys, coords):
    return coords[0] if sys.dimension == 1 else tuple(coords[: sys.dimension])


@given(
    st.sampled_from(ALONG_SYSTEMS),
    st.tuples(unit_floats, unit_floats),
    window_times,
    st.sampled_from([0.5, 0.1, 0.02, 0.003]),
)
@settings(max_examples=150, deadline=None)
def test_along_matches_per_state_cells_and_distances(sys, coords, times, eps):
    # States, cells and distances are the exact reference's, exact rotations included.
    start = _start(sys, coords)
    w = Window(tuple(times), times[-1] if times else 0)
    cover, orbits = sys.cover(eps), sys.along(w, [start])
    states = [ref.state(sys, start, n) for n in times]
    assert orbits.cells(cover)[0].tolist() == [ref.flat_id(s, ref.sides(eps)) for s in states]
    got = [orbits.value(d) for d in orbits.distances()[0]]
    assert got == [ref.distance(s, start) for s in states]
    nums = orbits.states()
    assert [tuple(Fraction(int(x[0, i]), orbits.den) for x in nums) for i in range(len(times))] == states


PER_STATE_SYSTEMS = ALONG_SYSTEMS + [RotationSystem.from_angle(0.25), RotationSystem((0.5, 0.3))]

# Floats, grid points and Fractions: a start is read as the rational number it is.
start_coords = st.one_of(
    unit_floats,
    st.sampled_from([0.0, 0.1, 0.25, 0.3, 0.5, 0.75]),
    st.fractions(0, 1, max_denominator=10 ** 6).filter(lambda f: f < 1),
)


@given(
    st.sampled_from(PER_STATE_SYSTEMS),
    st.tuples(start_coords, start_coords),
    window_times,
    st.sampled_from([0.5, 0.1, 0.05, 0.02, 0.003]),
)
@example(SkewProductSystem(0.3), (0.5, 0.0), [2], 0.05)  # x = 0.5 + 2·0.3 − 1 lies just below the edge 0.1
@example(SkewProductSystem(0.3), (Fraction(1, 3), 0.25), [1, 2, 5, 10 ** 12], 0.05)
@settings(max_examples=200, deadline=None)
def test_per_state_orbits_and_cells_agree_with_along(sys, coords, times, eps):
    # orbit_at, step and cell_of give the exact orbit's cells, as along and the reference do.
    start = _start(sys, coords)
    cover = sys.cover(eps)
    per_state = [cover.flat_id(cover.cell_of(sys.orbit_at(start, n))) for n in times]
    along = sys.along(Window(tuple(times), times[-1] if times else 0), [start]).cells(cover)[0].tolist()
    assert per_state == along == [ref.flat_id(ref.state(sys, start, n), cover.k) for n in times]
    assert sys.step(sys.step(start)) == sys.orbit_at(start, 2)


@given(
    st.sampled_from(ALONG_SYSTEMS),
    window_times,
    st.sampled_from([1.0, 0.5, 0.3, 0.25]),
    st.sampled_from([0.5, 0.1, 0.003, 1e-10]),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_each_batch_row_is_the_single_start_row(sys, times, grid, eps, data):
    # Any subset of grid starts, repeats allowed; the 1e-10 cover numbers
    # 2-d cells with Python ints.  The denominator depends on the starts, so
    # rows are compared as the numbers they stand for.
    w = Window(tuple(times), times[-1] if times else 0)
    batch = data.draw(st.lists(st.sampled_from(sys.starts(grid)), min_size=1, max_size=6))
    cover, orbits = sys.cover(eps), sys.along(w, batch)
    cells, distances = orbits.cells(cover), orbits.distances()
    assert cells.shape == distances.shape == (len(batch), len(times))
    hits, empties = _coverage(cells, cover.cell_count())
    for i, start in enumerate(batch):
        alone = sys.along(w, [start])
        assert cells[i].tolist() == alone.cells(cover)[0].tolist()
        got = [orbits.value(d) for d in distances[i]]
        assert got == [alone.value(d) for d in alone.distances()[0]]
        states = [ref.state(sys, start, n) for n in times]
        assert cells[i].tolist() == [ref.flat_id(s, ref.sides(eps)) for s in states]
        assert got == [ref.distance(s, start) for s in states]
        seen = set(cells[i].tolist())
        assert (hits[i], empties[i]) == (len(seen), min(set(range(len(seen) + 1)) - seen))
        got = [[Fraction(int(v), orbits.den) for v in x[i]] for x in orbits.states()]
        assert got == [[Fraction(int(v), alone.den) for v in x[0]] for x in alone.states()]


def test_an_engine_is_fixed_for_its_batch():
    # The starts fix the denominator when the engine is built; no call moves
    # den, the start columns or the limit of a distance.
    rot, w = RotationSystem.from_rationals(Fraction(1, 3)), Window(tuple(range(0, 40, 3)), 40)
    cover = rot.cover(0.1)
    for starts, den in (([0.0], 3), ([0.25, 0.5, 0.75], 12)):
        orbits = rot.along(w, starts)
        before = orbits.den, orbits.columns.tolist(), orbits.limit(0.1), orbits.limit(0.01)
        assert before[0] == den and before[1] == [[den * Fraction(s) % den] for s in starts]
        orbits.cells(cover)
        orbits.distances()
        orbits.states()
        assert (orbits.den, orbits.columns.tolist(), orbits.limit(0.1), orbits.limit(0.01)) == before


def test_coverage_counts_each_row():
    rows = np.array([[3, 0, 1, 1], [2, 2, 2, 2], [0, 1, 2, 3], [1, 0, 5, 0]], dtype=np.int64)
    for cells in (6, 100):  # counted, then sorted
        hits, empties = _coverage(rows, cells)
        assert hits.tolist() == [3, 1, 4, 3] and empties.tolist() == [2, 0, 4, 2]
    hits, empties = _coverage(rows.astype(object) * 2 ** 70, 2 ** 73)
    assert hits.tolist() == [3, 1, 4, 3] and empties.tolist() == [1, 0, 1, 1]
    hits, empties = _coverage(np.zeros((2, 0), dtype=np.int64), 5)
    assert hits.tolist() == [0, 0] and empties.tolist() == [0, 0]


def _sorted_coverage(ids):
    # _coverage by sorting every row, as it ran before rows were counted: the reference.
    rows, n = ids.shape
    if not n:
        return np.zeros(rows, dtype=np.int64), np.zeros(rows, dtype=np.int64)
    ids = np.sort(ids, axis=1)
    step = ids[:, 1:] - ids[:, :-1]
    hits = 1 + np.count_nonzero(step, axis=1)
    jump = np.zeros((rows, n), dtype=bool)
    jump[:, :-1] = step > 1
    at, r = jump.argmax(axis=1), np.arange(rows)
    empty = np.where(jump[r, at], ids[r, at] + 1, hits)
    return hits, np.where(ids[:, 0] == 0, empty, 0).astype(np.int64)


@given(
    st.integers(1, 5),
    st.integers(0, 80),
    st.sampled_from(["one", "crossover", "past crossover", "few", "many"]),
    st.integers(0, 2 ** 32),
    st.booleans(),
)
@example(3, 0, "one", 0, False)  # empty rows
@settings(max_examples=300, deadline=None)
def test_coverage_counted_matches_sorted(rows, n, size, seed, as_object):
    # Counted (few cells a number) or sorted, every row gives the same hit
    # count and least missing cell; Python-int ids are always sorted.
    rng = np.random.default_rng(seed)
    per_id = systems._CELLS_PER_ID_COUNTED
    cells = {"one": 1, "crossover": max(1, per_id * n), "past crossover": per_id * n + 1,
             "few": int(rng.integers(1, n // 3 + 2)), "many": int(rng.integers(1, 10 * n + 2))}[size]
    ids = rng.integers(0, cells, size=(rows, n))
    if as_object:
        ids = ids.astype(object)
    hits, empties = _coverage(ids, cells)
    want_hits, want_empties = _sorted_coverage(ids)
    assert hits.tolist() == want_hits.tolist() and empties.tolist() == want_empties.tolist()
    for row, h, e in zip(ids.tolist(), hits.tolist(), empties.tolist()):
        seen = set(row)
        assert h == len(seen) and e == min(set(range(cells + 1)) - seen)


@pytest.mark.parametrize("sys", ALONG_SYSTEMS[:7] + [SkewProductSystem(0.25)], ids=lambda v: v.spec_string())
def test_along_past_two_to_the_64(sys):
    # Times at and past 2^64 leave the uint64 path over 2^64; tiny starts have
    # denominators past 2^64 and leave it too, on int64 windows as well, where
    # n(n-1)/2 must not wrap.  A denominator below 2^31 (an exact rotation, or
    # a start in thirds and fifths) keeps the times mod 2·den in uint64.
    for times in (
        (2 ** 63 + 5, 2 ** 64 - 3),
        (2 ** 64 - 3, 2 ** 64),
        (7, 2 ** 64 + 7, 3 ** 45, 10 ** 30),
        (3 * 10 ** 9, 4 * 10 ** 9 + 1, 2 ** 61 - 1),
    ):
        for coords in ((0.25, 0.75), (1e-30, 5e-300), (0.1, 0.3), (Fraction(1, 3), Fraction(2, 5))):
            start = _start(sys, coords)
            orbits = sys.along(Window(times, times[-1]), [start])
            states = [ref.state(sys, start, n) for n in times]
            got = orbits.distances()[0]
            assert [orbits.value(d) for d in got] == [ref.distance(s, start) for s in states]
            assert orbits.cells(sys.cover(0.01))[0].tolist() == [ref.flat_id(s, 100) for s in states]
            small = orbits.den < 2 ** 31 or orbits.den == 2 ** 64 and times[-1] < 2 ** 64
            assert orbits.states()[0].dtype == (np.uint64 if small else object)


@pytest.mark.parametrize("sys", [CyclicSystem(6), OdometerSystem(3, 2)], ids=lambda v: v.spec_string())
def test_finite_along_matches_per_state_distances(sys):
    times = (0, 1, 5, 6, 9, 12, 2 ** 70, 2 ** 70 + 3)
    w = Window(times, times[-1])
    for start in sys.starts(1.0):
        orbits = sys.along(w, [start])
        expected = [sys.distance(sys.orbit_at(start, n), start) for n in times]
        assert orbits.distances()[0].tolist() == expected


def _ref_periodic_rows(sys, times, period, start, cover):
    # Each residue class's state from orbit_at, spread one time at a time:
    # the reference for the closed form (code + n) mod size.
    first: dict[int, int] = {}
    index = np.array([first.setdefault(n % period, len(first)) for n in times], dtype=np.intp)
    states = [sys.orbit_at(start, m) for m in first]
    distances = np.array([sys.distance(s, start) for s in states], dtype=np.float64)
    ids = [cover.flat_id(cover.cell_of(s)) for s in states]
    return [ids[i] for i in index], distances[index].tolist()


PERIODIC_SYSTEMS = [
    (CyclicSystem(1), 1),
    (CyclicSystem(6), 6),
    (OdometerSystem(3, 2), 9),
    (CyclicSystem(2 ** 64 + 13), 2 ** 64 + 13),  # a period past int64: residues of Python ints
]


@given(
    st.sampled_from(PERIODIC_SYSTEMS),
    st.lists(st.integers(0, 10 ** 6), max_size=50, unique=True).map(sorted),
    st.sampled_from([(0, 0), (0, 2 ** 63), (2 ** 63, 0), (2 ** 70, 0)]),
)
@settings(max_examples=80, deadline=None)
def test_periodic_rows_match_the_residue_comprehension(system, offsets, kind):
    # int64 times, small times under a horizon past 2^62 (converted to int64),
    # and times past 2^63 (Python ints).
    (sys, period), (base, wide) = system, kind
    times = tuple(base + t for t in offsets)
    w = Window(times, (times[-1] if times else base) + wide)
    cover = sys.cover(0.2)
    for start in [sys.decode(v) for v in sorted({0, 1 % sys.size, sys.size - 1})]:
        orbits = sys.along(w, [start])
        cells, distances = _ref_periodic_rows(sys, times, period, start, cover)
        assert orbits.cells(cover)[0].tolist() == cells
        assert orbits.distances()[0].tolist() == distances


def test_torus_cover_flat_ids_in_canonical_order():
    cover = RotationSystem((GOLDEN, 0.3)).cover(0.25)
    cells = list(itertools.product(range(4), repeat=2))
    assert [cover.flat_id(c) for c in cells] == list(range(16))
    assert [cover.cell_at(i) for i in range(16)] == cells
    one = RotationSystem.from_angle(GOLDEN).cover(0.25)
    assert one.flat_id(3) == 3 and one.cell_at(3) == 3


def test_torus_cover_ids_past_int64_are_python_ints():
    # 10^10 x 10^10 cells do not fit int64 flat ids, on the 2-torus or on a
    # product of two circles, which numbers its cells as the torus does.
    torus = RotationSystem((GOLDEN, 0.3))
    times = (1, 2, 10 ** 5)
    expected = [ref.flat_id(ref.state(torus, (0.5, 0.25), n), ref.sides(1e-10)) for n in times]
    for sys in (torus, ProductSystem(RotationSystem.from_angle(GOLDEN), RotationSystem.from_angle(0.3))):
        ids = sys.along(Window(times, times[-1]), [(0.5, 0.25)]).cells(sys.cover(1e-10))[0]
        assert ids.dtype == object
        assert ids.tolist() == expected and max(expected) > 2 ** 63


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: CyclicSystem(0), "period must be >= 1", id="cyclic-period"),
        pytest.param(lambda: OdometerSystem(1, 2), "base must be >= 2", id="odometer-base"),
        pytest.param(lambda: OdometerSystem(2, 0), "depth must be >= 1", id="odometer-depth"),
        pytest.param(lambda: OdometerSystem(2, 2).encode(4), "state 4 outside [0, 4)", id="odometer-int-state"),
        pytest.param(lambda: OdometerSystem(2, 2).encode((0, 2)), "bad digit state (0, 2)", id="odometer-digit-state"),
        pytest.param(lambda: RotationSystem(()), "need at least one angle", id="rotation-angles"),
    ],
)
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
