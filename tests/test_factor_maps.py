"""Factor-map laws: what holds on a system holds on each of its factors.

A factor map pi: X -> Y is a continuous surjection with pi(T_X s) = T_Y pi(s).
It maps a dense orbit onto a dense orbit, and the catalog's maps below are
1-Lipschitz for the sup metric, so a return within eps is one on the factor
too.  Each map comes with its cell map at the same eps: the cell of pi(s) in
Y's cover is a function of the cell of s in X's.

- ``skew:a -> rot:a``: (x, y) -> x, cell (i, j) -> i.
- ``rot:a1,a2 -> rot:ai``: (x1, x2) -> xi, cell (i1, i2) -> ii.
- ``odo:p^d -> cyclic:p^j`` (j <= d): code c -> c mod p^j, the j low digits.
- ``cyclic:m -> cyclic:d`` (d | m): state and cell c -> c mod d.

The laws call only the public API (``along`` and ``cover``,
``r_sequence_metric``, ``birkhoff_window_test``, ``return_times``) and run on
hypothesis windows with double and p/q angles and with times past 2^64; the
return-times law runs on horizons up to 2·10^4 instead.  Each law has a
mutation check: a map that is not a factor map breaks it on a fixed list of
windows or horizons, where the true map keeps it.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynwindow import Window, birkhoff_window_test, r_sequence_metric, return_times
from dynwindow.systems import CyclicSystem, OdometerSystem, RotationSystem, SkewProductSystem, TorusSystem

EPS = (0.5, 0.34, 0.25, 0.1)


@dataclass(frozen=True)
class Factor:
    """A map from ``source`` to ``target``, on states and on the cells of one eps."""

    source: object
    target: object
    state: Callable  # a state of source -> a state of target
    cell: Callable  # a cell of source.cover(eps) -> a cell of target.cover(eps)
    lift: Callable  # a state of target -> one of source, a section of ``state`` (for the converse mutant)


def skew_to_rotation(angle) -> Factor:
    skew = SkewProductSystem(angle)
    return Factor(skew, RotationSystem((skew.angle,)), lambda s: s[0], lambda c: c[0], lambda x: (x, 0.0))


def torus_to_axis(angles, axis: int) -> Factor:
    rot = RotationSystem(tuple(angles))

    def lift(x):
        return tuple(x if i == axis else 0.0 for i in range(rot.dimension))

    return Factor(rot, RotationSystem((rot.angles[axis],)), lambda s: s[axis], lambda c: c[axis], lift)


def odometer_to_cycle(p: int, d: int, j: int) -> Factor:
    odo = OdometerSystem(p, d)
    return Factor(odo, CyclicSystem(p ** j), lambda s: odo.encode(s) % p ** j, lambda c: c % p ** j, odo.decode)


def cycle_to_cycle(m: int, d: int) -> Factor:
    return Factor(CyclicSystem(m), CyclicSystem(d), lambda c: c % d, lambda c: c % d, lambda c: c)


def swapped_digits(f: Factor) -> Factor:
    """The cell map applied to the cell with its digits swapped: the skew's (j, i), the
    2-torus's (i2, i1), an odometer's code with its base-p digits reversed."""
    if isinstance(f.source, OdometerSystem):
        odo = f.source
        return Factor(odo, f.target, f.state, lambda c: f.cell(odo.encode(odo.decode(c)[::-1])), f.lift)
    return Factor(f.source, f.target, f.state, lambda c: f.cell(c[::-1]), f.lift)


def high_part(f: Factor) -> Factor:
    """A cycle map's cell map read off the high part of the cell: c -> (c // (m/d)) mod d."""
    step = f.source.period // f.target.period
    return Factor(f.source, f.target, f.state, lambda c: c // step % f.target.period, f.lift)


def converse(f: Factor) -> Factor:
    """The factor taken for the extension: Y -> X through ``lift``, which is not a factor map."""
    return Factor(f.target, f.source, f.lift, None, f.state)


# -- the laws ----------------------------------------------------------------------


def _cell_rows(sys, a: Window, starts, eps: float) -> list:
    cover = sys.cover(eps)
    return [[cover.cell_at(int(v)) for v in row] for row in sys.along(a, starts).cells(cover)]


def _dense_from(sys, a: Window, start, eps: float) -> bool:
    cover = sys.cover(eps)
    return len(set(sys.along(a, [start]).cells(cover)[0].tolist())) == cover.cell_count()


def _returns(sys, a: Window, starts, eps: float) -> list:
    # For each start and time of a: whether d(T^n s, s) < eps.
    orbits = sys.along(a, starts)
    return (orbits.distances() < orbits.limit(eps)).tolist()


def cell_law(f: Factor, a: Window, starts, eps: float) -> bool:
    """pi maps the cell row of X from s onto the cell row of Y from pi(s)."""
    images = _cell_rows(f.target, a, [f.state(s) for s in starts], eps)
    return [[f.cell(c) for c in row] for row in _cell_rows(f.source, a, starts, eps)] == images


def density_law(f: Factor, a: Window, starts, eps: float, grid: float = 0.25) -> bool:
    """X dense from s along a => Y dense from pi(s); on tori also through ``r_sequence_metric``:
    X holds from s => Y holds from pi(s), and Y fails => X fails."""
    if any(_dense_from(f.source, a, s, eps) and not _dense_from(f.target, a, f.state(s), eps) for s in starts):
        return False
    if not isinstance(f.source, TorusSystem):
        return True
    xv = r_sequence_metric(a, f.source, eps, grid).verdict
    yv = r_sequence_metric(a, f.target, eps, grid).verdict
    if xv.holds and not (yv.holds and _dense_from(f.target, a, f.state(xv.witness), eps)):
        return False
    return not (yv.fails and not xv.fails) and xv.inconclusive == yv.inconclusive


def return_law(f: Factor, a: Window, starts, eps: float, grid: float = 0.25) -> bool:
    """X returns within eps at n from s => Y does at n from pi(s); also through
    ``birkhoff_window_test``: X holds => Y holds, and Y fails => X fails."""
    images = _returns(f.target, a, [f.state(s) for s in starts], eps)
    for row, image in zip(_returns(f.source, a, starts, eps), images):
        if any(x and not y for x, y in zip(row, image)):
            return False
    xv, yv = birkhoff_window_test(a, f.source, eps, grid), birkhoff_window_test(a, f.target, eps, grid)
    if xv.holds:
        start, n = xv.witness
        if not (yv.holds and _returns(f.target, Window((n,), n), [f.state(start)], eps)[0][0]):
            return False
    return not (yv.fails and not xv.fails) and xv.inconclusive == yv.inconclusive


def return_times_law(f: Factor, start, eps: float, horizon: int) -> bool:
    """N_X(s, pi^-1 V) = N_Y(pi(s), V) for every cell V of Y: the times up to horizon at which
    s visits a cell over V are the times at which pi(s) visits V."""
    source, target = f.source.cover(eps), f.target.cover(eps)
    over = {}
    for n in range(source.cell_count()):
        over.setdefault(f.cell(source.cell_at(n)), []).append(source.cell_at(n))
    for n in range(target.cell_count()):
        cell = target.cell_at(n)
        union = set()
        for c in over.get(cell, ()):
            union.update(return_times(f.source, start, c, horizon, source).times.elements)
        if union != set(return_times(f.target, f.state(start), cell, horizon, target).times.elements):
            return False
    return True


# -- inputs --------------------------------------------------------------------------

_doubles = st.floats(0.0, 1.0, exclude_max=True, allow_subnormal=False)
_fractions = st.integers(1, 60).flatmap(lambda q: st.builds(Fraction, st.integers(0, q - 1), st.just(q)))
_ANGLES = {"double": _doubles, "p/q": _fractions}


@st.composite
def windows(draw) -> Window:
    """1 to 80 times from 0 (half the draws) or past 2^64: a random sample of a span of 60, 3000
    or 10^6, or a run of consecutive times."""
    base = draw(st.sampled_from([0, 0, 2 ** 64, 2 ** 64 + 3 ** 40]))
    span = draw(st.sampled_from([60, 3000, 10 ** 6]))
    size = draw(st.integers(1, 80))
    if draw(st.booleans()):
        times = sorted(draw(st.randoms(use_true_random=False)).sample(range(span + 1), min(size, span + 1)))
    else:
        times = range(span - size, span + 1) if size <= span else range(span + 1)
    return Window(tuple(base + t for t in times), base + span)


@st.composite
def factors(draw, kind: str, angles: str):
    """A factor of the kind with its starts in the source: doubles, or p/q coordinates with p/q angles."""
    if kind == "odo":
        p = draw(st.integers(2, 5))
        d = draw(st.integers(1, 3))
        f = odometer_to_cycle(p, d, draw(st.integers(1, d)))
        return f, [f.source.decode(c) for c in draw(st.lists(st.integers(0, p ** d - 1), min_size=1, max_size=4))]
    if kind == "cycle":
        d = draw(st.integers(1, 8))
        f = cycle_to_cycle(d * draw(st.integers(1, 8)), d)
        return f, draw(st.lists(st.integers(0, f.source.period - 1), min_size=1, max_size=4))
    angle, coord = _ANGLES[angles], _ANGLES[angles]
    if kind == "skew":
        f = skew_to_rotation(draw(angle))
    else:
        f = torus_to_axis(draw(st.tuples(angle, angle)), draw(st.integers(0, 1)))
    return f, draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=4))


KINDS = [("skew", "double"), ("skew", "p/q"), ("rot2", "double"), ("rot2", "p/q"), ("odo", None), ("cycle", None)]
_IDS = [f"{kind}-{angles}" if angles else kind for kind, angles in KINDS]


@pytest.mark.parametrize("kind, angles", KINDS, ids=_IDS)
@given(data=st.data(), a=windows(), eps=st.sampled_from(EPS))
@settings(max_examples=40, deadline=None)
def test_a_factor_map_maps_cells_onto_cells(kind, angles, data, a, eps):
    f, starts = data.draw(factors(kind, angles))
    assert cell_law(f, a, starts, eps)


@pytest.mark.parametrize("kind, angles", KINDS, ids=_IDS)
@given(data=st.data(), a=windows(), eps=st.sampled_from(EPS))
@settings(max_examples=40, deadline=None)
def test_a_dense_orbit_maps_to_a_dense_orbit(kind, angles, data, a, eps):
    f, starts = data.draw(factors(kind, angles))
    assert density_law(f, a, starts, eps)


@pytest.mark.parametrize("kind, angles", KINDS, ids=_IDS)
@given(data=st.data(), a=windows(), eps=st.sampled_from(EPS))
@settings(max_examples=40, deadline=None)
def test_a_return_within_eps_is_one_on_the_factor(kind, angles, data, a, eps):
    f, starts = data.draw(factors(kind, angles))
    assert return_law(f, a, starts, eps)


@pytest.mark.parametrize("kind, angles", KINDS, ids=_IDS)
@given(data=st.data(), eps=st.sampled_from(EPS), horizon=st.integers(1, 2 * 10 ** 4))
@settings(max_examples=25, deadline=None)
def test_the_returns_over_a_cell_are_the_factor_s_returns_to_it(kind, angles, data, eps, horizon):
    f, starts = data.draw(factors(kind, angles))
    assert return_times_law(f, starts[0], eps, horizon)


# -- mutation checks -----------------------------------------------------------------


def _fixed_windows() -> list:
    # Seeded windows from 0 and past 2^64, dense enough that some orbits are.
    rnd = random.Random(19)
    out = []
    for base in (0, 2 ** 64):
        for size, span in ((8, 20), (40, 200), (50, 3000)):
            times = sorted(rnd.sample(range(span + 1), size))
            out.append(Window(tuple(base + t for t in times), base + span))
    return out


_FIXED = {
    "skew-double": (skew_to_rotation(0.3819660112501051), [(0.25, 0.5), (0.0, 0.75)]),
    "skew-p/q": (skew_to_rotation(Fraction(3, 7)), [(Fraction(1, 3), Fraction(1, 2)), (0.0, 0.0)]),
    "rot2-double": (torus_to_axis((0.4142135623730951, 0.7320508075688772), 0), [(0.1, 0.6), (0.5, 0.0)]),
    "rot2-p/q": (torus_to_axis((Fraction(2, 9), Fraction(5, 11)), 1), [(Fraction(1, 4), Fraction(2, 3))]),
    "odo": (odometer_to_cycle(2, 3, 1), [(0, 0, 0), (1, 0, 1)]),
}


@pytest.mark.parametrize(
    "law, mutant",
    [(cell_law, swapped_digits), (density_law, converse), (return_law, converse)],
    ids=["cells-swapped-digits", "density-converse", "returns-converse"],
)
@pytest.mark.parametrize("name", list(_FIXED))
def test_a_map_that_is_not_a_factor_map_breaks_the_law(name, law, mutant):
    f, starts = _FIXED[name]
    # The fixed windows give the true map dense orbits and returns to carry over, not only misses.
    cases = [(a, eps) for a in _fixed_windows() for eps in EPS]
    assert any(_dense_from(f.source, a, s, eps) for a, eps in cases for s in starts)
    assert any(any(row) for a, eps in cases for row in _returns(f.source, a, starts, eps))
    assert all(law(f, a, starts, eps) for a, eps in cases)
    wrong = mutant(f)
    wrong_starts = [f.state(s) for s in starts] if mutant is converse else starts
    assert not all(law(wrong, a, wrong_starts, eps) for a, eps in cases)


@pytest.mark.parametrize("name", ["skew-double", "skew-p/q"])
def test_the_skew_s_y_digit_is_not_a_factor_cell(name):
    # Reading the skew's cell (i, j) as j instead of i breaks the return-times law.
    f, starts = _FIXED[name]
    cases = [(s, eps, horizon) for s in starts for eps in EPS for horizon in (60, 3000)]
    assert all(return_times_law(f, s, eps, horizon) for s, eps, horizon in cases)
    assert not all(return_times_law(swapped_digits(f), s, eps, horizon) for s, eps, horizon in cases)


@pytest.mark.parametrize(
    "fixed, mutant",
    [(_FIXED["rot2-double"], swapped_digits), (_FIXED["rot2-p/q"], swapped_digits), ((cycle_to_cycle(12, 4), [0, 7]), high_part)],
    ids=["rot2-double-swapped-digits", "rot2-p/q-swapped-digits", "cycle-high-part"],
)
def test_a_cell_map_that_is_not_the_factor_s_breaks_the_return_times_law(fixed, mutant):
    f, starts = fixed
    cases = [(s, eps, horizon) for s in starts for eps in EPS for horizon in (5, 60, 3000)]
    assert all(return_times_law(f, s, eps, horizon) for s, eps, horizon in cases)
    assert not all(return_times_law(mutant(f), s, eps, horizon) for s, eps, horizon in cases)
