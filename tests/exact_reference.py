"""Exact orbits of the metric catalog systems in stdlib arithmetic: the reference for the metric engine.

Imports nothing from dynwindow.  A system is read through its fields only:
a rotation's ``angles``, the skew product's ``angle``, a cycle's ``period``
or an odometer's ``base`` and ``depth``.  An angle is a Fraction or a
double, and a double is the dyadic rational it stores, so every state,
cell and distance here is exact, computed in ``Fraction`` straight from the
definitions:

* rotation: T^n(c) = c + n·a mod 1 per coordinate;
* skew product: T^n(x, y) = (x + n·a, y + n·x + n(n-1)/2·a) mod 1;
* the cover of mesh eps: K = ceil(1/eps) cells a side, coordinate s in
  cell floor(s·K), cells numbered in base K, first coordinate first;
* the distance: the largest circular gap min(g, 1 - g) over coordinates;
* the start grid: i/k for k = ceil(1/resolution), in lexicographic order.

``r_sequence_metric`` and ``birkhoff`` restate the two window tests on
these: the first start (then time) wins, and the floating-point budget is
charged as the engine charges it, n·2^-53 against eps/10, except when
every angle is a Fraction.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction


def _is_rotation(sys) -> bool:
    return hasattr(sys, "angles")


def _angles(sys) -> list:
    return list(sys.angles) if _is_rotation(sys) else [sys.angle]


def dimension(sys) -> int:
    return len(sys.angles) if _is_rotation(sys) else 2


def _coords(start) -> tuple:
    return tuple(start) if isinstance(start, tuple) else (start,)


def state(sys, start, n: int) -> tuple:
    """T^n(start) as a tuple of Fractions in [0, 1)."""
    c = [Fraction(v) for v in _coords(start)]
    angles = [Fraction(a) for a in _angles(sys)]
    if _is_rotation(sys):
        return tuple((v + n * a) % 1 for v, a in zip(c, angles))
    (x, y), (a,) = c, angles
    return (x + n * a) % 1, (y + n * x + n * (n - 1) // 2 * a) % 1


def sides(eps: float) -> int:
    """K, the number of cells a side of the cover of mesh eps."""
    return max(1, math.ceil(1.0 / eps))


def cell(s: tuple, k: int):
    """The cell of a state: one floor(s·K) per coordinate, bare in one dimension."""
    digits = tuple(math.floor(v * k) for v in s)
    return digits[0] if len(digits) == 1 else digits


def flat_id(s: tuple, k: int) -> int:
    flat = 0
    for v in s:
        flat = flat * k + math.floor(v * k)
    return flat


def cell_at(flat: int, k: int, dim: int):
    digits = []
    for _ in range(dim):
        flat, c = divmod(flat, k)
        digits.append(c)
    return digits[0] if dim == 1 else tuple(reversed(digits))


def distance(s: tuple, start) -> Fraction:
    gaps = [(v - Fraction(c)) % 1 for v, c in zip(s, _coords(start))]
    return max(min(g, 1 - g) for g in gaps)


def grid(sys, resolution: float) -> list:
    k = max(1, math.ceil(1.0 / resolution))
    axis = [i / k for i in range(k)]
    return [p[0] if len(p) == 1 else p for p in itertools.product(axis, repeat=dimension(sys))]


def _budget_note(times, horizon: int, sys, eps: float):
    if all(isinstance(a, Fraction) for a in _angles(sys)):
        return None
    drift = (times[-1] if times else horizon) * 2.0 ** -53
    if drift > eps / 10.0:
        return (
            f"floating-point budget exceeded: time-amplified angle error {drift:.3g} "
            f"> eps/10 = {eps / 10.0:.3g}"
        )
    return None


def _json_witness(w):
    return list(w) if isinstance(w, tuple) else w


def r_sequence_metric(times, horizon: int, sys, eps: float, resolution: float) -> dict:
    """The JSON form of r_sequence_metric's report on the window (times, horizon)."""
    family = f"{sys.spec_string()} eps={eps}"
    note = _budget_note(times, horizon, sys, eps)
    if note is not None:
        return {"verdict": "inconclusive", "witness": None, "note": note, "family": family, "per_system": []}
    k, dim = sides(eps), dimension(sys)
    total = k ** dim
    desc = f"{len(times)} elements on [0, {horizon}], eps={eps}"
    best = None
    for start in grid(sys, resolution):
        seen = {flat_id(state(sys, start, n), k) for n in times}
        if len(seen) == total:
            return {"verdict": "holds", "witness": _json_witness(start),
                    "note": f"orbit of {start} along {desc} is dense", "family": family,
                    "per_system": [{"system": str(start), "cells_hit": total, "cells": total}]}
        if best is None or len(seen) > best[0]:
            best = (len(seen), start, cell_at(min(set(range(len(seen) + 1)) - seen), k, dim))
    hit, start, empty = best
    return {"verdict": "fails", "witness": _json_witness(empty),
            "note": f"best start {start} hits {hit}/{total} cells along {desc}; cell {empty} stays empty",
            "family": family,
            "per_system": [{"system": str(start), "cells_hit": hit, "cells": total, "empty_cell": empty}]}


def birkhoff(times, horizon: int, sys, eps: float, resolution: float = 1.0) -> tuple:
    """birkhoff_window_test's verdict on the window (times, horizon), as (status, witness, note).

    A cycle or odometer returns exactly at the multiples of its size, from
    every start; its first start is 0, or the all-zero digits.
    """
    if hasattr(sys, "period") or hasattr(sys, "depth"):
        size = sys.period if hasattr(sys, "period") else sys.base ** sys.depth
        starts = [0 if hasattr(sys, "period") else (0,) * sys.depth]
        dist = lambda start, n: Fraction(0 if n % size == 0 else 1)  # noqa: E731
    else:
        note = _budget_note(times, horizon, sys, eps)
        if note is not None:
            return "inconclusive", None, note
        starts = grid(sys, resolution)
        dist = lambda start, n: distance(state(sys, start, n), start)  # noqa: E731
    closest = None
    for start in starts:
        for n in times:
            if n == 0:
                continue
            d = dist(start, n)
            if d < Fraction(eps):
                return "holds", (start, n), f"T^{n} returns within {float(d):.3g} < {eps}"
            if closest is None or d < closest[0]:
                closest = (d, start, n)
    if closest is None:
        return "fails", 0, "window has no positive elements"
    d, start, n = closest
    return "fails", (start, n), f"closest return distance {float(d):.3g} >= eps = {eps}"
