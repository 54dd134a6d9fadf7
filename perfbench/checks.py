"""Independent checks of dynwindow's outputs.

Each checker recomputes the answer with the benchmark's own code (plain
Python integers, ``Fraction`` or numpy counting) or tests a property the
method must have, and returns ``None`` when the program's output is right or
a one-line reason when it is not.  Nothing here calls dynwindow.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from typing import Optional, Sequence

import numpy as np

# A metric state within this distance of a cell edge may land on either side.
EDGE_TOL = 1e-12


def _verdict(report: dict) -> tuple:
    witness = report.get("witness")
    if isinstance(witness, list):
        witness = tuple(witness)
    return report.get("verdict"), witness


# -- residue coverage (recurrence FILE 'cyclic:<=M') ----------------------------


def least_missing_residues(elements: Sequence[int], max_period: int) -> list[Optional[int]]:
    """For m = 1..max_period, the least residue mod m no element has (None if all)."""
    out: list[Optional[int]] = []
    if elements and elements[-1] < 2 ** 62:
        arr = np.asarray(elements, dtype=np.int64)
        for m in range(1, max_period + 1):
            zero = np.flatnonzero(np.bincount(arr % m, minlength=m) == 0)
            out.append(int(zero[0]) if zero.size else None)
        return out
    for m in range(1, max_period + 1):
        seen = {e % m for e in elements}
        out.append(next((r for r in range(m) if r not in seen), None))
    return out


def shifted(elements: Sequence[int], shift: int, horizon: int) -> list[int]:
    return [e + shift for e in elements if 0 <= e + shift <= horizon]


def check_cyclic(elements, horizon: int, max_period: int, report: dict, shifts=None) -> Optional[str]:
    """Residue coverage mod every m <= max_period: verdict, witness and per-m evidence.

    With ``shifts`` the verdict is the first failing shift, whose note must
    name that shift's (m, least missing residue).
    """
    status, witness = _verdict(report)
    if shifts is None:
        missing = least_missing_residues(elements, max_period)
        for m, got in enumerate(report["per_system"], start=1):
            if got != {"system": f"cyclic:{m}", "covered": missing[m - 1] is None, "missing": missing[m - 1]}:
                return f"per-system evidence for m={m} is {got}, expected missing={missing[m - 1]}"
        if len(report["per_system"]) != max_period:
            return f"{len(report['per_system'])} per-system entries for max_period {max_period}"
        first = next(((m, r) for m, r in enumerate(missing, start=1) if r is not None), None)
        expected = ("holds", None) if first is None else ("fails", first)
        return None if (status, witness) == expected else f"got {status} {witness}, expected {expected}"
    for n in sorted(shifts):
        missing = least_missing_residues(shifted(elements, n, horizon), max_period)
        first = next(((m, r) for m, r in enumerate(missing, start=1) if r is not None), None)
        if first is not None:
            if (status, witness) != ("fails", n):
                return f"got {status} {witness}, expected fails at shift {n}"
            m, r = first
            if f"residue {r} mod {m} never hit" not in report["note"]:
                return f"shift {n}: note {report['note']!r} does not name residue {r} mod {m}"
            return None
    return None if status == "holds" else f"got {status} {witness}, every shift covers"


# -- window classifiers (classify FILE) --------------------------------------------


def _gaps(elements, horizon: int):
    """Maximal empty runs of [0, horizon] as (first, last) pairs, in order."""
    prev = -1
    for e in list(elements) + [horizon + 1]:
        if e - prev > 1:
            yield prev + 1, e - 1
        prev = e


def expected_syndetic(elements, horizon: int, gap: int) -> tuple:
    if horizon + 1 < gap:
        return "holds", None
    for lo, hi in _gaps(elements, horizon):
        if hi - lo + 1 >= gap:
            return "fails", lo
    return "holds", None


def longest_run(elements) -> tuple[int, Optional[int]]:
    """(length, start) of the first longest run of consecutive elements."""
    best, best_start, run, start, prev = 0, None, 0, None, None
    for e in elements:
        if prev is not None and e == prev + 1:
            run += 1
        else:
            run, start = 1, e
        if run > best:
            best, best_start = run, start
        prev = e
    return best, best_start


def first_run_start(elements, length: int) -> Optional[int]:
    """Start of the run in which `length` consecutive elements first occur."""
    run, start, prev = 0, None, None
    for e in elements:
        if prev is not None and e == prev + 1:
            run += 1
        else:
            run, start = 1, e
        if run >= length:
            return start
        prev = e
    return None


def least_certificate(elements, horizon: int, gap: int, block: int) -> Optional[int]:
    """Least s with [s, s+block-1] inside [0, horizon] holding no empty gap-run.

    Straight from the definition: an empty maximal run [lo, hi] rules out
    every s whose interval meets it in at least `gap` points, i.e.
    s in [lo + gap - block, hi - gap + 1].
    """
    last = horizon - block + 1
    if last < 0:
        return None
    forbidden = sorted(
        (lo + gap - block, hi - gap + 1) for lo, hi in _gaps(elements, horizon) if hi - lo + 1 >= gap
    )
    s = 0
    for a, b in forbidden:
        if a > s:
            break
        s = max(s, b + 1)
    return s if s <= last else None


def banach_density(elements, horizon: int, length: int) -> Fraction:
    if not elements:
        return Fraction(0)
    ind = np.zeros(horizon + 2, dtype=np.int64)
    ind[np.asarray(elements, dtype=np.int64) + 1] = 1
    prefix = np.cumsum(ind)
    counts = prefix[length:] - prefix[:-length]
    return Fraction(int(counts[: horizon - length + 2].max()), length)


def check_classify(elements, horizon: int, gap: int, run: int, block: int, density_length: int, report: dict) -> Optional[str]:
    got = report["checks"]
    want = expected_syndetic(elements, horizon, gap)
    if _verdict(got["syndetic"]) != want:
        return f"syndetic: got {_verdict(got['syndetic'])}, expected {want}"

    start = first_run_start(elements, run)
    status, witness = _verdict(got["thick"])
    if start is not None:
        if (status, witness) != ("holds", start):
            return f"thick: got {status} {witness}, expected holds at {start}"
    else:
        best, best_start = longest_run(elements)
        note = f"longest run has length {best}" + (f" (starts at {best_start})" if best_start is not None else "")
        if (status, witness) != ("fails", horizon) or not got["thick"]["note"].startswith(note + ";"):
            return f"thick: got {status} {witness} {got['thick']['note']!r}, expected fails with {note!r}"

    cert = least_certificate(elements, horizon, gap, block)
    want = ("fails", horizon) if cert is None else ("holds", cert)
    if _verdict(got["piecewise_syndetic"]) != want:
        return f"piecewise_syndetic: got {_verdict(got['piecewise_syndetic'])}, expected {want}"

    density = banach_density(elements, horizon, min(density_length, horizon) or 1)
    if report["banach_density"]["exact"] != f"{density.numerator}/{density.denominator}":
        return f"banach density {report['banach_density']['exact']}, expected {density}"
    return None


# -- cross-check -----------------------------------------------------------------


def check_crosscheck(report) -> Optional[str]:
    """The support floor makes the three predicates provably equal: holds."""
    if isinstance(report, dict):
        bad = [e["sequence"]["source"] for e in report["per_system"] if e["verdict"] != "holds"]
        if report["verdict"] != "holds" or bad:
            return f"cross-check verdict {report['verdict']} (disagreeing: {bad})"
        return None
    if report.status.value != "holds":
        return f"cross-check {report.status.value} {report.witness}: {report.note}"
    return None


# -- block construction ------------------------------------------------------------


def subset_sums(generators: Sequence[int]) -> set[int]:
    sums = {0}
    for g in generators:
        sums |= {s + g for s in sums}
    return sums - {0}


def default_t(count: int) -> list[int]:
    out, run = [], 2
    while len(out) < count:
        out += range(1, run + 1)
        run += 1
    return out[:count]


def check_construct(elements, gap: int, block_length: int, max_period: int, shifts, report: dict) -> Optional[str]:
    """Spacing law, per-block replay, and both verifier halves recomputed."""
    horizon = elements[-1]
    blocks = report["blocks"]
    if not report["spacing_law"] or any(a["hi"] >= b["lo"] for a, b in zip(blocks, blocks[1:])):
        return "spacing law violated"
    if [b["t"] for b in blocks] != default_t(len(blocks)):
        return "t-schedule is not the default enumeration"
    covered = 0
    for i, b in enumerate(blocks):
        members = [e for e in elements if b["lo"] <= e <= b["hi"]]
        covered += len(members)
        # Default schedule: block i repeats one generator k_i = i + 2 times.
        generator = members[0] - b["offset"]
        if set(e - b["offset"] for e in members) != subset_sums([generator] * (i + 2)):
            return f"block {b['index']} does not replay as offset + subset sums"
        if (members[0], members[-1], b["size"]) != (b["lo"], b["hi"], b["hi"] - b["lo"]):
            return f"block {b['index']} boundaries disagree with the file"
    if covered != len(elements) or report["sequence"]["horizon"] != horizon:
        return "sequence file holds elements outside the reported blocks"
    if least_certificate(elements, horizon, gap, block_length) is not None:
        return "a piecewise-syndetic certificate exists"
    if report["not_piecewise_syndetic"]["verdict"] != "holds":
        return "not_piecewise_syndetic does not hold"
    for n in sorted(shifts):
        if any(r is not None for r in least_missing_residues(shifted(elements, n, horizon), max_period)):
            return f"shift {n} misses a residue mod m <= {max_period}"
    if report["shifted_recurrence"]["verdict"] != "holds":
        return "shifted_recurrence does not hold"
    return None


# -- permutation polynomials -------------------------------------------------------


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


def int_poly_image(coeffs: Sequence[int], p: int) -> set[int]:
    """Image of x -> sum c_i x^i over F_p, by direct powers."""
    return {sum(c * pow(x, i, p) for i, c in enumerate(coeffs)) % p for x in range(p)}


def check_permpoly(coeffs, p: int, report: dict, must_permute: bool) -> Optional[str]:
    image = int_poly_image(coeffs, p)
    if report["image"] != sorted(image) or report["image_size"] != len(image):
        return f"image size {report['image_size']}, expected {len(image)}"
    if report["is_permutation"] != (len(image) == p):
        return f"is_permutation={report['is_permutation']} with image size {len(image)} of {p}"
    if must_permute and not report["is_permutation"]:
        return "(x+b)^k+c with gcd(k, p-1) = 1 must permute F_p"
    return None


def check_find_prime(coeffs, report: dict) -> Optional[str]:
    """p prime, p = 1 mod deg, p > |lead|, missing absent, and no smaller candidate."""
    deg, lead, p = len(coeffs) - 1, abs(coeffs[-1]), report["p"]
    if not is_prime(p) or p % deg != 1 or p <= lead:
        return f"p = {p} is not a prime = 1 mod {deg} above {lead}"
    image = int_poly_image(coeffs, p)
    missing = min(set(range(p)) - image, default=None)
    if report["missing"] != missing or report["image"] != sorted(image) or report["image_size"] != len(image):
        return f"missing {report['missing']} / image size {report['image_size']}, expected {missing} / {len(image)}"
    for q in range(deg + 1, p, deg):
        if q > lead and is_prime(q) and len(int_poly_image(coeffs, q)) < q:
            return f"smaller candidate {q} already misses a residue"
    return None


# -- metric systems ----------------------------------------------------------------
#
# Every double is a dyadic rational and every declared angle p/q a rational,
# so orbits are recomputed exactly as integers over one common denominator.


class MetricModel:
    """Exact closed-form orbits of a rotation or the skew product.

    ``kind`` is "rot" or "skew"; ``angles`` are the values the program was
    given: floats, or Fractions for an exact rotation.  Float inputs get the
    edge tolerance; an exact rotation is held to the exact answer.
    """

    def __init__(self, kind: str, angles: Sequence, eps: float, resolution: float):
        self.kind = kind
        self.den = math.lcm(*(Fraction(a).denominator for a in angles), 2 ** 60)
        self.angles = [self._num(a) for a in angles]
        self.dim = len(angles) if kind == "rot" else 2
        self.k_cells = max(1, math.ceil(1.0 / eps))
        self.eps_num = self._num(eps)
        k = max(1, math.ceil(1.0 / resolution))
        axis = [i / k for i in range(k)]
        self.starts = [s[0] if self.dim == 1 else s for s in product(axis, repeat=self.dim)]
        self._start_num = {s: tuple(self._num(c) for c in (s if self.dim > 1 else (s,))) for s in self.starts}
        cells = range(self.k_cells)
        self.cells = list(cells) if self.dim == 1 else list(product(cells, repeat=self.dim))
        exact = any(isinstance(a, Fraction) for a in angles)
        self.tol = 0 if exact else int(EDGE_TOL * self.den) + 1

    def _num(self, x) -> int:
        f = Fraction(x) % 1 * self.den
        if f.denominator != 1:
            raise ValueError(f"{x} is not a multiple of 1/{self.den}")
        return int(f)

    def state(self, start, n: int) -> tuple[int, ...]:
        """T^n(start) as numerators over ``den``."""
        coords, d = self._start_num[start], self.den
        if self.kind == "rot":
            return tuple((c + n * a) % d for c, a in zip(coords, self.angles))
        (x, y), a = coords, self.angles[0]
        return (x + n * a) % d, (y + n * x + n * (n - 1) // 2 * a) % d

    def _coord_cells(self, u: int) -> tuple[int, ...]:
        k, d = self.k_cells, self.den
        q, r = divmod(u * k, d)
        alts = (q,)
        if r < self.tol * k:
            alts += ((q - 1) % k,)
        if d - r < self.tol * k:
            alts += ((q + 1) % k,)
        return alts

    def cells_of(self, start, n: int) -> list:
        """Cells the state may be put in: the exact one first, then edge neighbours."""
        options = [self._coord_cells(u) for u in self.state(start, n)]
        if self.dim == 1:
            return list(options[0])
        return list(product(*options))

    def coverage(self, start, times) -> tuple[set, set]:
        """(cells surely hit, cells possibly hit) along the times."""
        sure, maybe = set(), set()
        for n in times:
            cells = self.cells_of(start, n)
            if len(cells) == 1:
                sure.add(cells[0])
            maybe.update(cells)
        return sure, maybe

    def return_distance(self, start, n: int) -> int:
        """Max circular distance between T^n(start) and start, over ``den``."""
        d = self.den
        worst = 0
        for u, v in zip(self.state(start, n), self._start_num[start]):
            diff = (u - v) % d
            worst = max(worst, min(diff, d - diff))
        return worst


def _as_start(value):
    return tuple(value) if isinstance(value, (list, tuple)) else value


def check_metric(model: MetricModel, times: Sequence[int], verdict, detail: dict) -> Optional[str]:
    """r_sequence_metric: first dense start, or the best start and its first empty cell."""
    total = len(model.cells)
    status = verdict.status.value
    if status == "holds":
        start = _as_start(verdict.witness)
        if start not in model.starts:
            return f"holds start {start} is not a grid start"
        for s in model.starts[: model.starts.index(start)]:
            if len(model.coverage(s, times)[0]) == total:
                return f"earlier start {s} already covers every cell"
        if len(model.coverage(start, times)[1]) != total:
            return f"holds start {start} misses a cell"
        if detail != {str(start): {"cells_hit": total, "cells": total}}:
            return f"holds detail {detail}"
        return None
    if status != "fails":
        return f"verdict {status}: {verdict.note}"
    (key, info), = detail.items()
    best = next((s for s in model.starts if str(s) == key), None)
    if best is None:
        return f"best start {key} is not a grid start"
    hit, empty = info["cells_hit"], _as_start(verdict.witness)
    if info["cells"] != total or info["empty_cell"] != verdict.witness:
        return f"fails detail {info} for witness {verdict.witness}"
    before = True
    for s in model.starts:
        sure, maybe = model.coverage(s, times)
        if len(sure) == total:
            return f"start {s} covers every cell"
        if s == best:
            before = False
            if empty in sure:
                return f"best start {s}: witness cell {empty} is hit"
            if not len(sure) <= hit <= len(maybe):
                return f"best start {s}: cells_hit {hit} not in [{len(sure)}, {len(maybe)}]"
            if any(c not in maybe for c in model.cells[: model.cells.index(empty)]):
                return f"best start {s}: a cell before {empty} is empty"
        elif len(sure) > hit or (before and len(sure) == hit):
            return f"start {s} hits {len(sure)} cells, more than best start {best} ({hit})"
    return None


def check_birkhoff(model: MetricModel, times: Sequence[int], verdict) -> Optional[str]:
    """First (start, n) returning within eps, or the closest return when none does."""
    eps, tol = model.eps_num, model.tol
    status = verdict.status.value
    if status == "holds":
        start, n = verdict.witness
        start = _as_start(start)
        if start not in model.starts or n not in times:
            return f"witness {(start, n)} is not a grid start and window time"
        if model.return_distance(start, n) >= eps + tol:
            return f"witness {(start, n)} does not return within eps"
        for s in model.starts:
            for m in times:
                if (s, m) == (start, n):
                    return None
                if m and model.return_distance(s, m) < eps - tol:
                    return f"earlier pair {(s, m)} returns within eps"
    if status != "fails":
        return f"verdict {status}: {verdict.note}"
    start, n = verdict.witness
    start = _as_start(start)
    closest = min(model.return_distance(s, m) for s in model.starts for m in times if m)
    if closest < eps - tol:
        return f"some pair returns within {closest / model.den:.3g} < eps"
    if start not in model.starts or n not in times or model.return_distance(start, n) > closest + tol:
        return f"witness {(start, n)} is not the closest return ({closest / model.den:.3g})"
    return None
