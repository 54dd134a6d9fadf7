"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance and runtime bound is asserted, nothing is deferred.
"""
from __future__ import annotations

import itertools
import json
import math
import random
import time

from conftest import evens, interval, odds
from dynwindow import (
    GOLDEN,
    CyclicSystem,
    IPBlockSchedule,
    RotationSystem,
    Window,
    birkhoff_window_test,
    build_ip_block_sequence,
    cesaro_average_along,
    cesaro_interval_closed_form,
    crosscheck_cyclic_equivalence,
    eps_dense,
    find_non_surjective_prime,
    finite_subcover,
    product_transitive_finite,
    r_sequence_cyclic,
    random_windows,
    verify_not_pws,
    verify_shifted_recurrence,
    write_sequence_file,
)
from dynwindow.cli import main
from dynwindow.permpoly import PolyModP, brute_permutation_check, hermite_check
from dynwindow.recurrence import DEFAULT_SWEEP_SEED


def _report(n: int, elapsed: float, detail: str) -> None:
    print(f"ACCEPTANCE {n}: PASS ({elapsed:.1f}s) — {detail}")


def test_acceptance_1_hermite_oracle_equivalence():
    t0 = time.perf_counter()
    checked = 0
    for p in (2, 3, 5, 7):
        for coeffs in itertools.product(range(p), repeat=4):
            f = PolyModP.make(p, coeffs)
            assert hermite_check(f)[0] == brute_permutation_check(f)[0], (p, coeffs)
            checked += 1
    assert checked == 2 ** 4 + 3 ** 4 + 5 ** 4 + 7 ** 4  # 3123 exhaustive instances
    rng = random.Random(DEFAULT_SWEEP_SEED)
    for _ in range(10_000):
        p = rng.choice((11, 13))
        coeffs = [rng.randrange(p) for _ in range(6)]
        f = PolyModP.make(p, coeffs)
        assert hermite_check(f)[0] == brute_permutation_check(f)[0], (p, coeffs)
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(1, elapsed, f"criterion vs brute oracle agree on {checked} polynomials")


def test_acceptance_2_squares_example(tmp_path, capsys):
    t0 = time.perf_counter()
    squares_path = tmp_path / "squares.txt"
    write_sequence_file(
        squares_path, Window(tuple(n * n for n in range(101)), 10_000), "squares"
    )
    out = tmp_path / "report.json"
    code = main(["recurrence", str(squares_path), "cyclic:<=3", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "fails"
    assert doc["witness"] == [3, 2]  # period 3, missing residue 2
    out2 = tmp_path / "prime.json"
    code = main(["permpoly", "find-prime", "x^2", "--cap", "100", "--out", str(out2)])
    assert code == 0
    doc2 = json.loads(out2.read_text())
    assert doc2["p"] == 3 and doc2["missing"] == 2
    capsys.readouterr()
    elapsed = time.perf_counter() - t0
    _report(2, elapsed, "squares fail cyclic:<=3 at (3, 2); find-prime x^2 -> p=3 missing 2")


def test_acceptance_3_nonsurjective_primes_at_scale():
    t0 = time.perf_counter()
    rng = random.Random(DEFAULT_SWEEP_SEED)
    for _ in range(50):
        degree = rng.randint(2, 5)
        coeffs = [rng.randint(-9, 9) for _ in range(degree)]
        coeffs.append(rng.choice([c for c in range(-9, 10) if c != 0]))
        res = find_non_surjective_prime(coeffs, 10_000)
        image = {
            sum(c * pow(x, e, res.p) for e, c in enumerate(coeffs)) % res.p
            for x in range(res.p)
        }
        assert image == set(res.image)
        assert len(image) < res.p
        assert res.missing == min(set(range(res.p)) - image)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(3, elapsed, "50 seeded integer polynomials: prime found <= 10^4, every result replays")


def test_acceptance_4_block_construction_both_halves():
    t0 = time.perf_counter()
    built = build_ip_block_sequence(IPBlockSchedule.default(30))
    assert built.window.horizon >= 10 ** 5
    for gap in range(1, 11):
        assert verify_not_pws(built, gap, 100).holds, gap
    assert verify_shifted_recurrence(built, 20, range(-10, 11)).holds
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(4, elapsed, "30-block window: no pws certificate (gap<=10, block 100); shifted residue coverage m<=20")


def test_acceptance_5_crosscheck_500_windows():
    t0 = time.perf_counter()
    windows = random_windows(500, 10_000, seed=DEFAULT_SWEEP_SEED)
    for i, w in enumerate(windows):
        v = crosscheck_cyclic_equivalence(w, 12, range(-6, 7))
        assert v.holds, (i, v.note)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(5, elapsed, "three predicates agree on all 500 seeded windows (m<=12, shifts [-6,6])")


def test_acceptance_6_product_transitivity_oracle():
    t0 = time.perf_counter()
    for m in range(1, 31):
        for n in range(1, 31):
            res = product_transitive_finite(m, n)
            assert res.orbit_size == math.lcm(m, n)
            assert res.full_product == (math.gcd(m, n) == 1)
            assert res.coprime == res.full_product
    elapsed = time.perf_counter() - t0
    _report(6, elapsed, "gcd(m,n)=1 <=> orbit of (0,0) has size m*n, verified for all m,n <= 30")


def test_acceptance_7_equidistribution_surrogate():
    t0 = time.perf_counter()
    rot = RotationSystem.from_angle(GOLDEN)
    squares = Window(tuple(n * n for n in range(1, 10_001)), 10 ** 8)
    states = [rot.orbit_at(0.0, n) for n in squares.elements]
    assert eps_dense(rot, states, rot.cover(0.05)).holds
    n_max = 10_000
    trace = cesaro_average_along(interval(1, n_max, horizon=n_max), rot, 1)
    assert trace[n_max - 1] < 0.05
    worst = 0.0
    for n in range(1, n_max + 1):
        cf = cesaro_interval_closed_form(n, GOLDEN, 1)
        worst = max(worst, abs(trace[n - 1] - cf) / cf)
    assert worst <= 1e-9, worst
    elapsed = time.perf_counter() - t0
    _report(
        7,
        elapsed,
        f"squares orbit 0.05-dense; cesaro at N=10^4 is {trace[-1]:.2e} < 0.05, "
        f"closed-form deviation {worst:.2e} <= 1e-9",
    )


def test_acceptance_8_trivial_falsifiers():
    t0 = time.perf_counter()
    assert birkhoff_window_test(odds(1001), CyclicSystem(2), 0.5).fails
    report = r_sequence_cyclic(evens(1000), 2)
    assert report.verdict.fails and report.verdict.witness == (2, 1)
    full = interval(0, 1000)
    assert r_sequence_cyclic(full, 50).verdict.holds
    assert crosscheck_cyclic_equivalence(full, 50, range(-25, 26)).holds
    for m in (2, 7, 50):
        assert birkhoff_window_test(full, CyclicSystem(m), 0.5).holds
        assert len(finite_subcover(full, m)) == m
    elapsed = time.perf_counter() - t0
    _report(8, elapsed, "odds fail birkhoff on Z/2; evens fail mod 2; full interval passes up to m=50")
