"""Permutation-polynomial engine: criterion vs brute oracle, prime search, parsing."""
from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynwindow import (
    CapExceededError,
    PolyModP,
    PolynomialSyntaxError,
    PrimeField,
    brute_permutation_check,
    find_non_surjective_prime,
    hermite_check,
    is_permutation,
    parse_int_polynomial,
    pow_reduced,
    reduce_mod_field_poly,
)
from dynwindow.permpoly import OracleDisagreementError, decide_permutation, format_int_polynomial, is_prime, poly_mul


def mono(p: int, k: int, c: int = 1) -> PolyModP:
    return PolyModP.make(p, (0,) * k + (c,))


# -- field / poly types ------------------------------------------------------------


def test_prime_field_rejects_composites():
    PrimeField(2)
    PrimeField(13)
    for bad in (0, 1, 4, 9, 15):
        with pytest.raises(ValueError):
            PrimeField(bad)


def test_is_prime_matches_trial_range():
    sieve = {n for n in range(2, 200) if all(n % d for d in range(2, n))}
    assert {n for n in range(200) if is_prime(n)} == sieve


def test_poly_validation():
    with pytest.raises(ValueError):
        PolyModP(PrimeField(5), (1, 7))  # residue out of range
    with pytest.raises(ValueError):
        PolyModP(PrimeField(5), (1, 0))  # untrimmed
    assert PolyModP.make(5, (6, 5, 10)).coeffs == (1,)  # reduction + trim
    assert PolyModP.make(3, ()).is_zero


# -- reduction mod (x^p - x) ---------------------------------------------------------


def _naive_reduce(coeffs, p):
    """Repeated substitution x^p -> x, the definitional reduction."""
    c = list(coeffs)
    while len(c) - 1 >= p:
        lead = c.pop()  # degree e = len(c) after the pop
        c[len(c) - p + 1] = (c[len(c) - p + 1] + lead) % p  # x^e -> x^(e-p+1)
        while c and c[-1] == 0:
            c.pop()
    return tuple(c)


def test_reduce_examples():
    for p in (2, 3, 5, 7):
        assert reduce_mod_field_poly(mono(p, p)).coeffs == (0, 1)  # x^p -> x
        assert reduce_mod_field_poly(mono(p, p - 1)).coeffs == mono(p, p - 1).coeffs
    assert reduce_mod_field_poly(mono(5, 9)).coeffs == (0, 1)  # x^9 = x^(2p-1) -> x


@given(st.integers(0, 2), st.lists(st.integers(0, 12), min_size=0, max_size=18))
@settings(max_examples=80, deadline=None)
def test_reduce_matches_substitution_and_is_idempotent(pi, coeffs):
    p = (2, 5, 13)[pi]
    f = PolyModP.make(p, [c % p for c in coeffs])
    reduced = reduce_mod_field_poly(f)
    assert reduced.coeffs == _naive_reduce(f.coeffs, p)
    assert reduce_mod_field_poly(reduced) == reduced
    # same induced function on F_p
    assert all(f.evaluate(x) == reduced.evaluate(x) for x in range(p))


def test_pow_reduced_matches_iterated_products():
    f = PolyModP.make(7, (3, 1, 5))
    acc = PolyModP.make(7, (1,))
    for k in range(1, 15):
        acc = reduce_mod_field_poly(poly_mul(acc, f))
        assert pow_reduced(f, k) == acc


# -- the two deciders -------------------------------------------------------------------


def test_hermite_examples():
    for p in (2, 3, 5, 7, 11):
        assert hermite_check(mono(p, 1))[0]  # identity permutes
    ok, evidence = hermite_check(mono(5, 2))  # x^2 over F_5: squares {0,1,4}
    assert not ok and evidence["reason"] == "power_degree_full"
    assert hermite_check(mono(5, 3))[0]  # gcd(3, 4) = 1


def test_brute_examples():
    ok, image = brute_permutation_check(PolyModP.make(7, (3, 1)))  # x + 3
    assert ok and image == tuple(range(7))
    ok, image = brute_permutation_check(mono(3, 2))
    assert not ok and image == (0, 1)
    ok, image = brute_permutation_check(PolyModP.make(2, (0, 2)))  # 2x = 0
    assert not ok and image == (0,)


def test_oracle_equivalence_exhaustive_small():
    for p in (2, 3, 5):
        for coeffs in itertools.product(range(p), repeat=4):
            f = PolyModP.make(p, coeffs)
            assert hermite_check(f)[0] == brute_permutation_check(f)[0], (p, coeffs)


@given(st.sampled_from((2, 3, 5, 7, 11, 13)), st.lists(st.integers(0, 12), min_size=1, max_size=6))
@settings(max_examples=150, deadline=None)
def test_oracle_equivalence_random(p, coeffs):
    f = PolyModP.make(p, [c % p for c in coeffs])
    assert hermite_check(f)[0] == brute_permutation_check(f)[0]
    is_permutation(f)  # must not raise


def test_monomial_law():
    # x^k permutes F_p iff gcd(k, p-1) = 1; both deciders must agree with it
    for p in (2, 3, 5, 7, 11, 13):
        for k in range(1, 21):
            expected = math.gcd(k, p - 1) == 1
            f = mono(p, k)
            assert brute_permutation_check(f)[0] == expected, (p, k)
            assert hermite_check(f)[0] == expected, (p, k)


# -- non-surjective prime search ----------------------------------------------------------


def test_find_prime_for_x_squared():
    res = find_non_surjective_prime((0, 0, 1), 100)
    assert res.p == 3 and res.missing == 2 and res.image == (0, 1)


def test_find_prime_for_x_cubed():
    res = find_non_surjective_prime((0, 0, 0, 1), 100)
    cubes_mod_7 = sorted({pow(x, 3, 7) for x in range(7)})
    assert cubes_mod_7 == [0, 1, 6]
    assert res.p == 7 and res.missing == 2 and list(res.image) == cubes_mod_7


def test_find_prime_for_x_squared_plus_x():
    # first qualifying prime is 3 (image {0, 2} mod 3), not 5
    res = find_non_surjective_prime((0, 1, 1), 100)
    assert res.p == 3 and res.missing == 1 and res.image == (0, 2)


def test_find_prime_result_replays():
    res = find_non_surjective_prime((7, -3, 0, 0, 2), 10_000)  # 2x^4 - 3x + 7
    image = {(2 * x ** 4 - 3 * x + 7) % res.p for x in range(res.p)}
    assert image == set(res.image)
    assert len(image) < res.p
    assert res.missing == min(set(range(res.p)) - image)


def test_find_prime_respects_leading_bound():
    # lead 9 forces p > 9, so candidates start at 11
    res = find_non_surjective_prime((0, 0, 9), 100)
    assert res.p == 11


def test_find_prime_errors():
    with pytest.raises(ValueError):
        find_non_surjective_prime((1, 2), 100)  # degree 1
    with pytest.raises(ValueError):
        find_non_surjective_prime((0, 0, 1), 3)  # cap below degree + 2
    with pytest.raises(CapExceededError):
        find_non_surjective_prime((0, 0, 9), 10)  # needs p = 11 > cap


@given(st.integers(2, 4), st.lists(st.integers(-9, 9), min_size=0, max_size=4), st.integers(1, 9))
@settings(max_examples=40, deadline=None)
def test_find_prime_replays_randomized(deg, lows, lead):
    coeffs = (lows + [0] * deg)[:deg] + [lead]
    res = find_non_surjective_prime(coeffs, 10_000)
    image = {sum(c * pow(x, e, res.p) for e, c in enumerate(coeffs)) % res.p for x in range(res.p)}
    assert image == set(res.image) and len(image) < res.p
    assert res.p % deg == 1 and res.p > lead and is_prime(res.p)


# -- polynomial text syntax -----------------------------------------------------------------


def test_parse_examples():
    assert parse_int_polynomial("x^2+3x+1") == (1, 3, 1)
    assert parse_int_polynomial("-2x^3 + x") == (0, 1, 0, -2)
    assert parse_int_polynomial("7") == (7,)
    assert parse_int_polynomial("x") == (0, 1)
    assert parse_int_polynomial("2x^2 - x^2") == (0, 0, 1)
    assert parse_int_polynomial("5*x^2") == (0, 0, 5)


def test_parse_rejects_garbage():
    for bad in ("", "x^", "y+1", "x**2", "2x^-1"):
        with pytest.raises(PolynomialSyntaxError):
            parse_int_polynomial(bad)


@given(st.lists(st.integers(-20, 20), min_size=1, max_size=6))
@settings(max_examples=80, deadline=None)
def test_format_parse_roundtrip(coeffs):
    trimmed = list(coeffs)
    while len(trimmed) > 1 and trimmed[-1] == 0:
        trimmed.pop()
    text = format_int_polynomial(trimmed)
    if text == "0":
        return
    assert parse_int_polynomial(text) == tuple(trimmed)


def test_decide_permutation_returns_both_deciders_results():
    f = PolyModP.make(7, (3, 1))  # x + 3
    assert decide_permutation(f) == (True, hermite_check(f)[1], brute_permutation_check(f)[1])
    f = mono(5, 2)
    permutes, evidence, image = decide_permutation(f)
    assert not permutes and evidence["reason"] == "power_degree_full" and image == (0, 1, 4)


def test_decide_permutation_raises_when_deciders_disagree(monkeypatch):
    import dynwindow.permpoly as permpoly

    monkeypatch.setattr(permpoly, "hermite_check", lambda f: (False, {"reason": "forced"}))
    with pytest.raises(OracleDisagreementError):
        decide_permutation(PolyModP.make(7, (3, 1)))
    with pytest.raises(OracleDisagreementError):
        is_permutation(PolyModP.make(7, (3, 1)))
