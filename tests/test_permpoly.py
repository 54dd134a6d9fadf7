"""Permutation-polynomial engine: criterion vs brute oracle, prime search, parsing."""
from __future__ import annotations

import itertools
import math
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
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
)
from dynwindow import permpoly
from dynwindow.permpoly import (
    NonSurjectiveResult,
    OracleDisagreementError,
    _array,
    _dtype,
    _fold,
    _int_poly_image_mod_p,
    decide_permutation,
    format_int_polynomial,
    is_prime,
)


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


@pytest.mark.parametrize("coeffs, text", [
    ((1, 3, 1), "x^2+3x+1"), ((1, 0, 6), "6x^2+1"), ((0, 1), "x"), ((5,), "5"), ((), "0"), ((7,), "0"),
])
def test_poly_str_lists_the_nonzero_terms_from_the_top(coeffs, text):
    assert str(PolyModP.make(7, coeffs)) == text


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


def _reduce(f: PolyModP) -> PolyModP:
    """f mod (x^p - x) through the array kernel, ``_fold``."""
    return PolyModP.make(f.field, _fold(_array(f), f.p).tolist())


def test_reduce_examples():
    for p in (2, 3, 5, 7):
        assert _reduce(mono(p, p)).coeffs == (0, 1)  # x^p -> x
        assert _reduce(mono(p, p - 1)).coeffs == mono(p, p - 1).coeffs
    assert _reduce(mono(5, 9)).coeffs == (0, 1)  # x^9 = x^(2p-1) -> x


@given(st.integers(0, 2), st.lists(st.integers(0, 12), min_size=0, max_size=18))
@settings(max_examples=80, deadline=None)
def test_reduce_matches_substitution_and_is_idempotent(pi, coeffs):
    p = (2, 5, 13)[pi]
    f = PolyModP.make(p, [c % p for c in coeffs])
    reduced = _reduce(f)
    assert reduced.coeffs == _naive_reduce(f.coeffs, p)
    assert _reduce(reduced) == reduced
    # same induced function on F_p
    assert all(f.evaluate(x) == reduced.evaluate(x) for x in range(p))


# -- the two deciders -------------------------------------------------------------------


def test_hermite_examples():
    for p in (2, 3, 5, 7, 11):
        assert hermite_check(mono(p, 1))[0]  # identity permutes
    ok, evidence = hermite_check(mono(5, 2))  # x^2 over F_5: squares {0,1,4}
    assert not ok and evidence["reason"] == "power_degree_full"
    assert hermite_check(mono(5, 3))[0]  # gcd(3, 4) = 1


def test_brute_examples():
    ok, image = brute_permutation_check(PolyModP.make(7, (3, 1)))  # x + 3
    assert ok and image.tolist() == list(range(7))
    ok, image = brute_permutation_check(mono(3, 2))
    assert not ok and image.tolist() == [0, 1]
    ok, image = brute_permutation_check(PolyModP.make(2, (0, 2)))  # 2x = 0
    assert not ok and image.tolist() == [0]


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
    assert res.p == 3 and res.missing == 2 and res.image.tolist() == [0, 1]


def test_find_prime_for_x_cubed():
    res = find_non_surjective_prime((0, 0, 0, 1), 100)
    cubes_mod_7 = sorted({pow(x, 3, 7) for x in range(7)})
    assert cubes_mod_7 == [0, 1, 6]
    assert res.p == 7 and res.missing == 2 and list(res.image) == cubes_mod_7


def test_find_prime_for_x_squared_plus_x():
    # first qualifying prime is 3 (image {0, 2} mod 3), not 5
    res = find_non_surjective_prime((0, 1, 1), 100)
    assert res.p == 3 and res.missing == 1 and res.image.tolist() == [0, 2]


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
    # A trailing zero is trimmed first: 3x^2 + 0x^3 leads with 3, so p > 3.
    assert find_non_surjective_prime([0, 0, 3, 0], 100).p == 5


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
    assert parse_int_polynomial("x^2-x^2+1") == (1,)  # cancelled terms are trimmed


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
    permutes, evidence, image = decide_permutation(f)
    assert (permutes, evidence, image.tolist()) == (True, hermite_check(f)[1], brute_permutation_check(f)[1].tolist())
    f = mono(5, 2)
    permutes, evidence, image = decide_permutation(f)
    assert not permutes and evidence["reason"] == "power_degree_full" and image.tolist() == [0, 1, 4]


def test_decide_permutation_raises_when_deciders_disagree(monkeypatch):
    import dynwindow.permpoly as permpoly

    monkeypatch.setattr(permpoly, "hermite_check", lambda f: (False, {"reason": "forced"}))
    with pytest.raises(OracleDisagreementError, match=re.escape("(image array([0, 1, 2, 3, 4, 5, 6]))")):
        decide_permutation(PolyModP.make(7, (3, 1)))
    with pytest.raises(OracleDisagreementError):
        is_permutation(PolyModP.make(7, (3, 1)))


def test_images_are_read_only_int64_arrays():
    f = mono(7, 3)
    res = find_non_surjective_prime((0, 0, 0, 1), 100)
    for image in (brute_permutation_check(f)[1], decide_permutation(f)[2], res.image):
        assert image.dtype == np.int64 and image.ndim == 1 and not image.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            image[0] = 1
    assert brute_permutation_check(f)[1].tolist() == [0, 1, 6]


def test_non_surjective_results_are_equal_and_hash_by_value():
    res = find_non_surjective_prime((0, 0, 1), 100)  # x^2: p = 3, image [0, 1]
    twins = [NonSurjectiveResult(3, 2, np.array([0, 1])), NonSurjectiveResult(3, 2, (0, 1))]
    for twin in twins:
        assert res == twin and twin == res and hash(res) == hash(twin)
    assert len({res, *twins}) == 1
    for other in (
        NonSurjectiveResult(3, 1, res.image),
        NonSurjectiveResult(5, 2, res.image),
        NonSurjectiveResult(3, 2, np.array([0, 2])),
        NonSurjectiveResult(3, 2, np.array([0])),
    ):
        assert res != other
    assert res != (3, 2, res.image) and res.to_json() == {"p": 3, "missing": 2, "image_size": 2}


# -- the array engine against the pure-Python loops it replaced --------------------------
#
# Verbatim copies of the loop implementations (only the names of the functions
# they call are prefixed), kept as references for the numpy engine.


def _ref_poly_mul(f: PolyModP, g: PolyModP) -> PolyModP:
    """Plain convolution product over F_p (no field-polynomial reduction)."""
    if f.p != g.p:
        raise ValueError("mixed fields")
    if f.is_zero or g.is_zero:
        return PolyModP(f.field, ())
    p = f.p
    out = [0] * (f.degree + g.degree + 1)
    for i, ci in enumerate(f.coeffs):
        if ci == 0:
            continue
        for j, cj in enumerate(g.coeffs):
            out[i + j] = (out[i + j] + ci * cj) % p
    return PolyModP.make(p, out)


def _ref_reduce_mod_field_poly(f: PolyModP) -> PolyModP:
    p = f.p
    if f.degree <= p - 1:
        return f
    out = [0] * p
    for e, c in enumerate(f.coeffs):
        if c == 0:
            continue
        r = e if e == 0 else (e - 1) % (p - 1) + 1
        out[r] = (out[r] + c) % p
    return PolyModP.make(p, out)


def _ref_hermite_check(f: PolyModP) -> tuple[bool, dict]:
    p = f.p
    g = PolyModP.make(p, (1,))
    for k in range(1, p):
        g = _ref_reduce_mod_field_poly(_ref_poly_mul(g, f))
        if k <= p - 2:
            if k % p != 0 and g.degree > p - 2:
                return False, {"reason": "power_degree_full", "k": k, "degree": g.degree}
        else:  # k == p - 1
            if g.degree != p - 1 or g.coeffs[-1] != 1:
                return False, {
                    "reason": "top_power_not_monic",
                    "degree": g.degree,
                    "leading": g.coeffs[-1] if g.coeffs else 0,
                }
    return True, {"reason": "ok"}


def _ref_brute_permutation_check(f: PolyModP) -> tuple[bool, tuple[int, ...]]:
    p = f.p
    image = sorted({f.evaluate(x) for x in range(p)})
    return len(image) == p, tuple(image)


def _ref_int_poly_image_mod_p(coeffs, p: int) -> set[int]:
    reduced = [c % p for c in coeffs]
    image = set()
    for x in range(p):
        acc = 0
        for c in reversed(reduced):
            acc = (acc * x + c) % p
        image.add(acc)
        if len(image) == p:
            break
    return image


def _ref_find_non_surjective_prime(coeffs, prime_cap: int) -> NonSurjectiveResult:
    trimmed = list(coeffs)
    while trimmed and trimmed[-1] == 0:
        trimmed.pop()
    degree = len(trimmed) - 1
    if degree < 2:
        raise ValueError(f"degree must be >= 2, got {degree}")
    lead = abs(trimmed[-1])
    if prime_cap < degree + 2:
        raise ValueError(f"prime_cap must be >= degree + 2 = {degree + 2}")
    p = degree + 1
    while p <= prime_cap:
        if p > lead and is_prime(p):
            image = _ref_int_poly_image_mod_p(trimmed, p)
            if len(image) < p:
                missing = min(set(range(p)) - image)
                return NonSurjectiveResult(p, missing, tuple(sorted(image)))
        p += degree
    raise CapExceededError("cap")


PRIMES_TO_409 = [q for q in range(2, 410) if is_prime(q)]


@st.composite
def field_polys(draw, max_degree=lambda p: 2 * p + 1):
    """An unreduced polynomial over F_p, p <= 409: random, zero, or (x+b)^k + c."""
    p = draw(st.sampled_from(PRIMES_TO_409))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    shape = draw(st.sampled_from(("random", "random", "zero", "shifted power")))
    if shape == "zero":
        return PolyModP.make(p, ())
    if shape == "shifted power":  # a permutation when gcd(k, p-1) = 1: the full criterion loop
        b, c, k = rng.randrange(p), rng.randrange(p), draw(st.integers(1, 7))
        return PolyModP.make(p, [math.comb(k, i) * b ** (k - i) + (c if i == 0 else 0) for i in range(k + 1)])
    degree = draw(st.integers(0, max_degree(p)))
    return PolyModP.make(p, [rng.randrange(p) for _ in range(degree)] + [rng.randrange(1, p)])


@given(field_polys(), st.integers(0, 2 ** 32))
@example(PolyModP.make(2, ()), 0)
@example(PolyModP.make(2, (1, 1)), 1)
@example(PolyModP.make(2, (1, 1, 1, 1, 1)), 2)
@example(PolyModP.make(11, (0, 1) + (0,) * 11 + (1,)), 3)  # x^13 + x
@example(PolyModP.make(409, (3, 1)), 4)
@example(PolyModP.make(3, (0, 0, 1, 0, 2)), 5)  # x^2 + 2x^4 folds to 3x^2 = 0
@settings(max_examples=120, deadline=None)
def test_array_engine_matches_the_python_loops(f, seed):
    p = f.p
    assert hermite_check(f) == _ref_hermite_check(f)
    permutes, image = brute_permutation_check(f)
    assert (permutes, tuple(image.tolist())) == _ref_brute_permutation_check(f)
    assert _reduce(f) == _ref_reduce_mod_field_poly(f)
    rng = random.Random(seed)
    g = PolyModP.make(p, [rng.randrange(p) for _ in range(rng.randrange(2 * p + 3))])
    product = _ref_poly_mul(f, g)  # degree up to 4p + 2
    for dtype in (np.int64, object):  # the kernel itself returns residues, on either dtype
        folded = _fold(np.array(product.coeffs or (0,), dtype=dtype), p).tolist()
        while folded and folded[-1] == 0:
            folded.pop()
        assert tuple(folded) == _ref_reduce_mod_field_poly(product).coeffs


@given(
    st.sampled_from(PRIMES_TO_409),
    st.lists(st.integers(-(2 ** 70), 2 ** 70), min_size=0, max_size=8),
)
@example(2, [])
@example(2, [1, 1])
@settings(max_examples=80, deadline=None)
def test_int_poly_image_matches_the_python_loop(p, coeffs):
    assert set(np.flatnonzero(_int_poly_image_mod_p(coeffs, p)).tolist()) == _ref_int_poly_image_mod_p(coeffs, p)


@given(st.integers(2, 6), st.lists(st.integers(-(2 ** 40), 2 ** 40), min_size=6, max_size=6), st.integers(1, 409), st.booleans())
@example(2, [0] * 6, 1, False)
@example(3, [0] * 6, 409, True)
@settings(max_examples=60, deadline=None)
def test_find_prime_matches_the_python_loop(degree, lows, lead, negate):
    coeffs = lows[:degree] + [-lead if negate else lead]
    try:
        expected = _ref_find_non_surjective_prime(coeffs, 2000)
    except CapExceededError:
        with pytest.raises(CapExceededError):
            find_non_surjective_prime(coeffs, 2000)
        return
    assert find_non_surjective_prime(coeffs, 2000) == expected


def _prime_from(n: int, step: int) -> int:
    while not is_prime(n):
        n += step
    return n


@pytest.mark.parametrize("terms", [1, 2, 3])
def test_kernel_on_both_sides_of_the_int64_bound(terms):
    # The largest p whose `terms`-term sums of residue products fit in int64;
    # for terms = 1 it is about 3.04e9, the Horner and constant-factor bound.
    # A convolution of a `terms`-coefficient array in the dtype picked for
    # `terms`, as the criterion's loop takes it, then `_fold`, is exact there.
    bound = math.isqrt((2 ** 63 - 1) // terms)
    below, above = _prime_from(bound, -1), _prime_from(bound + 1, 1)
    assert _dtype(below, terms) is np.int64 and _dtype(above, terms) is object
    for p in (below, above):
        f = PolyModP.make(p, [p - 1] * terms)  # every product term is (p-1)^2
        g = PolyModP.make(p, [p - 1, p - 2] * terms + [p - 1])
        dtype = _dtype(p, terms)
        for a, b in ((f, g), (g, f)):
            product = np.convolve(_array(a).astype(dtype), _array(b).astype(dtype)) % p
            assert PolyModP.make(p, product.tolist()) == _ref_poly_mul(a, b)
            assert PolyModP.make(p, _fold(product, p).tolist()) == _ref_reduce_mod_field_poly(_ref_poly_mul(a, b))
    # Past the bound the largest sum really leaves int64: int64 there would wrap.
    assert terms * (above - 1) ** 2 > 2 ** 63 - 1


# -- the criterion's loop against the loop it replaced ---------------------------------


def _convolve_fold_hermite_check(f: PolyModP) -> tuple[bool, dict]:
    # The criterion as it ran before each power became one product and one
    # shifted add: np.convolve, then % p, then _fold, per power.
    p = f.p
    base = _fold(_array(f), p)
    g = np.ones(1, dtype=base.dtype)
    for k in range(1, p):
        g = _fold(np.convolve(g, base) % p, p)
        if k <= p - 2 and g.size == p and g[-1]:
            return False, {"reason": "power_degree_full", "k": k, "degree": p - 1}
    nonzero = np.flatnonzero(g)  # g = reduce(f^(p-1))
    degree = int(nonzero[-1]) if nonzero.size else -1
    leading = int(g[degree]) if degree >= 0 else 0
    if degree != p - 1 or leading != 1:
        return False, {"reason": "top_power_not_monic", "degree": degree, "leading": leading}
    return True, {"reason": "ok"}


PRIMES_TO_401 = [q for q in PRIMES_TO_409 if q <= 401]


@given(field_polys(max_degree=lambda p: p + 3).filter(lambda f: f.p <= 401))
@example(PolyModP.make(2, ()))
@example(PolyModP.make(401, ()))
@example(PolyModP.make(401, (0, 1)))  # x permutes: the whole loop
@example(PolyModP.make(401, (5, 0, 0, 1)))  # x^3 + 5, gcd(3, 400) > 1
@example(PolyModP.make(7, (0,) * 10 + (1,)))  # x^10: degree p + 3
@example(PolyModP.make(199, [1, 170, 11560, 393040, 6681680, 45435426]))
@settings(max_examples=80, deadline=None)
def test_hermite_loop_matches_the_convolve_and_fold_loop(f):
    assert hermite_check(f) == _convolve_fold_hermite_check(f)


@pytest.mark.parametrize("p", [2, 3, 7, 101])
def test_hermite_loop_on_python_ints(monkeypatch, p):
    # The loop on dtype object, as it runs past the int64 bound, gives the int64 loop's answers.
    polys = [PolyModP.make(p, ()), PolyModP.make(p, (0, 1)), mono(p, 3, p - 1), PolyModP.make(p, range(1, p + 4))]
    want = [hermite_check(f) for f in polys]
    monkeypatch.setattr(permpoly, "_dtype", lambda p, terms=1: object)
    assert [hermite_check(f) for f in polys] == want


@pytest.mark.parametrize("degree", [0, 1, 5, 400])
def test_hermite_loop_picks_its_dtype_at_the_int64_bound(monkeypatch, degree):
    # A folded coefficient adds two convolution sums of at most d + 1 residue
    # products each: the loop asks for 2·(d + 1) terms, which fit int64 up to
    # the largest p with 2·(d + 1)·p^2 < 2^63, and hold Python ints past it.
    asked = []

    def spy(p, terms=1):
        asked.append(terms)
        return _dtype(p, terms)

    monkeypatch.setattr(permpoly, "_dtype", spy)
    hermite_check(PolyModP.make(401, [1] * (degree + 1)))
    assert asked[-1] == 2 * (degree + 1)
    terms = 2 * (degree + 1)
    bound = math.isqrt((2 ** 63 - 1) // terms)
    below, above = _prime_from(bound, -1), _prime_from(bound + 1, 1)
    assert _dtype(below, terms) is np.int64 and terms * (below - 1) ** 2 < 2 ** 63
    assert _dtype(above, terms) is object and terms * (above - 1) ** 2 > 2 ** 63 - 1


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(lambda: parse_int_polynomial("x+"), PolynomialSyntaxError, "cannot tokenize 'x+'",
                     id="parse_int_polynomial"),
    ],
)
def test_input_checks(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()
