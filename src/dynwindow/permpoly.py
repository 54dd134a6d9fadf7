"""Prime-field polynomial engine: permutation tests and non-surjective primes.

Two independent deciders for "does f permute F_p": the classical criterion on
reductions of powers of f mod (x^p - x), and the brute-force image.  The
brute check is the authoritative oracle; any disagreement raises instead of
silently preferring either side.  On top sits the search for a prime p at
which an integer polynomial of degree >= 2 misses a residue class entirely.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "PrimeField",
    "PolyModP",
    "NonSurjectiveResult",
    "OracleDisagreementError",
    "CapExceededError",
    "PolynomialSyntaxError",
    "is_prime",
    "hermite_check",
    "brute_permutation_check",
    "decide_permutation",
    "is_permutation",
    "find_non_surjective_prime",
    "parse_int_polynomial",
    "format_int_polynomial",
]


def is_prime(n: int) -> bool:
    """Deterministic trial division; ample at desk scale."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class OracleDisagreementError(AssertionError):
    """The criterion-based check and the brute-force oracle disagreed."""


class CapExceededError(RuntimeError):
    """No qualifying prime below the cap; the cap is too small, not the theory."""


class PolynomialSyntaxError(ValueError):
    pass


@dataclass(frozen=True)
class PrimeField:
    p: int

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")


@dataclass(frozen=True)
class PolyModP:
    """Polynomial over F_p; coeffs[i] is the coefficient of x^i, trimmed."""

    field: PrimeField
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        p = self.field.p
        if any(not 0 <= c < p for c in self.coeffs):
            raise ValueError("coefficients must be residues in [0, p)")
        if self.coeffs and self.coeffs[-1] == 0:
            raise ValueError("trailing zero coefficients must be trimmed")

    @classmethod
    def make(cls, p: int, coeffs: Sequence[int]) -> "PolyModP":
        field = p if isinstance(p, PrimeField) else PrimeField(p)
        reduced = [int(c) % field.p for c in coeffs]
        while reduced and reduced[-1] == 0:
            reduced.pop()
        return cls(field, tuple(reduced))

    @property
    def p(self) -> int:
        return self.field.p

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def evaluate(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % self.p
        return acc

    def __str__(self) -> str:
        return format_int_polynomial(self.coeffs)


def _dtype(p: int, terms: int = 1):
    # int64 while a sum of `terms` products of residues fits, terms·p^2 < 2^63 (a Horner
    # step is one term, so up to p ≈ 3.04·10^9); Python ints (object) beyond.
    return np.int64 if terms * p * p < 2 ** 63 else object


def _array(f: PolyModP) -> np.ndarray:
    return np.array(f.coeffs or (0,), dtype=_dtype(f.p))  # the zero polynomial is [0]


def _fold(coeffs: np.ndarray, p: int) -> np.ndarray:
    """Remainder mod (x^p - x) of a residue array, via exponent folding.

    x^p = x on F_p, so exponent e >= 1 folds to the unique r in [1, p-1]
    with r ≡ e (mod p-1); exponent 0 stays; colliding coefficients add.
    The result has degree <= p-1 and induces the same function on F_p.
    """
    if coeffs.size <= p:
        return coeffs
    rows = -(-(coeffs.size - 1) // (p - 1))  # exponents 1, 2, ... in rows of p - 1
    tail = np.zeros(rows * (p - 1), dtype=coeffs.dtype)
    tail[: coeffs.size - 1] = coeffs[1:]
    return np.concatenate((coeffs[:1], tail.reshape(-1, p - 1).sum(axis=0) % p))


def hermite_check(f: PolyModP) -> tuple[bool, dict]:
    """Permutation test via the criterion on reduced powers of f.

    f permutes F_p iff (1) reduce(f^(p-1)) is monic of degree p-1 and
    (2) for every k in [1, p-2] with k not divisible by p, reduce(f^k) has
    degree <= p-2.  Evidence names the failing k or the bad leading data.
    (The k-divisibility guard only bites over proper prime powers.)  As
    reduce(g·f) = reduce(g·reduce(f)), each power is one product with
    reduce(f): both factors have degree <= p-1, so the product's exponents
    p..2p-2 fold onto 1..p-1 by one shifted add before the single `% p`.
    The product is a correlation with reduce(f) reversed once, up front.
    """
    p = f.p
    base = _fold(_array(f), p)
    # A folded coefficient adds two sums of at most base.size residue products.
    reversed_base = np.ascontiguousarray(base[::-1], dtype=_dtype(p, 2 * base.size))
    g = np.ones(1, dtype=reversed_base.dtype)
    for k in range(1, p):
        g = np.correlate(g, reversed_base, "full")
        if g.size > p:
            g[1 : g.size - p + 1] += g[p:]
            g = g[:p]
        g %= p
        if k <= p - 2 and g.size == p and g[-1]:
            return False, {"reason": "power_degree_full", "k": k, "degree": p - 1}
    nonzero = np.flatnonzero(g)  # g = reduce(f^(p-1))
    degree = int(nonzero[-1]) if nonzero.size else -1
    leading = int(g[degree]) if degree >= 0 else 0
    if degree != p - 1 or leading != 1:
        return False, {"reason": "top_power_not_monic", "degree": degree, "leading": leading}
    return True, {"reason": "ok"}


def _image(hit: np.ndarray) -> np.ndarray:
    # The residues a hit mask marks, ascending, as a read-only int64 array.
    image = np.flatnonzero(hit)
    image.flags.writeable = False
    return image


def brute_permutation_check(f: PolyModP) -> tuple[bool, np.ndarray]:
    """Evaluate f at all p points; True iff the image has p distinct values.

    Always returns the image set (ascending, a read-only int64 array) — this is
    the authoritative oracle.
    """
    image = _image(_int_poly_image_mod_p(f.coeffs, f.p))
    return image.size == f.p, image


def decide_permutation(f: PolyModP) -> tuple[bool, dict, np.ndarray]:
    """Both deciders, compared: (verdict, evidence, image); raises OracleDisagreementError on mismatch."""
    via_criterion, evidence = hermite_check(f)
    via_brute, image = brute_permutation_check(f)
    if via_criterion != via_brute:
        raise OracleDisagreementError(
            f"permutation deciders disagree on {f} over F_{f.p}: "
            f"criterion={via_criterion} ({evidence}), brute={via_brute} (image {image!r})"
        )
    return via_brute, evidence, image


def is_permutation(f: PolyModP) -> bool:
    """Does f permute F_p?  Raises OracleDisagreementError if the deciders disagree."""
    return decide_permutation(f)[0]


@dataclass(frozen=True, eq=False)
class NonSurjectiveResult:
    """A prime p where the integer polynomial misses a residue class.

    ``image`` is the residues f hits, ascending, as a read-only int64 array;
    two results are equal when p, missing and the image's values are.
    """

    p: int
    missing: int
    image: np.ndarray

    def __eq__(self, other) -> bool:
        if not isinstance(other, NonSurjectiveResult):
            return NotImplemented
        return (self.p, self.missing) == (other.p, other.missing) and np.array_equal(self.image, other.image)

    def __hash__(self) -> int:
        return hash((self.p, self.missing, len(self.image)))  # equal images have equal sizes

    def to_json(self) -> dict:
        return {"p": self.p, "missing": self.missing, "image_size": len(self.image)}


def _int_poly_image_mod_p(coeffs: Sequence[int], p: int) -> np.ndarray:
    """Boolean mask of the residues hit by f over F_p: Horner's rule at all p points at once."""
    dtype = _dtype(p)
    x = np.arange(p, dtype=dtype)
    acc = np.full(p, coeffs[-1] % p if coeffs else 0, dtype=dtype)
    for c in reversed(coeffs[:-1]):  # in place: each step's temporaries cost more than its ops
        acc *= x
        acc += c % p
        np.remainder(acc, p, out=acc)
    hit = np.zeros(p, dtype=bool)
    hit[acc.astype(np.int64, copy=False)] = True
    return hit


def find_non_surjective_prime(coeffs: Sequence[int], prime_cap: int) -> NonSurjectiveResult:
    """First prime p ≡ 1 (mod deg f), p > |leading coeff|, where f misses a residue.

    coeffs are arbitrary-precision signed integers, ascending by exponent;
    degree must be >= 2.  Candidates are scanned in increasing order and each
    image is computed outright — the result is verified, never trusted.
    Raises CapExceededError when no candidate <= prime_cap qualifies (a
    too-small cap, not a counterexample).
    """
    trimmed = list(coeffs)
    while trimmed and trimmed[-1] == 0:
        trimmed.pop()
    degree = len(trimmed) - 1
    if degree < 2:
        raise ValueError(f"degree must be >= 2, got {degree}")
    lead = abs(trimmed[-1])
    if prime_cap < degree + 2:
        raise ValueError(f"prime_cap must be >= degree + 2 = {degree + 2}")
    p = max(degree + 1, lead + 1)
    p += (1 - p) % degree  # the first candidate p ≡ 1 (mod degree) above lead
    while p <= prime_cap:
        if is_prime(p):
            hit = _int_poly_image_mod_p(trimmed, p)
            if not hit.all():
                # argmin of a boolean mask is its first False: the least missing residue.
                return NonSurjectiveResult(p, int(np.argmin(hit)), _image(hit))
        p += degree
    raise CapExceededError(
        f"no prime p ≡ 1 (mod {degree}) with p > {lead} and a proper image found up to "
        f"{prime_cap}; raise the cap"
    )


_TERM_X = re.compile(r"([+-]?\d*)\*?x(?:\^(\d+))?\Z")
_TERM_CONST = re.compile(r"[+-]?\d+\Z")


def parse_int_polynomial(text: str) -> tuple[int, ...]:
    """Parse e.g. "x^2+3x+1" or "-2x^3 + 7" into ascending integer coefficients."""
    compact = text.replace(" ", "")
    if not compact:
        raise PolynomialSyntaxError("empty polynomial")
    terms = re.findall(r"[+-]?[^+-]+", compact)
    if "".join(terms) != compact:
        raise PolynomialSyntaxError(f"cannot tokenize {text!r}")
    coeffs: dict[int, int] = {}
    for term in terms:
        m = _TERM_X.match(term)
        if m:
            raw_c, raw_e = m.groups()
            if raw_c in ("", "+"):
                c = 1
            elif raw_c == "-":
                c = -1
            else:
                c = int(raw_c)
            e = int(raw_e) if raw_e else 1
        elif _TERM_CONST.match(term):
            c, e = int(term), 0
        else:
            raise PolynomialSyntaxError(f"bad term {term!r} in {text!r}")
        coeffs[e] = coeffs.get(e, 0) + c
    top = max(coeffs)
    out = [coeffs.get(e, 0) for e in range(top + 1)]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def format_int_polynomial(coeffs: Sequence[int]) -> str:
    parts = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            x = "x" if e == 1 else f"x^{e}"
            body = x if mag == 1 else f"{mag}{x}"
        parts.append(sign + body)
    return "".join(parts) if parts else "0"
