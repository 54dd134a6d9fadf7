"""Builder for the canonical sparse-but-recurrent block sequence.

The sequence is a union of finite IP blocks, block i shifted by t_i and by a
running origin that keeps blocks disjoint with doubling gaps.  The default
t-schedule is the enumeration (1, 2, 1, 2, 3, 1, 2, 3, 4, ...) in which every
value recurs; generator counts grow strictly, so the blocks' subset sums
eventually contain a multiple of every modulus (partial-sum pigeonhole).
Built right, the window hits every residue class mod every small m even
after shifting — yet no interval of moderate length is gap-syndetic, so the
piecewise-syndetic certificate search comes up empty.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .intsets import Verdict, Window, finite_ip, piecewise_syndetic_certificate
from .recurrence import _check_period_cap, _shift_family_cyclic

__all__ = [
    "IPBlockSchedule",
    "BlockInfo",
    "BuiltSequence",
    "default_t_sequence",
    "build_ip_block_sequence",
    "verify_not_pws",
    "verify_shifted_recurrence",
]

# 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19; derived bases are kept coprime to all of
# these so every block's progression sweeps full residue systems mod m <= 20.
_SMALL_PRIME_PRODUCT = 9699690

_DEFAULT_INITIAL_GAP = 2048


def default_t_sequence(count: int) -> tuple[int, ...]:
    """Prefix of (1, 2, 1, 2, 3, 1, 2, 3, 4, ...): every value recurs infinitely often."""
    out: list[int] = []
    run = 2
    while len(out) < count:
        out.extend(range(1, run + 1))
        run += 1
    return tuple(out[:count])


@dataclass(frozen=True)
class IPBlockSchedule:
    """Generator data for the block construction.

    t: per-block shifts; k: strictly increasing generator counts; base: an
    optional per-block generator value (block i is then the k_i-fold repeat
    of base_i — a finite IP set whose sums form a progression); None derives
    a base from the running origin at build time.
    """

    t: tuple[int, ...]
    k: tuple[int, ...]
    base: Optional[tuple[Optional[int], ...]] = None
    initial_gap: int = _DEFAULT_INITIAL_GAP

    def __post_init__(self) -> None:
        n = len(self.t)
        if n < 1:
            raise ValueError("need at least one block")
        if any(t < 1 for t in self.t):
            raise ValueError("shifts t_i must be >= 1")
        if len(self.k) != n:
            raise ValueError("t and k must have equal length")
        if any(b <= a for a, b in zip(self.k, self.k[1:])):
            raise ValueError("generator counts k must be strictly increasing")
        if self.base is not None:
            if len(self.base) != n:
                raise ValueError("base must have one entry per block")
            if any(b is not None and b < 1 for b in self.base):
                raise ValueError("base values must be >= 1")
        if self.initial_gap < 1:
            raise ValueError("initial_gap must be >= 1")

    @property
    def block_count(self) -> int:
        return len(self.t)

    @property
    def uses_default_t(self) -> bool:
        return self.t == default_t_sequence(self.block_count)

    @classmethod
    def default(cls, block_count: int) -> "IPBlockSchedule":
        return cls(t=default_t_sequence(block_count), k=tuple(range(2, block_count + 2)))

    @classmethod
    def from_json(cls, data: dict) -> "IPBlockSchedule":
        if not (isinstance(data, dict) and isinstance(data.get("t"), list) and isinstance(data.get("k"), list)):
            raise ValueError("schedule JSON needs 't' and 'k' arrays")
        t, k, base = tuple(data["t"]), tuple(data["k"]), data.get("base")
        if isinstance(base, list):
            base = tuple(base)
        elif base is not None:
            base = (base,) * len(t)
        gap = data.get("initial_gap", _DEFAULT_INITIAL_GAP)
        # Numbers are JSON integers (a base entry may be null): no float, string or bool is truncated.
        for v in (*t, *k, *(b for b in base or () if b is not None), gap):
            if type(v) is not int:
                raise ValueError(f"malformed schedule JSON: {v!r} is not an integer")
        return cls(t=t, k=k, base=base, initial_gap=gap)


@dataclass(frozen=True)
class BlockInfo:
    """Recorded per-block facts: replaying offset + finite_ip(generators) gives [lo, hi]."""

    index: int
    t: int
    offset: int
    generators: tuple[int, ...]
    lo: int
    hi: int


@dataclass(frozen=True)
class BuiltSequence:
    window: Window
    blocks: tuple[BlockInfo, ...]
    schedule: IPBlockSchedule

    def spacing_law_holds(self) -> bool:
        """max(block i) < min(block i+1), checked from the recorded boundaries."""
        return all(a.hi < b.lo for a, b in zip(self.blocks, self.blocks[1:]))


def _derive_base(origin: int) -> int:
    c = 4 * (origin + 1)
    while math.gcd(c, _SMALL_PRIME_PRODUCT) != 1:
        c += 1
    return c


def build_ip_block_sequence(schedule: IPBlockSchedule) -> BuiltSequence:
    """Assemble the union of shifted IP blocks under the schedule.

    Block i is finite_ip of its generator multiset, placed at origin + t_i;
    the next origin jumps past the block by a gap that doubles each time, so
    the spacing law holds and no fixed syndeticity certificate survives.
    """
    origin = 0
    gap = schedule.initial_gap
    elements: list[int] = []
    blocks: list[BlockInfo] = []
    for i in range(schedule.block_count):
        base = schedule.base[i] if schedule.base is not None else None
        if base is None:
            base = _derive_base(origin)
        gens = (base,) * schedule.k[i]
        raw = finite_ip(gens)
        offset = origin + schedule.t[i]
        block = [offset + x for x in raw.elements]
        if elements and block[0] <= elements[-1]:
            raise AssertionError("spacing law violated by construction")
        elements.extend(block)
        blocks.append(BlockInfo(i + 1, schedule.t[i], offset, gens, block[0], block[-1]))
        origin = block[-1] + gap
        gap *= 2
    window = Window(tuple(elements), elements[-1])
    return BuiltSequence(window, tuple(blocks), schedule)


def _to_window(seq: Union[Window, BuiltSequence]) -> Window:
    return seq.window if isinstance(seq, BuiltSequence) else seq


def verify_not_pws(seq: Union[Window, BuiltSequence], gap_bound: int, block_length: int) -> Verdict:
    """Window-consistent with NOT piecewise syndetic at these parameters.

    Negates the certificate search: Holds iff no interval of block_length in
    [0, horizon] is gap_bound-syndetic; Fails carries the certificate start.
    """
    w = _to_window(seq)
    cert = piecewise_syndetic_certificate(w, gap_bound, block_length)
    if cert.holds:
        return Verdict.fail(cert.witness, note=f"certificate interval starts at {cert.witness}")
    return Verdict.hold(
        note=f"no {gap_bound}-syndetic interval of length {block_length} up to horizon {w.horizon}"
    )


def verify_shifted_recurrence(
    seq: Union[Window, BuiltSequence], max_period: int, shift_range: Iterable[int]
) -> Verdict:
    """Residue coverage mod every m <= max_period, for every shifted copy.

    For a BuiltSequence with a custom t-schedule whose built prefix misses
    some value <= max_period, the answer is Inconclusive: the construction's
    recurrence argument needs each such shift value to occur.  A max_period
    past the cyclic family's cap raises ValueError before anything is read.
    """
    _check_period_cap(max_period)
    if isinstance(seq, BuiltSequence) and not seq.schedule.uses_default_t:
        present = set(seq.schedule.t)
        missing = [v for v in range(1, max_period + 1) if v not in present]
        if missing:
            return Verdict.undecided(
                note=(
                    f"custom t-schedule never uses shift value(s) {missing} <= {max_period}; "
                    "the window check would not be evidence for the construction"
                )
            )
    return _shift_family_cyclic(_to_window(seq), shift_range, max_period)
