"""IP-block construction: spacing, sparsity, residue coverage, both verifier halves."""
from __future__ import annotations

import re
from fractions import Fraction

import pytest

from conftest import evens, interval
from dynwindow import (
    IPBlockSchedule,
    banach_density_estimate,
    build_ip_block_sequence,
    default_t_sequence,
    finite_ip,
    verify_not_pws,
    verify_shifted_recurrence,
)


def test_default_t_sequence_prefix():
    assert default_t_sequence(9) == (1, 2, 1, 2, 3, 1, 2, 3, 4)
    assert default_t_sequence(12)[:12] == (1, 2, 1, 2, 3, 1, 2, 3, 4, 1, 2, 3)
    # every value <= 5 recurs within a long enough prefix
    prefix = default_t_sequence(100)
    for v in range(1, 6):
        assert prefix.count(v) >= 2


def test_schedule_validation():
    with pytest.raises(ValueError):
        IPBlockSchedule(t=(1, 2), k=(3, 3))  # counts not strictly increasing
    with pytest.raises(ValueError):
        IPBlockSchedule(t=(0,), k=(2,))  # shift below 1
    with pytest.raises(ValueError):
        IPBlockSchedule(t=(1,), k=(2,), generators=((1,),))  # size mismatch
    sched = IPBlockSchedule.default(30)
    assert sched.block_count == 30
    assert sched.k == tuple(range(2, 32))
    assert sched.uses_default_t


@pytest.mark.parametrize(
    "fields, message",
    [
        (dict(t=(), k=()), "need at least one block"),
        (dict(t=(1, 2), k=(2,)), "t and k must have equal length"),
        (dict(t=(1,), k=(2,), base=(3, 3)), "base must have one entry per block"),
        (dict(t=(1, 2), k=(2, 3), base=(None, 0)), "base values must be >= 1"),
        (dict(t=(1,), k=(2,), generators=()), "generators must have one multiset per block"),
        (dict(t=(1,), k=(2,), initial_gap=0), "initial_gap must be >= 1"),
    ],
)
def test_schedule_rejects_each_bad_field(fields, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        IPBlockSchedule(**fields)


def test_schedule_from_json():
    sched = IPBlockSchedule.from_json({"t": [1, 2, 3], "k": [2, 3, 4], "base": 23})
    assert sched.base == (23, 23, 23)
    assert not sched.uses_default_t  # (1, 2, 3) != (1, 2, 1)
    sched = IPBlockSchedule.from_json({"t": [1, 2], "k": [2, 3]})
    assert sched.base is None and sched.uses_default_t
    sched = IPBlockSchedule.from_json({"t": [1, 2], "k": [2, 3], "base": [None, 7]})
    assert sched.base == (None, 7)  # None derives that block's base from the origin


@pytest.mark.parametrize(
    "doc",
    [
        {"t": [1.7, 2], "k": [2, 3]},
        {"t": [1, 2], "k": [2, "3"]},
        {"t": [1, 2], "k": [2, 3], "base": 2.9},
        {"t": [1, 2], "k": [2, 3], "base": [None, 7.0]},
        {"t": [True], "k": [2]},
        {"t": [1], "k": [2], "initial_gap": "5"},
        {"t": "12", "k": [2, 3]},
    ],
)
def test_schedule_from_json_refuses_non_integers(doc):
    # t and k are arrays, and every t, k and base entry and initial_gap is a JSON integer; nothing is truncated.
    with pytest.raises(ValueError, match="schedule JSON"):
        IPBlockSchedule.from_json(doc)


def test_single_block_with_generator_one():
    sched = IPBlockSchedule(t=(1,), k=(1,), generators=((1,),))
    built = build_ip_block_sequence(sched)
    assert built.window.elements == (2,)  # FS({1}) + t_1 = {1} + 1
    assert built.window.horizon == 2


def test_two_blocks_replay_spacing_law():
    sched = IPBlockSchedule(t=(1, 2), k=(1, 2), generators=((1,), (1, 2)))
    built = build_ip_block_sequence(sched)
    first, second = built.blocks
    assert built.window.elements[:1] == (2,)
    # second block is finite_ip({1,2}) = {1,2,3} placed at origin + 2, min beyond 2
    assert second.lo > first.hi
    raw = finite_ip((1, 2))
    placed = tuple(second.offset + x for x in raw.elements)
    assert built.window.elements[1:] == placed
    assert built.spacing_law_holds()


def test_default_build_is_deterministic():
    a = build_ip_block_sequence(IPBlockSchedule.default(12))
    b = build_ip_block_sequence(IPBlockSchedule.default(12))
    assert a.window == b.window and a.blocks == b.blocks


def test_blocks_restrict_to_ip_set_plus_offset():
    built = build_ip_block_sequence(IPBlockSchedule.default(10))
    elems = built.window.elements
    for info in built.blocks:
        inside = tuple(e for e in elems if info.lo <= e <= info.hi)
        raw = finite_ip(info.generators)
        assert inside == tuple(info.offset + x for x in raw.elements)


def test_spacing_law_and_horizon():
    built = build_ip_block_sequence(IPBlockSchedule.default(30))
    assert built.spacing_law_holds()
    assert built.window.horizon == built.window.elements[-1]
    assert built.window.horizon >= 10 ** 5
    assert len(built.window) == sum(range(2, 32))


def test_pigeonhole_zero_element_per_modulus():
    # for every m <= 20 some block with more than m generators has a raw
    # subset sum divisible by m (partial sums collide mod m)
    built = build_ip_block_sequence(IPBlockSchedule.default(30))
    for m in range(1, 21):
        found = False
        for info in built.blocks:
            if len(info.generators) > m:
                raw = finite_ip(info.generators)
                if any(x % m == 0 for x in raw.elements):
                    found = True
                    break
        assert found, m


def test_banach_density_frozen_fixture():
    # derived once from the sliding-window oracle on the default schedule
    built = build_ip_block_sequence(IPBlockSchedule.default(30))
    density = banach_density_estimate(built.window, 1000)
    assert density == Fraction(1, 500)
    assert density < Fraction(1, 5)


def test_not_pws_default_holds_for_all_small_gaps():
    built = build_ip_block_sequence(IPBlockSchedule.default(30))
    for gap in range(1, 11):
        assert verify_not_pws(built, gap, 100).holds


def test_not_pws_failures():
    v = verify_not_pws(interval(0, 500), 10, 100)
    assert v.fails and v.witness == 0
    assert verify_not_pws(evens(500), 10, 100).fails


def test_shifted_recurrence_default_30_blocks():
    built = build_ip_block_sequence(IPBlockSchedule.default(30))
    assert verify_shifted_recurrence(built, 20, range(-10, 11)).holds


def test_shifted_recurrence_one_block_fails():
    built = build_ip_block_sequence(IPBlockSchedule.default(1))
    v = verify_shifted_recurrence(built, 5, range(0, 1))
    assert v.fails  # two elements cannot cover every class mod 5


def test_shifted_recurrence_evens_fail():
    v = verify_shifted_recurrence(evens(1000), 2, range(0, 1))
    assert v.fails


def test_custom_t_without_small_values_is_inconclusive():
    sched = IPBlockSchedule(t=(3, 3, 3), k=(2, 3, 4), base=(23, 23, 23))
    built = build_ip_block_sequence(sched)
    v = verify_shifted_recurrence(built, 5, range(-2, 3))
    assert v.inconclusive and "t-schedule" in v.note


def test_custom_t_covering_small_values_delegates():
    sched = IPBlockSchedule(t=(2, 1, 2, 1), k=(21, 22, 23, 24), base=(23, 23, 23, 23))
    built = build_ip_block_sequence(sched)
    assert not built.schedule.uses_default_t
    v = verify_shifted_recurrence(built, 2, range(-1, 2))
    assert v.holds


def test_derived_bases_are_coprime_to_small_primes():
    built = build_ip_block_sequence(IPBlockSchedule.default(25))
    for info in built.blocks:
        base = info.generators[0]
        assert all(base % q for q in (2, 3, 5, 7, 11, 13, 17, 19))
        assert all(g == base for g in info.generators)


def test_internal_gaps_exceed_ten():
    # consecutive elements within a block differ by the block base >= 23
    built = build_ip_block_sequence(IPBlockSchedule.default(30))
    elems = built.window.elements
    assert min(b - a for a, b in zip(elems, elems[1:])) >= 23


def test_finite_subcover_of_construction():
    from dynwindow import finite_subcover

    built = build_ip_block_sequence(IPBlockSchedule.default(30))
    b = finite_subcover(built.window, 6)
    assert len(b) == 6
    assert {e % 6 for e in b.elements} == set(range(6))
    assert set(b.elements) <= set(built.window.elements)
