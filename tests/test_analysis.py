"""Tests for the additive analysis toolbox."""

import math
from fractions import Fraction
from itertools import combinations

import pytest

from linset.analysis import (
    density_profile,
    dplus,
    freiman_doubling_check,
    gap_bound_check,
    iterated_sumset,
    kneser_dichotomy,
    stability_time,
    stability_time_bounds,
)
from linset.epset import EPSet, InputError


def test_freiman_examples():
    assert freiman_doubling_check([0, 1, 3]) == (6, 6, True)
    assert freiman_doubling_check([0, 1]) == (3, 3, True)
    for k in range(2, 11):
        lhs, rhs, ok = freiman_doubling_check(range(k))
        assert lhs == 2 * k - 1 and ok


def test_freiman_preconditions():
    with pytest.raises(ValueError):
        freiman_doubling_check([1, 2])
    with pytest.raises(ValueError):
        freiman_doubling_check([0, 2, 4])
    with pytest.raises(ValueError):
        freiman_doubling_check([0])


def test_freiman_exhaustive_small():
    # every admissible set with elements up to 14, via the reference path
    top = 14
    for size in range(2, 6):
        for rest in combinations(range(1, top + 1), size - 1):
            xs = (0,) + rest
            if math.gcd(*xs) != 1:
                continue
            lhs, rhs, ok = freiman_doubling_check(xs)
            assert ok, xs


def test_freiman_exhaustive_to_24_vectorized():
    # all 2^24 subsets of [0, 24] containing 0.  Sumsets come from the
    # doubling identity (X | {e}) + (X | {e}) = (X+X) | (X << e) | {2e}:
    # a table over the subsets of [0, 21], then one chunk per subset of
    # the top elements {22, 23, 24} on top of it
    import numpy as np

    top = 24
    low_top = 21
    n = 1 << low_top
    one = np.uint64(1)
    masks = np.arange(n, dtype=np.uint64) * np.uint64(2) + one
    sums = np.empty(n, dtype=np.uint64)
    sums[0] = one
    me = np.zeros(n, dtype=np.uint8)
    g = np.zeros(n, dtype=np.uint8)
    for e in range(1, low_top + 1):
        lo, hi = 1 << (e - 1), 1 << e
        # the subsets with largest element e are those below, plus e
        sums[lo:hi] = sums[:lo] | (masks[:lo] << np.uint64(e)) | (one << np.uint64(2 * e))
        me[lo:hi] = e
        g[lo:hi] = np.gcd(g[:lo], np.uint8(e))
    pc_low = np.bitwise_count(masks).astype(np.int64)
    checked = 0
    for chunk in range(1 << (top - low_top)):
        high = [low_top + 1 + j for j in range(top - low_top) if chunk >> j & 1]
        s, x = sums, masks
        for e in high:
            s = s | (x << np.uint64(e)) | (one << np.uint64(2 * e))
            x = x | (one << np.uint64(e))
        pc = pc_low + len(high)
        mx = high[-1] if high else me.astype(np.int64)
        gx = np.gcd(g, np.uint8(np.gcd.reduce(high))) if high else g
        pcs = np.bitwise_count(s).astype(np.int64)
        rhs = np.minimum(3 * pc - 3, pc + mx)
        admissible = (pc >= 2) & (gx == 1)
        assert np.all(pcs[admissible] >= rhs[admissible])
        checked += int(admissible.sum())
    assert checked == 16_772_858


def test_gap_bound_examples():
    x = EPSet(7, 0, -1, 0, 0, 0b0011111)  # residues 0..4 mod 7, density 5/7
    rep = gap_bound_check(x, 2, 1)
    assert rep.precondition_ok and rep.holds
    assert rep.gap_forward <= 2 and rep.gap_backward <= 2


def test_gap_bound_threshold_logic():
    x = EPSet.naturals()
    rep = gap_bound_check(x, 3, 1)
    assert rep.density == 1 and rep.precondition_ok
    assert rep.holds and rep.gap_forward == 1

    sparse = EPSet.half_line(0, 5, 0)
    rep = gap_bound_check(sparse, 2, 1, within=(0, 300))
    assert not rep.precondition_ok

    for a, b in ((1, 2), (2, 0)):
        with pytest.raises(InputError, match="^need a >= b >= 1$"):
            gap_bound_check(x, a, b)


def test_kneser_examples():
    x = EPSet.half_line(0, 3, 0)   # 3N
    rep = kneser_dichotomy(x, 2)
    assert rep.branch == 2
    assert rep.modulus == 3
    assert rep.closure == x
    assert rep.density_inequality and rep.verified

    rep = kneser_dichotomy(EPSet.naturals(), 2)
    assert rep.branch == 2 and rep.modulus == 1 and rep.verified

    x = EPSet(5, 0, -1, 0, 0, 0b00011)  # {0,1} + 5N
    rep = kneser_dichotomy(x, 3)
    assert rep.verified

    for s in (EPSet.integers(), EPSet.from_iterable([-1, 2])):
        with pytest.raises(InputError, match="^the dichotomy applies to sets of nonnegative"):
            kneser_dichotomy(s, 2)
    with pytest.raises(InputError, match="^positive lower density required$"):
        kneser_dichotomy(EPSet.from_iterable([0, 2]), 2)


def test_kneser_branch_one():
    # a thin AP grows linearly under folding: branch 1 fires
    x = EPSet.half_line(1, 9, 1)
    rep = kneser_dichotomy(x, 2)
    assert rep.branch in (1, 2) and rep.verified


def test_kneser_always_verified_on_fixtures():
    fixtures = [
        EPSet.half_line(0, 2, 0),
        EPSet.half_line(1, 3, 1),
        EPSet(6, 0, -1, 0, 0, 0b000111),
        EPSet.naturals(),
        EPSet.from_iterable([0, 1, 5]).union(EPSet.half_line(2, 7, 9)),
    ]
    for x in fixtures:
        for k in (2, 3, 4):
            assert kneser_dichotomy(x, k).verified, (x, k)


def test_kneser_always_verified_randomized():
    import random
    from conftest import random_epset

    rng = random.Random(5150)
    checked = 0
    while checked < 150:
        s = random_epset(rng, max_period=9, span=14).restrict_nonnegative()
        if not s.pos_tail:
            continue
        for k in (2, 3):
            assert kneser_dichotomy(s, k).verified, (s.to_expr(), k)
            checked += 1


def test_orbit_divisibility_gated_claim_small_groups():
    from linset.residue import ResidueSet, residue_orbit

    for g in range(1, 7):
        for a, b in ((1, 1), (2, 1), (3, 2), (5, 1), (4, 3)):
            for mask in range(1, 1 << g):
                orb = residue_orbit(ResidueSet.from_mask(g, mask), a, b)
                if orb.order_divisibility is not None:
                    assert orb.order_divisibility, (g, a, b, mask)


def test_dplus_examples():
    a = EPSet.half_line(1, 2, 1)
    d = dplus(a)
    assert d == EPSet.half_line(0, 2, 0)
    t, its = stability_time(a)
    assert t == 1

    a = EPSet.half_line(0, 2, 0)
    assert dplus(a) == a
    assert stability_time(a)[0] == 0


def test_dplus_dense_sets_collapse():
    # density above 1/2 forces D+ = N in one step
    a = EPSet(3, 0, -1, 0, 0, 0b011)  # {0,1} + 3N, density 2/3
    d = dplus(a)
    assert d == EPSet.naturals()
    assert stability_time(a)[0] <= 1


def test_dplus_properties():
    fixtures = [EPSet.half_line(2, 5, 2), EPSet.from_iterable([0, 3, 7]),
                EPSet(4, 0, -1, 0, 0, 0b1001)]
    for a in fixtures:
        d = dplus(a)
        assert d.min_element() is not None and d.min_element() >= 0
        assert 0 in d
        assert d.subset_of(EPSet.naturals())
    # monotone in the input
    small = EPSet.half_line(0, 6, 0)
    big = small.union(EPSet.from_iterable([1]))
    assert dplus(small).subset_of(dplus(big))


def test_dplus_rejects_negative_sets():
    with pytest.raises(ValueError):
        dplus(EPSet.from_iterable([-1, 2]))


def test_stability_bounds():
    st, rz = stability_time_bounds(Fraction(1, 2))
    assert st == 2 and rz == 2
    st, rz = stability_time_bounds(Fraction(1, 4))
    assert st == 4 and abs(rz - (2 + math.log2(3))) < 1e-12
    with pytest.raises(ValueError):
        stability_time_bounds(Fraction(3, 5))


def test_empirical_stability_meets_bounds():
    for r, g in ((1, 2), (1, 3), (1, 5), (1, 10)):
        a = EPSet(g, 0, -1, 0, 0, (1 << r) - 1)
        t, _ = stability_time(a)
        st, rz = stability_time_bounds(Fraction(r, g))
        assert t <= rz <= st


def test_density_profile():
    rep = density_profile([1, 2, 4, 8, 16], [2, 4, 8, 16])
    assert rep.profile[0] == (2, Fraction(2, 2))
    assert rep.sup_profile[-1][1] == Fraction(1)
    assert all(0 <= v <= 1 for _, v in rep.profile)


@pytest.mark.parametrize("ns", [[0, 5], [-3], [4, 2, -1]])
def test_density_profile_refuses_a_sample_point_below_1(ns):
    # a sample point 0 divided by zero
    with pytest.raises(InputError, match="sample point -?\\d+ is below 1"):
        density_profile([1, 2, 3], ns)


def test_iterated_sumset():
    x = EPSet.from_iterable([0, 1])
    assert iterated_sumset(x, 3) == EPSet.from_iterable([0, 1, 2, 3])
    with pytest.raises(ValueError):
        iterated_sumset(x, 0)
