"""Unit and property tests for the eventually periodic set algebra."""

import math
import random
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from conftest import allocates_below, epsets, random_epset
from linset._bits import _periodic_fill
from linset.epset import (DEFAULT_WINDOW_CAP, EPSet, InputError, WindowCapExceeded, _dilated,
                          _minkowski, _negated, set_window_cap, window_cap)

R = 200  # comparison radius for oracle checks


def check_oracle(result, expected_bitmap):
    assert oracle.agrees(result, expected_bitmap, R)


# -- canonical form ----------------------------------------------------------

def test_redundant_modulus_halves():
    s = EPSet(4, 0, -1, 0, 0b0101, 0b0101)
    assert s.period == 2
    assert s.pos_tail == 0b1 and s.neg_tail == 0b1


def test_window_absorbed_into_tail():
    # bits 1010 on [0,3] followed by the even numbers: window collapses
    s = EPSet(2, 0, 3, 0b0101, 0, 0b01)
    raw = EPSet(2, 0, 3, 0b0101, 0, 0b01)
    for x in range(-8, 9):
        assert (x in s) == (x % 2 == 0 and x >= 0)
        assert (x in raw) == oracle.member(raw, x)
    assert (s.lo, s.hi, s.window) == (0, -1, 0)


def test_empty_set_canonical():
    assert EPSet(6, 3, 5, 0, 0, 0) == EPSet.empty()
    assert EPSet.from_iterable([]) == EPSet.empty()
    assert EPSet.from_iterable(np.array([], dtype=np.int64)) == EPSet.empty()
    assert EPSet.empty().is_empty()


def test_full_set_canonical():
    s = EPSet(3, -2, 2, 0b11111, 0b111, 0b111)
    assert s == EPSet.integers()
    assert s.period == 1 and s.window == 0


def test_membership_examples():
    a = EPSet.half_line(1, 3, 1)
    assert 7 in a
    assert -2 not in a
    g1 = a.dilate(3).minkowski(a.negate())
    assert -4 in g1  # witness 3*(1+0) - (1+3*2)


@given(epsets())
@settings(max_examples=200, deadline=None)
def test_canonical_is_representation_independent(s):
    # re-encode the same set with a doubled modulus and a padded window
    g2 = s.period * 2
    lo2, hi2 = s.lo - 5, s.hi + 5
    window2 = s.membership_mask(lo2, hi2)
    neg2 = s.neg_tail | (s.neg_tail << s.period)
    pos2 = s.pos_tail | (s.pos_tail << s.period)
    assert EPSet(g2, lo2, hi2, window2, neg2, pos2) == s


@given(epsets())
@settings(max_examples=200, deadline=None)
def test_canonical_window_is_tight(s):
    if s.window:
        width = s.hi - s.lo + 1
        low_ok = (s.window & 1) != ((s.neg_tail >> (s.lo % s.period)) & 1)
        high_ok = ((s.window >> (width - 1)) & 1) != ((s.pos_tail >> (s.hi % s.period)) & 1)
        assert low_ok and high_ok


# periods up to 200 with many divisors, so tails often repeat within one
RICH_PERIODS = (1, 2, 4, 6, 12, 24, 36, 48, 60, 72, 96, 120, 144, 180, 192, 200)


@st.composite
def raw_forms(draw):
    """A raw representation (period, lo, hi, window, neg_tail, pos_tail):
    tails that may repeat within a divisor of the period, a window that is
    empty, keeps the lower rule, the upper rule, both or neither, and may
    then have one bit flipped."""
    g = draw(st.one_of(st.sampled_from(RICH_PERIODS), st.integers(1, 200)))
    divisors = [e for e in range(1, g + 1) if g % e == 0]

    def tail():
        d = draw(st.sampled_from(divisors))
        return _periodic_fill(draw(st.integers(0, (1 << d) - 1)), d, 0, g)
    neg = tail()
    kind = draw(st.sampled_from(("neg", "pos", "both", "neither")))
    pos = neg if kind == "both" or draw(st.integers(0, 3)) == 0 else tail()
    lo = draw(st.integers(-3 * g - 40, 3 * g + 40))
    width = draw(st.one_of(st.just(0), st.integers(0, 3 * g + 4)))
    if kind == "neither":
        window = draw(st.integers(0, (1 << width) - 1))
    else:
        window = _periodic_fill(pos if kind == "pos" else neg, g, lo, width)
    if width and draw(st.booleans()):
        window ^= 1 << draw(st.integers(0, width - 1))
    return g, lo, lo + width - 1, window, neg, pos


def rule_bit(tail, x, d):
    return (tail >> (x % d)) & 1


@given(raw_forms())
@example((5, 0, -1, 0, 0b00000, 0b00001))    # half_line(0, 5, 0)
@example((5, 1, 0, 0, 0b00001, 0b00000))     # half_line_down(0, 5, 0)
@example((12, -7, -2, 0b100100, 0b001001001001, 0b000010000010))
@settings(max_examples=500, deadline=None)
def test_canonical_form_matches_reference(raw):
    s = EPSet(*raw)
    key = s._key()
    assert key == oracle.canonical_key(*raw)
    assert EPSet(*key)._key() == key

    g, lo, hi = raw[:3]
    d = s.period
    assert g % d == 0
    # the same set: both follow tail rules of periods dividing g past the
    # checked range, which reaches two periods beyond both windows
    a, b = min(lo, s.lo) - 2 * g, max(hi, s.hi) + 2 * g
    given_form = SimpleNamespace(period=g, lo=lo, hi=hi, window=raw[3],
                                 neg_tail=raw[4], pos_tail=raw[5])
    assert s.membership_mask(a, b) == oracle.bitmap(given_form, a, b)
    # the period is minimal: every proper divisor breaks one tail
    for e in range(1, d):
        if d % e == 0:
            assert any(rule_bit(t, r, d) != rule_bit(t, r + e, d)
                       for t in (s.neg_tail, s.pos_tail) for r in range(d))
    # each window end breaks its adjacent tail rule; an empty window sits
    # where the rules split, and a fully periodic set has none
    if s.lo <= s.hi:
        assert oracle.member(s, s.lo) != rule_bit(s.neg_tail, s.lo, d)
        assert oracle.member(s, s.hi) != rule_bit(s.pos_tail, s.hi, d)
    elif s.neg_tail != s.pos_tail:
        assert rule_bit(s.neg_tail, s.lo, d) != rule_bit(s.pos_tail, s.lo, d)
    else:
        assert (s.lo, s.hi, s.window) == (0, -1, 0)


def test_half_lines_at_default_cap():
    # the split point of the tail rules lies a whole period from the start
    old = window_cap()
    set_window_cap(DEFAULT_WINDOW_CAP)
    try:
        g = window_cap()
        assert EPSet.half_line(0, g, 0)._key() == (g, 0, -1, 0, 0, 1)
        assert EPSet.half_line_down(0, g, 0)._key() == (g, g, g - 1, 0, 1, 0)
    finally:
        set_window_cap(old)


def test_half_line_of_highly_composite_period():
    # 720720 has 240 divisors; the period is kept whole all the same
    assert EPSet.half_line(0, 720720, 0)._key() == (720720, 0, -1, 0, 0, 1)


def test_window_end_is_part_of_identity():
    # a canonical window whose top bits are 0 under a pos rule of 1
    z_minus_0 = EPSet(1, 0, 0, 0, 1, 1)
    assert z_minus_0 != EPSet.integers() and 0 not in z_minus_0
    assert z_minus_0.to_expr() == "U(AP-(-1,1,-1),AP+(1,1,1))"
    z_minus_02 = EPSet(1, 0, 2, 0b010, 1, 1)
    z_minus_023 = EPSet(1, 0, 3, 0b0010, 1, 1)
    assert z_minus_02 != z_minus_023
    assert len({z_minus_02, z_minus_023, z_minus_0, EPSet.integers()}) == 4


@st.composite
def near_pairs(draw):
    """A set and a re-encoding of it, with a larger modulus and a padded
    window, in which one window point may be flipped."""
    s = draw(epsets())
    g = s.period * draw(st.integers(1, 3))
    lo = s.lo - draw(st.integers(0, 2 * g))
    hi = s.hi + draw(st.integers(0, 2 * g))
    window = s.membership_mask(lo, hi)
    if hi >= lo and draw(st.booleans()):
        window ^= 1 << draw(st.integers(0, hi - lo))
    neg = _periodic_fill(s.neg_tail, s.period, 0, g)
    pos = _periodic_fill(s.pos_tail, s.period, 0, g)
    return s, EPSet(g, lo, hi, window, neg, pos)


def same_members(s, t):
    """Membership agrees on a range reaching one lcm of the periods past
    both windows, so it agrees everywhere."""
    m = math.lcm(s.period, t.period)
    lo, hi = min(s.lo, t.lo) - m, max(s.hi, t.hi) + m
    return s.membership_mask(lo, hi) == t.membership_mask(lo, hi)


@given(st.one_of(near_pairs(), st.tuples(epsets(), epsets())))
@example((EPSet.integers(), EPSet(1, 0, 0, 0, 1, 1)))
@settings(max_examples=300, deadline=None)
def test_equality_is_membership(pair):
    s, t = pair
    assert (s == t) == same_members(s, t)
    if s == t:
        assert hash(s) == hash(t) and s.to_expr() == t.to_expr()


# -- single operations against the oracle ------------------------------------

def test_dilate_examples():
    s = EPSet.half_line(1, 2, 1).dilate(3)
    assert s == EPSet.half_line(3, 6, 3)
    assert EPSet.half_line(1, 3, 1).dilate(-1) == EPSet.half_line_down(-1, 3, -1)
    assert EPSet.integers().dilate(2) == EPSet.residue_class(0, 2)


def test_dilate_zero_rejected():
    with pytest.raises(ValueError):
        EPSet.naturals().dilate(0)


def test_minkowski_examples():
    up = EPSet.half_line(0, 2, 0)       # 0, 2, 4, ...
    down = EPSet.half_line_down(0, 3, 0)  # 0, -3, -6, ...
    assert up.minkowski(down) == EPSet.integers()

    assert (EPSet.from_iterable([0, 1]).minkowski(EPSet.from_iterable([0, 2]))
            == EPSet.from_iterable([0, 1, 2, 3]))

    a = EPSet.half_line(1, 3, 1)
    assert a.minkowski(a) == EPSet.half_line(2, 3, 2)


def test_minkowski_with_empty():
    assert EPSet.naturals().minkowski(EPSet.empty()) == EPSet.empty()


def test_negate_union_restrict_examples():
    assert EPSet.residue_class(0, 2).union(EPSet.residue_class(1, 2)) == EPSet.integers()
    assert EPSet.integers().restrict_nonnegative() == EPSet.naturals()
    rng = random.Random(7)
    for _ in range(100):
        s = random_epset(rng)
        assert s.negate().negate() == s


def test_operators_are_their_methods():
    s = EPSet.half_line(1, 3, 1)
    t = EPSet.from_iterable([0, 5])
    assert -s == s.negate() != s
    assert s | t == s.union(t) != s
    # a non-EPSet operand gives NotImplemented, so Python raises TypeError
    for apply in (lambda: s + 1, lambda: s - 1):
        with pytest.raises(TypeError):
            apply()
    assert (s == 1) is False


def test_density_and_gap_examples():
    assert EPSet.half_line(1, 3, 1).upper_density() == Fraction(1, 3)
    s = EPSet(7, 0, -1, 0, 0, 0b0011111)
    assert s.upper_density() == Fraction(5, 7)
    assert EPSet.half_line(0, 2, 0).max_gap() == 2
    assert EPSet.from_iterable([0, 1]).max_gap() == math.inf


@given(epsets(), epsets())
@settings(max_examples=120, deadline=None)
def test_minkowski_matches_oracle(s, t):
    expected = oracle.sum_bitmap(s, t, R)
    r = s.minkowski(t)
    check_oracle(r, expected)
    assert math.lcm(s.period, t.period) % r.period == 0


@given(epsets())
@settings(max_examples=120, deadline=None)
def test_unary_ops_match_oracle(s):
    check_oracle(s.negate(), oracle.negate_bitmap(s, R))
    check_oracle(s.translate(13), oracle.translate_bitmap(s, 13, R))
    check_oracle(s.translate(-7), oracle.translate_bitmap(s, -7, R))
    check_oracle(s.restrict_nonnegative(), oracle.restrict_nonnegative_bitmap(s, R))
    for n in (2, 3, -2):
        check_oracle(s.dilate(n), oracle.dilate_bitmap(s, n, R))


# -- raw operands ----------------------------------------------------------------

def capped(make, cap):
    """make() under the window cap ``cap``: its value, or the size of the
    window that it was refused."""
    old = window_cap()
    try:
        set_window_cap(cap)
        return make()
    except WindowCapExceeded as e:
        return "refused", e.requested
    finally:
        set_window_cap(old)


@given(epsets(), st.sampled_from([1, 2, 3, 5, -1, -2, -3, -5]), st.integers(0, 160))
@example(EPSet.half_line(0, 2, 0), -3, 200)     # its negated key is not canonical
@example(EPSet.from_iterable([0, 40]), 4, 100)  # the window span is refused
@settings(max_examples=300, deadline=None)
def test_dilated_matches_replaced_dilate(s, n, spare):
    # the same value, or the same refusal, as the canonical EPSet.dilate,
    # under a cap that s itself fits
    cap = max(s.period, s.hi - s.lo + 1) + spare
    got = capped(lambda: _dilated(s._key(), n), cap)
    if got[0] != "refused":
        got = EPSet(*got)
    assert got == capped(lambda: oracle.dilate(s, n), cap)
    assert got == capped(lambda: s.dilate(n), cap)


def piece(p):
    """A raw piece with the field names that the oracles read."""
    return SimpleNamespace(period=p[0], lo=p[1], hi=p[2], window=p[3], neg_tail=p[4],
                           pos_tail=p[5])


finite_sets = st.lists(st.integers(-12, 12), min_size=1, max_size=6).map(EPSet.from_iterable)


@given(st.one_of(epsets(max_period=6, span=12), finite_sets),
       st.one_of(epsets(max_period=6, span=12), finite_sets),
       st.sampled_from([1, 2, 3, -1, -2]), st.sampled_from([1, 2, 3, -1, -3]))
@example(EPSet.half_line(0, 2, 0), EPSet.from_iterable([1, 5]), -1, 2)
@example(EPSet.half_line(1, 4, 3), EPSet.half_line_down(0, 6, -2), -2, -3)
@settings(max_examples=200, deadline=None)
def test_minkowski_of_raw_pieces(s, t, n, m):
    # dilated keys have period n * g, a finite operand's has period n, and a
    # negated key need not be canonical
    p, q = _dilated(s._key(), n), _dilated(t._key(), m)
    got = _minkowski(p, q)
    check_oracle(got, oracle.sum_bitmap(piece(p), piece(q), R))
    assert got == oracle.dilate(s, n).minkowski(oracle.dilate(t, m))
    assert _minkowski(s._key(), _negated(t._key())) == s - t == s + t.negate()


@given(epsets(), epsets(), epsets())
@settings(max_examples=120, deadline=None)
def test_union_matches_oracle(s, t, u):
    check_oracle(s.union(t), oracle.union_bitmap(s, t, R))
    check_oracle(s.union(t, u), oracle.union_bitmap(s, t, R) | oracle.bitmap(u, -R, R))
    assert s.union() == s


@given(epsets(), epsets())
@settings(max_examples=100, deadline=None)
def test_minkowski_commutative(s, t):
    assert s.minkowski(t) == t.minkowski(s)


@given(epsets(max_period=6, span=10), epsets(max_period=6, span=10),
       epsets(max_period=6, span=10))
@settings(max_examples=60, deadline=None)
def test_minkowski_associative(s, t, u):
    assert s.minkowski(t).minkowski(u) == s.minkowski(t.minkowski(u))


@given(epsets())
@settings(max_examples=100, deadline=None)
def test_density_scales_under_dilation(s):
    for n in (2, 3, 5):
        assert s.dilate(n).upper_density() == s.upper_density() / n


@given(epsets(), epsets())
@settings(max_examples=100, deadline=None)
def test_cross_tails_produce_full_classes(s, t):
    # Opposite tails always contribute complete two-sided residue classes.
    if s.pos_tail and t.neg_tail:
        r = s.minkowski(t)
        d = math.gcd(s.period, t.period)
        for p in range(s.period):
            if not (s.pos_tail >> p) & 1:
                continue
            for n in range(t.period):
                if (t.neg_tail >> n) & 1:
                    assert EPSet.residue_class(p + n, d).subset_of(r)


@given(epsets(), epsets())
@settings(max_examples=100, deadline=None)
def test_pure_opposite_tails_sum_fully_periodic(s, t):
    up = EPSet(s.period, 0, -1, 0, 0, s.pos_tail)
    down = EPSet(t.period, 0, -1, 0, t.neg_tail, 0)
    if up.is_empty() or down.is_empty():
        return
    r = up.minkowski(down)
    assert r == r.translate(r.period)
    assert r.is_fully_periodic()


@given(epsets(max_period=30, span=16, tail_bits=3), epsets(max_period=30, span=16, tail_bits=3))
@example(EPSet.from_iterable([1]).union(EPSet.half_line(0, 6, 0)),
         EPSet(4, 0, -1, 0, 0b0011, 0b0100))                 # full cover mod 2
@example(EPSet(6, -2, 1, 0b1011, 0b000001, 0b000011),
         EPSet(6, 3, 5, 0b101, 0b000001, 0b000001))         # both tail+tail pieces covered
# tails only: the cross piece covers {0, 3} mod 4, the down+down piece
# reaches the uncovered class 1
@example(EPSet(4, 0, -1, 0, 0b0010, 0b0001), EPSet(4, 0, -1, 0, 0b1001, 0))
@example(EPSet.from_iterable([0, 2]).union(EPSet.half_line(1, 5, 3)),
         EPSet.half_line(2, 7, 0))                            # no opposite tails
@settings(max_examples=300, deadline=None)
def test_class_cover_matches_full_path(s, t):
    # the cross pieces decide first: Z on a full cover, and tail+tail pieces
    # inside a partial cover are skipped; the result is the full path's
    r = s.minkowski(t)
    assert r._key() == oracle.minkowski_key(s, t)
    check_oracle(r, oracle.sum_bitmap(s, t, R))


def test_covered_tail_pieces_build_no_window():
    # both tail+tail pieces of 5X - 4X lie in the classes of the cross
    # pieces; built in full, the up+up frame asks for 1,679,999 positions
    m = 40000
    x = EPSet.residue_class(0, m).union(EPSet.residue_class(1, m), EPSet.residue_class(7, m))
    want = EPSet.residue_class(0, m).union(*(EPSet.residue_class(r, m) for r in (
        1, 5, 7, 31, 35, 39972, 39977, 39996)))
    five, four = x.dilate(5), x.dilate(4)
    with allocates_below(1 << 19):
        assert five - four == want


def test_sum_needs_only_the_periods_of_its_pieces():
    # lcm(1025, 1024) = 1049600 passes the default cap of 2^20, but the up
    # tail plus the down tail is all of Z, and the other pieces need only 1025
    s = EPSet.half_line(0, 1025, 0)
    t = EPSet.from_iterable([5]).union(EPSet.half_line_down(0, 1024, 0))
    assert s.minkowski(t) == EPSet.integers()


# each would build a mask of 10^8 bits (12.5 MB) if the cap were checked late
@pytest.mark.parametrize("make", [
    lambda: EPSet.half_line(1, 2, 1).dilate(10 ** 8),
    lambda: EPSet.residue_class(10 ** 8 - 1, 10 ** 8),
    lambda: EPSet.half_line(10 ** 8 - 1, 10 ** 8, 0),
    lambda: EPSet.half_line_down(10 ** 8 - 1, 10 ** 8, 0),
], ids=["dilate", "residue_class", "half_line", "half_line_down"])
def test_cap_checked_before_large_masks(make):
    with allocates_below(1 << 20):
        with pytest.raises(WindowCapExceeded):
            make()


@pytest.mark.parametrize("key, message", [
    ((0, 0, -1, 0, 0, 0), "period must be a positive integer"),
    ((1, 2, 0, 0, 0, 0), "window bounds must satisfy lo <= hi \\+ 1"),
    ((1, 0, 1, 0b100, 0, 0), "window bits outside \\[lo, hi\\]"),
    ((2, 0, -1, 0, 0b100, 0), "tail residues outside \\[0, period\\)"),
], ids=["period", "bounds", "window", "tail"])
def test_constructor_refuses_a_malformed_representation(key, message):
    with pytest.raises(ValueError, match="^%s$" % message):
        EPSet(*key)


def test_constructor_refuses_a_period_past_the_cap():
    with pytest.raises(WindowCapExceeded) as err:
        EPSet(window_cap() + 1, 0, -1, 0, 1, 1)
    assert (err.value.requested, err.value.cap) == (window_cap() + 1, window_cap())


def test_set_window_cap_refuses_a_cap_below_1():
    old = window_cap()
    try:
        with pytest.raises(InputError, match="^window cap must be positive$"):
            set_window_cap(0)
        assert window_cap() == old
    finally:
        set_window_cap(old)


def test_window_cap_enforced():
    old = window_cap()
    try:
        set_window_cap(1000)
        big = EPSet.from_iterable([0, 600])
        with pytest.raises(WindowCapExceeded):
            big.minkowski(big)
    finally:
        set_window_cap(old)


@given(epsets(max_period=10))
@settings(max_examples=150, deadline=None)
def test_max_gap_matches_windowed_oracle(s):
    if s.is_empty():
        return
    g = s.max_gap()
    if g == math.inf:
        assert s.pos_tail == 0
        return
    els = s.elements_in(-800, 800)
    if len(els) >= 2:
        observed = max(b - a for a, b in zip(els, els[1:]))
        assert observed <= g
        # a wide enough window realizes the sup for two-sided sets
        if s.neg_tail and s.pos_tail:
            assert observed == g


@given(epsets(max_period=10))
@settings(max_examples=300, deadline=None)
@example(EPSet.half_line(2, 5, 2))
@example(EPSet.half_line_down(3, 7, -1))
def test_queries_match_membership(s):
    # the window lies in [-24, 48] and the period is at most 10, so [-B, B]
    # shows every element of a bounded side and two full periods of a tail
    B = 120
    xs = [x for x in range(-B, B + 1) if oracle.member(s, x)]
    below = any(oracle.member(s, x) for x in range(-B, -B + 10))
    above = any(oracle.member(s, x) for x in range(B - 10, B))
    assert s.min_element() == (None if below or not xs else xs[0])
    assert s.max_element() == (None if above or not xs else xs[-1])
    if not xs:
        with pytest.raises(ValueError):
            s.max_gap()
    else:
        gaps = [y - x for x, y in zip(xs, xs[1:])]
        assert s.max_gap() == (max(gaps) if above else math.inf)


@given(epsets())
@settings(max_examples=100, deadline=None)
def test_equal_sets_share_hash(s):
    twin = EPSet(s.period * 3, s.lo - 4, s.hi + 4,
                 s.membership_mask(s.lo - 4, s.hi + 4),
                 _tile(s.neg_tail, s.period, 3), _tile(s.pos_tail, s.period, 3))
    assert twin == s and hash(twin) == hash(s)


def test_one_bit_tails_hash_apart():
    # hash(int) is the int mod 2^61 - 1: without the tails' bit lengths
    # these 4099 sets share 61 hash values
    assert len({hash(EPSet.residue_class(r, 4099)) for r in range(4099)}) >= 4000


def _tile(mask, width, times):
    out = 0
    for i in range(times):
        out |= mask << (i * width)
    return out


def test_elements_and_bounds():
    s = EPSet.half_line(2, 5, 2)
    assert s.min_element() == 2
    assert s.max_element() is None
    assert s.elements_in(0, 20) == [2, 7, 12, 17]
    t = EPSet.from_iterable([-4, 1, 9])
    assert (t.min_element(), t.max_element()) == (-4, 9)
