"""Wide windows without per-element work: the first-of-class reduction of
window+tail Minkowski pieces, and window text and finite sets through
numpy index arrays, exact on both sides of the int64 boundary."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from conftest import allocates_below
from linset._bits import _first_of_class, _from_offsets, _members, _periodic_fill
from linset.cli import parse_set_expression
from linset.constructions import (TruncatedSet, bohr_truncation, finite_gamma,
                                  sqrt2_minus_one)
from linset.epset import EPSet, InputError, _negated, _sum_window_up
from linset.linops import LinearOp, apply_linear_op
from linset.residue import ResidueSet


# -- _first_of_class -----------------------------------------------------------

def sparse_masks(width):
    # a few members far apart, so a class's least member can lie many
    # periods below the next one
    return st.lists(st.integers(0, width - 1), max_size=6).map(
        lambda xs: sum(1 << x for x in set(xs)))


masks = st.integers(0, 600).flatmap(
    lambda w: st.one_of(st.integers(0, (1 << w) - 1), sparse_masks(w)) if w else st.just(0))


@settings(max_examples=400, deadline=None)
@given(masks, st.integers(1, 80))
@example(0, 1)
@example(0, 80)
@example((1 << 600) - 1, 1)
@example(1 | 1 << 599, 1)
@example(1 | 1 << 599, 7)
@example(0b1011, 80)          # m >= width: the mask itself
@example(1 << 79 | 1, 80)
def test_first_of_class_matches_loop(mask, m):
    got = _first_of_class(mask, m)
    assert got == oracle.first_of_class(mask, m)
    assert got.bit_count() <= m


# -- window+tail pieces on wide-window-shaped operands -------------------------

@st.composite
def wide_sets(draw):
    """A window 64-600 bits wide, a stride with a few holes or random bits,
    and a tail of period 1-8 with 1-3 classes, upward, downward or both."""
    width = draw(st.integers(64, 600))
    lo = draw(st.integers(-300, 300))
    rng = draw(st.randoms(use_true_random=False))
    if draw(st.booleans()):
        window = _periodic_fill(1, rng.randint(1, 4), 0, width)
        for hole in rng.sample(range(width), width // 50 + 1):
            window &= ~(1 << hole)
    else:
        window = rng.getrandbits(width)
    window |= 1 | 1 << (width - 1)
    g = draw(st.integers(1, 8))
    classes = st.lists(st.integers(0, g - 1), min_size=1, max_size=3).map(
        lambda rs: sum(1 << r for r in set(rs)))
    direction = draw(st.sampled_from(("up", "down", "both")))
    neg = draw(classes) if direction != "up" else 0
    pos = draw(classes) if direction != "down" else 0
    return EPSet(g, lo, lo + width - 1, window, neg, pos)


RADIUS = 2000


@settings(max_examples=60, deadline=None)
@given(wide_sets(), wide_sets())
def test_wide_minkowski_matches_oracle(s, t):
    r = s.minkowski(t)
    assert r.membership_mask(-RADIUS, RADIUS) == oracle.sum_bitmap(s, t, RADIUS)
    assert r._key() == oracle.minkowski_key(s, t)
    # each window+tail piece, upward and downward, equals the piece that
    # convolved every window bit with the tail
    for a, b in ((s._key(), t._key()), (_negated(s._key()), _negated(t._key()))):
        for x, y in ((a, b), (b, a)):
            if x[3] and y[5]:
                assert _sum_window_up(x, y) == oracle.sum_window_up(x, y)


# -- aS - bS and S - T on dense windows, end to end ----------------------------

def dense_window_set(width, stride, lo, tails, seed):
    """A window ``width`` bits wide from ``lo``, on a progression of
    ``stride`` with a few holes (so every kernel takes its bulk path), and
    with ``tails`` an upward and a downward tail of period 6.  Neither tail
    holds the class of the window's end next to it, so the canonical window
    keeps its width."""
    rng = random.Random(seed)
    window = _periodic_fill(1, stride, 0, width)
    for hole in rng.sample(range(0, width - 1, stride), 5):
        window &= ~(1 << hole)
    window |= 1 | 1 << (width - 1)
    hi = lo + width - 1
    neg = 1 << (lo - 1) % 6 | 1 << (lo - 2) % 6 if tails else 0
    pos = 1 << (hi + 1) % 6 | 1 << (hi + 3) % 6 if tails else 0
    return EPSet(6, lo, hi, window, neg, pos)


# widths 300-700 that cover every residue mod 8, each with a stride 1-4 and
# a lo from -1 to -400; the stride-1 windows and the differences of the
# 699-wide one on stride 2 pass the FFT cutoff, the latter on a lattice of 2
WIDE_CASES = [(300 + 57 * r, 1 + (r + 2) % 4, -1 - 57 * r) for r in range(8)]


@pytest.mark.parametrize("tails", [False, True])
@pytest.mark.parametrize("width, stride, lo", WIDE_CASES)
def test_dense_windows_match_oracle(width, stride, lo, tails):
    s = dense_window_set(width, stride, lo, tails, width)
    assert (s.lo, s.hi) == (lo, lo + width - 1)
    radius = 4 * (width - lo) + 40
    for a, b in ((2, 1), (3, 1), (3, 2), (4, 3)):
        r = apply_linear_op(LinearOp(a, b), s)
        assert oracle.agrees(r, oracle.gamma_bitmap(s, a, b, radius), radius), (a, b)
        assert parse_set_expression(r.to_expr()) == r
    t = dense_window_set(width - 37, 4 - stride % 4, lo // 2, not tails, width + 1)
    for x, y in ((s, t), (t, s), (s, s)):
        r = x - y
        assert oracle.agrees(r, oracle.difference_bitmap(x, y, radius), radius)
        assert parse_set_expression(r.to_expr()) == r


# -- index arrays at the int64 boundary ----------------------------------------

BASES = [0, -300, 2 ** 62 - 700, 2 ** 62 - 600, -(2 ** 62) - 5, 2 ** 63 - 300, -(2 ** 63),
         2 ** 63 + 11, 10 ** 30, -(10 ** 30)]


@pytest.mark.parametrize("base", BASES)
def test_window_text_round_trips_past_int64(base):
    rng = random.Random(base)
    # wide and dense enough for the index-array path: 600 wide, ~200 members
    xs = sorted({base + i for i in range(600) if rng.random() < 0.35} | {base, base + 599})
    s = EPSet.from_iterable(reversed(xs))
    assert (s.lo, s.hi, s.period) == (base, base + 599, 1)
    assert s.window == sum(1 << (x - base) for x in xs)
    assert s.elements_in(base - 3, base + 602) == xs
    text = s.to_expr()
    assert text == "{%s}" % ",".join(map(str, xs))
    assert parse_set_expression(text) == s


@pytest.mark.parametrize("base", BASES)
def test_members_and_offsets_match_loops(base):
    rng = random.Random(base)
    for width, density in ((40, 0.5), (300, 0.05), (300, 0.6), (5000, 0.3)):
        mask = sum(1 << i for i in range(width) if rng.random() < density)
        want = [base + i for i in range(width) if (mask >> i) & 1]
        assert _members(mask, base) == want
        assert _from_offsets(want, width, base) == mask
        assert _from_offsets(set(want), width, base) == mask


def test_finite_gamma_past_int64():
    rng = random.Random(7)
    for base in (2 ** 62 - 100, 2 ** 63 + 5, -(10 ** 20)):
        elems = [base + x for x in rng.sample(range(500), 120)]
        for a, b in ((2, 1), (3, 2), (1, 1), (0, 1)):
            want = sorted({a * x - b * y for x in elems for y in elems})
            assert finite_gamma(elems, a, b) == want


@pytest.mark.parametrize("alpha, delta, n", [
    (sqrt2_minus_one(4 * 700), Fraction(1, 6), 700),                  # int64
    (sqrt2_minus_one(2 ** 62 // 700), Fraction(1, 6), 700),           # p*n near 2^62
    (sqrt2_minus_one(2 ** 64), Fraction(1, 6), 700),                  # p*n past 2^63
    (-sqrt2_minus_one(2 ** 64), Fraction(1, 6), 700),
    (sqrt2_minus_one(4 * 700), Fraction(1, 3) + Fraction(1, 2 ** 70), 700),  # q*dd
    (sqrt2_minus_one(2 ** 40), Fraction(2 ** 21 - 1, 2 ** 21), 300),  # dn*q and q*dd near 2^62
])
def test_bohr_truncation_matches_loop(alpha, delta, n):
    assert bohr_truncation(alpha, delta, n) == oracle.bohr_truncation(alpha, delta, n)


def test_residue_set_costs_its_members():
    # the mask of three members of Z/2^20Z is three ORs, not a 2^20-bit walk
    with allocates_below(1 << 16):
        u = ResidueSet(2 ** 20, [1, 5, 77, 2 ** 20 + 5])
    assert u.mask == 1 << 1 | 1 << 5 | 1 << 77


def test_truncated_set_bounds():
    assert len(TruncatedSet((), 4)) == 0
    assert TruncatedSet((0, 4, 2), 4).elems == (0, 4, 2)
    for elems in ((-1, 2), (2, 5)):
        with pytest.raises(InputError):
            TruncatedSet(elems, 4)


def test_truncated_set_membership():
    # an unsorted tuple is legal; its member set is built once per instance
    t = TruncatedSet((0, 4, 2), 4)
    assert [x in t for x in range(-1, 6)] == [False, True, False, True, False, True, False]
    assert t._elem_set is t._elem_set == frozenset((0, 2, 4))
    assert 4.0 in t and "4" not in t
    # the cached set is no field: equality, hashing and repr ignore it
    fresh = TruncatedSet((0, 4, 2), 4)
    assert t == fresh and hash(t) == hash(fresh) and repr(t) == repr(fresh)
    assert TruncatedSet((), 4)._elem_set == frozenset()
