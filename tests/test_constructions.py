"""Tests for the explicit set constructions."""

import math
from fractions import Fraction

import pytest

from linset.constructions import (
    ap_counterexample,
    bohr_truncation,
    finite_gamma,
    interval_gap_profile,
    max_consecutive_gap,
    parity_flip_sequence,
    scaled_divergence,
    sparse_interval_union,
    sqrt2_minus_one,
)
from linset.epset import EPSet, InputError, WindowCapExceeded, set_window_cap, window_cap
from linset.linops import LinearOp, apply_linear_op


def test_ap_counterexample_three_one():
    orbit = ap_counterexample(3, 1)
    assert orbit.start == EPSet.half_line(1, 3, 1)
    assert orbit.cycle_length == 2
    assert not orbit.stable
    assert orbit.predicted(1) == EPSet.residue_class(2, 3)
    assert orbit.predicted(2) == EPSet.residue_class(1, 3)


def test_ap_counterexample_two_one_stable():
    orbit = ap_counterexample(2, 1)
    assert orbit.stable and orbit.cycle_length == 1
    assert orbit.predicted(1) == orbit.predicted(5)


def test_ap_counterexample_five_three():
    orbit = ap_counterexample(5, 3)
    assert orbit.cycle_length == 4  # order of 2 mod 15
    got = {orbit.predicted(k).to_expr() for k in range(1, 5)}
    assert len(got) == 4


def test_ap_counterexample_matches_exact_iteration():
    for a in range(2, 6):
        for b in range(1, a):
            if math.gcd(a, b) != 1:
                continue
            orbit = ap_counterexample(a, b)
            cur = orbit.start
            for k in range(1, 2 * orbit.cycle_length + 1):
                cur = apply_linear_op(LinearOp(a, b), cur)
                assert cur == orbit.predicted(k), (a, b, k)


def test_ap_counterexample_validation():
    with pytest.raises(InputError, match="^coefficients must be coprime$"):
        ap_counterexample(4, 2)
    with pytest.raises(ValueError):
        ap_counterexample(2, 3)


def test_scaled_divergence():
    rep = scaled_divergence(2, 1, 1, steps=6)
    assert all(rep.divisible)
    assert rep.all_distinct
    assert rep.min_nonzero_abs == [1, 2, 4, 8, 16, 32, 64]

    rep = scaled_divergence(3, 2, 1, steps=4)
    assert all(rep.divisible)
    assert rep.min_nonzero_abs == [1, 3, 9, 27, 81]

    with pytest.raises(InputError, match="^the common factor d must be at least 2$"):
        scaled_divergence(1, 2, 1)
    with pytest.raises(InputError, match="^reduced coefficients must be coprime$"):
        scaled_divergence(2, 4, 2)


def test_sqrt2_convergent():
    a = sqrt2_minus_one(40000)
    assert a.denominator > 40000
    assert abs(float(a) - (math.sqrt(2) - 1)) < 1e-9


def test_bohr_truncation_examples():
    alpha = sqrt2_minus_one(4 * 30)
    t = bohr_truncation(alpha, Fraction(1, 2), 30)
    assert 2 in t       # dist(2*alpha) ~ 0.1716 < 0.25
    assert 1 not in t   # dist(alpha) ~ 0.4142
    full = bohr_truncation(alpha, Fraction(1), 30)
    assert len(full) == 30  # threshold 1/2 covers every point here

    with pytest.raises(ValueError):
        bohr_truncation(Fraction(41, 100), Fraction(1, 6), 30)


def test_bohr_truncation_density_tracks_delta():
    n = 10_000
    alpha = sqrt2_minus_one(4 * n)
    t = bohr_truncation(alpha, Fraction(1, 6), n)
    assert abs(t.density() - Fraction(1, 6)) < Fraction(5, 100)


def test_bohr_truncation_deterministic():
    n = 500
    alpha = sqrt2_minus_one(4 * n)
    t1 = bohr_truncation(alpha, Fraction(1, 6), n)
    t2 = bohr_truncation(alpha, Fraction(1, 6), n)
    assert t1 == t2


def test_sparse_interval_union():
    t = sparse_interval_union([1, 4, 27], Fraction(1, 2), 50)
    # (1, 1.5): none; (4, 6): 5; (27, 40.5): 28..40
    assert t.elems == (5,) + tuple(range(28, 41))
    dense = sparse_interval_union([1, 2], Fraction(10), 25)
    assert max_consecutive_gap(dense.elems) == 1
    with pytest.raises(InputError, match="^delta must be positive$"):
        sparse_interval_union([1, 4], 0, 10)


def test_interval_gap_profile_grows():
    xs = [i ** i for i in range(1, 6)]
    rows = interval_gap_profile(xs, Fraction(1, 5), 2, 1)
    gaps = [g for _, g in rows]
    # blocks that land no integers (here i = 1, 2) contribute nothing;
    # from the first productive block on, growth is strict
    active = [g for g in gaps if g > 0]
    assert len(active) >= 3
    assert all(x < y for x, y in zip(active, active[1:]))
    assert all(x <= y for x, y in zip(gaps, gaps[1:]))


def test_horizons_bounded_by_the_cap():
    old = window_cap()
    try:
        set_window_cap(1000)
        assert bohr_truncation(Fraction(1, 4001), Fraction(1), 999).horizon == 999
        assert sparse_interval_union([2], Fraction(1000), 999).elems[-1] == 999
        with pytest.raises(WindowCapExceeded):
            bohr_truncation(Fraction(1, 4001), Fraction(1), 1000)
        with pytest.raises(WindowCapExceeded):
            sparse_interval_union([2], Fraction(1000), 1000)
    finally:
        set_window_cap(old)


def test_finite_gamma():
    assert finite_gamma([0, 1], 2, 1) == [-1, 0, 1, 2]
    assert finite_gamma([], 2, 1) == []
    got = finite_gamma([0, 1, 3], 3, 2)
    brute = sorted({3 * x - 2 * y for x in (0, 1, 3) for y in (0, 1, 3)})
    assert got == brute


def test_finite_gamma_coefficient_signs():
    assert finite_gamma([0, 2, 5], 0, 1) == [-5, -2, 0]
    for a, b in ((1, -1), (-1, 2), (3, -1)):
        with pytest.raises(ValueError):
            finite_gamma([0, 2, 5], a, b)


def test_finite_gamma_window_cap():
    # (a + b) * (hi - lo) + 1 positions, refused before any mask is built
    with pytest.raises(WindowCapExceeded) as e:
        finite_gamma([0, 10**9], 3, 1)
    assert e.value.requested == 4 * 10**9 + 1
    span = (window_cap() - 1) // 4
    assert finite_gamma([0, span], 3, 1)[:2] == [-span, 0]
    with pytest.raises(WindowCapExceeded):
        finite_gamma([0, span + 1], 3, 1)


def test_parity_flip_examples():
    fx = parity_flip_sequence([1])
    assert fx.predictions[1] == EPSet.residue_class(2, 3)
    fx = parity_flip_sequence([0])
    assert fx.predictions[1] == EPSet.residue_class(1, 3)
    fx = parity_flip_sequence([1, 1])
    assert fx.predictions[2] == EPSet.residue_class(1, 3)
    # a string of "0" and "1" is read as its bits; any other entry is refused
    assert parity_flip_sequence("011").bits == parity_flip_sequence([0, 1, 1]).bits == (0, 1, 1)
    for bits in ("0a1", " 1", "01x", [0, 2], ["01"], [-1]):
        with pytest.raises(InputError, match="^bits must be 0 or 1$"):
            parity_flip_sequence(bits)


def test_parity_flip_matches_exact_iteration():
    for bits in ([1, 0, 1], [0, 0, 1, 1], [1, 1, 1, 0, 1]):
        fx = parity_flip_sequence(bits)
        cur = EPSet.residue_class(1, 3)
        for k, op in enumerate(fx.seq, start=1):
            cur = apply_linear_op(op, cur)
            assert cur == fx.predictions[k], (bits, k)
