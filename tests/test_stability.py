"""Tests for the orbit engine and the stabilization verifier."""

import math
import random
import sys
from fractions import Fraction

import pytest

from conftest import allocates_below
from linset.constructions import parity_flip_sequence
from linset.epset import EPSet, InputError, set_window_cap, window_cap
from linset.linops import OpSequence
from linset.stability import (
    _floor_log2,
    full_periodicity_onset,
    iterate_trace,
    verify_stabilization,
)


def test_trace_progression_orbit():
    a = EPSet.half_line(1, 3, 1)
    tr = iterate_trace(a, OpSequence.repeat(3, 1, 10))
    assert tr.distinct_count == 3
    assert tr.cycle == (1, 2)
    assert tr.closed


def test_trace_fixed_point():
    tr = iterate_trace(EPSet.integers(), OpSequence.repeat(2, 1, 8))
    assert tr.distinct_count == 1
    assert tr.cycle == (0, 1)


def test_trace_parity_sequence():
    fx = parity_flip_sequence([1, 0, 1])
    tr = iterate_trace(EPSet.residue_class(1, 3), fx.seq)
    assert tr.iterates == fx.predictions
    assert tr.cycle is None  # varying ops: set repeats are not cycles


def test_trace_cyclic_closure():
    seq = OpSequence(((2, 1), (3, 2)), cyclic=True)
    tr = iterate_trace(EPSet.half_line(0, 5, 0), seq, max_k=500)
    assert tr.closed
    assert tr.resource_flag is None
    # closure is sound: replaying the closed stretch reproduces iterates
    o, lam = tr.closure
    assert tr.iterates[o] == tr.iterates[o + lam]


def test_periodicity_onset():
    a = EPSet.half_line(1, 3, 1)
    tr = iterate_trace(a, OpSequence.repeat(3, 1, 10))
    assert tr.periodicity_onset == (1, 3)
    tr = iterate_trace(EPSet.integers(), OpSequence.repeat(2, 1, 4))
    assert tr.periodicity_onset == (0, 1)
    tr = iterate_trace(a, OpSequence(()))
    assert tr.periodicity_onset is None  # a one-sided set alone


def test_empty_cyclic_sequence_refused():
    # a cyclic sequence with no ops has no op to repeat: refused as input,
    # before the engine asks it for op 0
    with pytest.raises(InputError, match="cyclic sequence needs at least one operation"):
        OpSequence((), cyclic=True)
    with pytest.raises(InputError, match="cyclic sequence needs at least one operation"):
        OpSequence.repeat(2, 1, 0, cyclic=True)
    assert len(OpSequence(())) == 0      # a finite empty sequence stays valid


def test_onset_with_bound():
    a = EPSet.half_line(1, 3, 1)
    tr = iterate_trace(a, OpSequence.repeat(3, 1, 10))
    assert full_periodicity_onset(tr) == (1, 3)


def test_floor_log2_exact():
    assert _floor_log2(Fraction(1)) == 0
    assert _floor_log2(Fraction(3)) == 1
    assert _floor_log2(Fraction(8)) == 3
    assert _floor_log2(Fraction(9, 8)) == 0
    assert _floor_log2(Fraction(1, 3)) == -2
    for _ in range(200):
        rng = random.Random(_)
        p, q = rng.randint(1, 10**6), rng.randint(1, 10**6)
        assert _floor_log2(Fraction(p, q)) == math.floor(math.log2(Fraction(p, q)))


def test_verify_progression():
    a = EPSet.half_line(1, 3, 1)
    rep = verify_stabilization(a, OpSequence.repeat(3, 1, 1, cyclic=True), bound=3)
    assert rep.verdict == "PASS"
    assert rep.closed
    assert rep.K == 10 * 3 + _floor_log2(Fraction(3) ** 10)
    assert rep.stable_g == 3
    assert rep.distinct_count == 3
    assert rep.distinct_count <= rep.bound


def test_verify_integers_trivial():
    rep = verify_stabilization(EPSet.integers(),
                               OpSequence(((2, 1), (3, 2)), cyclic=True), bound=3)
    assert rep.verdict == "PASS"
    assert rep.stable_g == 1 and rep.distinct_count == 1


def test_verify_mixed_sequence():
    a = EPSet(5, 0, -1, 0, 0, 0b00011)  # {0,1} + 5N
    seq = OpSequence(((2, 1), (3, 2)), cyclic=True)
    rep = verify_stabilization(a, seq, bound=3)
    assert rep.verdict == "PASS"
    assert rep.observed_k0 <= rep.K


def test_verify_finite_sequence_short_horizon_is_inconclusive():
    # a varying finite sequence gives no orbit closure; a short traced
    # horizon must not be passed off as a verdict
    a = EPSet.half_line(1, 3, 1)
    rep = verify_stabilization(a, OpSequence(((3, 1), (2, 1), (3, 2))), bound=3)
    assert not rep.closed
    assert rep.verdict == "INCONCLUSIVE"
    # a finite constant run still closes: the set-cycle is genuine
    rep = verify_stabilization(a, OpSequence.repeat(3, 1, 6), bound=3)
    assert rep.closed and rep.verdict == "PASS"


def test_verify_requires_coprime():
    with pytest.raises(ValueError):
        verify_stabilization(EPSet.naturals(),
                             OpSequence(((2, 4),), cyclic=True), bound=4)


def test_verify_refuses_an_unprintable_g_bound():
    # g_bound = L^(K+1) is refused before beta^c or L^(K+1) is built, and
    # exactly when str(g_bound) would fail or, with the int string limit
    # off, when it has more bits than the window cap
    a, seq = EPSet.half_line(1, 3, 1), OpSequence(((3, 1),), cyclic=True)
    with allocates_below(1 << 20):
        with pytest.raises(InputError, match="--c or --L"):
            verify_stabilization(a, seq, bound=3, c=10 ** 7)
    old_digits, old_cap = sys.get_int_max_str_digits(), window_cap()
    try:
        n = len(str(verify_stabilization(a, seq, bound=3, c=1000).g_bound))
        assert n == 2188
        sys.set_int_max_str_digits(n)
        assert verify_stabilization(a, seq, bound=3, c=1000).verdict == "PASS"
        sys.set_int_max_str_digits(n - 1)
        with pytest.raises(InputError, match="--c or --L"):
            verify_stabilization(a, seq, bound=3, c=1000)
        sys.set_int_max_str_digits(0)
        bits = verify_stabilization(a, seq, bound=3, c=10).g_bound.bit_length()
        set_window_cap(bits)
        assert verify_stabilization(a, seq, bound=3, c=10).verdict == "PASS"
        set_window_cap(bits - 1)
        with pytest.raises(InputError, match="--c or --L"):
            verify_stabilization(a, seq, bound=3, c=10)
    finally:
        sys.set_int_max_str_digits(old_digits)
        set_window_cap(old_cap)


def test_verify_inconclusive_on_cap():
    old = window_cap()
    try:
        set_window_cap(3000)
        # a window-only set with no tails grows geometrically: cap hit
        s = EPSet.from_iterable([0, 5, 11]).union(EPSet.half_line(1, 977, 30))
        seq = OpSequence(((3, 2),), cyclic=True)
        rep = verify_stabilization(s, seq, bound=3, max_steps=40)
        assert rep.verdict in ("PASS", "INCONCLUSIVE")
    finally:
        set_window_cap(old)


def test_trace_monotone_under_horizon_extension():
    fixtures = [
        (EPSet.half_line(1, 3, 1), OpSequence.repeat(3, 1, 64, cyclic=True)),
        (EPSet(5, 0, -1, 0, 0, 0b00011), OpSequence(((2, 1), (3, 2)), cyclic=True)),
    ]
    for s, seq in fixtures:
        counts = []
        onsets = []
        for max_k in (1, 2, 4, 8, 32):
            tr = iterate_trace(s, seq, max_k=max_k)
            counts.append(tr.distinct_count)
            onsets.append(tr.periodicity_onset)
        assert counts == sorted(counts)
        settled = [o for o in onsets if o is not None]
        assert settled and all(o == settled[-1] for o in settled[1:])


def test_constant_sequence_cycle_divides_a_valid_modulus():
    # for a constant operation the eventual orbit period leaves room inside
    # the modulus budget: lcm(cycle length, minimal modulus) stays within
    # L^(K+1), so a full-periodicity modulus divisible by the cycle exists.
    # (The cycle length need not divide the MINIMAL modulus: the orbit of
    # 1+3N under (3,1) cycles with length 2 while the minimal modulus is 3.)
    fixtures = [
        (EPSet.half_line(1, 3, 1), (3, 1)),
        (EPSet.half_line(1, 4, 1), (5, 1)),
        (EPSet(5, 0, -1, 0, 0, 0b00011), (3, 2)),
        (EPSet.residue_class(2, 7), (4, 3)),
    ]
    for s, (a, b) in fixtures:
        rep = verify_stabilization(s, OpSequence.repeat(a, b, 1, cyclic=True),
                                   bound=max(a, b, 2))
        assert rep.verdict == "PASS"
        tr = rep.trace
        assert tr.cycle is not None
        _, p = tr.cycle
        assert math.lcm(p, rep.stable_g) <= rep.g_bound


def test_report_json_shape():
    rep = verify_stabilization(EPSet.half_line(1, 3, 1),
                               OpSequence.repeat(3, 1, 1, cyclic=True), bound=3)
    d = rep.to_json_dict()
    assert d["schema"] == 1
    assert set(d) == {"schema", "beta", "K", "g_bound", "observed_k0",
                      "observed_g", "distinct_count", "bound", "verdict",
                      "resource_flag"}
    assert d["verdict"] == "PASS"
