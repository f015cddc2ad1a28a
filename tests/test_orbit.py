"""The one orbit engine against the loops it replaced (tests/oracle.py)."""

import math
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from conftest import epsets
from linset import stability
from linset._orbit import orbit
from linset.analysis import stability_time
from linset.cli import parse_ops, parse_set_expression
from linset.epset import (EPSet, InputError, ResourceLimitExceeded, WindowCapExceeded,
                          set_window_cap, window_cap)
from linset.linops import OpSequence
from linset.residue import ResidueSet, residue_orbit
from linset.stability import IterationTrace, iterate_trace, verify_stabilization


def field_values(res):
    """Every field of a result dataclass, not copied."""
    return tuple(getattr(res, f.name) for f in fields(res))


def outcome(fn, *args, **kwargs):
    """Every field of fn's result, or the type and message of what it raised."""
    try:
        res = fn(*args, **kwargs)
    except ResourceLimitExceeded as e:
        return type(e), str(e)
    return res if isinstance(res, tuple) else field_values(res)


def same_trace(s, seq, max_k):
    assert field_values(iterate_trace(s, seq, max_k=max_k)) == \
        field_values(oracle.iterate_trace(s, seq, max_k=max_k))


# -- the engine's own rules ----------------------------------------------------

def test_orbit_budget_rule():
    calls = []

    def step(k, x):
        calls.append(k)
        return x + 1

    with pytest.raises(InputError):
        orbit(step, [0], max_steps=-1)
    states = [0]
    assert orbit(step, states, max_steps=0) is None
    assert (states, calls) == ([0], [])
    assert orbit(step, states, max_steps=3) is None
    assert (states, calls) == ([0, 1, 2, 3], [0, 1, 2])


def test_orbit_closure_rule():
    # x -> x + 1 mod 5 from 3: x_5 repeats x_0
    states = [3]
    assert orbit(lambda k, x: (x + 1) % 5, states) == (0, 5)
    assert states == [3, 4, 0, 1, 2]
    # repeats not accepted by `closes` are kept, and keep their first occurrence
    states = [0]
    assert orbit(lambda k, x: (x + 1) % 2, states, closes=lambda i: i == 1) == (1, 2)
    assert states == [0, 1, 0]
    # a key repeat closes although the states repeat earlier
    states = [0]
    assert orbit(lambda k, x: x, states, key=lambda k, x: (x, k % 3)) == (0, 3)
    assert states == [0, 0, 0]


def test_orbit_step_error_keeps_states():
    def step(k, x):
        if k == 3:
            raise WindowCapExceeded(100, 10)
        return 2 * x

    states = [1]
    with pytest.raises(WindowCapExceeded, match="cap is 10"):
        orbit(step, states, max_steps=10)
    assert states == [1, 2, 4, 8]


# -- iterate_trace -------------------------------------------------------------

PAIRS = [(1, 1), (2, 1), (3, 1), (3, 2), (1, 2), (2, 3), (4, 3)]


@st.composite
def op_sequences(draw):
    cyclic = draw(st.booleans())
    if draw(st.booleans()):
        ops = (draw(st.sampled_from(PAIRS)),) * draw(st.integers(1, 4))
    else:
        ops = tuple(draw(st.lists(st.sampled_from(PAIRS), min_size=2, max_size=6)))
    return OpSequence(ops, cyclic=cyclic)


@settings(max_examples=150, deadline=None)
@given(epsets(max_period=6, span=10), op_sequences(), st.integers(0, 24))
def test_iterate_trace_matches_replaced_loop(s, seq, max_k):
    old = window_cap()
    try:
        set_window_cap(512)
        same_trace(s, seq, max_k)
    finally:
        set_window_cap(old)


@pytest.mark.parametrize("set_expr,ops,max_k", [
    ("AP(1,3)", "(3,1)(3,1)(2,1)^5", 256),              # constant tail revisits x_0
    ("AP+(1,3,1)", "cyc[(2,1)(3,1)(2,1)(3,1)]", 256),    # rotation-periodic cycle
    ("AP+(1,3,1)", "cyc[(2,1)(3,1)]", 256),
    ("AP+(1,3,1)", "cyc[(3,1)(3,1)]", 256),              # cyclic, constant ops
    ("AP+(1,3,1)", "(3,1)(2,1)(3,2)", 256),
    ("AP+(0,5,0)", "cyc[(3,1)(2,1)]", 500),
    ("AP+(1,3,1)", "cyc[(3,1)]", 0),
    ("{0,1,5}", "(2,1)^6", 3),
])
def test_iterate_trace_named_cases(set_expr, ops, max_k):
    same_trace(parse_set_expression(set_expr), parse_ops(ops), max_k)


# the periodic phase: the masks mod the switch's period g shrink to a
# canonical period below g (to Z in the first case), and with a
# non-coprime op every state stays an EPSet
PHASE_CASES = [
    ("U(AP(0,6),AP(1,6))", "cyc[(2,1)]", [6, 6, 1, 1]),
    ("U(AP(1,12),AP(4,12))", "cyc[(2,1)(3,2)]", [12, 3, 3, 3]),
    ("U(AP(0,12),AP(6,12),AP(4,12))", "cyc[(1,1)]", [12, 2, 2]),
    ("U(AP+(1,6,1),{0})", "cyc[(2,1)(3,1)]", [None, None, None, 1, 1, 1]),
    ("U(AP(0,6),AP(1,6))", "cyc[(2,2)(2,1)]", None),
    ("AP+(1,3,1)", "(2,1)(4,2)(3,1)^3", None),
]


@pytest.mark.parametrize("set_expr,ops,periods", PHASE_CASES)
def test_iterate_trace_periodic_phase(set_expr, ops, periods):
    s, seq = parse_set_expression(set_expr), parse_ops(ops)
    tr = iterate_trace(s, seq)
    assert field_values(tr) == field_values(oracle.iterate_trace(s, seq))
    if periods is not None:
        assert [x.full_period() for x in tr.iterates] == periods


def test_periodic_phase_steps_without_epsets(monkeypatch):
    # from the first fully periodic iterate on, a step is one residue image
    s, seq = parse_set_expression("U(AP+(1,6,1),{0})"), parse_ops("cyc[(2,1)(3,1)(1,2)]")
    tr = oracle.iterate_trace(s, seq, max_k=40)
    onset = tr.periodicity_onset[0]
    stepped = []
    real = stability.apply_linear_op
    monkeypatch.setattr(stability, "apply_linear_op",
                        lambda op, x: stepped.append(x) or real(op, x))
    assert field_values(iterate_trace(s, seq, max_k=40)) == field_values(tr)
    assert stepped == tr.iterates[:onset]
    # one EPSet per distinct iterate
    assert len({id(x) for x in iterate_trace(s, seq, max_k=40).iterates}) == tr.distinct_count
    # a non-coprime op keeps every step on EPSets
    stepped.clear()
    tr = iterate_trace(s, parse_ops("cyc[(2,1)(3,1)(2,2)]"), max_k=6)
    assert stepped == tr.iterates[:6]


def test_mask_states_hash_apart():
    # hash(int) is the int mod 2^61 - 1, so the bare masks 1 << k and
    # 1 << (k + 61) share a hash; the states hash by _hash_key
    g, seq = 4099, parse_ops("(2,1)")
    for k in range(0, g - 61, 101):
        x, y = (stability._MaskPhase(seq).state(EPSet.residue_class(r, g)) for r in (k, k + 61))
        assert x != y and hash(x) != hash(y)


COPRIME = [(1, 1), (2, 1), (3, 1), (3, 2), (1, 2), (2, 3), (4, 3), (5, 2)]
NOT_COPRIME = [(2, 2), (4, 2), (3, 3), (2, 4), (6, 4)]


@st.composite
def periodic_starts(draw):
    """U + gZ, or U + gZ with the membership of one point flipped."""
    g = draw(st.sampled_from([1, 2, 3, 4, 6, 8, 12, 15]))
    mask = draw(st.integers(0, (1 << g) - 1))
    x = draw(st.integers(-6, 6))
    flip = draw(st.booleans())
    return EPSet(g, x, x, ((mask >> x % g) & 1) ^ flip, mask, mask)


@settings(max_examples=150, deadline=None)
@given(periodic_starts(), st.booleans(), st.booleans(),
       st.lists(st.sampled_from(COPRIME), min_size=1, max_size=4),
       st.lists(st.sampled_from(NOT_COPRIME), max_size=1), st.integers(0, 30))
def test_iterate_trace_matches_replaced_loop_from_periodic_sets(s, cyclic, mixed, ops, extra,
                                                                max_k):
    seq = OpSequence(tuple(ops + extra if mixed else ops), cyclic=cyclic)
    old = window_cap()
    try:
        set_window_cap(512)
        same_trace(s, seq, max_k)
    finally:
        set_window_cap(old)


def test_iterate_trace_window_cap_keeps_partial_iterates():
    s, seq = parse_set_expression("{0,50,131}"), parse_ops("(3,2)^8")
    old = window_cap()
    try:
        set_window_cap(20000)
        tr = iterate_trace(s, seq)
        assert (tr.resource_flag, tr.closed, len(tr.iterates)) == ("window-cap", False, 4)
        assert field_values(tr) == field_values(oracle.iterate_trace(s, seq))
    finally:
        set_window_cap(old)


# -- residue_orbit -------------------------------------------------------------

COPRIME = [(a, b) for a in range(1, 7) for b in range(1, 7) if math.gcd(a, b) == 1]


@pytest.mark.parametrize("g", range(1, 9))
def test_residue_orbit_matches_replaced_loop(g):
    for mask in range(1 << g):
        u = ResidueSet.from_mask(g, mask)
        for a, b in COPRIME:
            for max_steps in (None, 1, 2, 5):
                assert outcome(residue_orbit, u, a, b, max_steps) == \
                    outcome(oracle.residue_orbit, u, a, b, max_steps)


# -- stability_time ------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.sets(st.integers(0, 60)), st.sampled_from((0, 1, 2, 128)))
def test_stability_time_matches_replaced_loop(elems, max_k):
    a = EPSet.from_iterable(elems)
    assert outcome(stability_time, a, max_k) == outcome(oracle.stability_time, a, max_k)


# -- verify_stabilization's one report -----------------------------------------

def test_verify_closed_orbit_counts_iterates_from_k_before_the_cycle():
    # K = 3 < onset 4: x_3 has full period 3, the cycle sets period 1
    rep = verify_stabilization(parse_set_expression("U(AP+(0,3,0),AP+(-1,3,-1))"),
                               parse_ops("cyc[(1,3)(1,3)(1,3)(1,2)]"), c=1)
    assert (rep.K, rep.trace.closure, rep.closed) == (3, (4, 4), True)
    assert (rep.stable_g, rep.bound, rep.verdict) == (3, 3 + 3 ** 3 * 3 ** 2, "PASS")


@pytest.mark.parametrize("resource,verdict", [(None, "PASS"), ("window-cap", "INCONCLUSIVE")])
def test_verify_horizon_pass_needs_no_resource_stop(resource, verdict, monkeypatch):
    # an open trace of 50 iterates, more than K + bound = 20 + 24, so long
    # enough for a PASS over the horizon, stopped by the horizon or the cap
    z = EPSet.integers()
    trace = IterationTrace([z] * 50, 1, None, (0, 1), resource, False, None)
    monkeypatch.setattr(stability, "iterate_trace", lambda *args, **kwargs: trace)
    rep = verify_stabilization(z, OpSequence.repeat(2, 1, 49))
    assert (rep.verdict, rep.resource_flag, rep.closed) == (verdict, resource, False)
    assert (rep.stable_g, rep.bound) == ((1, rep.K + 4) if resource is None else (None, None))
