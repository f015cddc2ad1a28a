"""The one orbit engine against the loops it replaced (tests/oracle.py)."""

import math
from collections import Counter
from dataclasses import fields

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracle
from conftest import epsets
from linset import linops, stability
from linset._orbit import orbit
from linset.analysis import stability_time
from linset.cli import parse_ops, parse_set_expression, run
from linset.epset import (EPSet, InputError, ResourceLimitExceeded, WindowCapExceeded,
                          set_window_cap, window_cap)
from linset.linops import LinearOp, OpSequence
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


# periodic phases: under coprime ops the canonical period can shrink below
# that of the first fully periodic iterate (to Z in the first case), and a
# non-coprime op multiplies it by gcd(a, b)
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


def test_periodic_steps_are_one_residue_image(monkeypatch):
    # from the first fully periodic iterate on, every step is one residue
    # image, with no dilated operand and no Minkowski sum, a non-coprime op
    # included
    calls = Counter()
    for name in ("_image", "_dilated", "_minkowski"):
        real = getattr(linops, name)
        monkeypatch.setattr(linops, name, lambda *args, real=real, name=name:
                            calls.update([name]) or real(*args))
    steps = []
    real_step = stability.apply_linear_op

    def step(op, x):
        calls.clear()
        y = real_step(op, x)
        steps.append(dict(calls))
        return y

    monkeypatch.setattr(stability, "apply_linear_op", step)
    s = parse_set_expression("U(AP+(1,6,1),{0})")
    for seq in map(parse_ops, ("cyc[(2,1)(3,1)(1,2)]", "cyc[(2,1)(3,1)(2,2)]")):
        steps.clear()
        tr = iterate_trace(s, seq, max_k=12)
        assert field_values(tr) == field_values(oracle.iterate_trace(s, seq, max_k=12))
        onset = tr.periodicity_onset[0]
        assert 0 < onset < len(steps)
        assert steps[onset:] == [{"_image": 1}] * (len(steps) - onset)
    # a fixed point returns its input itself, not an equal new value
    for x in (EPSet.integers(), EPSet.residue_class(1, 3)):
        assert real_step(LinearOp(2, 1), x) is x


def check_steps(s, seq, max_k):
    """Trace at a cap of 512, then check each recorded step x_k -> x_{k+1}
    against the canonical-operand sum at the default cap, and a fully
    periodic x_k also against the bitmap of its periodic witnesses: no
    check goes through ``apply_linear_op``."""
    old = window_cap()
    try:
        set_window_cap(512)
        tr = iterate_trace(s, seq, max_k)
    finally:
        set_window_cap(old)
    for k, (x, y) in enumerate(zip(tr.iterates, tr.iterates[1:])):
        op = seq.op_at(k)
        assert y == oracle.linear_op_step(op, x)
        if x.is_fully_periodic():
            G = x.period * math.gcd(op.a, op.b)
            assert oracle.agrees(y, oracle.periodic_gamma_bitmap(x, op.a, op.b, G), G)


@pytest.mark.parametrize("set_expr,ops,periods", PHASE_CASES)
def test_iterate_trace_steps_match_oracle(set_expr, ops, periods):
    check_steps(parse_set_expression(set_expr), parse_ops(ops), 256)


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


periodic_orbits = given(periodic_starts(), st.booleans(), st.booleans(),
                        st.lists(st.sampled_from(COPRIME), min_size=1, max_size=4),
                        st.lists(st.sampled_from(NOT_COPRIME), max_size=1),
                        st.integers(0, 30))


@settings(max_examples=150, deadline=None)
@periodic_orbits
def test_iterate_trace_matches_replaced_loop_from_periodic_sets(s, cyclic, mixed, ops, extra,
                                                                max_k):
    seq = OpSequence(tuple(ops + extra if mixed else ops), cyclic=cyclic)
    old = window_cap()
    try:
        set_window_cap(512)
        same_trace(s, seq, max_k)
    finally:
        set_window_cap(old)


@settings(max_examples=150, deadline=None)
@periodic_orbits
# Z, 2Z and {0, 1} + 3Z under a non-coprime op, so with G = 2g: the image
# of the first two is the one class 0, whose mask equals the input's mask
# mod g as an int, and the third's image has classes at g and above
@example(EPSet.integers(), False, True, [(1, 1)], [(2, 2)], 4)
@example(EPSet.residue_class(0, 2), True, True, [(3, 1)], [(4, 2)], 6)
@example(EPSet(3, 0, -1, 0, 0b11, 0b11), False, True, [(1, 1)], [(2, 2)], 2)
def test_iterate_trace_steps_match_oracle_from_periodic_sets(s, cyclic, mixed, ops, extra,
                                                             max_k):
    check_steps(s, OpSequence(tuple(ops + extra if mixed else ops), cyclic=cyclic), max_k)


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

# zero and negative coefficients too: the one-walk image takes any integers
RESIDUE_PAIRS = [(a, b) for a in range(-3, 7) for b in range(-3, 7) if math.gcd(a, b) == 1]


@pytest.mark.parametrize("g", range(1, 9))
def test_residue_orbit_matches_replaced_loop(g):
    for mask in range(1 << g):
        u = ResidueSet.from_mask(g, mask)
        for a, b in RESIDUE_PAIRS:
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
    trace = IterationTrace(iterates=[z] * 50, periods=[1] * 50, distinct_count=1, cycle=None,
                           periodicity_onset=(0, 1), resource_flag=resource, closed=False,
                           closure=None)
    monkeypatch.setattr(stability, "iterate_trace", lambda *args, **kwargs: trace)
    rep = verify_stabilization(z, OpSequence.repeat(2, 1, 49))
    assert (rep.verdict, rep.resource_flag, rep.closed) == (verdict, resource, False)
    assert (rep.stable_g, rep.bound) == ((1, rep.K + 4) if resource is None else (None, None))


@settings(max_examples=200, deadline=None)
@given(epsets(max_period=6, span=10), op_sequences(), st.sampled_from((1, 2)),
       st.sampled_from((8, 64)))
# K = 3 before the closure onset 4, and an open trace of 16 iterates, the
# fewest for a PASS over the horizon (K + bound = 3 + 12 < 16); drawn cases
# put K inside the closure span or after it
@example(parse_set_expression("U(AP+(0,3,0),AP+(-1,3,-1))"),
         parse_ops("cyc[(1,3)(1,3)(1,3)(1,2)]"), 1, 64)
@example(EPSet.integers(), OpSequence(((2, 1), (3, 1)) * 7 + ((2, 1),)), 1, 64)
def test_verify_matches_set_based_rule(s, seq, c, max_steps):
    assume(s.upper_density() > 0)
    old = window_cap()
    try:
        set_window_cap(512)
        rep = verify_stabilization(s, seq, c=c, max_steps=max_steps)
        ref = oracle.verify_stabilization(s, seq, c=c, max_steps=max_steps)
    finally:
        set_window_cap(old)
    assert (rep.to_json_dict(), rep.stable_g, rep.closed) == \
        (ref.to_json_dict(), ref.stable_g, ref.closed)


@pytest.mark.parametrize("set_expr,ops", [
    ("U(AP+(0,3,0),AP+(-1,3,-1))", "cyc[(1,3)(1,3)(1,3)(1,2)]"),    # closed
    ("AP+(1,3,1)", "cyc[(3,1)]"),                                    # closed, constant op
    ("U(AP+(1,6,1),{0})", "(2,1)(3,1)(2,1)(3,1)"),                   # open, finite
])
def test_full_period_is_derived_once_per_iterate(set_expr, ops, monkeypatch, capsys):
    calls = []
    full_period = EPSet.full_period

    def counted(self):
        calls.append(self)
        return full_period(self)
    monkeypatch.setattr(EPSet, "full_period", counted)
    s, seq = parse_set_expression(set_expr), parse_ops(ops)
    rep = verify_stabilization(s, seq, c=1)
    assert len(calls) == len(rep.trace.iterates)
    n = len(iterate_trace(s, seq).iterates)     # the trace the iterate command prints
    calls.clear()
    assert run(["iterate", "--set", set_expr, "--ops", ops, "--format", "csv"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(calls) == len(rows) == n
