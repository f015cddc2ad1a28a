"""The iteration engine: exact orbits of composed linear operations,
distinct-iterate counting, full-periodicity onset, and the verifier for
the bounded-coefficient stabilization guarantee."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from ._orbit import orbit
from .epset import EPSet, InputError, WindowCapExceeded, window_cap
from .linops import OpSequence, apply_linear_op


@dataclass
class IterationTrace:
    """Record of an exact orbit.

    ``iterates[0]`` is the input.  ``cycle`` is only claimed when the
    operation sequence is constant over the detected span (repeating sets
    under varying operations are not periodic dynamics).  ``closed`` means
    every future iterate provably equals a recorded one; ``closure`` is
    the (onset, length) of the replayed stretch in that case.
    """

    iterates: list
    distinct_count: int
    cycle: tuple | None
    periodicity_onset: tuple | None
    resource_flag: str | None
    closed: bool
    closure: tuple | None


def iterate_trace(s: EPSet, seq: OpSequence, max_k: int = 256) -> IterationTrace:
    """The orbit of ``s`` under ``seq``: x_{k+1} = apply_linear_op(op_k, x_k),
    the one step of every orbit, for at most ``max_k`` steps (and no more
    than ``len(seq)`` for a finite sequence).  A ``WindowCapExceeded`` step
    ends the trace with resource flag "window-cap" and the iterates so far."""
    key = closes = None
    if seq.cyclic and not seq.constant_from(0):
        # varying cyclic ops repeat their dynamics on (set, phase) repeats
        p = len(seq)
        key = lambda k, x: (x, k % p)
    else:
        closes = seq.constant_from
    iterates = [s]
    resource = None
    try:
        closure = orbit(lambda k, x: apply_linear_op(seq.op_at(k), x), iterates,
                        max_k if seq.cyclic else min(max_k, len(seq)), key, closes)
    except WindowCapExceeded:
        closure, resource = None, "window-cap"
    if closure:
        iterates.append(iterates[closure[0]])

    trace = IterationTrace(
        iterates=iterates,
        distinct_count=len(set(iterates)),
        cycle=None if key else closure,
        periodicity_onset=None,
        resource_flag=resource,
        closed=closure is not None,
        closure=closure,
    )
    trace.periodicity_onset = full_periodicity_onset(trace)
    return trace


def full_periodicity_onset(trace: IterationTrace):
    """Smallest (k0, g): every recorded iterate from k0 on satisfies
    S + g == S, with g minimal (the lcm of the suffix periods)."""
    periods = [s.full_period() for s in trace.iterates]
    last_bad = -1
    for i, q in enumerate(periods):
        if q is None:
            last_bad = i
    k0 = last_bad + 1
    if k0 >= len(periods):
        return None
    return (k0, math.lcm(*periods[k0:]))


def _floor_log2(x: Fraction) -> int:
    if x <= 0:
        raise ValueError("log of a nonpositive value")
    p, q = x.numerator, x.denominator
    # 2^(e-1) < p/q < 2^(e+1), and p/q >= 2^e decides between e and e - 1
    e = p.bit_length() - q.bit_length()
    return e if p << max(-e, 0) >= q << max(e, 0) else e - 1


# the version of every report layout: the verifier's cells and the CLI's
# reports, which carry it as their "schema" field
SCHEMA = 1


@dataclass
class StabilizationReport:
    """Outcome of the bounded-coefficient stabilization check.

    PASS means: some modulus g at most L^(K+1) makes every traced iterate
    from step K on fully periodic, and the number of distinct iterates is
    at most K + g^3 L^2.  ``closed`` distinguishes an exact infinite-orbit
    verdict from one over a finite traced horizon.
    """

    beta: Fraction
    K: int
    L: int
    c: int
    g_bound: int
    observed_k0: int | None
    observed_g: int | None
    stable_g: int | None
    distinct_count: int
    bound: int | None
    verdict: str
    resource_flag: str | None
    closed: bool
    trace: IterationTrace

    def to_json_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "beta": str(self.beta),
            "K": self.K,
            "g_bound": str(self.g_bound),
            "observed_k0": self.observed_k0,
            "observed_g": self.observed_g,
            "distinct_count": self.distinct_count,
            "bound": self.bound,
            "verdict": self.verdict,
            "resource_flag": self.resource_flag,
        }


def verify_stabilization(a: EPSet, seq: OpSequence, bound: int | None = None,
                         c: int = 10, max_steps: int = 20000) -> StabilizationReport:
    """Verify periodic stabilization of iterated bounded operations on a
    positive-density set.

    K = floor(c * (log2(beta) + L)) with beta the reciprocal density is
    computed exactly; the orbit is traced until it provably closes (state
    repetition under a cyclic sequence, or a constant-span cycle) or the
    step limit is hit.
    """
    dens = a.upper_density()
    if dens <= 0:
        raise InputError("the input set must have positive upper density")
    el = max((max(op.a, op.b) for op in seq), default=2)
    L = bound if bound is not None else max(seq.bound, 2)
    if L < 2:
        raise InputError("the coefficient bound L must be at least 2")
    if el > L:
        raise InputError("sequence coefficients exceed the declared bound")
    if not seq.all_coprime():
        raise InputError("every operation must have coprime coefficients")
    if c < 1:
        raise InputError("the constant c must be a positive integer")

    # the report prints g_bound = L^(K+1), so it must stay below 10^digits,
    # the int string limit, or with that limit off below 2^cap.  K >= c*L
    # (beta >= 1) and L^n >= 2^(n (l - 1)) with l = L.bit_length(), so the
    # first test refuses an absurd c or L before beta^c or L^(K+1) is built;
    # 8^digits < 10^digits < 2^bits, so 10^digits is built only when close
    digits = sys.get_int_max_str_digits()
    bits = 10 * digits // 3 + 1 if digits else window_cap()
    beta = 1 / dens
    g_bound = None
    if (c * L + 1) * (L.bit_length() - 1) < bits:
        K = c * L + _floor_log2(beta ** c)
        g_bound = L ** (K + 1)
    if g_bound is None or g_bound.bit_length() > bits or \
            digits and g_bound.bit_length() > 3 * digits and g_bound >= 10 ** digits:
        raise InputError("g_bound = L^(K+1) is too large to report; lower --c or --L")

    trace = iterate_trace(a, seq, max_k=max_steps)
    its = trace.iterates
    observed_k0, observed_g = trace.periodicity_onset or (None, None)
    verdict, stable_g, bound_t = "INCONCLUSIVE", None, None
    if trace.closed:
        o, lam = trace.closure
        periods = [f.full_period() for f in set(its[o:o + lam]) | set(its[K:])]
        verdict = "FAIL"
        if None not in periods:
            stable_g = math.lcm(*periods)
            bound_t = K + stable_g ** 3 * L ** 2
            if stable_g <= g_bound and trace.distinct_count <= bound_t:
                verdict = "PASS"
    elif not trace.resource_flag and observed_k0 is not None and observed_k0 <= K:
        # no closure: a PASS over the horizon needs it long enough to be
        # meaningful, otherwise the verdict stays inconclusive
        bound_h = K + observed_g ** 3 * L ** 2
        if len(its) > K + bound_h and observed_g <= g_bound \
                and trace.distinct_count <= bound_h:
            verdict, stable_g, bound_t = "PASS", observed_g, bound_h
    return StabilizationReport(beta, K, L, c, g_bound, observed_k0, observed_g,
                               stable_g, trace.distinct_count, bound_t, verdict,
                               trace.resource_flag, trace.closed, trace)
