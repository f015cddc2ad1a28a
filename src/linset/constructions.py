"""Generators for the explicit sets driving the counterexample and
boundary phenomena: progression orbits, scaled divergence, one-frequency
Bohr truncations, sparse interval unions, and the parity-flip sequence."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from ._bits import _from_offsets, _int_dtype, _members, convolve_or
from ._orbit import orbit
from .epset import EPSet, InputError, _decimals, check_window
from .linops import LinearOp, OpSequence, apply_linear_op
from .residue import multiplicative_order


@dataclass(frozen=True)
class TruncatedSet:
    """A finite truncation: membership is exact within [0, horizon]."""

    elems: tuple
    horizon: int

    def __post_init__(self):
        if self.elems and (min(self.elems) < 0 or max(self.elems) > self.horizon):
            raise InputError("elements must lie within [0, horizon]")

    def __len__(self):
        return len(self.elems)

    def __contains__(self, x):
        return x in self._elem_set

    @cached_property
    def _elem_set(self) -> frozenset:
        # built on the first membership test; the dataclass fields, and so
        # equality, hashing and repr, do not see it
        return frozenset(self.elems)

    def density(self) -> Fraction:
        n = max(self.horizon, 1)
        return Fraction(sum(1 for x in self.elems if 1 <= x <= n), n)

    def to_epset(self) -> EPSet:
        return EPSet.from_iterable(self.elems)

    def to_expr(self) -> str:
        return "{%s}" % _decimals(self.elems)


def finite_gamma(elems, a: int, b: int):
    """{a*x - b*y} over a finite set, by explicit convolution; a, b >= 0."""
    if a < 0 or b < 0:
        raise InputError("finite_gamma needs nonnegative coefficients")
    elems = sorted(set(elems))
    if not elems:
        return []
    lo, hi = elems[0], elems[-1]
    check_window((a + b) * (hi - lo) + 1)
    # bit a*(x - lo) for each x, convolved with bit b*(hi - y) for each y
    xs = np.array(elems, _int_dtype(max(hi, -lo) + hi - lo))
    amask = _from_offsets(a * (xs - lo), a * (hi - lo) + 1)
    bmask = _from_offsets(b * (hi - xs), b * (hi - lo) + 1)
    return _members(convolve_or(amask, bmask), a * lo - b * hi)


def max_consecutive_gap(sorted_elems) -> int:
    if len(sorted_elems) < 2:
        return 0
    return max(y - x for x, y in zip(sorted_elems, sorted_elems[1:]))


@dataclass
class ProgressionOrbit:
    """The progression {ab*m + 1 : m >= 0} and its predicted orbit under
    X -> aX - bX: full classes (a-b)^k mod ab, cycling with the
    multiplicative order of a-b; stable only when a = b + 1."""

    a: int
    b: int
    start: EPSet
    cycle_length: int
    stable: bool

    def predicted(self, k: int) -> EPSet:
        if k == 0:
            return self.start
        ab = self.a * self.b
        return EPSet.residue_class(pow(self.a - self.b, k, ab), ab)


def ap_counterexample(a: int, b: int) -> ProgressionOrbit:
    if math.gcd(a, b) != 1:
        raise InputError("coefficients must be coprime")
    if not a > b >= 1:
        raise InputError("need a > b >= 1")
    ab = a * b
    start = EPSet.half_line(1 % ab, ab, 1)
    return ProgressionOrbit(
        a=a, b=b, start=start,
        cycle_length=multiplicative_order(a - b, ab),
        stable=(a == b + 1),
    )


@dataclass
class DivergenceReport:
    d: int
    iterates: list
    divisible: list        # iterate k sits inside d^k * Z
    min_nonzero_abs: list  # smallest nonzero magnitude per iterate
    all_distinct: bool


def scaled_divergence(d: int, a1: int, b1: int, steps: int = 5) -> DivergenceReport:
    """Iterate X -> d*a1*X - d*b1*X on N: every iterate k lies in d^k * Z
    and the smallest nonzero magnitude grows without bound, so the orbit
    never settles.  (0 itself persists: it maps to a*0 - b*0.)"""
    if d < 2:
        raise InputError("the common factor d must be at least 2")
    if math.gcd(a1, b1) != 1:
        raise InputError("reduced coefficients must be coprime")
    op = LinearOp(d * a1, d * b1)
    iterates = [EPSet.naturals()]
    closure = orbit(lambda k, x: apply_linear_op(op, x), iterates, steps)
    divisible = [x.subset_of(EPSet.residue_class(0, d ** k))
                 for k, x in enumerate(iterates)]
    min_nonzero = []
    for x in iterates:
        span = x.period * 2 + 2
        min_nonzero.append(min((abs(v) for v in x.elements_in(-span, span) if v != 0),
                               default=None))
    return DivergenceReport(d, iterates, divisible, min_nonzero, closure is None)


def sqrt2_minus_one(min_denominator: int) -> Fraction:
    """Continued-fraction convergent of sqrt(2) - 1 = [0; 2, 2, 2, ...]
    with denominator above the requested floor (comparisons against it
    are then exact in rational arithmetic)."""
    p_prev, p_cur = 1, 0
    q_prev, q_cur = 0, 1
    while q_cur <= min_denominator:
        p_prev, p_cur = p_cur, 2 * p_cur + p_prev
        q_prev, q_cur = q_cur, 2 * q_cur + q_prev
    return Fraction(p_cur, q_cur)


def bohr_truncation(alpha: Fraction, delta: Fraction, n: int) -> TruncatedSet:
    """{a in [1, n] : dist(alpha * a, Z) < delta / 2}, exactly, under a
    rational surrogate for alpha.

    The surrogate must be fine enough for the horizon: its denominator has
    to exceed 4n (take a continued-fraction convergent of the intended
    irrational), otherwise the truncation is rejected.  A horizon with
    n + 1 past ``window_cap()`` raises ``WindowCapExceeded``.
    """
    alpha = Fraction(alpha)
    delta = Fraction(delta)
    if n < 1:
        raise InputError("the horizon n must be at least 1")
    if not 0 < delta <= 1:
        raise InputError("delta must lie in (0, 1]")
    check_window(n + 1)
    if alpha.denominator <= 4 * n:
        raise InputError(
            "surrogate denominator %d is too coarse for horizon %d"
            % (alpha.denominator, n))
    q = alpha.denominator
    p = alpha.numerator
    # min(t, q - t) / q < delta / 2, with the denominators cleared
    dn, dd = delta.numerator, delta.denominator
    a = np.arange(1, n + 1, dtype=_int_dtype(max(abs(p) * n, 2 * q * dd, dn * q)))
    t = p * a % q
    return TruncatedSet(tuple(a[2 * np.minimum(t, q - t) * dd < dn * q].tolist()), n)


def sparse_interval_union(xs, delta: Fraction, n: int) -> TruncatedSet:
    """Integers inside the open intervals (x_i, x_i * (1 + delta)), up to n.
    A horizon with n + 1 past ``window_cap()`` raises ``WindowCapExceeded``."""
    delta = Fraction(delta)
    if n < 1:
        raise InputError("the horizon n must be at least 1")
    if delta <= 0:
        raise InputError("delta must be positive")
    xs = [Fraction(x) for x in xs]
    if any(x <= 0 for x in xs) or any(y <= x for x, y in zip(xs, xs[1:])):
        raise InputError("interval anchors must be positive and increasing")
    check_window(n + 1)
    elems = set()
    for x in xs:
        elems.update(range(math.floor(x) + 1, min(n, math.ceil(x * (1 + delta)) - 1) + 1))
    return TruncatedSet(tuple(sorted(elems)), n)


def interval_gap_profile(xs, delta: Fraction, a: int, b: int):
    """Max gap of aA - bA as interval blocks accumulate.

    Row i uses the first i blocks with the horizon closing just past
    block i; for delta < a/b - 1 the gaps grow without bound as blocks
    spread out.
    """
    rows = []
    for i in range(1, len(xs) + 1):
        horizon = int(Fraction(xs[i - 1]) * (1 + Fraction(delta))) + 2
        trunc = sparse_interval_union(xs[:i], delta, horizon)
        diff = finite_gamma(trunc.elems, a, b)
        rows.append((i, max_consecutive_gap(diff)))
    return rows


@dataclass
class ParityFixture:
    bits: tuple
    seq: OpSequence
    predictions: list  # EPSets for k = 0 .. len(bits)


def parity_flip_sequence(bits) -> ParityFixture:
    """Ops (2,1) for bit 0 and (3,1) for bit 1 acting on 1 + 3Z.

    (2,1) fixes both 1+3Z and 2+3Z while (3,1) swaps them, so the k-th
    iterate is 1+3Z when the number of 1-bits among the first k is even
    and 2+3Z otherwise.
    """
    bits = tuple(int(b) for b in bits)
    if any(b not in (0, 1) for b in bits):
        raise InputError("bits must be 0 or 1")
    seq = OpSequence(tuple((2, 1) if b == 0 else (3, 1) for b in bits))
    base = EPSet.residue_class(1, 3)
    flipped = EPSet.residue_class(2, 3)
    preds = [base]
    parity = 0
    for b in bits:
        parity ^= b
        preds.append(flipped if parity else base)
    return ParityFixture(bits, seq, preds)
