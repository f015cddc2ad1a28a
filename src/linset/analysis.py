"""Classical additive checks: small-doubling, bounded gaps, the k-fold
sumset dichotomy, full periodicity of semi-periodic differences, and
iterated positive difference sets with their stability-time bounds."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from ._bits import _fold_mod, _periodic_fill, _rotate
from ._orbit import orbit
from .epset import EPSet, InputError, ResourceLimitExceeded
from .linops import LinearOp, apply_linear_op


@dataclass
class DensityReport:
    """Counting densities |A ∩ [1, n]| / n along a profile of sample points."""

    profile: list
    sup_profile: list


def density_profile(elems, ns) -> DensityReport:
    ns = sorted(ns)
    if ns and ns[0] < 1:
        raise InputError("sample point %d is below 1" % ns[0])
    elems = sorted(x for x in elems if x >= 1)
    profile = []
    sup_profile = []
    best = Fraction(0)
    idx = 0
    for n in ns:
        while idx < len(elems) and elems[idx] <= n:
            idx += 1
        val = Fraction(idx, n)
        best = max(best, val)
        profile.append((n, val))
        sup_profile.append((n, best))
    return DensityReport(profile, sup_profile)


def freiman_doubling_check(xs):
    """|X+X| against min(3k-3, k+max) for finite X with 0 in X, gcd(X)=1.

    Returns (|X+X|, bound, holds); the inequality holds for every
    admissible X, so a False is a falsification.
    """
    xs = sorted(set(xs))
    if len(xs) < 2:
        raise InputError("need at least two elements")
    if xs[0] != 0 or any(x < 0 for x in xs):
        raise InputError("set must consist of nonnegative integers containing 0")
    if math.gcd(*xs) != 1:
        raise InputError("elements must have gcd 1")
    sums = {x + y for x in xs for y in xs}
    lhs = len(sums)
    rhs = min(3 * len(xs) - 3, len(xs) + xs[-1])
    return lhs, rhs, lhs >= rhs


@dataclass
class GapReport:
    density: Fraction
    threshold: Fraction
    precondition_ok: bool
    gap_forward: float
    gap_backward: float
    bound: int
    holds: bool


def gap_bound_check(x: EPSet, a: int, b: int, within=None) -> GapReport:
    """Gaps of aX - bX and bX - aX against the bound a.

    The bound is guaranteed when the density of X exceeds a/(a+1); the
    check still runs below the threshold and reports what it saw.
    """
    if not (a >= b >= 1):
        raise InputError("need a >= b >= 1")
    dens = x.upper_density()
    threshold = Fraction(a, a + 1)
    fwd = apply_linear_op(LinearOp(a, b), x)
    bwd = fwd.negate()
    if within is not None:
        span = (-(a + b) * max(abs(within[0]), abs(within[1])),
                (a + b) * max(abs(within[0]), abs(within[1])))
        gap_f = fwd.max_gap(within=span)
        gap_b = bwd.max_gap(within=span)
    else:
        gap_f = fwd.max_gap()
        gap_b = bwd.max_gap()
    ok = dens > threshold
    holds = gap_f <= a and gap_b <= a
    return GapReport(dens, threshold, ok, gap_f, gap_b, a, holds)


@dataclass
class DichotomyReport:
    k: int
    branch: int
    d_x: Fraction
    d_xk: Fraction
    modulus: int | None
    closure: EPSet | None
    closure_contains_x: bool | None
    closure_semi_periodic: bool | None
    tail_contained: bool | None
    density_inequality: bool | None

    @property
    def verified(self) -> bool:
        if self.branch == 1:
            return self.d_xk >= self.k * self.d_x
        return bool(self.closure_contains_x and self.closure_semi_periodic
                    and self.tail_contained and self.density_inequality)


def iterated_sumset(x: EPSet, k: int) -> EPSet:
    if k < 1:
        raise InputError("fold count must be >= 1")
    out = x
    for _ in range(k - 1):
        out = out.minkowski(x)
    return out


def kneser_dichotomy(x: EPSet, k: int) -> DichotomyReport:
    """Either d(Xk) >= k*d(X), or a modulus g and a semi-periodic closure
    X' witness the structured branch; everything is verified exactly."""
    if x.neg_tail or (x.min_element() is not None and x.min_element() < 0):
        raise InputError("the dichotomy applies to sets of nonnegative integers")
    if not x.pos_tail:
        raise InputError("positive lower density required")
    xk = iterated_sumset(x, k)
    d_x = x.upper_density()
    d_xk = xk.upper_density()
    if d_xk >= k * d_x:
        return DichotomyReport(k, 1, d_x, d_xk, None, None, None, None, None, None)

    # the closure keeps, above min(X), every residue mod g that X meets
    g = xk.period
    m = math.lcm(g, x.period)
    closure_res = (_rotate(_fold_mod(x.window, g), x.lo, g)
                   | _fold_mod(_periodic_fill(x.pos_tail, x.period, 0, m), g))
    start = x.min_element()
    closure = EPSet(g, start, start - 1, 0, 0, closure_res)
    contains = x.subset_of(closure)
    semi = closure.translate(g).subset_of(closure)
    ck = iterated_sumset(closure, k)
    bound = max(ck.hi, xk.hi) + 1
    tail_contained = ck.translate(-bound).restrict_nonnegative().subset_of(
        xk.translate(-bound).restrict_nonnegative())
    d_closure = closure.upper_density()
    ineq = d_xk >= k * d_closure - Fraction(k - 1, g)
    return DichotomyReport(k, 2, d_x, d_xk, g, closure, contains, semi,
                           tail_contained, ineq)


@dataclass
class DifferencePeriodicityReport:
    modulus: int
    semi_periodic_inputs: bool
    fully_periodic: bool
    difference: EPSet


def difference_fully_periodic_check(a_set: EPSet, g: int, b_set: EPSet,
                                    g2: int) -> DifferencePeriodicityReport:
    """A semi-periodic mod g minus B semi-periodic mod g2 is fully periodic
    modulo gcd(g, g2); verified by exact computation."""
    ok_a = a_set.translate(g).subset_of(a_set)
    ok_b = b_set.translate(g2).subset_of(b_set)
    if not (ok_a and ok_b):
        raise InputError("inputs must be semi-periodic for the stated moduli")
    d = math.gcd(g, g2)
    diff = a_set - b_set
    fully = diff == diff.translate(d)
    return DifferencePeriodicityReport(d, True, fully, diff)


def dplus(a: EPSet) -> EPSet:
    """Positive difference set {x - y : x >= y, both in A}, A within N."""
    if a.is_empty():
        return a
    mn = a.min_element()
    if mn is None or mn < 0:
        raise InputError("positive difference is defined for subsets of N")
    return (a - a).restrict_nonnegative()


def stability_time(a: EPSet, max_k: int = 128):
    """(T, iterates): least T with D+_{T+1}(A) = D+_T(A), found exactly."""
    its = [a]
    # from D+_1 on the iterates increase, so the first repeat is a fixed point
    closure = orbit(lambda k, x: dplus(x), its, max_k)
    if closure is None:
        raise ResourceLimitExceeded(
            "no fixed point within %d positive-difference steps" % max_k)
    return closure[0], its


def stability_time_bounds(density: Fraction):
    """The two closed-form upper bounds on T(A) for 0 < density <= 1/2.

    Returns (doubling_bound, refined_bound) = (2*log2(1/d),
    2 + log2(1/d - 1)).  Densities above 1/2 are rejected: there T <= 1.
    """
    density = Fraction(density)
    if not 0 < density <= Fraction(1, 2):
        raise InputError("bounds apply for densities in (0, 1/2]; above, T <= 1")
    inv = Fraction(1, 1) / density
    st = 2 * math.log2(inv)
    rz = 2 + math.log2(inv - 1)
    return st, rz
