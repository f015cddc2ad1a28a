"""Brute-force windowed oracles, independent of the set-algebra internals.

Each oracle evaluates operand membership straight from the defining rule
(window bit, or tail residue bit depending on which side of the window a
point falls), materializes explicit bitmaps over a padded interval, and
computes the operation by direct enumeration.  None of the tail-interaction
bookkeeping of the implementation under test is reused here.
"""

import math
import re
from collections import Counter
from itertools import product

from fractions import Fraction

import numpy as np

from linset import constructions
from linset._bits import (_class_sum, _fold_mod, _image, _members, _min_period, _periodic_fill,
                          _rotate, convolve_or)
from linset.analysis import dplus
from linset.cli import SetSemanticError, SetSyntaxError, _int_literal, _Scanner
from linset.constructions import TruncatedSet
from linset.epset import (EPSet, InputError, ResourceLimitExceeded, WindowCapExceeded,
                          _negated, _sum_cross, _sum_windows, _union, _up_pieces, check_window,
                          window_cap)
from linset.linops import OpSequence, apply_linear_op
from linset.residue import (DecompositionCertificate, DecompositionFailure, ResidueOrbit,
                            _check_coprime, gamma_mod, totient)
from linset.stability import IterationTrace, StabilizationReport, full_periodicity_onset


def member(s, x):
    """Defining membership rule, evaluated directly."""
    if x < s.lo:
        return bool((s.neg_tail >> (x % s.period)) & 1)
    if x > s.hi:
        return bool((s.pos_tail >> (x % s.period)) & 1)
    return bool((s.window >> (x - s.lo)) & 1)


def bitmap(s, a, b):
    """Explicit membership bitmap of s over [a, b] (bit i <-> a + i)."""
    out = 0
    for i, x in enumerate(range(a, b + 1)):
        if member(s, x):
            out |= 1 << i
    return out


def _pad(s, t, radius):
    """Witness bound: every sum landing in [-radius, radius] has a witness
    pair within [-pad, pad].  An out-of-window witness pair can always be
    slid by lcm of the periods until one coordinate is near the windows."""
    m = max(abs(s.lo), abs(s.hi), abs(t.lo), abs(t.hi)) + 1
    return 2 * radius + 2 * m + math.lcm(s.period, t.period) + 2


def _convolve(mask1, off1, mask2, off2, radius):
    """Bitmap over [-radius, radius] of {u + v} for bitmaps with offsets."""
    acc = 0
    rest = mask1
    while rest:
        low = rest & -rest
        i = low.bit_length() - 1
        rest ^= low
        acc |= mask2 << i
    base = off1 + off2
    out = 0
    for i, z in enumerate(range(-radius, radius + 1)):
        j = z - base
        if j >= 0 and (acc >> j) & 1:
            out |= 1 << i
    return out


def sum_bitmap(s, t, radius):
    """Bitmap of the sumset of s and t over [-radius, radius]."""
    p = _pad(s, t, radius)
    return _convolve(bitmap(s, -p, p), -p, bitmap(t, -p, p), -p, radius)


def difference_bitmap(s, t, radius):
    """Bitmap of {x - y : x in s, y in t} over [-radius, radius]: t's
    bitmap over [-p, p] is read backwards, so bit i stands for -(p - i)."""
    p = _pad(s, t, radius)
    neg = 0
    for i, y in enumerate(range(p, -p - 1, -1)):
        if member(t, y):
            neg |= 1 << i
    return _convolve(bitmap(s, -p, p), -p, neg, -p, radius)


def gamma_bitmap(s, a, b, radius):
    """Bitmap of {a*x - b*y : x, y in s} over [-radius, radius].

    Out-of-range witness pairs can be slid in lockstep, (x + b*g*t,
    y + a*g*t), without changing a*x - b*y, so a generous padded interval
    contains witnesses for every value in range.
    """
    g = s.period
    m = max(abs(s.lo), abs(s.hi)) + 1
    p = radius + (a + b + 2) * (m + (a + b) * g + 1)
    da = 0
    db = 0
    for i, x in enumerate(range(-p, p + 1)):
        if member(s, x):
            da |= 1 << (a * i)
            db |= 1 << (b * (2 * p - i))
    # da bit a*i <-> value a*(i - p); db bit b*(2p - i) <-> value -b*(i - p)
    return _convolve(da, -a * p, db, -b * p, radius)


def periodic_gamma_bitmap(s, a, b, radius):
    """Bitmap of {a*x - b*y : x, y in s} over [-radius, radius] for a set
    with s + g = s, g = s.period (no window, one tail rule).

    Every witness pair slides to (x + b*g*t, y + a*g*t) inside s without
    changing a*x - b*y, so x ranges over [0, b*g); for a value in range,
    y then lies in [(a*x - radius)/b, (a*x + radius)/b].
    """
    if s.lo <= s.hi or s.neg_tail != s.pos_tail:
        raise ValueError("periodic_gamma_bitmap needs a fully periodic set")
    g = s.period
    ylo = -radius // b
    yhi = -(-(a * (b * g - 1) + radius) // b)
    da = 0
    for x in range(b * g):
        if member(s, x):
            da |= 1 << (a * x)
    db = 0
    for y in range(ylo, yhi + 1):
        if member(s, y):
            db |= 1 << (b * (yhi - y))
    # da bit a*x <-> value a*x; db bit b*(yhi - y) <-> value -b*y
    return _convolve(da, 0, db, -b * yhi, radius)


def dilate_bitmap(s, n, radius):
    out = 0
    for i, z in enumerate(range(-radius, radius + 1)):
        if z % n == 0 and member(s, z // n):
            out |= 1 << i
    return out


def negate_bitmap(s, radius):
    out = 0
    for i, z in enumerate(range(-radius, radius + 1)):
        if member(s, -z):
            out |= 1 << i
    return out


def translate_bitmap(s, c, radius):
    out = 0
    for i, z in enumerate(range(-radius, radius + 1)):
        if member(s, z - c):
            out |= 1 << i
    return out


def union_bitmap(s, t, radius):
    return bitmap(s, -radius, radius) | bitmap(t, -radius, radius)


def restrict_nonnegative_bitmap(s, radius):
    out = 0
    for i, z in enumerate(range(-radius, radius + 1)):
        if z >= 0 and member(s, z):
            out |= 1 << i
    return out


def agrees(result, expected_bitmap, radius):
    """True iff the EPSet `result` matches the bitmap on [-radius, radius]."""
    return result.membership_mask(-radius, radius) == expected_bitmap


def coefficient_expansion(pairs):
    """Signed coefficient multiset of a composition of ops (a, b): one
    term prod(a_i or -b_i) per splitting, all 2^s splittings enumerated."""
    counts = Counter()
    for choice in product(*[(a, -b) for a, b in pairs]):
        counts[math.prod(choice)] += 1
    return dict(counts)


# -- the divisor scan that _bits._min_period's prime descent replaced ----------

def divisors(n):
    small, large = [], []
    i = 1
    while i * i <= n:
        if n % i == 0:
            small.append(i)
            if i * i != n:
                large.append(n // i)
        i += 1
    return small + large[::-1]


def min_period(m, *masks):
    for d in divisors(m)[:-1]:
        for x in masks:
            if _rotate(x, d, m) != x:
                break
        else:
            return d
    return m


# -- the Minkowski sum that builds every piece ---------------------------------
# EPSet.minkowski as it stood before the cross pieces decided first, kept as
# the reference for ``_key()``: no piece is skipped, nothing returns early.

def minkowski_key(s, t):
    if s.is_empty() or t.is_empty():
        return EPSet.empty()._key()
    a, b = s._key(), t._key()
    pieces = _up_pieces(a, b, 0)
    if s.window and t.window:
        pieces.append(_sum_windows(a, b))
    if s.neg_tail or t.neg_tail:
        na = _negated(a[:3] + (a[3] if t.neg_tail else 0, a[4], 0))
        nb = _negated(b[:3] + (b[3] if s.neg_tail else 0, b[4], 0))
        pieces += map(_negated, _up_pieces(na, nb, 0))
    if s.pos_tail and t.neg_tail:
        pieces.append(_sum_cross(a, b))
    if t.pos_tail and s.neg_tail:
        pieces.append(_sum_cross(b, a))
    return _union(pieces)._key()


# -- the canonical operands that raw ones replaced -----------------------------
# EPSet.dilate as it stood before ``epset._dilated``: a negative factor
# negates the canonical value first, and the result is a canonical EPSet.
# ``linear_op_step`` is the non-periodic step of ``apply_linear_op`` that
# summed these canonical values aS and -bS.

def dilate(s, n):
    if n == 0:
        raise InputError("dilation by 0 is not defined for this algebra")
    if n < 0:
        return dilate(s.negate(), -n)
    if n == 1:
        return s
    g = s.period
    width = s.hi - s.lo + 1
    check_window(max(n * g, (width - 1) * n + 1))
    if width > 0:
        lo, hi = n * s.lo, n * s.hi
    else:
        lo, hi = n * s.lo, n * s.lo - 1
    return EPSet(n * g, lo, hi, spread(s.window, n, n * width),
                 spread(s.neg_tail, n, n * g), spread(s.pos_tail, n, n * g))


def linear_op_step(op, s):
    return dilate(s, op.a).minkowski(dilate(s, -op.b))


# -- the residue dilation that one index array replaced ------------------------
# ``_bits._spread`` as it stood before it mapped a wide mask's index array:
# a string-join plain spread for wide masks with many set bits when n >= 1
# and m exceeds n times the top bit, else one OR per set bit.

def spread(mask, n, m):
    top = mask.bit_length() - 1
    if n == 1 and top < m:
        return mask
    if top >= 256 and 0 < n and n * top < m and mask.bit_count() > 32:
        return int(("0" * (n - 1)).join(format(mask, "b")), 2)
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << (n * (low.bit_length() - 1) % m)
        mask ^= low
    return out


# -- the residue image ---------------------------------------------------------
# {a*x + b*y mod g} over pairs of members, for the kernel ``_bits._image``.

def image(mask, a, b, g):
    xs = [x for x in range(mask.bit_length()) if mask >> x & 1]
    return sum(1 << r for r in {(a * x + b * y) % g for x in xs for y in xs})


# The same image on numpy lanes, one mask per lane, with no doubling: the
# reference for ``residue._image_table``, and the imager of sampled masks
# past the exhaustive range.  aU and bU are gathered bit by bit, then
# aU + bU is the OR of aU rotated by each member of bU: 3g elementwise passes.

def image_lanes(masks, g, a, b):
    """aU + bU mod g for each mask of an unsigned array of lanes."""
    dt = masks.dtype
    au = np.zeros_like(masks)
    bu = np.zeros_like(masks)
    one = np.array(1, dtype=dt)
    for x in range(g):
        sel = (masks >> np.array(x, dtype=dt)) & one
        au |= sel << np.array(a * x % g, dtype=dt)
        bu |= sel << np.array(b * x % g, dtype=dt)
    out = np.zeros_like(masks)
    full = np.array((1 << g) - 1, dtype=dt)
    zero = np.array(0, dtype=dt)
    for y in range(g):
        sel = ((bu >> np.array(y, dtype=dt)) & one).astype(bool)
        if y == 0:
            rot = au
        else:
            rot = ((au << np.array(y, dtype=dt)) |
                   (au >> np.array(g - y, dtype=dt))) & full
        out |= np.where(sel, rot, zero)
    return out


def sweep(g, a, b, masks):
    """``cardinality_sweep``'s (all_hold, equality_masks) over the given
    masks in [0, 2^g), imaged on uint64 lanes."""
    masks = np.asarray(masks, dtype=np.uint64)
    pc_im = np.bitwise_count(image_lanes(masks, g, a, b))
    pc_u = np.bitwise_count(masks)
    eq = masks[(pc_im == pc_u) & (pc_u > 0)]
    return bool(np.all(pc_im >= pc_u)), eq.tolist()


# -- the canonical form that EPSet's loop-free trim replaced -------------------
# The constructor body as it stood when it walked the period bit by bit to
# find where the tail rules split, kept as the reference for ``_key()``.

def canonical_key(period, lo, hi, window, neg_tail, pos_tail):
    width = hi - lo + 1
    d = min_period(period, neg_tail, pos_tail)
    sub = (1 << d) - 1
    neg = neg_tail & sub
    pos = pos_tail & sub

    bad_neg = window ^ _periodic_fill(neg, d, lo, width)
    bad_pos = window ^ _periodic_fill(pos, d, lo, width)
    if bad_neg == 0 and neg == pos:
        return (d, 0, -1, 0, neg, pos)

    diff = neg ^ pos
    if bad_neg:
        new_lo = lo + ((bad_neg & -bad_neg).bit_length() - 1)
    else:
        i = 0
        while not (diff >> ((hi + 1 + i) % d)) & 1:
            i += 1
        new_lo = hi + 1 + i
    if bad_pos:
        new_hi = lo + bad_pos.bit_length() - 1
    else:
        i = 1
        while not (diff >> ((lo - i) % d)) & 1:
            i += 1
        new_hi = lo - i
    new_hi = max(new_hi, new_lo - 1)

    new_window = 0
    ov_hi = min(new_hi, hi)
    if new_lo <= ov_hi:
        new_window = (window >> (new_lo - lo)) & ((1 << (ov_hi - new_lo + 1)) - 1)
    if new_hi > hi:
        start = max(new_lo, hi + 1)
        new_window |= _periodic_fill(pos, d, start, new_hi - start + 1) << (start - new_lo)
    return (d, new_lo, new_hi, new_window, neg, pos)


# -- the orbit loops that linset._orbit.orbit replaced -------------------------
# Each is the loop as it stood before the one engine, kept as the reference
# for every field of the results.

def iterate_trace(s, seq, max_k=256):
    iterates = [s]
    p = len(seq) if seq.cyclic and len(seq) else None
    first_seen = {s: 0}
    seen_states = {(s, 0): 0} if p else None
    cycle = None
    closed = False
    closure = None
    resource = None
    horizon = max_k if seq.cyclic else min(max_k, len(seq))
    k = 0
    while k < horizon:
        try:
            nxt = apply_linear_op(seq.op_at(k), iterates[-1])
        except WindowCapExceeded:
            resource = "window-cap"
            break
        k += 1
        iterates.append(nxt)
        if nxt in first_seen:
            i = first_seen[nxt]
            if cycle is None and seq.constant_from(i):
                cycle = (i, k - i)
                closed = True
                closure = (i, k - i)
                break
        else:
            first_seen[nxt] = k
        if p is not None:
            state = (nxt, k % p)
            if state in seen_states:
                closed = True
                closure = (seen_states[state], k - seen_states[state])
                break
            seen_states[state] = k

    trace = IterationTrace(iterates=iterates, periods=[x.full_period() for x in iterates],
                           distinct_count=len(set(iterates)), cycle=cycle,
                           periodicity_onset=None, resource_flag=resource, closed=closed,
                           closure=closure)
    trace.periodicity_onset = full_periodicity_onset(trace)
    return trace


# -- the verifier that asked the iterates for their periods -------------------
# ``verify_stabilization`` as it stood before ``IterationTrace.periods``: the
# onset scans every iterate's full period, and the closure span is the set of
# iterates of the replayed stretch and from step K on, each asked again.  The
# input checks are left out: callers pass valid inputs.

def verify_stabilization(a, seq, bound=None, c=10, max_steps=20000):
    L = bound if bound is not None else max(seq.bound, 2)
    beta = 1 / a.upper_density()
    K = c * L + floor_log2(beta ** c)
    g_bound = L ** (K + 1)
    trace = iterate_trace(a, seq, max_k=max_steps)
    its = trace.iterates
    last_bad = -1
    for i, x in enumerate(its):
        if x.full_period() is None:
            last_bad = i
    observed_k0 = observed_g = None
    if last_bad + 1 < len(its):
        observed_k0 = last_bad + 1
        observed_g = math.lcm(*(x.full_period() for x in its[observed_k0:]))
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
        bound_h = K + observed_g ** 3 * L ** 2
        if len(its) > K + bound_h and observed_g <= g_bound \
                and trace.distinct_count <= bound_h:
            verdict, stable_g, bound_t = "PASS", observed_g, bound_h
    return StabilizationReport(beta, K, L, c, g_bound, observed_k0, observed_g, stable_g,
                               trace.distinct_count, bound_t, verdict, trace.resource_flag,
                               trace.closed, trace)


def residue_orbit(u, a, b, max_steps=None):
    states = [u]
    seen = {u: 0}
    cur = u
    steps = 0
    while True:
        cur = gamma_mod(cur, a, b)
        steps += 1
        onset = seen.setdefault(cur, len(states))
        if onset < len(states):
            length = len(states) - onset
            break
        if max_steps is not None and steps >= max_steps:
            raise ResourceLimitExceeded("orbit did not close within %d steps" % max_steps)
        states.append(cur)

    cycle = states[onset:]
    preserved = all(len(s) == len(cycle[0]) for s in cycle) and \
        len(gamma_mod(cycle[0], a, b)) == len(cycle[0])
    divisibility = None
    g = u.modulus
    # the divisibility check is defined when neither coefficient is 0, on
    # phi(|a|) * phi(|b|)
    for s in cycle if a and b else ():
        if not (s.mask & 1) or math.gcd(g, *s) != 1:
            continue
        if len(gamma_mod(s, a, b)) == len(s):
            divisibility = (totient(abs(a)) * totient(abs(b))) % length == 0
            break
    return ResidueOrbit(states, onset, length, preserved, divisibility)


# -- the equality-case decomposition by a translate search ---------------------
# ``residue.decompose_equality_case`` as it stood when it found V by
# matching the components of U1 mod b1 against the component of 0, kept as
# the reference for the two subgroup intersections that replaced it.

def decompose_by_components(u, a, b):
    _check_coprime(a, b)
    if not u.mask:
        return DecompositionFailure("empty set")
    g = u.modulus
    translation = (u.mask & -u.mask).bit_length() - 1
    u0 = _rotate(u.mask, -translation, g)
    if math.gcd(g, *_members(u0)) != 1:
        return DecompositionFailure("contained in a proper subgroup")
    if _image(u.mask, a, b, g).bit_count() != len(u):
        return DecompositionFailure("cardinality not preserved")

    step = _min_period(g, u0)     # H = step*G, |H| = g // step
    g1 = step                     # order of G / H
    u1 = _fold_mod(u0, g1)
    a1 = math.gcd(g1, a)
    b1 = math.gcd(g1, b)
    if a1 * b1 != g1:
        return DecompositionFailure("quotient modulus does not split over a and b")

    # components of U1 by residue mod b1, as masks mod g1
    b1_group = _periodic_fill(1, b1, 0, g1)
    comps = [c for c in (u1 & _rotate(b1_group, k, g1) for k in range(b1)) if c]
    if len({c.bit_count() for c in comps}) != 1:
        return DecompositionFailure("components have unequal sizes")
    # the component of 0 is the base; every other component must be a
    # translate of it by one of its own elements (unique since the base
    # is aperiodic within its subgroup)
    base = comps[0]
    reps = []
    for xs in comps:
        delta = next((c for c in _members(xs) if _rotate(xs, -c, g1) == base), None)
        if delta is None:
            return DecompositionFailure("components are not translates of each other")
        reps.append(delta)

    v = tuple(sorted(reps))
    x_part = tuple(_members(base))
    if any(val % a1 for val in v):
        return DecompositionFailure("representatives escape the a-side subgroup")

    cert = DecompositionCertificate(
        modulus=g, a=a, b=b, translation=translation,
        a1=a1, b1=b1, v=v, x=x_part, subgroup_step=g1,
    )
    if not cert.verify(u):
        return DecompositionFailure("reconstruction mismatch")
    return cert


def stability_time(a, max_k=128):
    its = [a]
    cur = a
    for k in range(max_k):
        nxt = dplus(cur)
        if nxt == cur:
            return k, its
        its.append(nxt)
        cur = nxt
    raise ResourceLimitExceeded("no fixed point within %d positive-difference steps" % max_k)


# -- the loops that exact one-step forms replaced ------------------------------
# Each is the loop as it stood before its one-step form: ``_floor_log2``,
# ``collision_depth_threshold``, the mask of ``ResidueSet.__init__``,
# ``DecompositionCertificate.reconstruct``, the containment test of
# ``nonperiodic_absorption_check`` and ``sparse_interval_union``.

def floor_log2(x):
    p, q = x.numerator, x.denominator
    if p >= q:
        e = 0
        while (q << (e + 1)) <= p:
            e += 1
        return e
    e = -1
    while (p << -e) < q:
        e -= 1
    return e


def collision_depth_threshold(m, bound):
    t = 4 * bound + 2
    k = 0
    while (1 << k) < m * m:
        k += 1
    return t + k


def residue_mask(modulus, elems):
    mask = 0
    for x in elems:
        mask |= 1 << (x % modulus)
    return mask


def reconstruct(cert):
    g = cert.modulus
    out = set()
    for v in cert.v:
        for x in cert.x:
            for h in range(0, g, cert.subgroup_step):
                out.add((cert.translation + v + x + h) % g)
    return out


def absorption_holds(x, step):
    return all(t % step == 0 for t in x)


def sparse_interval_union(xs, delta, n):
    elems = set()
    for x in xs:
        left = x
        right = x * (1 + delta)
        for v in range(int(left) + 1, min(n, int(right)) + 1):
            if left < v < right:
                elems.add(v)
    return tuple(sorted(elems))


# -- the window+tail piece before its first-of-class reduction -----------------
# ``_bits._first_of_class`` as a walk over the bits, and the window+tail piece
# as it stood when it convolved every window bit with the tail.

def first_of_class(mask, m):
    out, seen = 0, set()
    for i in range(mask.bit_length()):
        if (mask >> i) & 1 and i % m not in seen:
            seen.add(i % m)
            out |= 1 << i
    return out


def sum_window_up(s, t):
    _, wlo, _, wmask, _, _ = s
    m, _, h, _, _, classes = t
    low = (wmask & -wmask).bit_length() - 1
    wmin = wlo + low
    wmax = wlo + wmask.bit_length() - 1
    span = wmax - wmin
    emask = 0
    if span > 0:
        tail_bits = _periodic_fill(classes, m, h + 1, span)
        emask = convolve_or(wmask >> low, tail_bits, span)
    shifted = _class_sum(classes, _rotate(_fold_mod(wmask, m), wlo, m), m)
    return (m, h + 1 + wmin, h + wmax, emask, 0, shifted)


# -- the Bohr truncation loop that one numpy pass replaced ---------------------

def bohr_truncation(alpha, delta, n):
    alpha, delta = Fraction(alpha), Fraction(delta)
    if n < 1 or not 0 < delta <= 1:
        raise InputError("bad horizon or delta")
    check_window(n + 1)
    if alpha.denominator <= 4 * n:
        raise InputError("surrogate too coarse")
    q, p = alpha.denominator, alpha.numerator
    dn, dd = delta.numerator, delta.denominator
    elems = []
    for a in range(1, n + 1):
        t = (p * a) % q
        if 2 * min(t, q - t) * dd < dn * q:
            elems.append(a)
    return TruncatedSet(tuple(elems), n)


# -- the {...} literal scan that the one-pass numpy parse fronts ---------------
# ``cli._int_literal`` as it stood before ``cli._int_array``: one regex match
# over the whole body, then a split and int().

_INT = r"[+-]?\d+"
_INTEGER = re.compile(r"\s*(%s)" % _INT)
_INT_LIST = re.compile(r"\s*(?:(%s(?:\s*,\s*%s)*)(\s*,)?)?\s*(\})?" % (_INT, _INT))


def _to_int(m, group):
    try:
        return int(m.group(group))
    except ValueError:
        raise SetSyntaxError("integer literal too long", m.start(group)) from None


def int_literal(sc):
    sc.take("{")
    m = _INT_LIST.match(sc.text, sc.i)
    body, comma, close = m.groups()
    if close and not comma:
        sc.i = m.end()
        try:
            return list(map(int, body.split(","))) if body else []
        except ValueError:
            return [_to_int(x, 1) for x in _INTEGER.finditer(sc.text, m.start(1), m.end(1))]
    sc.i = m.start(3) if close else m.end()
    if body and not comma:
        raise SetSyntaxError("expected '}'", sc.i)
    raise SetSyntaxError("expected an integer", sc.i)


# -- the digit accumulation that np.fromstring replaced ------------------------
# ``cli._int_array`` as it stood before numpy's text parser read the checked
# body: each digit weighted by 10 to its distance from the end of its token,
# and one ``np.add.reduceat`` per token (the branch-free accumulation of
# Langdale and Lemire, "Parsing gigabytes of JSON per second", VLDB J. 2019).

_POW10 = 10 ** np.arange(19, dtype=np.int64)


def int_array(body):
    if not body.isascii():
        return None
    b = np.frombuffer(body.encode("ascii"), np.uint8)
    digit = b - 48
    is_digit = digit < 10
    cut = np.flatnonzero(b == 44)
    signs = np.count_nonzero(b == 43) + np.count_nonzero(b == 45)
    if np.count_nonzero(is_digit) + len(cut) + signs != len(b):
        return None
    digit *= is_digit
    starts = np.append(0, cut + 1)
    ends = np.append(cut, len(b))
    lengths = ends - starts
    if lengths.min() < 1:
        return None
    minus = b[starts] == 45
    signed = minus | (b[starts] == 43)
    digits = lengths - signed
    if np.count_nonzero(signed) != signs or digits.min() < 1 or digits.max() > 18:
        return None
    place = np.repeat(ends, lengths + 1)[:len(b)] - 1 - np.arange(len(b))
    xs = np.add.reduceat(digit * _POW10[place], starts)
    return np.where(minus, -xs, xs)


# -- the token-by-token op grammar that the one-pattern parse replaced ---------
# ``cli.parse_ops`` as it stood before ``cli._OP``: one _Scanner step per
# token.

def parse_ops(text):
    sc = _Scanner(text)
    cyclic = False
    if sc.peek() == "c":
        if sc.name() != "cyc":
            raise SetSyntaxError("expected 'cyc'", sc.i)
        sc.take("[")
        cyclic = True
    ops = []
    while sc.peek() == "(":
        sc.take("(")
        a = sc.integer()
        sc.take(",")
        b = sc.integer()
        sc.take(")")
        if a < 1 or b < 1:
            raise SetSemanticError("operation entries must be positive")
        reps = 1
        if sc.peek() == "^":
            sc.take("^")
            reps = sc.integer()
            if reps < 1:
                raise SetSemanticError("repetition count must be positive")
        if len(ops) + reps > window_cap():
            raise ResourceLimitExceeded("operation sequence of %d ops exceeds the cap %d"
                                        % (len(ops) + reps, window_cap()))
        ops.extend([(a, b)] * reps)
    if cyclic:
        sc.take("]")
    sc.end()
    if not ops:
        raise SetSyntaxError("empty operation sequence", sc.i)
    return OpSequence(tuple(ops), cyclic=cyclic)


# -- the set grammar with one argument reading per constructor -----------------
# ``cli._parse_set`` and ``cli.parse_set_expression`` as they stood before
# ``cli._call``: each constructor takes its own "(", arguments, "," and ")".

def _parse_set(sc: _Scanner):
    ch = sc.peek()
    if ch == "{":
        return EPSet.from_iterable(_int_literal(sc))
    if not ch:
        raise SetSyntaxError("expected a set expression", sc.i)
    if not ch.isalpha():
        raise SetSyntaxError("unexpected character '%s'" % ch, sc.i)
    name = sc.name()
    if name == "Z":
        return EPSet.integers()
    if name == "N":
        return EPSet.naturals()
    if name == "U":
        sc.take("(")
        parts = [_parse_set(sc)]
        while sc.peek() == ",":
            sc.take(",")
            parts.append(_parse_set(sc))
        sc.take(")")
        return EPSet.union(*(p.to_epset() if isinstance(p, TruncatedSet) else p
                             for p in parts))
    if name in ("AP", "AP+", "AP-"):
        sc.take("(")
        r = sc.integer()
        sc.take(",")
        g = sc.integer()
        n0 = None
        if name != "AP":
            sc.take(",")
            n0 = sc.integer()
        sc.take(")")
        if g <= 0:
            raise SetSemanticError("modulus must be positive")
        if name == "AP":
            return EPSet.residue_class(r, g)
        if name == "AP+":
            return EPSet.half_line(r, g, max(r, n0))
        return EPSet.half_line_down(r, g, min(r, n0))
    if name == "bohr":
        sc.take("(")
        alpha = sc.fraction()
        sc.take(",")
        delta = sc.fraction()
        sc.take(",")
        n = sc.integer()
        sc.take(")")
        try:
            return constructions.bohr_truncation(alpha, delta, n)
        except InputError as e:
            raise SetSemanticError(str(e))
    if name == "sparse":
        sc.take("(")
        delta = sc.fraction()
        sc.take(",")
        n = sc.integer()
        xs = []
        while sc.peek() == ",":
            sc.take(",")
            xs.append(sc.fraction())
        sc.take(")")
        try:
            return constructions.sparse_interval_union(xs, delta, n)
        except InputError as e:
            raise SetSemanticError(str(e))
    raise SetSyntaxError("unknown set constructor '%s'" % name, sc.i)


def parse_set_expression(text: str):
    """Parse the set grammar: Z, N, {..}, AP, AP+, AP-, U(..), bohr(..),
    sparse(..).  Returns an EPSet or a TruncatedSet."""
    sc = _Scanner(text)
    out = _parse_set(sc)
    sc.end()
    return out
