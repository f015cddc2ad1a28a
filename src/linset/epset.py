"""Exact algebra of eventually periodic two-sided integer sets.

An EPSet stores a finite explicit window together with one periodic
membership rule for everything below the window and one for everything
above it.  This class of sets is closed under negation, translation,
dilation, union, Minkowski sum and nonnegative restriction, so iterated
maps X -> aX - bX can be computed exactly on infinite sets.

All values are canonical (minimal period, tightest window), hence
equality of EPSet values is equality of the sets they denote.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction

import numpy as np

from ._bits import (_class_sum, _first_of_class, _fold_mod, _from_offsets, _hash_key, _members,
                    _min_period, _periodic_fill, _reflect, _reverse, _rotate, _spread, convolve_or)

DEFAULT_WINDOW_CAP = 1 << 20


class InputError(ValueError):
    """A caller-supplied argument failed validation: a malformed or
    out-of-domain value, not a fault of the computation.  The CLI reports
    it, the parse errors included, with exit code 3.  Checks of EPSet's
    representation invariants stay plain ``ValueError``."""


class ResourceLimitExceeded(RuntimeError):
    """A window, step or iteration budget ran out before the result was
    found.  The CLI reports it, subclasses included, with exit code 2."""


class WindowCapExceeded(ResourceLimitExceeded):
    """An operation needed a larger explicit window than the configured cap.

    Raised instead of degrading to an approximation; orbits of sets that
    never settle into periodic tails grow geometrically and hit this.
    """

    def __init__(self, requested, cap):
        super().__init__(
            "operation needs a window of %d positions, cap is %d" % (requested, cap)
        )
        self.requested = requested
        self.cap = cap


def _env_window_cap() -> tuple:
    """(cap, error): the cap that LINSET_WINDOW_CAP names, the default when
    it is unset, and None.  A value that is not a positive integer gives the
    default and the message with which ``cli.run`` refuses every command."""
    text = os.environ.get("LINSET_WINDOW_CAP", str(DEFAULT_WINDOW_CAP))
    try:
        cap = int(text)
    except ValueError:
        cap = 0
    if cap < 1:
        return DEFAULT_WINDOW_CAP, "LINSET_WINDOW_CAP must be a positive integer, not %r" % text
    return cap, None


_window_cap, _env_cap_error = _env_window_cap()


def window_cap() -> int:
    return _window_cap


def check_window(size: int) -> None:
    """Raise WindowCapExceeded when an operation needs ``size`` positions,
    more than the cap; callers check before they allocate."""
    if size > _window_cap:
        raise WindowCapExceeded(size, _window_cap)


def set_window_cap(cap: int) -> None:
    global _window_cap
    if cap <= 0:
        raise InputError("window cap must be positive")
    _window_cap = cap


# canonical keys of Z and N
_INTEGERS = (1, 0, -1, 0, 1, 1)
_NATURALS = (1, 0, -1, 0, 0, 1)


def _class_bit(r, g):
    """The mask of the residue r mod g, after g is checked."""
    if g < 1:
        raise InputError("modulus must be positive")
    check_window(g)
    return 1 << (r % g)


class EPSet:
    """An eventually periodic two-sided set of integers.

    Membership is total:

        x in S  iff  x < lo      and bit (x mod period) of neg_tail,
                 or  lo <= x <= hi and bit (x - lo) of window,
                 or  x > hi      and bit (x mod period) of pos_tail.

    ``window`` is a bitmask over [lo, hi]; ``neg_tail``/``pos_tail`` are
    residue bitmasks mod ``period``.  The constructor accepts any valid
    representation and canonicalizes it without stepping through
    positions: the period is minimized, and the window is trimmed by two
    split rules.

    - ``lo`` is the first point of the given window that breaks the lower
      rule.  If every point keeps it, the window becomes empty at the
      first point above the given window where the two tail rules differ.
    - ``hi`` is the last point of the given window that breaks the upper
      rule, or ``lo - 1`` (an empty window) when none lies at or above lo.

    So the end bits of a nonempty window disagree with the adjacent tail
    rule, and an empty window sits where the rules split.  Fully periodic
    sets are normalized to an empty window at lo=0.  Values are
    immutable; do not mutate fields after creation.
    """

    __slots__ = ("period", "lo", "hi", "window", "neg_tail", "pos_tail", "_hash")

    def __init__(self, period, lo, hi, window, neg_tail, pos_tail):
        if period < 1:
            raise ValueError("period must be a positive integer")
        if lo > hi + 1:
            raise ValueError("window bounds must satisfy lo <= hi + 1")
        width = hi - lo + 1
        cap = _window_cap
        if width > cap or period > cap:
            raise WindowCapExceeded(max(width, period), cap)
        if window < 0 or (window >> width):
            raise ValueError("window bits outside [lo, hi]")
        full = (1 << period) - 1
        if neg_tail < 0 or pos_tail < 0 or (neg_tail & ~full) or (pos_tail & ~full):
            raise ValueError("tail residues outside [0, period)")

        # minimal modulus representing both tails; at the given period the
        # tail ints are kept as they are, not copied
        d = _min_period(period, neg_tail, pos_tail)
        neg, pos = neg_tail, pos_tail
        if d < period:
            sub = (1 << d) - 1
            neg, pos = neg & sub, pos & sub

        bad_neg = window ^ _periodic_fill(neg, d, lo, width)
        bad_pos = window ^ _periodic_fill(pos, d, lo, width)

        if bad_neg == 0 and neg == pos:
            # fully periodic (covers the empty set and all of Z)
            self.period, self.lo, self.hi = d, 0, -1
            self.window, self.neg_tail, self.pos_tail = 0, neg, pos
            self._hash = None
            return

        # the two split rules of the class docstring: bit i of the rotated
        # diff is residue hi + 1 + i, and one is set as neg != pos here;
        # with bad_pos == 0 the first bound of new_hi is lo - 1 < new_lo
        if bad_neg:
            new_lo = lo + (bad_neg & -bad_neg).bit_length() - 1
        else:
            up = _rotate(neg ^ pos, -(hi + 1), d)
            new_lo = hi + (up & -up).bit_length()
        new_hi = max(lo + bad_pos.bit_length() - 1, new_lo - 1)

        self.period, self.lo, self.hi = d, new_lo, new_hi
        self.window = _mask((d, lo, hi, window, neg, pos), new_lo, new_hi)
        self.neg_tail, self.pos_tail = neg, pos
        self._hash = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def empty(cls) -> "EPSet":
        return cls(1, 0, -1, 0, 0, 0)

    @classmethod
    def integers(cls) -> "EPSet":
        return cls(*_INTEGERS)

    @classmethod
    def naturals(cls) -> "EPSet":
        """The nonnegative integers."""
        return cls(*_NATURALS)

    @classmethod
    def from_iterable(cls, xs) -> "EPSet":
        """The finite set of the integers ``xs``, an iterable of ints or an
        int64 array (taken as it is, as ``_int_literal`` returns one)."""
        if isinstance(xs, np.ndarray):
            if not xs.size:
                return cls.empty()
            lo, hi = int(xs.min()), int(xs.max())
        else:
            xs = list(xs)
            if not xs:
                return cls.empty()
            lo, hi = min(xs), max(xs)
        width = hi - lo + 1
        check_window(width)
        return cls(1, lo, hi, _from_offsets(xs, width, lo), 0, 0)

    @classmethod
    def residue_class(cls, r: int, g: int) -> "EPSet":
        """The full two-sided progression r + gZ."""
        bit = _class_bit(r, g)
        return cls(g, 0, -1, 0, bit, bit)

    @classmethod
    def half_line(cls, r: int, g: int, start: int) -> "EPSet":
        """{x : x = r mod g, x >= start}."""
        return cls(g, start, start - 1, 0, 0, _class_bit(r, g))

    @classmethod
    def half_line_down(cls, r: int, g: int, end: int) -> "EPSet":
        """{x : x = r mod g, x <= end}."""
        return cls(g, end + 1, end, 0, _class_bit(r, g), 0)

    # -- basic queries -------------------------------------------------------

    def __contains__(self, x: int) -> bool:
        if x < self.lo:
            return bool((self.neg_tail >> (x % self.period)) & 1)
        if x > self.hi:
            return bool((self.pos_tail >> (x % self.period)) & 1)
        return bool((self.window >> (x - self.lo)) & 1)

    def _key(self):
        return (self.period, self.lo, self.hi, self.window, self.neg_tail, self.pos_tail)

    def __eq__(self, other):
        if not isinstance(other, EPSet):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.period, self.lo, self.hi, self.window,
                               _hash_key(self.neg_tail), _hash_key(self.pos_tail)))
        return self._hash

    def __repr__(self):
        return "EPSet(%s)" % self.to_expr()

    def is_empty(self) -> bool:
        return not (self.window or self.neg_tail or self.pos_tail)

    def is_fully_periodic(self) -> bool:
        """True iff S + period == S (canonical forms make this structural)."""
        return self.lo > self.hi and self.neg_tail == self.pos_tail

    def full_period(self):
        """Minimal g with S + g == S, or None if the set is not fully periodic."""
        return self.period if self.is_fully_periodic() else None

    def min_element(self):
        """Smallest element; None when empty or unbounded below."""
        if self.neg_tail:
            return None
        # past hi the upward tail meets each of its classes within one period
        m = self.membership_mask(self.lo, self.hi + self.period)
        return self.lo + (m & -m).bit_length() - 1 if m else None

    def max_element(self):
        """Largest element; None when empty or unbounded above."""
        if self.pos_tail:
            return None
        m = self.membership_mask(self.lo - self.period, self.hi)
        return self.lo - self.period + m.bit_length() - 1 if m else None

    def membership_mask(self, a: int, b: int) -> int:
        """Membership bits over [a, b] (bit i <-> a + i)."""
        return _mask(self._key(), a, b)

    def elements_in(self, a: int, b: int) -> list:
        """Sorted list of the elements within [a, b]."""
        return _members(self.membership_mask(a, b), a)

    # -- set operations ------------------------------------------------------

    def negate(self) -> "EPSet":
        return EPSet(*_negated(self._key()))

    def __neg__(self):
        return self.negate()

    def translate(self, c: int) -> "EPSet":
        g = self.period
        return EPSet(
            g,
            self.lo + c,
            self.hi + c,
            self.window,
            _rotate(self.neg_tail, c % g, g),
            _rotate(self.pos_tail, c % g, g),
        )

    def dilate(self, n: int) -> "EPSet":
        """{n * x : x in S}.  n == 0 is rejected, not collapsed to {0}."""
        return self if n == 1 else EPSet(*_dilated(self._key(), n))

    def union(self, *others: "EPSet") -> "EPSet":
        """The union of this set and ``others``, canonicalized once."""
        return _union([self._key()] + [o._key() for o in others])

    def __or__(self, other):
        return self.union(other)

    def subset_of(self, other: "EPSet") -> bool:
        return self.union(other) == other

    def restrict_nonnegative(self) -> "EPSet":
        """S intersected with the nonnegative integers."""
        if self.is_empty():
            return self
        hi = max(self.hi, -1)
        window = self.membership_mask(0, hi) if hi >= 0 else 0
        return EPSet(self.period, 0, hi, window, 0, self.pos_tail)

    def minkowski(self, other: "EPSet") -> "EPSet":
        """Exact sumset {x + y : x in S, y in T}."""
        return _minkowski(self._key(), other._key())

    def __add__(self, other):
        if isinstance(other, EPSet):
            return self.minkowski(other)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, EPSet):
            return _minkowski(self._key(), _negated(other._key()))
        return NotImplemented

    # -- measurements ---------------------------------------------------------

    def upper_density(self) -> Fraction:
        """Density of the positive side; exact, the limit exists for EPSets."""
        return Fraction(self.pos_tail.bit_count(), self.period)

    def max_gap(self, within=None):
        """Sup of gaps between consecutive elements.

        With ``within=(a, b)`` only elements inside [a, b] are considered.
        Without it the whole set is scanned exactly; returns ``math.inf``
        when the set is bounded above (no next element beyond some point).
        """
        if within is None:
            if self.is_empty():
                raise InputError("max_gap of the empty set is undefined")
            if not self.pos_tail:
                return math.inf
            # every gap of a tail occurs within two periods of the window
            g = self.period
            within = (self.lo - 2 * g if self.neg_tail else self.min_element(),
                      self.hi + 2 * g)
        return max_consecutive_gap(self.elements_in(*within))

    # -- textual form ----------------------------------------------------------

    def to_expr(self) -> str:
        """Canonical expression in the set grammar; round-trips through parsing."""
        if self.is_empty():
            return "{}"
        if self._key() == _INTEGERS:
            return "Z"
        if self._key() == _NATURALS:
            return "N"
        g = self.period
        if self.is_fully_periodic():
            parts = ["AP(%d,%d)" % (r, g) for r in _members(self.pos_tail)]
            return parts[0] if len(parts) == 1 else "U(%s)" % ",".join(parts)
        parts = []
        for r in _members(self.neg_tail):
            last = self.lo - 1 - ((self.lo - 1 - r) % g)
            parts.append("AP-(%d,%d,%d)" % (last, g, last))
        if self.window:
            parts.append("{%s}" % _decimals(_members(self.window, self.lo)))
        for r in _members(self.pos_tail):
            first = self.hi + 1 + ((r - self.hi - 1) % g)
            parts.append("AP+(%d,%d,%d)" % (first, g, first))
        return parts[0] if len(parts) == 1 else "U(%s)" % ",".join(parts)


def max_consecutive_gap(sorted_elems) -> int:
    """Largest difference of neighbours in a sorted sequence; 0 when it
    has fewer than two entries."""
    return max((y - x for x, y in zip(sorted_elems, sorted_elems[1:])), default=0)


def _decimals(xs) -> str:
    """The ints xs in decimal, comma-separated: one formatting call, with
    no str object made per element."""
    return ("%d," * len(xs) % tuple(xs))[:-1]


# ---------------------------------------------------------------------------
# Raw pieces.
#
# A raw piece is the tuple (period, lo, hi, window, neg_tail, pos_tail) with
# EPSet's membership rule and lo <= hi + 1, but no canonical form; an EPSet's
# ``_key()`` is one.  ``_union`` ORs any list of pieces into one EPSet, so
# both ``union`` and ``_minkowski`` construct their result once.  The
# operands of a difference or of aS - bS stay raw: ``_negated`` and
# ``_dilated`` give the pieces of -S and nS, and ``_minkowski`` sums any
# two pieces, canonical or not, so no operand is canonicalized.
#
# A Minkowski sum is the union of the pairwise sums of the three parts of
# each operand (window, upward tail, downward tail).  Two windows sum to a
# finite piece, a window and an upward tail or two upward tails to a piece
# with an explicit window below a periodic upward tail, and opposite tails to
# full residue classes.  A window+tail piece sums only the least window
# member of each class mod the tail period m: below the piece's span the
# tail fill T' is closed under +m, so a member w2 = w1 + k*m adds
# w2 + T' ⊆ w1 + T' (``_first_of_class``).  Downward pieces are the upward
# pieces of the negated operands, negated.  Every tail+tail piece has its
# classes mod the same d = gcd of the operand periods, so ``_minkowski``
# builds the two cross pieces first: when they cover every class mod d the
# sum is Z, and no other piece is built; else an up+up or down+down piece
# whose classes they cover adds nothing and is skipped.  Two upward tails
# of periods m1, m2 (d = gcd) saturate within a span of
# m1 + m2 + (m1/d - 1)(m2/d - 1)d past their first elements, the Frobenius
# bound of m1/d and m2/d scaled by d (``_sum_up_up``); canonicalization
# removes any slack afterwards.

def _mask(p, a, b):
    """Membership bits of piece ``p`` over [a, b] (bit i <-> a + i)."""
    g, lo, hi, window, neg, pos = p
    if b < a:
        return 0
    res = 0
    if a < lo:
        res = _periodic_fill(neg, g, a, min(lo - a, b - a + 1))
    ov_lo, ov_hi = max(a, lo), min(b, hi)
    if ov_lo <= ov_hi:
        res |= ((window >> (ov_lo - lo)) & ((1 << (ov_hi - ov_lo + 1)) - 1)) << (ov_lo - a)
    if b > hi:
        start = max(a, hi + 1)
        res |= _periodic_fill(pos, g, start, b - start + 1) << (start - a)
    return res


def _negated(p):
    """The piece of {-x : x in p}."""
    g, lo, hi, window, neg, pos = p
    return (g, -hi, -lo, _reverse(window, hi - lo + 1), _reflect(pos, g), _reflect(neg, g))


def _dilated(p, n):
    """The piece of {n * x : x in p}, n != 0.  The window cap is checked
    for the period n*g and the span of the spread window before any mask
    is spread."""
    if n == 0:
        raise InputError("dilation by 0 is not defined for this algebra")
    if n < 0:
        p, n = _negated(p), -n
    if n == 1:
        return p
    g, lo, hi, window, neg, pos = p
    width = hi - lo + 1
    check_window(max(n * g, (width - 1) * n + 1))
    return (n * g, n * lo, n * hi if width > 0 else n * lo - 1, _spread(window, n, n * width),
            _spread(neg, n, n * g), _spread(pos, n, n * g))


def _minkowski(s, t):
    """The EPSet of the sumset of raw pieces s and t."""
    if not (s[3] or s[4] or s[5]) or not (t[3] or t[4] or t[5]):
        return EPSet.empty()
    # opposite tails first: they fill whole classes mod d, and when
    # those are all the classes the sum is Z; else they spare the
    # tail+tail pieces that lie inside them
    d = math.gcd(s[0], t[0])
    pieces = []
    if s[5] and t[4]:
        pieces.append(_sum_cross(s, t))
    if t[5] and s[4]:
        pieces.append(_sum_cross(t, s))
    cover = 0
    for p in pieces:
        cover |= p[5]
    if cover == (1 << d) - 1:
        return EPSet.integers()
    pieces += _up_pieces(s, t, cover)
    if s[3] and t[3]:
        pieces.append(_sum_windows(s, t))
    if s[4] or t[4]:
        # a downward piece uses each operand's downward tail, and its
        # window only when the other operand has a downward tail
        ns = _negated(s[:3] + (s[3] if t[4] else 0, s[4], 0))
        nt = _negated(t[:3] + (t[3] if s[4] else 0, t[4], 0))
        pieces += map(_negated, _up_pieces(ns, nt, _reflect(cover, d)))
    return _union(pieces)


def _union(pieces):
    """The EPSet of the union of raw pieces.

    The period is the lcm of the piece periods, and the window frame spans
    every piece that is not one periodic rule everywhere."""
    g = math.lcm(*(p[0] for p in pieces))
    framed = [p for p in pieces if p[1] <= p[2] or p[4] != p[5]]
    lo = min((p[1] for p in framed), default=0)
    hi = max((p[2] for p in framed), default=-1)
    check_window(max(hi - lo + 1, g))
    window = neg = pos = 0
    for p in pieces:
        window |= _mask(p, lo, hi)
        neg |= _periodic_fill(p[4], p[0], 0, g)
        pos |= _periodic_fill(p[5], p[0], 0, g)
    return EPSet(g, lo, hi, window, neg, pos)


def _up_pieces(s, t, cover):
    """The pieces of s + t that are bounded below and not finite, but for
    an up+up piece whose classes mod gcd(periods) all lie in ``cover``."""
    pieces = []
    if s[3] and t[5]:
        pieces.append(_sum_window_up(s, t))
    if t[3] and s[5]:
        pieces.append(_sum_window_up(t, s))
    if s[5] and t[5]:
        d = math.gcd(s[0], t[0])
        q = _class_sum(_fold_mod(s[5], d), _fold_mod(t[5], d), d)
        if q & ~cover:
            pieces.append(_sum_up_up(s, t, d, q))
    return pieces


def _sum_windows(s, t):
    _, lo1, _, m1, _, _ = s
    _, lo2, _, m2, _, _ = t
    check_window(m1.bit_length() + m2.bit_length() - 1)
    conv = convolve_or(m1, m2)
    return (1, lo1 + lo2, lo1 + lo2 + conv.bit_length() - 1, conv, 0, 0)


def _sum_window_up(s, t):
    """(window of s) + (upward tail of t)."""
    _, wlo, _, wmask, _, _ = s
    m, _, h, _, _, classes = t
    low = (wmask & -wmask).bit_length() - 1
    wmin = wlo + low
    wmax = wlo + wmask.bit_length() - 1
    span = wmax - wmin
    emask = 0
    if span > 0:
        check_window(span)
        tail_bits = _periodic_fill(classes, m, h + 1, span)
        emask = convolve_or(_first_of_class(wmask >> low, m), tail_bits, span)
    shifted = _class_sum(classes, _rotate(_fold_mod(wmask, m), wlo, m), m)
    return (m, h + 1 + wmin, h + wmax, emask, 0, shifted)


def _sum_up_up(s, t, d, q):
    """(upward tail of s) + (upward tail of t), whose classes are ``q`` mod
    d = gcd(periods)."""
    m1, _, h1, _, _, c1 = s
    m2, _, h2, _, _, c2 = t
    # beyond first elements plus the Frobenius bound of m1/d, m2/d (scaled
    # by d), every class value r1 + r2 mod d is reachable
    frob = (m1 // d - 1) * (m2 // d - 1) * d
    expl_lo = h1 + h2 + 2
    span = m1 + m2 + frob - 1
    check_window(span)
    t1 = _periodic_fill(c1, m1, h1 + 1, span)
    t2 = _periodic_fill(c2, m2, h2 + 1, span)
    emask = convolve_or(t1, t2, span)
    return (d, expl_lo, expl_lo + span - 1, emask, 0, q)


def _sum_cross(s, t):
    """(upward tail of s) + (downward tail of t): full residue classes."""
    m1, c1 = s[0], s[5]
    m2, c2 = t[0], t[4]
    d = math.gcd(m1, m2)
    q = _class_sum(_fold_mod(c1, d), _fold_mod(c2, d), d)
    return (d, 0, -1, 0, q, q)
