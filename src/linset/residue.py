"""Structure of linear operations on residue sets modulo g.

Centerpiece: subsets U of Z/gZ with |aU + bU| = |U| for coprime a, b
decompose as U = V + X + H with V inside a1*G, X inside b1*G and
H = a1*b1*G the period subgroup.  ``decompose_equality_case`` reads V and
X off U1, the translate of U that holds 0 taken mod its least period g1
(so H = g1*G), as two subgroup intersections: V = U1 meet a1*G and
X = U1 meet b1*G, with a1 = gcd(g1, a) and b1 = gcd(g1, b).  Proof, for
U1 = V + X with 0 in V and in X: 0 in X puts V in U1 meet a1*G; a member
v + x of U1 meet a1*G has x in a1*G meet b1*G = {0} mod g1 = a1*b1, so it
is v, in V; the same argument gives X.  The certificate's ``verify`` is
the one check: a certificate it refuses is reported, never returned.

A residue set is an int mask with bit r set iff r is a member, as for
EPSet tails and the vectorized sweeps.  Two kernels compute the image
aU + bU.  ``_bits._image`` images one Python-int mask, a small one in one
walk of its members and a wide one with many members on numpy index
arrays; every per-set function here computes with it on bare masks and
builds a ``ResidueSet`` only for what it returns, through
``_residue_set``, without the modulus checks of ``ResidueSet(...)``.
``cardinality_sweep`` images all 2^g subsets at once for g <= 64, on numpy
lanes of the narrowest unsigned dtype that holds g bits: ``_image_table``
builds the images by doubling.  This module has no EPSet conversion;
``linops.apply_linear_op`` reads an EPSet's residues and calls ``_image``
itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._bits import (_class_sum, _fold_mod, _from_offsets, _hash_key, _image, _members,
                    _min_period, _periodic_fill, _prime_factors, _rotate, _spread)
from ._orbit import orbit
from .epset import InputError, ResourceLimitExceeded, _decimals, check_window, window_cap


def totient(n: int) -> int:
    if n < 1:
        raise InputError("totient needs a positive integer")
    out = n
    for p in _prime_factors(n):
        out -= out // p
    return out


def _check_coprime(a: int, b: int) -> None:
    """Refuse coefficients a, b with gcd(a, b) != 1."""
    if math.gcd(a, b) != 1:
        raise InputError("coefficients must be coprime")


def multiplicative_order(x: int, n: int) -> int:
    if n < 1:
        raise InputError("modulus must be positive")
    if n == 1:
        return 1
    if math.gcd(x, n) != 1:
        raise InputError("order undefined: %d not invertible mod %d" % (x, n))
    k, acc = 1, x % n
    while acc != 1:
        acc = acc * x % n
        k += 1
    return k


@dataclass(frozen=True)
class ResidueSet:
    """A subset of Z/gZ, stored as a mask with bit r set iff r is a member.

    A modulus past ``window_cap()`` is refused with ``WindowCapExceeded``
    before any mask is built, as EPSet refuses such a period."""

    modulus: int
    mask: int

    def __init__(self, modulus, elems):
        _check_modulus(modulus)
        object.__setattr__(self, "modulus", modulus)
        if isinstance(elems, np.ndarray):       # a parsed long literal, int64
            offsets = elems % modulus
        else:
            offsets = [x % modulus for x in elems]
        object.__setattr__(self, "mask", _from_offsets(offsets, modulus))

    @property
    def elems(self) -> frozenset:
        return frozenset(_members(self.mask))

    def __len__(self):
        return self.mask.bit_count()

    def __contains__(self, x):
        return bool((self.mask >> (x % self.modulus)) & 1)

    def __iter__(self):
        return iter(_members(self.mask))

    def __hash__(self):
        return hash((self.modulus, _hash_key(self.mask)))

    @classmethod
    def from_mask(cls, modulus: int, mask: int) -> "ResidueSet":
        _check_modulus(modulus)
        return _residue_set(modulus, mask & ((1 << modulus) - 1))

    @classmethod
    def subgroup(cls, modulus: int, d: int) -> "ResidueSet":
        """The subgroup d*G = {0, d, 2d, ...}; d must be a positive divisor
        of the modulus."""
        if d < 1:
            raise InputError("subgroup step must be positive")
        if modulus % d:
            raise InputError("%d does not divide %d" % (d, modulus))
        _check_modulus(modulus)
        return _residue_set(modulus, _periodic_fill(1, d, 0, modulus))

    def translate(self, c: int) -> "ResidueSet":
        return _residue_set(self.modulus, _rotate(self.mask, c, self.modulus))

    def to_expr(self) -> str:
        return "mod %d {%s}" % (self.modulus, _decimals(_members(self.mask)))

    def __str__(self):
        return self.to_expr()


def _check_modulus(modulus: int) -> None:
    """Refuse a modulus below 1 or past ``window_cap()``."""
    if modulus < 1:
        raise InputError("modulus must be positive")
    check_window(modulus)


def _residue_set(modulus: int, mask: int) -> ResidueSet:
    """The set of a checked modulus and a mask below 2^modulus, unchecked.
    A frozen dataclass keeps its fields in the instance dict."""
    u = object.__new__(ResidueSet)
    attrs = u.__dict__
    attrs["modulus"] = modulus
    attrs["mask"] = mask
    return u


def gamma_mod(u: ResidueSet, a: int, b: int) -> ResidueSet:
    """{a*x + b*y mod g : x, y in U}, for any integers a, b (b < 0 gives
    aU - |b|U)."""
    return _residue_set(u.modulus, _image(u.mask, a, b, u.modulus))


def period_shift(u: ResidueSet) -> int:
    """Smallest positive d (a divisor of g) with U + d = U."""
    if not u.mask:
        raise InputError("period of the empty residue set is undefined")
    return _min_period(u.modulus, u.mask)


def period(u: ResidueSet) -> ResidueSet:
    """The period subgroup P(U): the maximal H with U + H = U."""
    return ResidueSet.subgroup(u.modulus, period_shift(u))


def cardinality_check(u: ResidueSet, a: int, b: int):
    """(|U|, |aU + bU|, |aU+bU| >= |U|); requires gcd(a, b) = 1."""
    _check_coprime(a, b)
    n = _image(u.mask, a, b, u.modulus).bit_count()
    return len(u), n, n >= len(u)


@dataclass(frozen=True)
class DecompositionCertificate:
    """Witness of U = translation + V + X + H with multiplicative sizes."""

    modulus: int
    a: int
    b: int
    translation: int
    a1: int
    b1: int
    v: tuple
    x: tuple
    subgroup_step: int  # H = {0, step, 2*step, ...}

    def subgroup(self) -> ResidueSet:
        return ResidueSet.subgroup(self.modulus, self.subgroup_step)

    def reconstruct(self) -> ResidueSet:
        # H = step*G: V + X + H is the classes of V + X mod step, filled
        step = self.subgroup_step
        vx = _class_sum(_from_offsets([v % step for v in self.v], step),
                        _from_offsets([x % step for x in self.x], step), step)
        return _residue_set(self.modulus,
                            _periodic_fill(vx, step, -self.translation, self.modulus))

    def verify(self, u: ResidueSet) -> bool:
        g = self.modulus
        if self.reconstruct() != u:
            return False
        if len(u) != len(self.v) * len(self.x) * (g // self.subgroup_step):
            return False
        if math.gcd(g, self.a) % self.a1 or math.gcd(g, self.b) % self.b1:
            return False
        if any(v % self.a1 for v in self.v) or any(x % self.b1 for x in self.x):
            return False
        return self.subgroup_step == self.a1 * self.b1


@dataclass(frozen=True)
class DecompositionFailure:
    hypothesis: str


def decompose_equality_case(u: ResidueSet, a: int, b: int):
    """Decompose an equality instance |aU + bU| = |U|, or report why not.

    Returns a DecompositionCertificate (already verified) or a
    DecompositionFailure naming the violated hypothesis; gcd(a, b) = 1.
    With U1 the translate of U holding 0 taken mod its least period g1,
    V = U1 meet a1*G and X = U1 meet b1*G.  If U1 = V + X with 0 in V and
    in X: 0 in X puts V in U1 meet a1*G; a member v + x there has x in
    a1*G meet b1*G = {0} mod g1 = a1*b1; so U1 meet a1*G = V, likewise X.
    """
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

    g1 = _min_period(g, u0)       # H = g1*G, and g1 is the order of G / H
    u1 = _fold_mod(u0, g1)
    a1 = math.gcd(g1, a)
    b1 = math.gcd(g1, b)
    cert = DecompositionCertificate(
        modulus=g, a=a, b=b, translation=translation, a1=a1, b1=b1,
        v=tuple(_members(u1 & _periodic_fill(1, a1, 0, g1))),
        x=tuple(_members(u1 & _periodic_fill(1, b1, 0, g1))),
        subgroup_step=g1,
    )
    if not cert.verify(u):
        return DecompositionFailure("reconstruction mismatch")
    return cert


@dataclass
class ResidueOrbit:
    states: list
    onset: int
    length: int
    cardinality_preserved: bool
    order_divisibility: bool | None  # None when the structural hypotheses fail


def residue_orbit(u: ResidueSet, a: int, b: int, max_steps: int | None = None) -> ResidueOrbit:
    """Iterate U -> aU + bU to its cycle (guaranteed within 2^g steps).

    When some cycle member contains 0, generates the full group and
    preserves cardinality, the cycle length must divide phi(|a|)*phi(|b|);
    that check's outcome is recorded (None when no member qualifies, or
    when a or b is 0).
    """
    _check_coprime(a, b)
    g = u.modulus
    masks = [u.mask]
    closure = orbit(lambda k, m: _image(m, a, b, g), masks, max_steps,
                    key=lambda k, m: _hash_key(m))
    if closure is None:
        raise ResourceLimitExceeded("orbit did not close within %d steps" % max_steps)
    onset, length = closure
    # the image of each cycle member is the next one, so every member keeps
    # its size under the map exactly when all members have one size
    cycle = masks[onset:]
    size = cycle[0].bit_count()
    preserved = all(m.bit_count() == size for m in cycle)
    divisibility = None
    if a and b and preserved:     # phi is defined on positive integers
        if any(m & 1 and math.gcd(g, *_members(m)) == 1 for m in cycle):
            divisibility = (totient(abs(a)) * totient(abs(b))) % length == 0
    states = [_residue_set(g, m) for m in masks]
    return ResidueOrbit(states, onset, length, preserved, divisibility)


@dataclass
class AbsorptionReport:
    applicable: bool
    failed_hypothesis: str | None
    containment_step: int | None
    holds: bool | None


def nonperiodic_absorption_check(x: ResidueSet, a: int, b: int) -> AbsorptionReport:
    """For 0 in X aperiodic with aX + bX = aX: X sits in (g/gcd(g,b))*G."""
    _check_coprime(a, b)
    g = x.modulus
    if not (x.mask & 1):
        return AbsorptionReport(False, "0 not a member", None, None)
    if _min_period(g, x.mask) != g:
        return AbsorptionReport(False, "set is periodic", None, None)
    if _image(x.mask, a, b, g) != _spread(x.mask, a, g):
        return AbsorptionReport(False, "aX + bX differs from aX", None, None)
    step = g // math.gcd(g, b)
    holds = not x.mask & ~_periodic_fill(1, step, 0, g)
    return AbsorptionReport(True, None, step, holds)


# ---------------------------------------------------------------------------
# Vectorized sweeps over subsets of Z/gZ.  Subsets are masks of dtype
# uint16 for g <= 16, uint32 up to g = 32 and uint64 up to g = 64; a
# rotation by s is ((v << s) | (v >> (g - s))) & full, so bits shifted past
# the dtype are always bits the mask drops.  A sweep builds the
# image table of all 2^g subsets by doubling: for U < 2^k,
#     a(U+{k}) + b(U+{k}) = (aU + bU) | (ak + bU) | (aU + bk) | {(a+b)k},
# so each block [2^k, 2^(k+1)) takes about 12 elementwise passes over the
# block [0, 2^k) below it, and the table about 12 * 2^g operations in all.

def _mask_dtype(g: int):
    # the narrowest lane that holds g bits: fewer bytes per elementwise pass
    return np.uint16 if g <= 16 else np.uint32 if g <= 32 else np.uint64


def _image_table(g: int, a: int, b: int) -> np.ndarray:
    """images[U] = aU + bU mod g for every mask U < 2^g, by doubling."""
    dt = _mask_dtype(g)
    out = np.zeros(1 << g, dtype=dt)
    # the last block reads aU and bU below it, so they are kept for U < 2^(g-1)
    au, bu = (np.zeros(1 << (g - 1), dtype=dt) for _ in range(2))
    tmp = np.empty(1 << (g - 1), dtype=dt)
    full = dt((1 << g) - 1)
    for k in range(g):
        h = 1 << k
        sa, sb = a * k % g, b * k % g
        lo, hi, t = slice(0, h), slice(h, 2 * h), tmp[:h]
        # images of the block: (aU + bU) | {(a+b)k} | rot(bU, ak) | rot(aU, bk)
        o = out[hi]
        np.bitwise_or(out[lo], dt(1 << (sa + sb) % g), out=o)
        for v, s in ((bu[lo], sa), (au[lo], sb)):
            if s == 0:
                o |= v
                continue
            np.left_shift(v, dt(s), out=t)
            o |= t
            np.right_shift(v, dt(g - s), out=t)
            o |= t
        o &= full
        if k < g - 1:
            np.bitwise_or(au[lo], dt(1 << sa), out=au[hi])
            np.bitwise_or(bu[lo], dt(1 << sb), out=bu[hi])
    return out


def cardinality_sweep(g: int, a: int, b: int):
    """Check |aU + bU| >= |U| over all 2^g subsets U of Z/gZ at once.

    The images come from the doubling image table, on uint16 lanes for
    g <= 16, uint32 up to g = 32 and uint64 up to g = 64.  g outside 1..64
    raises ``InputError``; 2^g past ``window_cap()`` raises
    ``ResourceLimitExceeded`` before any allocation.  Returns
    (all_hold, equality_masks): equality_masks lists the subsets (as ints)
    where |aU + bU| == |U| with U nonempty.
    """
    if not 1 <= g <= 64:
        raise InputError("sweep modulus must be in 1..64, got %d" % g)
    if (1 << g) > window_cap():
        raise ResourceLimitExceeded("sweep over 2^%d subsets exceeds the cap %d"
                                    % (g, window_cap()))
    # only the images' popcounts are kept: the table is freed before the
    # masks are built
    pc_im = np.bitwise_count(_image_table(g, a, b))
    masks = np.arange(1 << g, dtype=_mask_dtype(g))
    pc_u = np.bitwise_count(masks)
    eq = masks[(pc_im == pc_u) & (pc_u > 0)]
    return bool(np.all(pc_im >= pc_u)), eq.tolist()
