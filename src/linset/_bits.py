"""Int-bitmask kernels shared by the EPSet algebra and the residue layer.

One convention holds everywhere: a set of residues mod m, or of window
offsets, is a plain int with bit r set iff r is a member.  EPSet windows
and tails, ResidueSet and the numpy residue sweeps all use it.  The
residue image U -> aU + bU mod g of one set is one kernel on such masks,
``_image``: the fully periodic step of ``apply_linear_op`` and the
per-set residue functions call it.

Every helper here is linear in the mask width w, but for three.
``_min_period`` tests each prime factor of m, O(w log m) at worst.
``_first_of_class`` doubles a shift up to the width, O(w/64 * log(w/m))
word operations.  ``convolve_or``, the one boolean convolution under all
Minkowski pieces: a shift-or costs O(w) per set bit of the sparser
operand, and its FFT path O(B log B) per pair of B-bit blocks.

The first-of-class reduction.  A window+tail piece convolves the window
W', shifted to start at 0, with T', the tail's periodic fill of period m
from 0, below a span.  Below the span T' is closed under +m, so a member
w2 = w1 + k*m (k >= 1) of W' adds nothing: w2 + T' lies inside w1 + T'.
So the piece convolves ``_first_of_class(W', m)``, the least member of
each class, at most m bits, and its shift-or takes at most m steps
however wide the window is.

Index arrays.  Window text and finite sets go through one numpy index
array, not a Python step per element: ``_members`` lists a mask's
members plus a base, and ``_from_offsets`` builds a mask from members
minus a base.  They compute in int64 while |base| + width < 2^62, and in
Python ints (object dtype) otherwise; ``_int_dtype`` makes that choice
for them and for the bulk arithmetic of ``constructions``.

Exactness of ``convolve_or``.  It shift-ors the sparser operand bit by bit,
stopping early once every output bit is set.  When that operand has more
set bits than ``_fft_cutoff(width)``, only its lowest ``_SHIFT_OR_BITS`` are
shift-ored; the rest is convolved with the other operand as 0/1
polynomials in float64 by numpy ``rfft``/``irfft``.  Both are cut into
blocks of at most ``_BLOCK_BITS`` = 2^14 bits, so each block pair is one
transform of at most 2^15 points and each coefficient of its product is
an integer count of at most 2^14.  The float64 round-off of such a
product stays below 1e-10 (about 7e-12 measured on all-ones blocks), far
below 1/4, so rounding recovers every count exactly and a bit is set iff
its rounded count is positive.  A guard still checks |c - rint(c)| < 1/4
on every coefficient of every block pair; a pair that fails it is
recomputed by shift-or, so no bit rests on an unchecked float.
"""

from __future__ import annotations

import numpy as np

_SMALL_BITS = 256        # _bits walks masks up to this width bit by bit,
_SPARSE_BITS = 32        # ... and wider ones with at most this many set bits
_SHIFT_OR_BITS = 64      # convolve_or shift-ors this many bits before the FFT
_FFT_MIN_BITS = 400      # ... and leaves it at least this many (see _fft_cutoff)
_BLOCK_BITS = 1 << 14    # FFT block: counts <= 2^14, transforms <= 2^15 points
_EXACT = 1 << 62         # int64 index arithmetic stays below this magnitude


def _bits(mask):
    """Set bit positions of mask, ascending (a generator)."""
    if mask.bit_length() > _SMALL_BITS and mask.bit_count() > _SPARSE_BITS:
        yield from _members(mask, 0)
        return
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _int_dtype(reach: int):
    """The numpy dtype for exact integer arithmetic whose values stay below
    ``reach`` in magnitude: int64 when reach < 2^62, else object (Python
    ints)."""
    return np.int64 if reach < _EXACT else object


def _members(mask: int, base: int) -> list:
    """The integers base + i over the set bits i of mask, ascending.

    A wide mask with many members goes through one index array, with base
    added in int64 when |base| + width stays below 2^62 and in Python ints
    otherwise; a narrow or sparse one is walked bit by bit, as in _bits."""
    width = mask.bit_length()
    if width <= _SMALL_BITS or mask.bit_count() <= _SPARSE_BITS:
        return [base + i for i in _bits(mask)]
    offsets = np.flatnonzero(_unpack(mask, width))
    return (offsets.astype(_int_dtype(abs(base) + width), copy=False) + base).tolist()


def _unpack(mask: int, width: int):
    # bits 0..width-1 of a nonnegative mask below 2^width, as a uint8 0/1 array
    raw = np.frombuffer(mask.to_bytes((width + 7) >> 3, "little"), np.uint8)
    return np.unpackbits(raw, count=width, bitorder="little")


def _pack(flags) -> int:
    # inverse of _unpack: element i of a 0/1 (or bool) array becomes bit i
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def _from_offsets(values, width: int, base: int = 0) -> int:
    """Mask with bit v - base set for each v in values, all in [base, base + width).

    ``values`` is a sized collection of ints or a numpy array of any integer
    or object dtype.  A wide mask from many values is one index array, one
    assignment and one pack, with base subtracted in int64 when |base| +
    width stays below 2^62 and in Python ints otherwise; a narrow or sparse
    one is ORed bit by bit, so its cost follows the number of values, not
    the width."""
    if width > _SMALL_BITS and len(values) > _SPARSE_BITS:
        if not isinstance(values, np.ndarray):
            values = np.fromiter(values, _int_dtype(abs(base) + width), len(values))
        flags = np.zeros(width, np.uint8)
        flags[(values - base).astype(np.intp, copy=False)] = 1
        return _pack(flags)
    out = 0
    for v in map(int, values):
        out |= 1 << (v - base)
    return out


def _hash_key(mask: int) -> tuple:
    # what a mask is hashed by: hash(int) is the int mod 2^61 - 1, so the
    # one-bit masks 1 << k alone would share 61 values; bit lengths part them
    return mask, mask.bit_length()


def _rotate(mask: int, shift: int, width: int) -> int:
    # bit r of the result equals bit (r - shift) mod width of the input
    shift %= width
    if shift == 0:
        return mask
    full = (1 << width) - 1
    return ((mask << shift) | (mask >> (width - shift))) & full


def _reverse(mask: int, width: int) -> int:
    # plain bit reversal over a fixed width; a few bits are moved one by one
    if mask.bit_count() > 3:
        return int(format(mask, "0%db" % width)[::-1], 2)
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << (width - low.bit_length())
        mask ^= low
    return out


def _reflect(mask: int, width: int) -> int:
    # bit r of the result equals bit (-r) mod width of the input
    return (mask & 1) | (_reverse(mask >> 1, width - 1) << 1)


def _spread(mask: int, n: int, m: int) -> int:
    # bit i of the input becomes bit (n * i) mod m: a plain spread when
    # n >= 1 and m exceeds n times the top bit, else the residue dilation
    # mod m (any n, zero and negative ones included).  The string join
    # serves only wide masks with many set bits; the loop is faster on
    # sparse ones, whatever their width.
    top = mask.bit_length() - 1
    if n == 1 and top < m:
        return mask
    if top >= _SMALL_BITS and 0 < n and n * top < m and mask.bit_count() > _SPARSE_BITS:
        return int(("0" * (n - 1)).join(format(mask, "b")), 2)
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << (n * (low.bit_length() - 1) % m)
        mask ^= low
    return out


def _periodic_fill(classes: int, m: int, start: int, length: int) -> int:
    """Bits i in [0, length) set iff (start + i) mod m is a set residue."""
    if length <= 0 or classes == 0:
        return 0
    block = _rotate(classes, (-start) % m, m)
    filled = block
    have = m
    while have < length:
        filled |= filled << have
        have *= 2
    return filled & ((1 << length) - 1)


def _first_of_class(mask: int, m: int) -> int:
    """The set bits i of mask with no set bit i - k*m (k >= 1) below them:
    the least member of each residue class mod m, so at most m bits.

    ``seen`` is the OR of mask << k*m over k >= 1, built by doubling: it
    starts at k = 1, a doubling by ``step`` takes it to every k with
    k*m <= 2*step, and once ``step`` reaches the width no shift is left."""
    width = mask.bit_length()
    if width <= m:
        return mask
    full = (1 << width) - 1
    seen = (mask << m) & full
    step = m
    while step < width:
        seen |= (seen << step) & full
        step *= 2
    return mask & ~seen


def _min_period(m: int, *masks) -> int:
    """Smallest divisor d of m under which every residue mask mod m is
    rotation-invariant (d == m when none smaller is).

    The invariant divisors are exactly the multiples of the least one, so
    it is reached from m by dividing out one prime factor at a time while
    the masks stay invariant: a test per prime factor of m, however many
    divisors m has.  A mask is invariant under a divisor k of m iff bit i
    equals bit i + k for every i < m - k."""
    d = rest = m
    p = 2
    while rest > 1:
        if p * p > rest:
            p = rest        # the last prime factor
        if rest % p == 0:
            while rest % p == 0:
                rest //= p
            while d % p == 0:
                k = d // p
                low = (1 << (m - k)) - 1
                for x in masks:
                    if x >> k != x & low:
                        break
                else:
                    d = k
                    continue
                break
        p += 1
    return d


def _fold_mod(mask: int, d: int) -> int:
    # bit r of the input becomes bit r mod d; halves the chunk count per pass
    chunks = -(-mask.bit_length() // d)
    while chunks > 1:
        half = (chunks + 1) // 2
        shift = half * d
        mask = (mask & ((1 << shift) - 1)) | (mask >> shift)
        chunks = half
    return mask


def _class_sum(c1: int, c2: int, d: int) -> int:
    # residue sumset {x + y mod d : x in c1, y in c2}; adding one residue
    # is a rotation
    if c2 & (c2 - 1) == 0:
        return _rotate(c1, c2.bit_length() - 1, d) if c2 else 0
    return _fold_mod(convolve_or(c1, c2), d)


def _image(mask: int, a: int, b: int, g: int) -> int:
    """{a*x + b*y mod g : x, y in the residue mask}, for any integers a, b."""
    return _class_sum(_spread(mask, a, g), _spread(mask, b, g), g)


def convolve_or(m1: int, m2: int, width=None) -> int:
    """Boolean convolution: bit k is set iff k = i + j for a set bit i of m1
    and a set bit j of m2.  With ``width``, only bits below it are kept.

    Exact; see the module docstring for the FFT path's error argument.
    """
    k, k2 = m1.bit_count(), m2.bit_count()
    if k > k2:
        m1, m2, k = m2, m1, k2
    if not k:
        return 0
    natural = m1.bit_length() + m2.bit_length() - 1
    if width is None or width >= natural:
        width = natural
    elif width <= 0:
        return 0
    full = (1 << width) - 1
    if width < natural:
        m1 &= full
        m2 &= full
        if not m2:
            return 0
        k = m1.bit_count()
    # shift-or the sparser operand, bit by bit up to _SHIFT_OR_BITS of them
    # when the rest goes to the FFT, else all of them (the first test
    # spares small operands the call)
    fft = k > _SHIFT_OR_BITS + _FFT_MIN_BITS and k > _fft_cutoff(width)
    out = 0
    for _ in range(_SHIFT_OR_BITS if fft else k):
        low = m1 & -m1
        out = (out | (m2 << (low.bit_length() - 1))) & full
        if out == full:
            return out
        m1 ^= low
    return out | _fft_or(m1, m2, width) if fft else out


def _fft_cutoff(width: int) -> int:
    """Popcount of the sparser operand above which convolve_or hands all but
    its lowest _SHIFT_OR_BITS bits to the FFT.

    A shift-or costs O(width) per bit; the blocked FFT costs a fixed numpy
    overhead plus O(width^2 / block) for its block pairs.  Measured on 2
    cores, the FFT wins past about 400 + width/64 remaining bits.
    """
    return _SHIFT_OR_BITS + _FFT_MIN_BITS + (width >> 6)


def _shift_or(m1: int, m2: int) -> int:
    # the reference form of convolve_or, for block pairs the guard rejects
    out = 0
    for i in _bits(m1):
        out |= m2 << i
    return out


def _fft_or(a: int, b: int, width: int) -> int:
    """Bits below width of the boolean convolution of a and b (both already
    below 2^width), by blocked float64 FFT products under the rounding guard."""
    la, lb = a.bit_length(), b.bit_length()
    # one block each when a single transform of <= 2^15 points holds the product
    blk = _BLOCK_BITS if la + lb - 1 > 2 * _BLOCK_BITS else max(la, lb)
    n = 1 << (min(la, blk) + min(lb, blk) - 2).bit_length()
    na, nb = -(-la // blk), -(-lb // blk)
    xa = _unpack(a, na * blk).reshape(na, blk)
    xb = _unpack(b, nb * blk).reshape(nb, blk)
    ka_list = np.flatnonzero(xa.any(axis=1)).tolist()
    kb_list = np.flatnonzero(xb.any(axis=1)).tolist()
    if len(kb_list) > len(ka_list):
        a, xa, ka_list, b, xb, kb_list = b, xb, kb_list, a, xa, ka_list
    # b's block spectra are kept, one array each so no buffer outgrows a
    # transform; a's are made one at a time
    spec_b = [np.fft.rfft(xb[kb], n) for kb in kb_list]
    hit = np.zeros(width, dtype=bool)
    blk_mask = (1 << blk) - 1
    for ka in ka_list:
        spec_a = np.fft.rfft(xa[ka], n)
        for j, kb in enumerate(kb_list):
            off = (ka + kb) * blk
            if off >= width:
                break
            seg = hit[off:off + n]
            if seg.all():
                continue    # saturated, as in the shift-or exit
            c = np.fft.irfft(spec_a * spec_b[j], n)[:seg.size]
            counts = np.rint(c)
            c -= counts
            if np.abs(c, out=c).max() < 0.25:
                seg |= counts > 0
            else:
                pair = _shift_or((a >> (ka * blk)) & blk_mask, (b >> (kb * blk)) & blk_mask)
                seg |= _unpack(pair & ((1 << seg.size) - 1), seg.size).astype(bool)
    return _pack(hit)
