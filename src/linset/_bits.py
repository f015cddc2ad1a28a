"""Int-bitmask kernels shared by the EPSet algebra and the residue layer.

One convention holds everywhere: a set of residues mod m, or of window
offsets, is a plain int with bit r set iff r is a member.  EPSet windows
and tails, ResidueSet and the numpy residue sweeps all use it.  The
residue image U -> aU + bU mod g of one set is one kernel on such masks,
``_image``: the residue-decided step of ``apply_linear_op`` and the
per-set residue functions call it.  It maps the full mask straight to the
subgroup of multiples of gcd(a, b, g), with no spreading.  A mask that
``_bulk`` sends bit by bit is imaged in one walk of its members: the
a-spread aU, shifted left by each b*x mod g and ORed, is one sum below
2^(2g - 1), folded once.  A bulk mask spreads on index arrays and sums
through ``convolve_or``.

Each job has one implementation here, which every caller uses:
``_members`` is the one walk over a mask's set bits, ``_shift_or`` the one
shift-or under ``convolve_or`` and ``_image``'s small-mask walk the one
shift-or of a residue image, and ``_prime_factors`` the one trial
division (``_min_period`` and ``residue.totient`` both factor through it).

Every helper here is linear in the mask width w, but for five.
``_min_period`` tests each prime factor of m that divides every mask's
popcount, O(w log m) at worst.  ``_image``'s small-mask walk shift-ors
at most ``_SMALL_BITS`` members, or ``_SPARSE_BITS`` of a wider mask,
O(g) each.
``_first_of_class`` doubles a shift up to the width, O(w/64 * log(w/m))
word operations, and ``_lattice_stride`` builds at most log2 g + 1 such
doubled fills.  ``convolve_or``, the one boolean convolution under all
Minkowski pieces: a shift-or costs O(w) per set bit of the sparser
operand, and its FFT path O(n log n) for one transform of n >= w/g
points, g the stride of the operands' common lattice.

The first-of-class reduction.  A window+tail piece convolves the window
W', shifted to start at 0, with T', the tail's periodic fill of period m
from 0, below a span.  Below the span T' is closed under +m, so a member
w2 = w1 + k*m (k >= 1) of W' adds nothing: w2 + T' lies inside w1 + T'.
So the piece convolves ``_first_of_class(W', m)``, the least member of
each class, at most m bits, and its shift-or takes at most m steps
however wide the window is.

Index arrays.  Finite sets and residue dilations that wrap go through
one numpy index array, not a Python step per element: ``_members`` lists
a mask's members plus a base, ``_from_offsets`` builds a mask from
members minus a base, and ``_spread`` maps each member i of a mask to
n*i mod m.  ``_bulk`` tells when a mask is wide and full enough for that
(``_from_offsets`` puts the same bounds on its number of values); any
other has at most ``_SMALL_BITS`` members, so ``_spread``, one OR below
2^m per member, is linear in w + m.  They compute in int64 while the
values stay below 2^62, and in Python ints (object dtype) otherwise;
``_int_dtype`` makes that choice for them and for the bulk arithmetic of
``constructions``.

One C-level pass per window.  A dilation by n >= 1 in which no bit wraps
past m, which is every window that ``epset._dilated`` spreads, needs no
index array: the mask's unpacked bits are one strided store ``flags[::n]``
into a zero array, packed once.  ``_reverse`` reverses a mask of more than
three bits through its bytes: each byte is reversed by one 256-entry table
(``bytes.translate``), the bytes are read back in the opposite order, and
the 8*ceil(w/8) - w pad bits that this leaves at the bottom are shifted
out.  Window text is one bytes formatting call (``epset._decimals``).

Exactness of ``convolve_or``.  It shift-ors the sparser operand bit by bit
(``_shift_or``), stopping early once every output bit is set.  When that
operand has more set bits than ``_fft_cutoff(width)``, the product is one
transform instead: each operand is shifted down by its lowest set bit
and divided by g, the gcd of the offsets of all set bits of both (found
exactly by ``_lattice_stride``, without listing the offsets), and the
two reduced 0/1 arrays are multiplied as polynomials in float64 by one
numpy ``rfft``/``rfft``/``irfft`` of the least 5-smooth length n >=
their product's length.  Each coefficient c is an integer count, and the
float64 error of an FFT product is at most ||x||_2 ||y||_2 * O(eps log n)
with accurate twiddle factors (Percival, Math. Comp. 2003; Brent and
Zimmermann, Modern Computer Arithmetic, 3.3).  For 0/1 operands of at most
w bits ||x||_2 ||y||_2 <= w, so the error is below w * O(eps log n): about
1e-7 even at w = 2^24, past every width the window cap allows, and far
below 1/4 (4.7e-10 measured on all-ones operands of 2^20 bits).  So
rounding recovers every count exactly and a bit is set iff its rounded
count is positive.  A guard still checks |c - rint(c)| < 1/4 on every
coefficient; a product that fails it is recomputed whole by ``_shift_or``,
so no bit rests on an unchecked float.
"""

from __future__ import annotations

import math

import numpy as np

_SMALL_BITS = 256        # masks up to this width are walked bit by bit,
_SPARSE_BITS = 32        # ... and wider ones with at most this many set bits
_FFT_MIN_BITS = 256      # convolve_or shift-ors sparser operands of this many bits or fewer
_EXACT = 1 << 62         # int64 index arithmetic stays below this magnitude
# byte i maps to byte i with its eight bits in reverse order
_REVERSED_BYTES = bytes(int(format(i, "08b")[::-1], 2) for i in range(256))


def _int_dtype(reach: int):
    """The numpy dtype for exact integer arithmetic whose values stay below
    ``reach`` in magnitude: int64 when reach < 2^62, else object (Python
    ints)."""
    return np.int64 if reach < _EXACT else object


def _bulk(mask: int) -> bool:
    # whether a mask goes through one numpy index array rather than a Python
    # step per member: it is wide and has many members
    return mask.bit_length() > _SMALL_BITS and mask.bit_count() > _SPARSE_BITS


def _members(mask: int, base: int = 0) -> list:
    """The integers base + i over the set bits i of mask, ascending.

    A wide mask with many members goes through one index array, with base
    added in int64 when |base| + width stays below 2^62 and in Python ints
    otherwise; a narrow or sparse one is walked bit by bit."""
    if _bulk(mask):
        width = mask.bit_length()
        offsets = np.flatnonzero(_unpack(mask, width))
        return (offsets.astype(_int_dtype(abs(base) + width), copy=False) + base).tolist()
    out = []
    while mask:
        low = mask & -mask
        out.append(base + low.bit_length() - 1)
        mask ^= low
    return out


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
    # plain bit reversal of a mask below 2^width, by byte table (see the
    # module docstring); a few bits are moved one by one
    if mask.bit_count() > 3:
        n = (width + 7) >> 3
        flipped = mask.to_bytes(n, "little").translate(_REVERSED_BYTES)
        return int.from_bytes(flipped, "big") >> (8 * n - width)
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
    # bit i of the input becomes bit (n * i) mod m, for any n (zero and
    # negative ones included).  A wide mask with many set bits is one strided
    # store of its bits when n >= 1 and no bit wraps past m, else it maps its
    # one index array; a narrow or sparse one is walked bit by bit from the
    # top (one operation fewer per bit than isolating the lowest)
    width = mask.bit_length()
    if n == 1 and width <= m:
        return mask
    if _bulk(mask):
        if 0 < n and (width - 1) * n < m:
            flags = np.zeros((width - 1) * n + 1, np.uint8)
            flags[::n] = _unpack(mask, width)
            return _pack(flags)
        idx = np.flatnonzero(_unpack(mask, width)).astype(_int_dtype(width * m), copy=False)
        return _from_offsets(idx * (n % m) % m, m)
    out = 0
    while mask:
        top = mask.bit_length() - 1
        out |= 1 << (n * top % m)
        mask ^= 1 << top
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


def _prime_factors(m: int) -> list:
    """The distinct prime factors of m, ascending, by trial division up to
    the square root of what is left (none for m <= 1)."""
    out = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out.append(m)
    return out


def _min_period(m: int, *masks) -> int:
    """Smallest divisor d of m under which every residue mask mod m is
    rotation-invariant (d == m when none smaller is).

    The invariant divisors are exactly the multiples of the least one, so
    it is reached from m by dividing out one prime factor at a time while
    the masks stay invariant: a test per prime factor of m, however many
    divisors m has.  A mask is invariant under a divisor k of m iff bit i
    equals bit i + k for every i < m - k.  Such a mask is a union of cosets
    of the subgroup of order m/k, so m/k divides its popcount: only the
    primes of q = gcd(m, every popcount) are tried, and q is 1, with no
    factoring, for a mask of one residue."""
    q = m
    for x in masks:
        q = math.gcd(q, x.bit_count())
    d = m
    for p in _prime_factors(q):
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
    """{a*x + b*y mod g : x, y in the residue mask}, for any integers a, b.

    The full mask maps to the subgroup generated by a and b, the multiples
    of gcd(a, b, g), with no spreading; a mask that ``_bulk`` sends bit by
    bit is imaged in one walk of its members."""
    if mask.bit_count() == g:
        return _periodic_fill(1, math.gcd(a, b, g), 0, g)
    if _bulk(mask):
        return _class_sum(_spread(mask, a, g), _spread(mask, b, g), g)
    xs = _members(mask)
    au = 0
    for x in xs:
        au |= 1 << (a * x % g)
    out = 0
    for x in xs:
        out |= au << (b * x % g)
    # both shifts are below g, so one fold takes the sum below 2^g
    return (out >> g) | (out & ((1 << g) - 1))


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
    # one transform past the cutoff (the first test spares small operands
    # the call), else shift-or the sparser operand bit by bit
    if k > _FFT_MIN_BITS and k > _fft_cutoff(width):
        return _fft_or(m1, m2, width)
    return _shift_or(m1, m2, full)


def _fft_cutoff(width: int) -> int:
    """Popcount of the sparser operand above which convolve_or takes one FFT
    product instead of a shift-or.

    A shift-or costs O(width) per bit; the FFT a fixed numpy overhead plus
    O(n log n) for a transform of n >= the product's width (n/g on a lattice
    of stride g).  Measured on 2 cores with g = 1, the FFT wins past about
    250-600 bits at widths up to 2^15 and past 850-1650 at 2^17-2^21, which
    256 + sqrt(width) follows; on a lattice it wins sooner.
    """
    return _FFT_MIN_BITS + math.isqrt(width)


def _shift_or(m1: int, m2: int, full: int) -> int:
    # the bits within full of m2 shifted by each set bit of m1, ORed; stops
    # once every bit of full is set
    out = 0
    for i in _members(m1):
        out = (out | (m2 << i)) & full
        if out == full:
            break
    return out


def _smooth_len(n: int) -> int:
    # least 2^i * 3^j * 5^k >= n: pocketfft is fast at these lengths, and a
    # power of two alone can pad by up to 2x
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _lattice_stride(a: int, b: int) -> int:
    """The gcd g of the offsets of every set bit of a and b, both with bit 0
    set (1 when neither has another bit).

    g starts at the gcd of the two first gaps, the offsets of each operand's
    second set bit, and every offset is a multiple of the true stride, so g
    never drops below it.  While some set bit lies off the multiples of g,
    g takes the gcd with the lowest such offset; each step at least halves
    g, so at most log2 g steps of O(w) word operations find it exactly."""
    g = 0
    for x in (a, b):
        rest = x ^ 1
        g = math.gcd(g, (rest & -rest).bit_length() - 1 if rest else 0)
    if g <= 1:
        return 1
    both = a | b
    while True:
        off = both & ~_periodic_fill(1, g, 0, both.bit_length())
        if not off:
            return g
        g = math.gcd(g, (off & -off).bit_length() - 1)


def _fft_or(a: int, b: int, width: int) -> int:
    """Bits below width of the boolean convolution of a and b (both nonzero),
    by one float64 FFT product on their common lattice under the rounding
    guard.

    Each operand is shifted down by its lowest set bit; its set bits then lie
    on multiples of g, the gcd of all their offsets (aW and -bW of a window on
    a progression share its stride), so the product is taken of the two
    arrays reduced by g and its hits are spread by g and shifted back.
    """
    sa, sb = (a & -a).bit_length() - 1, (b & -b).bit_length() - 1
    span = width - sa - sb              # product bits kept above the shift
    if span <= 0:
        return 0
    low = (1 << span) - 1
    a, b = (a >> sa) & low, (b >> sb) & low
    g = _lattice_stride(a, b)
    xa, xb = _unpack(a, a.bit_length())[::g], _unpack(b, b.bit_length())[::g]
    size = min(xa.size + xb.size - 1, -(-span // g))   # reduced positions kept
    n = _smooth_len(xa.size + xb.size - 1)
    # each array is freed once used, and the spectrum product is formed in place
    spec = np.fft.rfft(xa, n)
    del xa
    other = np.fft.rfft(xb, n)
    del xb
    spec *= other
    del other
    c = np.fft.irfft(spec, n)[:size]
    del spec
    counts = np.rint(c)
    c -= counts
    if np.abs(c, out=c).max() >= 0.25:
        return _shift_or(a, b, low) << (sa + sb)
    del c
    hits = np.zeros((size - 1) * g + 1, np.bool_)
    hits[::g] = counts > 0
    return _pack(hits) << (sa + sb)
