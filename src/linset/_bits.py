"""Int-bitmask kernels shared by the EPSet algebra and the residue layer.

One convention holds everywhere: a set of residues mod m, or of window
offsets, is a plain int with bit r set iff r is a member.  EPSet windows
and tails, ResidueSet and the numpy residue sweeps all use it.
"""

from __future__ import annotations


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _rotate(mask: int, shift: int, width: int) -> int:
    # bit r of the result equals bit (r - shift) mod width of the input
    shift %= width
    if shift == 0:
        return mask
    full = (1 << width) - 1
    return ((mask << shift) | (mask >> (width - shift))) & full


def _reverse(mask: int, width: int) -> int:
    # plain bit reversal over a fixed width
    out = 0
    for i in _bits(mask):
        out |= 1 << (width - 1 - i)
    return out


def _reflect(mask: int, width: int) -> int:
    # bit r of the result equals bit (-r) mod width of the input
    return (mask & 1) | (_reverse(mask >> 1, width - 1) << 1)


def _spread(mask: int, n: int, m: int) -> int:
    # bit i of the input becomes bit (n * i) mod m: a plain spread when m
    # exceeds n times the top bit, else the residue dilation mod m
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


def _divisors(n: int) -> list:
    small, large = [], []
    i = 1
    while i * i <= n:
        if n % i == 0:
            small.append(i)
            if i * i != n:
                large.append(n // i)
        i += 1
    return small + large[::-1]


def _min_period(m: int, *masks) -> int:
    """Smallest divisor d of m under which every residue mask mod m is
    rotation-invariant (d == m when none smaller is)."""
    for d in _divisors(m)[:-1]:
        for x in masks:
            if _rotate(x, d, m) != x:
                break
        else:
            return d
    return m


def _circular_max_gap(mask: int, g: int) -> int:
    # largest cyclic distance between consecutive set residues mod g
    rs = list(_bits(mask))
    if len(rs) == 1:
        return g
    gaps = [b - a for a, b in zip(rs, rs[1:])]
    gaps.append(rs[0] + g - rs[-1])
    return max(gaps)


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
    # residue sumset {x + y mod d : x in c1, y in c2}
    out = 0
    for y in _bits(c2):
        out |= _rotate(c1, y, d)
    return out
