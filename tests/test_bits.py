"""Tests for the int-bitmask kernels: convolve_or against a plain shift-or,
and the linear helpers against bit-by-bit loops."""

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from linset import _bits as bits_module
from linset._bits import (_SMALL_BITS, _SPARSE_BITS, _class_sum, _fft_cutoff, _fft_or,
                          _from_offsets, _image, _lattice_stride, _members, _min_period,
                          _periodic_fill, _prime_factors, _reflect, _reverse, _smooth_len,
                          _spread, convolve_or)
from linset.epset import _decimals


def ref_bits(mask):
    return [i for i, ch in enumerate(reversed(bin(mask)[2:])) if ch == "1"]


def ref_convolve(m1, m2, width=None):
    out = 0
    for i in ref_bits(m1):
        out |= m2 << i
    return out if width is None else out & ((1 << width) - 1)


def random_mask(rng, width, density):
    # exactly `width` bits wide: the top bit is always set
    return _from_offsets([i for i in range(width - 1) if rng.random() < density]
                         + [width - 1], width)


def with_popcount(rng, width, k):
    return _from_offsets(rng.sample(range(width), k), width)


def check(m1, m2, width=None):
    want = ref_convolve(m1, m2, width)
    assert convolve_or(m1, m2, width) == want
    assert convolve_or(m2, m1, width) == want


# -- convolve_or ---------------------------------------------------------------

def test_convolve_empty_operands():
    for width in (None, 0, 1, 10):
        assert convolve_or(0, 0, width) == 0
        assert convolve_or(0, 0b1011, width) == 0
        assert convolve_or(0b1011, 0, width) == 0
    assert convolve_or(0b101, 0b11, 0) == 0
    # every bit of one operand lies at or above the width
    assert convolve_or(1 << 40, 0b111, 20) == 0


def test_convolve_small_cases():
    rng = random.Random(1)
    for _ in range(300):
        check(rng.getrandbits(rng.randint(1, 40)), rng.getrandbits(rng.randint(1, 40)))


@pytest.mark.parametrize("k", [63, 64, 65])
def test_convolve_shift_or_limit(k):
    rng = random.Random(k)
    for width in (300, 5000):
        sparse = with_popcount(rng, width, k)
        # the other operand is sparse too, so the sum never saturates early
        dense = with_popcount(rng, width, k + 40)
        check(sparse, dense)
        check(sparse, dense, width)
        check(sparse, random_mask(rng, width, 0.02))


@pytest.mark.parametrize("delta", [-1, 0, 1])
def test_convolve_fft_crossover(delta, monkeypatch):
    rng = random.Random(10 + delta)
    fft_calls = []

    def counted_fft_or(*args):
        fft_calls.append(1)
        return _fft_or(*args)

    monkeypatch.setattr(bits_module, "_fft_or", counted_fft_or)
    for n in (1500, 20000):
        other = random_mask(rng, n, 0.6)
        k = _fft_cutoff(n + other.bit_length() - 1) + delta
        sparse = with_popcount(rng, n - 1, k) | (1 << (n - 1))
        if sparse.bit_count() > k:
            sparse ^= sparse & -sparse
        assert sparse.bit_count() == k
        check(sparse, other)
    # the FFT takes over only above the cutoff
    assert len(fft_calls) == (4 if delta > 0 else 0)


def test_fft_path_on_small_operands():
    # below the cutoff convolve_or never reaches the FFT; check it directly
    rng = random.Random(11)
    for _ in range(40):
        a = random_mask(rng, rng.randint(1, 300), rng.random())
        b = random_mask(rng, rng.randint(1, 300), rng.random())
        natural = a.bit_length() + b.bit_length() - 1
        assert _fft_or(a, b, natural) == ref_convolve(a, b)
    # products one bit longer than a 5-smooth length (bit 0 set, so no
    # shift shortens them): a transform one point short would lose the top
    for smooth in (1 << 6, 1 << 10, 1 << 14, 2 * 3 ** 6, 4 * 5 ** 4):
        n = smooth // 2 + 1
        a = random_mask(rng, n, 0.3) | 1
        b = random_mask(rng, n, 0.3) | 1
        assert _fft_or(a, b, 2 * n - 1) == ref_convolve(a, b)


def test_convolve_saturated_sums():
    full = (1 << 500) - 1
    assert convolve_or(full, full) == (1 << 999) - 1
    assert convolve_or(full, 0b11) == (1 << 501) - 1
    rng = random.Random(2)
    dense = 1 | rng.getrandbits(700) | (1 << 699)
    check(full, dense)
    check(full, dense, 600)
    # saturated only within the truncation width
    check(full | (1 << 900), 1 | (1 << 3), 400)


def test_convolve_width_truncation():
    rng = random.Random(3)
    for _ in range(60):
        m1 = random_mask(rng, rng.randint(1, 3000), rng.random())
        m2 = random_mask(rng, rng.randint(1, 3000), rng.random() * 0.3)
        natural = m1.bit_length() + m2.bit_length() - 1
        for width in (1, rng.randint(1, natural), natural - 1, natural, natural + 5):
            check(m1, m2, width)


@pytest.mark.parametrize("n", [(1 << 14) - 1, 1 << 14, (1 << 14) + 1, 3 * (1 << 14) + 17])
def test_convolve_block_edges(n):
    rng = random.Random(n)
    a = random_mask(rng, n, 0.05)
    b = random_mask(rng, n, 0.01)
    check(a, b)
    check(a, b, n)
    # all-ones operands: the counts reach n, the most a product of this width holds
    ones = (1 << n) - 1
    assert convolve_or(ones, ones) == (1 << (2 * n - 1)) - 1
    check(ones, b | 1, n + 100)


def test_convolve_uneven_blocks():
    rng = random.Random(4)
    wide = random_mask(rng, 5 * (1 << 14) + 3, 0.01)
    for n in (100, 1 << 13, 2 * (1 << 14) + 1):
        check(wide, random_mask(rng, n, 0.1))


def test_convolve_large_pair():
    rng = random.Random(5)
    n = 1 << 19
    a = with_popcount(rng, n, 20000) | (1 << (n - 1))
    b = with_popcount(rng, n, 20000) | 1
    # both far past the cutoff: one transform
    assert min(a.bit_count(), b.bit_count()) > _fft_cutoff(2 * n)
    check(a, b)
    check(a, b, n)


def test_convolve_guard_falls_back_to_shift_or(monkeypatch):
    rng = random.Random(6)
    a = random_mask(rng, 3 * (1 << 14), 0.2)
    b = random_mask(rng, 2 * (1 << 14), 0.2)
    want = ref_convolve(a, b)
    irfft, shift_or = np.fft.irfft, bits_module._shift_or
    fallbacks = []

    def noisy_irfft(*args, **kwargs):
        # one coefficient 0.3 off its integer: the product fails the guard
        out = irfft(*args, **kwargs)
        out[7] += 0.3
        return out

    def counted_shift_or(x, y, full):
        fallbacks.append(1)
        return shift_or(x, y, full)

    monkeypatch.setattr(np.fft, "irfft", noisy_irfft)
    monkeypatch.setattr(bits_module, "_shift_or", counted_shift_or)
    assert convolve_or(a, b) == want
    # one transform, so one whole-product fallback
    assert len(fallbacks) == 1


def test_smooth_len_is_least_5_smooth():
    def smooth(x):
        for f in (2, 3, 5):
            while x % f == 0:
                x //= f
        return x == 1

    for n in range(1, 3000):
        s = _smooth_len(n)
        assert s >= n and smooth(s) and not any(smooth(x) for x in range(n, s))
    # a power of two would pad this product to 2^22 points
    assert _smooth_len((1 << 21) + 1) == 2 ** 6 * 3 ** 8 * 5


# -- the common lattice of the FFT path -------------------------------------------

def lattice_operand(g, k, span, shift, seed):
    """k set bits on the stride-g lattice above ``shift``: lattice points 0
    and span - 1 (k >= 2) and k - 2 others below span."""
    if k == 1:
        return 1 << shift
    points = [0, span - 1] + random.Random(seed).sample(range(1, span - 1), k - 2)
    return _from_offsets([shift + g * p for p in points], shift + g * (span - 1) + 1)


def lattice_natural(g, op1, op2):
    # bit length of the full product of lattice_operand(g, *op1) and (g, *op2)
    return sum(shift + g * (span - 1) + 1 for _, span, shift in (op1, op2)) - 1


def _cutoff_example(g, delta):
    # the sparser operand's popcount at the cutoff of the full product, plus delta
    dense = (600, 700, 11)
    k = _fft_cutoff(lattice_natural(g, (2, 1000, 4), dense)) + delta
    return g, 7, (k, 1000, 4), dense, None


@st.composite
def lattice_cases(draw):
    """A common stride, two operands on it above their own low shifts, and an
    optional width that may cut the product between lattice points."""
    g = draw(st.sampled_from((1, 2, 3, 5, 7, 12)))
    ops = []
    for _ in range(2):
        k = draw(st.integers(1, 400))
        span = k if k == 1 else draw(st.integers(max(k, 2), 3 * k))
        ops.append((k, span, draw(st.integers(0, 300))))
    natural = lattice_natural(g, *ops)
    width = draw(st.none() | st.integers(1, natural + 3))
    return g, draw(st.integers(0, 2 ** 16)), ops[0], ops[1], width


@given(lattice_cases())
@example((12, 1, (300, 400, 5), (350, 900, 17), None))        # stride 12, shifted
@example((2, 2, (250, 260, 0), (400, 410, 1), None))
@example((3, 3, (200, 600, 33), (220, 230, 2), None))
@example((5, 4, (300, 300, 7), (301, 700, 0), None))
@example((7, 5, (260, 500, 1), (300, 301, 9), None))
@example((7, 6, (1, 1, 37), (300, 500, 3), None))               # one-bit operand: gcd 0
@example((3, 6, (1, 1, 5), (1, 1, 8), None))                    # both one-bit
@example((5, 8, (300, 400, 3), (300, 400, 4), 5 * 300 + 3))      # width between lattice points
@example((12, 9, (300, 400, 0), (300, 400, 0), 12 * 350 + 7))
@example(_cutoff_example(3, 0))
@example(_cutoff_example(3, 1))
@example(_cutoff_example(12, 1))
@settings(max_examples=60, deadline=None)
def test_convolve_on_common_lattice(case):
    g, seed, op1, op2, width = case
    m1 = lattice_operand(g, *op1, seed)
    m2 = lattice_operand(g, *op2, seed + 1)
    check(m1, m2, width)
    # the FFT path itself, whatever the popcounts
    natural = lattice_natural(g, op1, op2)
    width = natural if width is None else min(width, natural)
    full = (1 << width) - 1
    if m1 & full and m2 & full:
        assert _fft_or(m1 & full, m2 & full, width) == ref_convolve(m1, m2, width)


@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 12), st.integers(0, 2 ** 16))
@example(3, 1, 7, 0)
@example(4, 3, 2, 1)
@example(2, 1, 1, 2)
@example(5, 5, 12, 3)
@settings(max_examples=30, deadline=None)
def test_convolve_window_spread(a, b, stride, seed):
    # aW and -bW of a window W on a progression of stride s, as a sum builds
    # them: their common lattice is s * gcd(a, b)
    rng = random.Random(seed)
    lo = rng.randint(-50, 50)
    elems = [lo + stride * i for i in range(rng.randint(300, 700)) if rng.random() < 0.9]
    hi = elems[-1]
    amask = _from_offsets([a * (x - lo) for x in elems], a * (hi - lo) + 1)
    bmask = _from_offsets([b * (hi - x) for x in elems], b * (hi - lo) + 1)
    check(amask, bmask)
    assert _fft_or(amask, bmask, amask.bit_length() + bmask.bit_length() - 1) \
        == ref_convolve(amask, bmask)


def ref_lattice_stride(*masks):
    # the gcd of every set bit's offset, walked bit by bit; 0 when no set
    # bit lies above bit 0
    g = 0
    for m in masks:
        for i in ref_bits(m):
            g = math.gcd(g, i)
    return g


@pytest.mark.parametrize("offsets1, offsets2, stride", [
    ({0, 4, 6}, {0, 6, 9}, 1),                   # first gaps 4 and 6 say 2; 9 is odd
    ({0, 12, 30, 45}, {0, 24}, 3),               # 12, then 30 refines to 6, then 45 to 3
    ({0, 8, 12}, {0, 16, 20}, 4),                # one refinement: 12 to 4
    ({0, 10, 20}, {0, 15}, 5),
    ({0}, {0, 6, 9}, 3),                         # a one-bit operand sets no gap
    ({0}, {0}, 1),                               # both one-bit
])
def test_lattice_refinement_on_misleading_first_gaps(offsets1, offsets2, stride):
    # the operands' first gaps overstate their common stride, and the bits
    # that refine it lie high; padded past the FFT cutoff with bits on the
    # true lattice, and checked as they are and with their bits swapped
    rng = random.Random(stride)
    top = 1300 * stride
    pad = {stride * i for i in range(700, 1300) if rng.random() < 0.8}
    for extra in (set(), pad):
        a = _from_offsets(sorted(offsets1 | (extra if len(offsets1) > 1 else set())), top)
        b = _from_offsets(sorted(offsets2 | extra), top)
        assert _lattice_stride(a, b) == _lattice_stride(b, a) == stride
        assert (ref_lattice_stride(a, b) or 1) == stride
        natural = a.bit_length() + b.bit_length() - 1
        for width in (natural, natural - stride, natural // 2 + 1):
            assert _fft_or(a, b, width) == ref_convolve(a, b, width)
            check(a, b, width)


def test_lattice_stride_matches_gcd_of_offsets():
    # random operands on a random lattice, with bit 0 set as _fft_or sets it
    rng = random.Random(30)
    for _ in range(300):
        g = rng.choice((1, 2, 3, 4, 6, 12, 35, 64))
        ops = [1 | _from_offsets([g * rng.randrange(1, 200) for _ in range(rng.randint(0, 5))],
                                 g * 200) for _ in range(2)]
        assert _lattice_stride(*ops) == (ref_lattice_stride(*ops) or 1)


def test_convolve_scale_non_saturating():
    # two 2^20-bit masks on even positions only: no sum is ever odd, so no
    # part of the product saturates, and both operands pass the cutoff
    rng = random.Random(12)
    n = 1 << 20
    sparse = _from_offsets([2 * i for i in rng.sample(range(n // 2), 3000)] + [n - 2], n)
    dense = _from_offsets([i for i in range(0, n, 2) if rng.random() < 0.5] + [n - 2], n)
    width = 2 * n - 3
    assert min(sparse.bit_count(), dense.bit_count()) > _fft_cutoff(width)
    assert convolve_or(sparse, dense) == ref_convolve(sparse, dense)


# -- linear helpers --------------------------------------------------------------

@pytest.mark.parametrize("width", [1, 2, 255, 256, 257, 5000])
def test_linear_helpers_match_loops(width):
    rng = random.Random(width)
    sparse = [with_popcount(rng, width, min(k, width))
              for k in (1, 3, _SPARSE_BITS, _SPARSE_BITS + 1)]
    for m in sparse + [random_mask(rng, width, d) for d in (0.03, 0.5, 1.0)]:
        bits = ref_bits(m)
        assert _members(m) == bits
        assert _from_offsets(bits, width) == m
        assert _reverse(m, width) == sum(1 << (width - 1 - i) for i in bits)
        assert _reverse(m, width + 3) == sum(1 << (width + 2 - i) for i in bits)
        assert _reflect(m, width) == sum(1 << (-i % width) for i in bits)
        for n in (1, 2, 5):
            assert _spread(m, n, n * width) == sum(1 << (n * i) for i in bits)


def loop_reverse(mask, width):
    return sum(1 << (width - 1 - i) for i in ref_bits(mask))


REVERSE_WIDTHS = sorted(set(range(71)) | {(1 << k) + d for k in range(3, 14) for d in (-1, 1)})


@pytest.mark.parametrize("width", REVERSE_WIDTHS)
def test_reverse_matches_bit_loop(width):
    # every width 0-70 and 2^k +- 1: masks of 0-3 bits (the bit walk) and of
    # 4 bits up to all ones (the byte table), the top bit set or clear
    rng = random.Random(width)
    masks = {0, (1 << width) - 1}
    for k in range(1, 8):
        if k <= width:
            masks.add(with_popcount(rng, width, k))
    for density in (0.3, 0.7):
        masks.add(rng.getrandbits(width) if width else 0)
        masks.add(sum(1 << i for i in range(width) if rng.random() < density))
    if width:
        masks.add(1 << (width - 1) | 1)
    for m in masks:
        got = _reverse(m, width)
        assert got == loop_reverse(m, width), (m, width)
        assert _reverse(got, width) == m
        if width:
            assert _reflect(m, width) == sum(1 << (-i % width) for i in ref_bits(m))


SPREAD_WIDTHS = [_SMALL_BITS + 1 + r for r in range(8)] + [1000 + r for r in range(8)]


@pytest.mark.parametrize("n", range(1, 6))
def test_spread_strided_store_matches_oracle(n, monkeypatch):
    # bulk masks whose widths cover every residue mod 8, on moduli where the
    # top bit lands on m - 1 (the tightest fit), lies far below m, or just
    # wraps; the index path, seen as its one _from_offsets call, is taken
    # exactly when a bit wraps
    indexed = []

    def counted_from_offsets(*args):
        indexed.append(1)
        return from_offsets(*args)
    from_offsets = bits_module._from_offsets
    monkeypatch.setattr(bits_module, "_from_offsets", counted_from_offsets)
    rng = random.Random(n)
    for width in SPREAD_WIDTHS:
        for m in (random_mask(rng, width, 0.5), random_mask(rng, width, 1.0),
                  _periodic_fill(1, 3, 0, width - 1) | 1 << (width - 1)):
            tight = (width - 1) * n + 1
            for mod in (tight, tight + 1, n * width, 3 * n * width + 5, tight - 1):
                indexed.clear()
                assert _spread(m, n, mod) == oracle.spread(m, n, mod), (width, n, mod)
                wraps = mod < tight
                assert len(indexed) == (wraps and not (n == 1 and width <= mod))
    assert _spread(0, 3, 7) == 0


def test_decimals_formats_ints():
    # empty, one element, negative values, and ints past 2^63 and 2^64
    big = [2 ** 63, -(2 ** 63) - 1, 2 ** 64 + 7, -(10 ** 30)]
    for xs in ([], [0], [7], [-5], [-3, 0, 12, -100], big, list(range(-300, 300, 7)) + big):
        assert _decimals(xs) == ",".join(map(str, xs))
    assert _decimals([]) == "" and type(_decimals([])) is str
    assert _decimals((1, 2)) == "1,2"


def from_set(residues, m):
    # the mask of a Python set of residues below m, through one binary string
    flags = bytearray(b"0") * m
    for r in residues:
        flags[m - 1 - r] = 49
    return int(flags.decode(), 2)


@pytest.mark.parametrize("width", [_SMALL_BITS, _SMALL_BITS + 1, 5000])
def test_spread_matches_sets_and_replaced_loop(width, monkeypatch):
    # n = 0, +-1, -3, n >= m and gcd(n, m) > 1, on sparse and dense masks on
    # both sides of _bulk's switch; _unpack is seen exactly when the mask is
    # wide with many members, so a swapped or shifted threshold fails
    unpacked = []

    def counted_unpack(mask, w):
        unpacked.append(w)
        return unpack(mask, w)
    unpack = bits_module._unpack
    monkeypatch.setattr(bits_module, "_unpack", counted_unpack)
    rng = random.Random(width)
    masks = [(k, with_popcount(rng, width - 1, k - 1) | (1 << (width - 1)))
             for k in (1, _SPARSE_BITS, _SPARSE_BITS + 1)]
    masks += [(m.bit_count(), m) for m in (random_mask(rng, width, d) for d in (0.3, 1.0))]
    for k, m in masks:
        bits = ref_bits(m)
        # width // 3 + 1: the top bit wraps, for n = 1 too; even moduli
        # share a factor with the even n
        for mod in (width // 3 + 1, width, 2 * width, 2 * width + 1, 3 * width + 7):
            for n in (0, 1, -1, -3, 2, 6, 5, mod, mod + 2, 3 * mod - 1, -mod - 4):
                unpacked.clear()
                got = _spread(m, n, mod)
                assert got == from_set({n * i % mod for i in bits}, mod) == oracle.spread(m, n, mod)
                bulk = not (n == 1 and width <= mod) and width > _SMALL_BITS and k > _SPARSE_BITS
                assert unpacked == ([width] if bulk else [])
    assert _spread(0, 3, 7) == 0


def test_image_at_the_default_cap():
    # one dense residue step at g = 2^20 - 3, a prime: U is a random half of
    # [0, g/8), so 3U - U is not all of Z/gZ.  A residue r is in 3U - U iff
    # 3U meets r + U, which is checked on masks built from Python sets
    g = (1 << 20) - 3
    rng = random.Random(20)
    us = [x for x in range(g // 8) if rng.random() < 0.5]
    u = from_set(us, g)
    image = _image(u, 3, -1, g)
    triple = from_set({3 * x % g for x in us}, g)
    full = (1 << g) - 1
    rs = rng.sample(range(g), 200) + [0, g - 1, 3 * us[-1] - us[0], 3 * us[-1] - us[0] + 1]
    hits = []
    for r in rs:
        shifted = ((u << r) | (u >> (g - r))) & full
        hits.append(image >> r & 1)
        assert hits[-1] == (triple & shifted != 0), r
    assert 0 < sum(hits) < len(rs)


COEFFICIENTS = range(-3, 4)


@pytest.mark.parametrize("g", range(1, 10))
def test_image_matches_oracle_on_every_small_mask(g):
    # every mask mod g and every (a, b) in -3..3: zero, negative and
    # non-coprime pairs, and the full mask's subgroup
    for mask in range(1 << g):
        for a in COEFFICIENTS:
            for b in COEFFICIENTS:
                assert _image(mask, a, b, g) == oracle.image(mask, a, b, g), (mask, a, b)


def test_image_walk_matches_numpy_route(monkeypatch):
    # masks 256 and 257 bits wide with 32 and 33 members, on both sides of
    # _bulk's switch, and one-residue masks mod the prime 20023, against the
    # same images with every mask sent through index arrays and convolve_or
    rng = random.Random(29)
    cases = [(with_popcount(rng, width - 1, k - 1) | (1 << (width - 1)), g)
             for width in (_SMALL_BITS, _SMALL_BITS + 1)
             for k in (_SPARSE_BITS, _SPARSE_BITS + 1)
             for g in (_SMALL_BITS + 1, 1000)]
    p = 20023
    singles = [(1 << r, p) for r in (0, 1, 7, p // 2, p - 1)]
    pairs = [(a, b) for a in COEFFICIENTS for b in COEFFICIENTS] + [(p + 2, 5), (-2 * p, p - 1)]
    walked = {(m, g, a, b): _image(m, a, b, g) for m, g in cases + singles for a, b in pairs}
    for m, g in cases:
        for a, b in pairs:
            assert walked[m, g, a, b] == oracle.image(m, a, b, g)
    for m, g in singles:
        for a, b in pairs:
            assert walked[m, g, a, b] == 1 << ((a + b) * (m.bit_length() - 1) % g)
    monkeypatch.setattr(bits_module, "_bulk", lambda mask: True)
    for (m, g, a, b), image in walked.items():
        assert _image(m, a, b, g) == image, (m, g, a, b)


@pytest.mark.parametrize("d", [1, 2, 7, 60, 3000])
def test_class_sum_matches_sets(d):
    rng = random.Random(d)
    # up to 700 x 800 residues mod 3000, past the FFT cutoff
    for k1, k2 in ((0, 3), (1, 1), (1, 5), (4, 1), (d, d // 3 + 1), (700, 800)):
        xs = rng.sample(range(d), min(k1, d))
        ys = rng.sample(range(d), min(k2, d))
        want = {(x + y) % d for x in xs for y in ys}
        got = _class_sum(sum(1 << x for x in xs), sum(1 << y for y in ys), d)
        assert got == sum(1 << r for r in want)


@st.composite
def periodic_masks(draw):
    """A modulus m with many divisors or none, and up to three masks mod m,
    each repeating within a divisor of m and maybe then one bit flipped."""
    m = draw(st.one_of(st.sampled_from((1, 64, 360, 720, 840, 997, 1024, 2520)),
                       st.integers(1, 600)))
    divisors = [e for e in range(1, m + 1) if m % e == 0]
    masks = []
    for _ in range(draw(st.integers(0, 3))):
        d = draw(st.sampled_from(divisors))
        mask = _periodic_fill(draw(st.integers(0, (1 << d) - 1)), d, 0, m)
        if draw(st.integers(0, 3)) == 0:
            mask ^= 1 << draw(st.integers(0, m - 1))
        masks.append(mask)
    return m, masks


@given(periodic_masks())
@example((720720, [1]))
@example((1 << 12, [_periodic_fill(0b1, 1 << 5, 0, 1 << 12), 0]))
@example((2 * 3 * 5 * 7, [_periodic_fill(0b1, 2 * 5, 0, 210), _periodic_fill(0b1, 3 * 7, 0, 210)]))
# popcounts 1 (no prime tried), 8 (of 12, period 3), 0 and 0, 0 and 12
@example((32771, [1 << 5]))
@example((12, [_periodic_fill(0b101, 3, 0, 12)]))
@example((12, [0, 0]))
@example((12, [0, (1 << 12) - 1]))
@settings(max_examples=400, deadline=None)
def test_min_period_matches_divisor_scan(case):
    m, masks = case
    assert _min_period(m, *masks) == oracle.min_period(m, *masks)


def ref_prime_factors(n):
    # every divisor from 2 up, dividing each out in full
    out, d = [], 2
    while n > 1:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out


def test_prime_factors_match_brute_force():
    for n in range(1, 5001):
        assert _prime_factors(n) == ref_prime_factors(n)
    # primes and prime powers near 2^20, and products of two of them
    for n, want in ((1048573, [1048573]), (1048583, [1048583]), (1 << 20, [2]),
                    (1021 ** 2, [1021]), (101 ** 3, [101]), (3 ** 13, [3]),
                    (2 * 1048573, [2, 1048573]), (1021 * 1031, [1021, 1031])):
        assert _prime_factors(n) == ref_prime_factors(n) == want


def test_bits_sparse_wide_masks(monkeypatch):
    # masks past _SMALL_BITS are walked bit by bit up to _SPARSE_BITS set
    # bits, and unpacked by numpy above that
    unpacked = []

    def counted_unpack(mask, width):
        unpacked.append(width)
        return unpack(mask, width)
    unpack = bits_module._unpack
    monkeypatch.setattr(bits_module, "_unpack", counted_unpack)
    rng = random.Random(3)
    for width in (_SMALL_BITS, _SMALL_BITS + 1, 4000):
        for k in (_SPARSE_BITS, _SPARSE_BITS + 1):
            m = with_popcount(rng, width - 1, k - 1) | (1 << (width - 1))
            unpacked.clear()
            got = _members(m)
            assert type(got) is list and got == sorted(got) == ref_bits(m)
            assert len(unpacked) == (width > _SMALL_BITS and k > _SPARSE_BITS)
    assert _members(0) == []
