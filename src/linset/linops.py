"""Linear operations X -> aX - bX, their composition, and the signed
coefficient multisets of composed operations."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._bits import _fold_mod, _image, _periodic_fill, _rotate, _spread
from .epset import EPSet, InputError, _dilated, _minkowski, check_window, window_cap


@dataclass(frozen=True)
class LinearOp:
    """One linear operation X -> a*X - b*X with positive coefficients."""

    a: int
    b: int

    def __post_init__(self):
        if self.a < 1 or self.b < 1:
            raise InputError("coefficients must be positive integers")

    @property
    def coprime(self) -> bool:
        return math.gcd(self.a, self.b) == 1

    def __str__(self):
        return "(%d,%d)" % (self.a, self.b)


@dataclass(frozen=True)
class OpSequence:
    """A finite list of linear operations, with the coefficient bound L.

    ``cyclic=True`` marks that the list extends periodically, which is how
    infinite operation sequences are supplied to the iteration engine; a
    cyclic list needs at least one op.
    """

    ops: tuple
    bound: int = 0
    cyclic: bool = False

    def __post_init__(self):
        ops = tuple(op if isinstance(op, LinearOp) else LinearOp(*op) for op in self.ops)
        object.__setattr__(self, "ops", ops)
        if self.cyclic and not ops:
            raise InputError("a cyclic sequence needs at least one operation")
        # the least index from which every op equals the last one
        start = max(len(ops) - 1, 0)
        while start and ops[start - 1] == ops[start]:
            start -= 1
        object.__setattr__(self, "_constant_start", start)
        top = max((max(op.a, op.b) for op in ops), default=1)
        if self.bound == 0:
            object.__setattr__(self, "bound", top)
        elif self.bound < top:
            raise InputError("bound %d is below a coefficient in the sequence" % self.bound)

    def __len__(self):
        return len(self.ops)

    def __iter__(self):
        return iter(self.ops)

    def __getitem__(self, i):
        return self.ops[i]

    def op_at(self, k: int) -> LinearOp:
        """Operation applied at step k+1 (0-based index into the sequence)."""
        if k < len(self.ops):
            return self.ops[k]
        if self.cyclic:
            return self.ops[k % len(self.ops)]
        raise IndexError("operation index %d beyond a non-cyclic sequence" % k)

    def all_coprime(self) -> bool:
        return all(op.coprime for op in self.ops)

    def constant_from(self, k: int) -> bool:
        """True when every available op at index >= k equals op_at(k)."""
        return (0 if self.cyclic else k) >= self._constant_start

    @classmethod
    def repeat(cls, a: int, b: int, times: int, cyclic: bool = False,
               bound: int = 0) -> "OpSequence":
        return cls(((a, b),) * times, bound=bound, cyclic=cyclic)

    def __str__(self):
        body = "".join(str(op) for op in self.ops)
        return "cyc[%s]" % body if self.cyclic else body


class CoefficientExpansion:
    """Signed coefficient multiset of a composed operation.

    ``terms`` maps coefficient value -> multiplicity; summed over all
    splittings of the operation list the multiplicities total 2^s, half of
    them on positive coefficients.  ``lattice`` holds the exponent-lattice
    counts, when the lattice path ran: ``terms`` is then decoded from it on
    first read, and ``most_repeated`` reads the lattice without decoding.
    """

    def __init__(self, terms: dict | None = None, lattice: "_Lattice | None" = None):
        if terms is not None:
            self.terms = terms      # fills the cache of the property below
        self.lattice = lattice

    @functools.cached_property
    def terms(self) -> dict:
        return self.lattice.terms()

    def total_multiplicity(self) -> int:
        return sum(self.terms.values())

    def positive_multiplicity(self) -> int:
        return sum(m for c, m in self.terms.items() if c > 0)

    def max_abs_coefficient(self) -> int:
        return max(abs(c) for c in self.terms)

    def most_repeated(self) -> tuple:
        """((alpha, count), (beta, count)): +alpha and -beta are the
        most-repeated coefficients of each sign, ties broken toward the
        smaller absolute value."""
        if self.lattice is not None:
            return self.lattice.most_repeated()
        best = {True: (0, 0), False: (0, 0)}    # sign -> (count, -|c|)
        for c, n in self.terms.items():
            key = (n, -abs(c))
            if key > best[c > 0]:
                best[c > 0] = key
        return tuple((-v, n) for n, v in (best[True], best[False]))


@dataclass(frozen=True)
class _Lattice:
    """Multiplicities of each sign on an exponent lattice: cell i stands for
    the coefficient prod p_j^(i // strides[j] % shape[j]) over ``base``."""

    base: list
    shape: tuple
    strides: list
    pos: np.ndarray
    neg: np.ndarray

    def values(self, idx, sign: int) -> list:
        """The signed coefficients of the cells ``idx``."""
        values = np.full(len(idx), sign, dtype=object)
        for p, n, st in zip(self.base, self.shape, self.strides):
            values *= np.array([p ** k for k in range(n)], dtype=object)[idx // st % n]
        return values.tolist()

    def terms(self) -> dict:
        terms = {}
        for sign, cells in ((1, self.pos), (-1, self.neg)):
            idx = np.flatnonzero(cells)
            terms.update(zip(self.values(idx, sign), cells[idx].tolist()))
        return terms

    def most_repeated(self) -> tuple:
        # one argmax per sign; only the cells tied at the top are decoded
        out = []
        for cells in (self.pos, self.neg):
            top = cells.max()
            out.append((min(self.values(np.flatnonzero(cells == top), 1)), int(top)))
        return tuple(out)


# Largest lattice, in cells per splitting, that is expanded on the lattice.
# Timed on 1-16 ops of small primes, the lattice took about as long as the
# dict loop at R = 4 * 2^s and 1.4-10x longer from R = 6 * 2^s on, while
# at depth 40 (R ~ 2e4 << 2^40) it is what keeps the expansion fast.
_LATTICE_CELLS_PER_SPLIT = 4


def compose_coefficients(seq: OpSequence) -> CoefficientExpansion:
    """Expand a composition into its signed coefficient multiset.

    Each operation contributes a two-way split (+a_i, -b_i), so every
    coefficient is +-prod(a_i or b_i) and the 2^s splittings aggregate by
    value.  The values live on an exponent lattice: over a gcd-free
    (pairwise coprime) base of all a_i, b_i > 1, each coefficient is
    prod p^e_p with 0 <= e_p <= E_p = sum_i max(e_p(a_i), e_p(b_i)), so
    the lattice has R = prod(E_p + 1) cells.  Two flat numpy arrays (one
    per sign, mixed-radix strides) hold the multiplicities; op i shifts
    both by the flat offsets A_i of a_i and B_i of b_i and adds:
    pos' = pos<<A_i + neg<<B_i, neg' = neg<<A_i + pos<<B_i.  The nonzero
    cells decode to the values.

    Multiplicities are exact.  No cell exceeds the 2^(s-1) splittings of
    its sign, so int64 holds them up to s = 62 and Python ints (object
    dtype) above.  A lattice larger than ``window_cap()`` or than
    ``_LATTICE_CELLS_PER_SPLIT * 2^s`` cells, as for ops with pairwise
    coprime large coefficients (R = 4^s for 2^s values), is not allocated:
    those inputs aggregate value by value in a dict instead.
    """
    if len(seq) == 0:
        raise InputError("composition of zero operations has no expansion")
    base = _coprime_base({c for op in seq for c in (op.a, op.b) if c > 1})
    exps = [(_exponents(op.a, base), _exponents(op.b, base)) for op in seq]
    shape = tuple(sum(max(ea[j], eb[j]) for ea, eb in exps) + 1 for j in range(len(base)))
    cells = math.prod(shape)
    if cells > window_cap() or cells > _LATTICE_CELLS_PER_SPLIT << len(seq):
        return CoefficientExpansion(terms=_expand_by_value(seq))
    lattice = _expand_on_lattice(base, shape, exps)
    return CoefficientExpansion(lattice=lattice)


def _coprime_base(values) -> list:
    """A gcd-free basis of integers > 1: pairwise coprime elements of which
    every value is a product of powers.  Two elements sharing g > 1 are
    replaced by g, x/g and y/g until none do; each step divides the
    product of all elements by g, so the loop ends."""
    base = []
    pending = sorted(values)
    while pending:
        x = pending.pop()
        if x == 1 or x in base:
            continue
        for i, y in enumerate(base):
            g = math.gcd(x, y)
            if g > 1:
                del base[i]
                pending += (g, x // g, y // g)
                break
        else:
            base.append(x)
    return sorted(base)


def _exponents(c: int, base: list) -> tuple:
    """Exponent vector of c over a gcd-free base, by repeated division."""
    out = []
    for p in base:
        e = 0
        while c % p == 0:
            c //= p
            e += 1
        out.append(e)
    return tuple(out)


def _expand_on_lattice(base: list, shape: tuple, exps: list) -> _Lattice:
    strides = [1]
    for n in shape[:-1]:
        strides.append(strides[-1] * n)
    size = math.prod(shape)
    dtype = np.int64 if len(exps) <= 62 else object
    pos, neg, pos2, neg2 = (np.zeros(size, dtype=dtype) for _ in range(4))
    pos[0] = 1
    live = 1
    for ea, eb in exps:
        sa = sum(e * st for e, st in zip(ea, strides))
        sb = sum(e * st for e, st in zip(eb, strides))
        grown = live + max(sa, sb)
        for out, same, other in ((pos2, pos, neg), (neg2, neg, pos)):
            out[:grown] = 0
            out[sa:sa + live] = same[:live]
            out[sb:sb + live] += other[:live]
        pos, neg, pos2, neg2 = pos2, neg2, pos, neg
        live = grown
    return _Lattice(base, shape, strides, pos[:live], neg[:live])


def _expand_by_value(seq: OpSequence) -> dict:
    terms = {1: 1}
    for op in seq:
        nxt = {}
        for c, m in terms.items():
            for c2 in (c * op.a, -c * op.b):
                nxt[c2] = nxt.get(c2, 0) + m
        terms = nxt
    return terms


def guaranteed_collision_count(t: int, bound: int) -> int:
    """ceil(2^(t-1) / (4t/L)^L): the pigeonhole lower bound on how often
    some positive (and some negative) coefficient must repeat."""
    num = (1 << (t - 1)) * bound ** bound
    den = (4 * t) ** bound
    return -(-num // den)


def collision_depth_threshold(m: int, bound: int) -> int:
    """Smallest integer depth t satisfying t >= 2*log2(m) + 4L + 2."""
    # plus ceil(2*log2(m)) exactly: the least k with 2^k >= m^2
    return 4 * bound + 2 + max(m * m - 1, 0).bit_length()


def dominant_coefficient_pair(seq: OpSequence, m: int):
    """Find a heavily repeated positive and negative coefficient.

    When the depth of ``seq`` meets the collision threshold for ``m``,
    returns (alpha, beta, multiplicity) where +alpha and -beta are the
    most-repeated coefficients of each sign (ties broken toward the
    smaller absolute value), multiplicity is the smaller of the two
    counts, and alpha, beta <= L^t.  Returns None when the depth is
    insufficient for the guarantee.
    """
    t = len(seq)
    bound = max(seq.bound, 2)
    if t < collision_depth_threshold(m, bound):
        return None
    (alpha, n_pos), (beta, n_neg) = compose_coefficients(seq).most_repeated()
    mult = min(n_pos, n_neg)
    floor_count = guaranteed_collision_count(t, bound)
    if not (mult >= floor_count >= m):
        raise AssertionError("collision guarantee violated: %s >= %s >= %s"
                             % (mult, floor_count, m))
    if alpha > bound ** t or beta > bound ** t:
        raise AssertionError("coefficient bound violated")
    return alpha, beta, mult


def apply_linear_op(op: LinearOp, s: EPSet) -> EPSet:
    """a*S - b*S, exactly.

    Let g be the period of S and G = g * gcd(a, b).  Read mod G, let U be
    the residues of the upward tail, D those of the downward tail, and R
    all residues of S (both tails and the window).  Then:

    - cover, the union of aU - bU and aD - bD mod G, is whole classes
      that aS - bS contains: by Bezout a*i - b*j runs over gcd(a, b)*Z
      with i, j both large, so a(u + gi) - b(u' + gj) fills the class
      au - bu' + G*Z for members u, u' of one tail;
    - aR - bR mod G holds every class that aS - bS meets, as a*g and
      b*g are multiples of G.

    A fully periodic S (R = U = D) maps to cover + G*Z, one ``_image``
    mod G of U's residues below g (a*g and b*g are multiples of G, so no
    fill to G is needed); when G == g and the image is U, the step is a
    fixed point and returns S itself.  Any other S is decided when
    ``_image(R, a, -b, G) == cover``: cover + G*Z then lies in aS - bS and
    holds it, and no dilation or Minkowski piece is built.  That image is
    skipped when cover is all of Z/GZ or R = U = D, and the screen
    ``_spread(R, a - b, G) & ~cover == 0`` (the diagonal a*x - b*x lies in
    aS - bS) turns most undecided inputs away at one spread.

    Caps.  A decided step is bounded by its answer's period G: a fully
    periodic S raises ``WindowCapExceeded`` when G passes ``window_cap()``,
    before any G-bit mask is built, and any other S then goes to the
    Minkowski sum of aS and -bS.  That sum is refused when a dilated
    operand or the sum needs a window or period past the cap, so a step
    that is decided may return where the sum would have been refused.  The
    operands of the sum are raw pieces (``epset._dilated``), not EPSet
    values.
    """
    if s.is_empty():
        return s
    g = s.period
    G = g * math.gcd(op.a, op.b)
    if s.is_fully_periodic():
        check_window(G)
        m = _image(s.pos_tail, op.a, -op.b, G)
        return s if G == g and m == s.pos_tail else EPSet(G, 0, -1, 0, m, m)
    if G <= window_cap():
        m = _residue_decided(s, op.a, -op.b, G)
        if m is not None:
            return EPSet(G, 0, -1, 0, m, m)
    k = s._key()
    return _minkowski(_dilated(k, op.a), _dilated(k, -op.b))


def _residue_decided(s: EPSet, a: int, b: int, G: int):
    """The residue mask mod G of aS + bS, S not fully periodic, when the
    rule of ``apply_linear_op`` decides it (a > 0 > b), else None."""
    g, up, down = s.period, s.pos_tail, s.neg_tail
    cover = _image(_periodic_fill(up, g, 0, G), a, b, G)
    if down != up:
        cover |= _image(_periodic_fill(down, g, 0, G), a, b, G)
    if not cover:       # no tail, so aS + bS is finite and nonempty
        return None
    every = up | down | _rotate(_fold_mod(s.window, g), s.lo, g)
    if every == up == down or cover.bit_count() == G:
        return cover
    every = _periodic_fill(every, g, 0, G)
    if _spread(every, a + b, G) & ~cover or _image(every, a, b, G) != cover:
        return None
    return cover


def apply_composition(seq, s: EPSet) -> EPSet:
    """Apply the operations of ``seq`` left to right; zero operations is S."""
    if not isinstance(seq, OpSequence):
        seq = OpSequence(tuple(seq))
    out = s
    for k in range(len(seq)):
        out = apply_linear_op(seq.op_at(k), out)
    return out
