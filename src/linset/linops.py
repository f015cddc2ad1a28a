"""Linear operations X -> aX - bX, their composition, and the signed
coefficient multisets of composed operations."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .epset import EPSet


@dataclass(frozen=True)
class LinearOp:
    """One linear operation X -> a*X - b*X with positive coefficients."""

    a: int
    b: int

    def __post_init__(self):
        if self.a < 1 or self.b < 1:
            raise ValueError("coefficients must be positive integers")

    @property
    def coprime(self) -> bool:
        return math.gcd(self.a, self.b) == 1

    def __str__(self):
        return "(%d,%d)" % (self.a, self.b)


@dataclass(frozen=True)
class OpSequence:
    """A finite list of linear operations, with the coefficient bound L.

    ``cyclic=True`` marks that the list extends periodically, which is how
    infinite operation sequences are supplied to the iteration engine.
    """

    ops: tuple
    bound: int = 0
    cyclic: bool = False

    def __post_init__(self):
        ops = tuple(op if isinstance(op, LinearOp) else LinearOp(*op) for op in self.ops)
        object.__setattr__(self, "ops", ops)
        top = max((max(op.a, op.b) for op in ops), default=1)
        if self.bound == 0:
            object.__setattr__(self, "bound", top)
        elif self.bound < top:
            raise ValueError("bound %d is below a coefficient in the sequence" % self.bound)

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
        if self.cyclic and self.ops:
            return self.ops[k % len(self.ops)]
        raise IndexError("operation index %d beyond a non-cyclic sequence" % k)

    def all_coprime(self) -> bool:
        return all(op.coprime for op in self.ops)

    def constant_from(self, k: int) -> bool:
        """True when every available op at index >= k equals op_at(k)."""
        if not self.ops:
            return True
        ref = self.op_at(k) if (self.cyclic or k < len(self.ops)) else None
        if ref is None:
            return True
        tail = self.ops[k:] if k < len(self.ops) else ()
        if any(op != ref for op in tail):
            return False
        if self.cyclic:
            return all(op == ref for op in self.ops)
        return True

    @classmethod
    def repeat(cls, a: int, b: int, times: int, cyclic: bool = False,
               bound: int = 0) -> "OpSequence":
        return cls(((a, b),) * times, bound=bound, cyclic=cyclic)

    def __str__(self):
        body = "".join(str(op) for op in self.ops)
        return "cyc[%s]" % body if self.cyclic else body


@dataclass
class CoefficientExpansion:
    """Signed coefficient multiset of a composed operation.

    ``terms`` maps coefficient value -> multiplicity; summed over all
    splittings of the operation list the multiplicities total 2^s, half of
    them on positive coefficients.
    """

    terms: dict
    size: int = 0

    def total_multiplicity(self) -> int:
        return sum(self.terms.values())

    def positive_multiplicity(self) -> int:
        return sum(m for c, m in self.terms.items() if c > 0)

    def max_abs_coefficient(self) -> int:
        return max(abs(c) for c in self.terms)


def compose_coefficients(seq: OpSequence) -> CoefficientExpansion:
    """Expand a composition into its signed coefficient multiset.

    Each operation contributes a two-way split (+a_i, -b_i); aggregating by
    value keeps the map small even though the number of splittings is 2^s.
    Multiplicities are exact big integers.
    """
    if len(seq) == 0:
        raise ValueError("composition of zero operations has no expansion")
    terms = {1: 1}
    for op in seq:
        nxt = {}
        for c, m in terms.items():
            for c2 in (c * op.a, -c * op.b):
                nxt[c2] = nxt.get(c2, 0) + m
        terms = nxt
    return CoefficientExpansion(terms=terms, size=len(seq))


def guaranteed_collision_count(t: int, bound: int) -> int:
    """ceil(2^(t-1) / (4t/L)^L): the pigeonhole lower bound on how often
    some positive (and some negative) coefficient must repeat."""
    num = (1 << (t - 1)) * bound ** bound
    den = (4 * t) ** bound
    return -(-num // den)


def collision_depth_threshold(m: int, bound: int) -> int:
    """Smallest integer depth t satisfying t >= 2*log2(m) + 4L + 2."""
    t = 4 * bound + 2
    # add ceil(2*log2(m)) exactly: smallest k with 2^k >= m^2
    k = 0
    while (1 << k) < m * m:
        k += 1
    return t + k


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
    exp = compose_coefficients(seq)
    best_pos = max((c for c in exp.terms if c > 0),
                   key=lambda c: (exp.terms[c], -c))
    best_neg = max((c for c in exp.terms if c < 0),
                   key=lambda c: (exp.terms[c], c))
    alpha, beta = best_pos, -best_neg
    mult = min(exp.terms[best_pos], exp.terms[best_neg])
    floor_count = guaranteed_collision_count(t, bound)
    if not (mult >= floor_count >= m):
        raise AssertionError("collision guarantee violated: %s >= %s >= %s"
                             % (mult, floor_count, m))
    if alpha > bound ** t or beta > bound ** t:
        raise AssertionError("coefficient bound violated")
    return alpha, beta, mult


def apply_linear_op(op: LinearOp, s: EPSet) -> EPSet:
    """a*S - b*S, exactly."""
    if s.is_empty():
        return s
    return s.dilate(op.a).minkowski(s.negate().dilate(op.b))


def apply_composition(seq, s: EPSet, upto: int | None = None) -> EPSet:
    """Apply the operations of ``seq`` left to right; zero operations is S."""
    if not isinstance(seq, OpSequence):
        seq = OpSequence(tuple(seq))
    n = len(seq) if upto is None else upto
    out = s
    for k in range(n):
        out = apply_linear_op(seq.op_at(k), out)
    return out
