"""Tests for linear operations, composition, and coefficient collisions."""

import math
import random
from itertools import permutations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracle
from conftest import epsets
from linset import epset, linops, residue
from linset.cli import parse_set_expression, random_ops
from linset.epset import EPSet, WindowCapExceeded, set_window_cap, window_cap
from linset.linops import (
    LinearOp,
    OpSequence,
    apply_composition,
    apply_linear_op,
    compose_coefficients,
    dominant_coefficient_pair,
    guaranteed_collision_count,
)
from linset.residue import ResidueSet


def test_apply_linear_op_examples():
    n = EPSet.naturals()
    assert apply_linear_op(LinearOp(2, 1), n) == EPSet.integers()
    a = EPSet.half_line(1, 3, 1)
    assert apply_linear_op(LinearOp(3, 1), a) == EPSet.residue_class(2, 3)
    zero = EPSet.from_iterable([0])
    assert apply_linear_op(LinearOp(1, 1), zero) == zero


def test_apply_linear_op_empty():
    assert apply_linear_op(LinearOp(2, 1), EPSet.empty()) == EPSet.empty()


def test_compose_coefficients_examples():
    exp = compose_coefficients(OpSequence(((2, 1), (3, 1))))
    assert exp.terms == {6: 1, 1: 1, -2: 1, -3: 1}
    exp = compose_coefficients(OpSequence(((1, 1),)))
    assert exp.terms == {1: 1, -1: 1}
    exp = compose_coefficients(OpSequence(((2, 1), (2, 1))))
    assert exp.terms == {4: 1, 1: 1, -2: 2}


@given(st.lists(st.tuples(st.integers(1, 12), st.integers(1, 12)), min_size=1, max_size=10))
@settings(max_examples=150, deadline=None)
def test_compose_coefficients_matches_oracle(pairs):
    # 4, 6, 8, 9, 10 and 12 share factors, so the coprime base is a true
    # refinement of the coefficients; 7 and 11 add lattice axes
    assert compose_coefficients(OpSequence(tuple(pairs))).terms == \
        oracle.coefficient_expansion(pairs)


def test_compose_coefficients_past_int64():
    # 2^63 splittings of each sign land on one cell: an int64 cell would wrap
    exp = compose_coefficients(OpSequence.repeat(1, 1, 64, bound=2))
    assert exp.terms == {1: 2 ** 63, -1: 2 ** 63}


def _spy_by_value(monkeypatch):
    calls = []
    inner = linops._expand_by_value

    def spy(seq):
        calls.append(len(seq))
        return inner(seq)
    monkeypatch.setattr(linops, "_expand_by_value", spy)
    return calls


def test_compose_coefficients_distinct_primes_by_value(monkeypatch):
    primes = [7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73,
              79, 83, 89, 97]
    pairs = list(zip(primes[::2], primes[1::2]))
    assert len(pairs) == 11
    calls = _spy_by_value(monkeypatch)
    # 4^11 lattice cells exceed the default cap; the dict holds 2^11 terms
    assert compose_coefficients(OpSequence(tuple(pairs))).terms == \
        oracle.coefficient_expansion(pairs)
    assert calls == [11]


def test_compose_coefficients_sparse_lattice_by_value(monkeypatch):
    # 10 ops of distinct primes: R = 4^10 = 2^20 cells, within the default
    # cap but 1024 cells per splitting, so the dict loop takes them
    primes = [7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73,
              79, 83]
    pairs = list(zip(primes[::2], primes[1::2]))
    assert 4 ** len(pairs) == window_cap()
    calls = _spy_by_value(monkeypatch)
    assert compose_coefficients(OpSequence(tuple(pairs))).terms == \
        oracle.coefficient_expansion(pairs)
    assert calls == [10]


def test_compose_coefficients_above_window_cap(monkeypatch):
    seq = random_ops(8, 5, 3, cyclic=False)
    calls = _spy_by_value(monkeypatch)
    on_lattice = compose_coefficients(seq).terms
    assert calls == []
    old = window_cap()
    set_window_cap(64)
    try:
        by_value = compose_coefficients(seq).terms
    finally:
        set_window_cap(old)
    assert calls == [8]
    assert by_value == on_lattice == oracle.coefficient_expansion([(op.a, op.b) for op in seq])


def test_compose_coefficients_empty():
    with pytest.raises(ValueError, match="zero operations"):
        compose_coefficients(OpSequence(()))


def test_composition_examples():
    z = EPSet.integers()
    assert apply_composition(OpSequence(((2, 1), (3, 1))), z) == z
    a = EPSet.half_line(1, 3, 1)
    assert apply_composition(OpSequence(()), a) == a
    # two applications of (3,1) on 1+3N land on the full class 1 mod 3
    assert apply_composition(OpSequence(((3, 1), (3, 1))), a) == EPSet.residue_class(1, 3)
    # a plain tuple of pairs is taken as an OpSequence
    assert apply_composition(((3, 1), (3, 1)), a) == EPSet.residue_class(1, 3)


@given(epsets(max_period=6, span=10),
       st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_composition_commutative(s, pairs):
    results = {apply_composition(OpSequence(tuple(p)), s) for p in permutations(pairs)}
    assert len(results) == 1


def test_coefficient_multiset_matches_direct_application():
    # on small finite sets, summing c*S over the expansion (with repeats
    # collapsed) re-derives the composed image computed tuple by tuple
    rng = random.Random(5)
    for _ in range(25):
        elems = sorted(rng.sample(range(-4, 6), rng.randint(1, 4)))
        size = rng.randint(1, 3)
        pairs = [(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(size)]
        seq = OpSequence(tuple(pairs))
        exp = compose_coefficients(seq)
        coeffs = sorted(exp.terms.items())
        signed = []
        for c, mult in coeffs:
            signed.extend([c] * mult)
        # brute force over all assignments of one set element per term
        brute = set()
        for choice in product(elems, repeat=len(signed)):
            brute.add(sum(c * x for c, x in zip(signed, choice)))
        direct = apply_composition(seq, EPSet.from_iterable(elems))
        lo, hi = min(brute), max(brute)
        assert direct.elements_in(lo - 1, hi + 1) == sorted(brute)


@given(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=1, max_size=10))
@settings(max_examples=80, deadline=None)
def test_multiplicity_conservation(pairs):
    seq = OpSequence(tuple(pairs))
    exp = compose_coefficients(seq)
    s = len(pairs)
    assert exp.total_multiplicity() == 1 << s
    assert exp.positive_multiplicity() == 1 << (s - 1)
    assert exp.max_abs_coefficient() <= seq.bound ** s


def test_dominant_pair_constant_two_one():
    seq = OpSequence.repeat(2, 1, 40)
    alpha, beta, mult = dominant_coefficient_pair(seq, 2)
    # coefficients are 2^(40-j) with multiplicity C(40, j); the most
    # repeated positive one has j = 20, the negative tie 2^19 vs 2^21
    # resolves toward the smaller value
    assert alpha == 2 ** 20
    assert beta == 2 ** 19
    assert mult == math.comb(40, 19)
    assert mult >= guaranteed_collision_count(40, 2) >= 2


# recorded from the value-by-value expansion; identical for m = 64 and 512
DEPTH_40_PAIRS = {
    0: (251942400000000000, 251942400000000000, 2308123860),
    1: (26873856000000000, 26873856000000000, 2313024141),
    2: (1417176000000000000, 1417176000000000000, 2923160576),
    3: (100776960000000000, 100776960000000000, 2402327680),
}


@pytest.mark.parametrize("seed", sorted(DEPTH_40_PAIRS))
@pytest.mark.parametrize("m", [64, 512])
def test_dominant_pair_depth_40_pinned(seed, m):
    seq = random_ops(40, 5, seed, cyclic=False)
    assert dominant_coefficient_pair(seq, m) == DEPTH_40_PAIRS[seed]


def test_dominant_pair_below_threshold():
    assert dominant_coefficient_pair(OpSequence.repeat(2, 1, 6), 2) is None


def test_dominant_pair_refuses_a_broken_guarantee(monkeypatch):
    # the two guards hold by theorem; a lying count or expansion must trip them
    seq = OpSequence.repeat(2, 1, 40)
    monkeypatch.setattr(linops, "guaranteed_collision_count", lambda t, bound: 1 << 60)
    with pytest.raises(AssertionError, match="^collision guarantee violated"):
        dominant_coefficient_pair(seq, 2)
    monkeypatch.undo()

    class Expansion:
        def most_repeated(self):
            return (2 ** 41, 1 << 50), (1, 1 << 50)
    monkeypatch.setattr(linops, "compose_coefficients", lambda seq: Expansion())
    with pytest.raises(AssertionError, match="^coefficient bound violated$"):
        dominant_coefficient_pair(seq, 2)


def test_dominant_pair_all_ones():
    seq = OpSequence.repeat(1, 1, 20, bound=2)
    alpha, beta, mult = dominant_coefficient_pair(seq, 1)
    assert (alpha, beta) == (1, 1)
    assert mult == 1 << 19


def test_op_sequence_validation():
    with pytest.raises(ValueError):
        LinearOp(0, 1)
    with pytest.raises(ValueError):
        OpSequence(((3, 1),), bound=2)
    seq = OpSequence(((2, 1), (3, 2)), cyclic=True)
    assert seq.op_at(5) == LinearOp(3, 2)
    with pytest.raises(IndexError, match="^operation index 2 beyond a non-cyclic sequence$"):
        OpSequence(((2, 1), (3, 1))).op_at(2)
    assert not seq.constant_from(0)
    assert OpSequence.repeat(2, 1, 4, cyclic=True).constant_from(1)


def test_constant_from_matches_op_at():
    # every available op at index >= k, read through op_at: the rest of the
    # list, or one full cycle for a cyclic sequence
    for n in range(5):
        for ops in product(((1, 1), (2, 1), (3, 2)), repeat=n):
            for cyclic in (False, True):
                if cyclic and not ops:
                    # no op to repeat: refused when built
                    with pytest.raises(epset.InputError):
                        OpSequence(ops, cyclic=cyclic)
                    continue
                seq = OpSequence(ops, cyclic=cyclic)
                for k in range(2 * n + 3):
                    avail = [seq.op_at(j) for j in range(k, k + n if cyclic else n)]
                    want = all(op == seq.op_at(k) for op in avail)
                    assert seq.constant_from(k) == want, (ops, cyclic, k)


@given(epsets(max_period=8, span=12), st.integers(1, 4), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_linear_op_matches_oracle(s, a, b):
    expected = oracle.gamma_bitmap(s, a, b, 200)
    assert oracle.agrees(apply_linear_op(LinearOp(a, b), s), expected, 200)


# -- fully periodic inputs: one residue image instead of Minkowski pieces ----

def _periodic(g, mask):
    return EPSet(g, 0, -1, 0, mask, mask)


@st.composite
def periodic_sets(draw, max_period=300):
    g = draw(st.integers(1, max_period))
    kind = draw(st.sampled_from(("random", "random", "sparse", "empty", "Z")))
    if kind == "random":
        mask = draw(st.integers(0, (1 << g) - 1))
    elif kind == "sparse":
        mask = sum(1 << r for r in draw(st.sets(st.integers(0, g - 1), max_size=4)))
    else:
        mask = (1 << g) - 1 if kind == "Z" else 0
    return _periodic(g, mask)


@given(st.one_of(periodic_sets(), epsets(max_period=8, span=12, tail_bits=3)),
       st.integers(1, 9), st.integers(1, 9))
@settings(max_examples=300, deadline=None)
def test_periodic_fast_path_matches_minkowski_and_oracle(s, a, b):
    # a and b share a factor in about a third of draws, so G = g*gcd(a, b)
    # exceeds the input period on those.  Eventually periodic inputs have
    # sparse tails that leave classes uncovered: residues mod G decide some
    # of their steps, and the Minkowski path takes the rest
    fast = apply_linear_op(LinearOp(a, b), s)
    assert fast == s.dilate(a).minkowski(s.negate().dilate(b))
    if s.is_fully_periodic():
        # both sides have period dividing G, so one window of G points decides
        radius = s.period * math.gcd(a, b)
        expected = oracle.periodic_gamma_bitmap(s, a, b, radius)
    else:
        radius = 120
        expected = oracle.gamma_bitmap(s, a, b, radius)
    assert oracle.agrees(fast, expected, radius)


def test_periodic_fast_path_edges():
    for a, b in ((1, 1), (2, 1), (3, 3), (4, 6), (9, 6)):
        d = math.gcd(a, b)
        assert apply_linear_op(LinearOp(a, b), EPSet.integers()) == EPSet.residue_class(0, d)
        assert apply_linear_op(LinearOp(a, b), EPSet.empty()) == EPSet.empty()
    # (2Z) under (2, 2): 4Z - 4Z = 4Z, a period G = 2 * gcd(2, 2)
    assert apply_linear_op(LinearOp(2, 2), EPSet.residue_class(0, 2)) == \
        EPSet.residue_class(0, 4)
    # eventually periodic inputs: two steps decided from residues, two
    # whose window residues lie outside the cover and keep the answer from
    # being periodic, and two whose answer has period G = g*gcd(a, b), not g
    cases = (("AP-(2,5,2)", (3, 1), "AP(4,5)"),
             ("U(AP-(0,4,0),AP+(1,4,1),AP+(4,4,4))", (3, 1), "U(AP(0,4),AP(2,4),AP(3,4))"),
             ("U({1},AP+(0,2,0))", (2, 1), None),
             ("U({1},AP+(0,3,0),AP-(0,3,0))", (2, 1), None),
             ("N", (2, 2), "AP(0,2)"),
             ("U(AP+(0,3,0),AP+(1,3,1))", (2, 4), "AP(0,2)"))
    for expr, (a, b), want in cases:
        s = parse_set_expression(expr)
        got = apply_linear_op(LinearOp(a, b), s)
        assert got == s.dilate(a).minkowski(s.negate().dilate(b)), expr
        assert got.is_fully_periodic() == (want is not None), expr
        if want is not None:
            assert got.to_expr() == want, expr


def test_periodic_input_never_reaches_minkowski(monkeypatch):
    calls = []
    real = epset._minkowski

    def spy(s, t):
        calls.append((s, t))
        return real(s, t)

    def refuse(*args):
        raise AssertionError("the periodic step built a ResidueSet")
    # the sum of raw pieces, where epset and linops hold it
    monkeypatch.setattr(epset, "_minkowski", spy)
    monkeypatch.setattr(linops, "_minkowski", spy)
    # the periodic step is one residue image on bare masks
    monkeypatch.setattr(ResidueSet, "__init__", refuse)
    monkeypatch.setattr(ResidueSet, "from_mask", classmethod(refuse))
    monkeypatch.setattr(residue, "_residue_set", refuse)
    for s in (EPSet.residue_class(1, 7), _periodic(12, 0b100100010011),
              EPSet.integers(), _periodic(300, (1 << 299) | 5)):
        for a, b in ((3, 1), (2, 5), (6, 4)):
            apply_linear_op(LinearOp(a, b), s)
    # a one-sided tail and opposite tails with different rules: the answer
    # is periodic, and residues mod G decide it
    for s in (EPSet.naturals(), EPSet.half_line(1, 3, 1), EPSet.half_line_down(2, 5, 0),
              EPSet(4, 0, -1, 0, 0b0001, 0b0011)):
        assert not s.is_fully_periodic()
        for a, b in ((3, 1), (2, 5), (6, 4)):
            assert apply_linear_op(LinearOp(a, b), s).is_fully_periodic()
    assert calls == []
    # a finite set, and a set whose answer keeps a window, keep the
    # Minkowski path
    others = (EPSet.from_iterable([0, 3]), parse_set_expression("U({-1},AP+(0,3,0))"))
    for k, s in enumerate(others, 1):
        assert not apply_linear_op(LinearOp(3, 1), s).is_fully_periodic()
        assert len(calls) == k


@given(epsets(max_period=8, span=16), st.sampled_from([(2, 1), (3, 1), (1, 3), (3, 2), (2, 2),
                                                      (6, 4), (5, 1)]),
       st.integers(0, 400))
@settings(max_examples=300, deadline=None)
def test_raw_operands_match_canonical_ones(s, ab, spare):
    # aS - bS from raw operands is the value, or the refusal, of the sum of
    # the canonical values aS and -bS, under any cap that S fits.  A step
    # that residues mod G decide is the exception: its value fits the cap
    # where the canonical sum may be refused for a dilated operand
    assume(not s.is_fully_periodic())
    cap = max(s.period, s.hi - s.lo + 1) + spare
    op = LinearOp(*ab)
    outcomes = []
    for step in (apply_linear_op, oracle.linear_op_step):
        old = window_cap()
        try:
            set_window_cap(cap)
            outcomes.append(step(op, s))
        except WindowCapExceeded as e:
            outcomes.append(("refused", e.requested))
        finally:
            set_window_cap(old)
    got, want = outcomes
    if isinstance(got, EPSet) and isinstance(want, tuple):
        assert got == oracle.linear_op_step(op, s)
        assert got.is_fully_periodic() and got.period <= cap
    else:
        assert got == want


def test_periodic_fast_path_cap():
    # the answer's period G = 400 fits a cap of 1000 although 3 * 400 does
    # not: the Minkowski path refused this input for its dilated operand
    x = EPSet(400, 0, -1, 0, 0b11, 0b11)
    old = window_cap()
    try:
        set_window_cap(1000)
        got = apply_linear_op(LinearOp(3, 1), x)
        assert got.to_expr() == "U(AP(0,400),AP(2,400),AP(3,400),AP(399,400))"
        # G = 400 * gcd(3, 3) = 1200 does not fit
        with pytest.raises(WindowCapExceeded) as err:
            apply_linear_op(LinearOp(3, 3), x)
        assert (err.value.requested, err.value.cap) == (1200, 1000)
        # an upward tail alone: 3(1 + 400N) - (1 + 400N) fills 2 + 400Z
        half = apply_linear_op(LinearOp(3, 1), EPSet.half_line(1, 400, 1))
        assert half.to_expr() == "AP(2,400)"
    finally:
        set_window_cap(old)
    assert got == x.dilate(3).minkowski(x.negate())
    # 3{0,1} - 3{0,1} = {-3, 0, 3} mod 1200
    m = 1 | 1 << 3 | 1 << 1197
    assert apply_linear_op(LinearOp(3, 3), x) == EPSet(1200, 0, -1, 0, m, m)


# -- most-repeated coefficients ------------------------------------------------

def _two_max_rule(terms):
    # the reference rule: most repeated of each sign, ties toward smaller |c|
    best_pos = max((c for c in terms if c > 0), key=lambda c: (terms[c], -c))
    best_neg = max((c for c in terms if c < 0), key=lambda c: (terms[c], c))
    return (best_pos, terms[best_pos]), (-best_neg, terms[best_neg])


def _has_tie(terms):
    for sign in (1, -1):
        counts = [n for c, n in terms.items() if c * sign > 0]
        if counts.count(max(counts)) > 1:
            return True
    return False


@pytest.mark.parametrize("by_value", [False, True])
def test_most_repeated_ties_match_two_max_rule(monkeypatch, by_value):
    if by_value:
        monkeypatch.setattr(linops, "_LATTICE_CELLS_PER_SPLIT", 0)
    rng = random.Random(11)
    seqs = [[(2, 1), (1, 2)], [(2, 3), (3, 2)], [(1, 1)], [(6, 1), (1, 6), (2, 3)]]
    seqs += [[(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(rng.randint(1, 8))]
             for _ in range(300)]
    ties = on_lattice = 0
    for pairs in seqs:
        exp = compose_coefficients(OpSequence(tuple(pairs)))
        assert exp.most_repeated() == _two_max_rule(exp.terms), pairs
        ties += _has_tie(exp.terms)
        on_lattice += exp.lattice is not None
    assert ties >= 50
    assert on_lattice == 0 if by_value else on_lattice >= 50
    # (2,1)(1,2): -4 and -1 both occur once, and -1 wins
    exp = compose_coefficients(OpSequence(((2, 1), (1, 2))))
    assert exp.most_repeated() == ((2, 2), (1, 1))


def test_most_repeated_object_counts():
    # 64 ops put 2^63 splittings of each sign on one cell (object dtype)
    exp = compose_coefficients(OpSequence.repeat(1, 1, 64, bound=2))
    assert exp.most_repeated() == ((1, 1 << 63), (1, 1 << 63))
