"""The exact one-step forms against the loops they replaced (tests/oracle.py):
integer logs by bit length, residue masks by the _bits kernels, interval
unions by one range per interval."""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from linset.constructions import sparse_interval_union
from linset.linops import collision_depth_threshold
from linset.residue import (DecompositionCertificate, DecompositionFailure, ResidueSet,
                           cardinality_sweep, decompose_equality_case,
                           nonperiodic_absorption_check)
from linset.stability import _floor_log2


@st.composite
def near_powers_of_two(draw):
    """p/q within 1/q of 2^e, on either side or exactly on it."""
    q = draw(st.integers(2, 1 << 70))
    e = draw(st.integers(-70, 70))
    d = draw(st.sampled_from((-1, 0, 1)))
    if e >= 0:
        return Fraction((q << e) + d, q)
    return Fraction(q + d, q << -e)


@given(st.one_of(near_powers_of_two(),
                 st.fractions(min_value=Fraction(1, 1 << 80)).filter(lambda x: x > 0)))
@example(Fraction(1))
@example(Fraction(1, 2))
@example(Fraction((1 << 200) - 1))
@settings(max_examples=600, deadline=None)
def test_floor_log2_matches_loop(x):
    assert _floor_log2(x) == oracle.floor_log2(x)


@given(st.one_of(st.integers(0, 3000), st.integers(0, 1 << 200)), st.integers(1, 50))
@example(0, 2)
@example(1, 2)
@example(1024, 3)
@example(1 << 100, 5)
@settings(max_examples=300, deadline=None)
def test_collision_depth_threshold_matches_loop(m, bound):
    assert collision_depth_threshold(m, bound) == oracle.collision_depth_threshold(m, bound)


@given(st.integers(1, 600), st.lists(st.integers(-2000, 2000), max_size=80))
@example(1, [0, 0, -1, 5])
@example(300, [-1, 299, 300, 600, -301, 299])
@settings(max_examples=300, deadline=None)
def test_residue_set_mask_matches_loop(g, elems):
    assert ResidueSet(g, elems).mask == oracle.residue_mask(g, elems)
    assert ResidueSet(g, iter(elems)).mask == oracle.residue_mask(g, elems)


def test_reconstruct_on_exhaustive_certificates():
    certs = 0
    for g in range(1, 13):
        for a, b in ((2, 1), (3, 1), (3, 2), (4, 3), (5, 2), (5, 3), (7, 4)):
            for mask in cardinality_sweep(g, a, b)[1]:
                cert = decompose_equality_case(ResidueSet.from_mask(g, mask), a, b)
                if isinstance(cert, DecompositionFailure):
                    # the one failure a generating equality case cannot have
                    assert cert.hypothesis == "contained in a proper subgroup"
                    continue
                certs += 1
                assert set(cert.reconstruct()) == oracle.reconstruct(cert)
                assert cert.reconstruct().mask == mask
    assert certs == 423


@st.composite
def certificates(draw):
    """Certificates made by hand: any translation, and v, x entries that
    are negative or past the modulus."""
    g = draw(st.integers(1, 60))
    step = draw(st.sampled_from([d for d in range(1, g + 1) if g % d == 0]))
    ints = st.integers(-3 * g, 3 * g)
    return DecompositionCertificate(
        modulus=g, a=1, b=1, translation=draw(ints), a1=1, b1=1,
        v=tuple(draw(st.lists(ints, max_size=6))),
        x=tuple(draw(st.lists(ints, max_size=6))), subgroup_step=step)


@given(certificates())
@example(DecompositionCertificate(12, 4, 3, -5, 4, 3, (-4, 0), (-3, 13), 12))
@settings(max_examples=400, deadline=None)
def test_reconstruct_matches_loop(cert):
    assert set(cert.reconstruct()) == oracle.reconstruct(cert)


@st.composite
def absorbed_sets(draw):
    """(X, b): X holds 0 and random members of the subgroup (g/d)*G, and d
    divides b, so bX = {0} and aX + bX = aX."""
    g = draw(st.integers(1, 300))
    d = draw(st.sampled_from([d for d in range(1, g + 1) if g % d == 0]))
    x = ResidueSet(g, [0] + [k * (g // d) for k in draw(st.sets(st.integers(0, d - 1)))])
    return x, d * draw(st.integers(1, 5))


@given(absorbed_sets(), st.integers(0, 20))
@example((ResidueSet(12, [0, 4]), 3), 0)
@settings(max_examples=400, deadline=None)
def test_absorption_check_on_random_masks(case, k):
    x, b = case
    rep = nonperiodic_absorption_check(x, k * b + 1, b)
    if rep.applicable:
        assert rep.holds == oracle.absorption_holds(x, rep.containment_step)


def test_absorption_check_matches_loop():
    applicable = 0
    for g in range(1, 11):
        for b in range(1, 2 * g):
            for mask in range(1, 1 << g, 2):
                x = ResidueSet.from_mask(g, mask)
                rep = nonperiodic_absorption_check(x, 1, b)
                if rep.applicable:
                    applicable += 1
                    assert rep.holds == oracle.absorption_holds(x, rep.containment_step)
    assert applicable > 100


@st.composite
def interval_anchors(draw):
    """Increasing positive anchors, half the time with integer right
    endpoints x * (1 + delta)."""
    delta = draw(st.fractions(min_value=Fraction(1, 50), max_value=5).filter(lambda d: d > 0))
    if draw(st.booleans()):
        rights = draw(st.lists(st.integers(1, 400), min_size=1, max_size=6, unique=True))
        xs = [Fraction(r) / (1 + delta) for r in sorted(rights)]
    else:
        xs = sorted(set(draw(st.lists(st.fractions(min_value=Fraction(1, 7), max_value=300)
                                      .filter(lambda x: x > 0), min_size=1, max_size=6))))
    return xs, delta, draw(st.integers(1, 600))


@given(interval_anchors())
@example(([Fraction(2)], Fraction(1, 2), 10))
@example(([Fraction(1), Fraction(4), Fraction(27)], Fraction(1, 2), 50))
@settings(max_examples=400, deadline=None)
def test_sparse_interval_union_matches_loop(case):
    xs, delta, n = case
    assert sparse_interval_union(xs, delta, n).elems == oracle.sparse_interval_union(xs, delta, n)
