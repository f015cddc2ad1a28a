"""Tests for residue-set structure: images, periods, decomposition, orbits."""

import hashlib
import json
import math
import random
from dataclasses import astuple, replace
from itertools import combinations

import numpy as np
import pytest

import oracle
from conftest import allocates_below
from linset import residue
from linset.analysis import difference_fully_periodic_check
from linset.epset import (EPSet, InputError, ResourceLimitExceeded, WindowCapExceeded,
                          set_window_cap, window_cap)
from linset.residue import (
    DecompositionCertificate,
    DecompositionFailure,
    ResidueSet,
    cardinality_check,
    cardinality_sweep,
    decompose_equality_case,
    gamma_mod,
    multiplicative_order,
    nonperiodic_absorption_check,
    period,
    period_shift,
    residue_orbit,
    totient,
)

U12 = ResidueSet(12, [0, 3, 4, 6, 7, 10])


def brute_gamma(u, a, b):
    g = u.modulus
    return ResidueSet(g, {(a * x + b * y) % g for x in u.elems for y in u.elems})


def test_gamma_mod_examples():
    got = gamma_mod(U12, 4, 3)
    assert got == brute_gamma(U12, 4, 3)
    assert got == ResidueSet(12, [0, 1, 4, 6, 9, 10])
    h = ResidueSet.subgroup(12, 3)
    assert gamma_mod(h, 5, 7) == h
    assert gamma_mod(ResidueSet(6, [0]), 5, 1) == ResidueSet(6, [0])


def test_gamma_mod_nonpositive_coefficients():
    # members past 256 bits with a zero or negative coefficient: aU - bU
    u = ResidueSet(300, [0, 1, 280])
    for a, b in ((1, -1), (-1, 1), (0, 1), (1, 0), (-3, 2), (3, -5)):
        assert gamma_mod(u, a, b) == brute_gamma(u, a, b), (a, b)
    assert gamma_mod(u, 1, -1) == ResidueSet(300, [0, 1, 20, 21, 279, 280, 299])
    big = ResidueSet(1000, range(0, 1000, 7))
    assert gamma_mod(big, 2, -1) == brute_gamma(big, 2, -1)
    # the full residue set maps to the multiples of gcd(a, b, g)
    for full in (ResidueSet(12, range(12)), ResidueSet(300, range(300))):
        for a, b in ((2, 4), (3, -6), (0, 0), (5, -1)):
            assert gamma_mod(full, a, b) == brute_gamma(full, a, b), (full.modulus, a, b)


def test_period_examples():
    assert period(ResidueSet(12, [0, 3, 6, 9])) == ResidueSet(12, [0, 3, 6, 9])
    h = ResidueSet.subgroup(12, 4)
    assert 8 in h and -4 in h and 6 not in h
    with pytest.raises(InputError, match="^5 does not divide 12$"):
        ResidueSet.subgroup(12, 5)
    # a zero or negative step is refused as input, not by the arithmetic
    for d in (0, -3, -12):
        with pytest.raises(InputError, match="^subgroup step must be positive$"):
            ResidueSet.subgroup(12, d)
    assert period(U12) == ResidueSet(12, [0])
    assert period(ResidueSet(6, [0, 1])) == ResidueSet(6, [0])
    with pytest.raises(ValueError):
        period(ResidueSet(6, []))


def test_cardinality_check_examples():
    assert cardinality_check(U12, 4, 3) == (6, 6, True)
    assert cardinality_check(ResidueSet(6, [0, 2, 4]), 5, 1) == (3, 3, True)
    with pytest.raises(ValueError):
        cardinality_check(ResidueSet(4, [0, 2]), 2, 2)


def test_decompose_worked_example():
    cert = decompose_equality_case(U12, 4, 3)
    assert isinstance(cert, DecompositionCertificate)
    assert (cert.a1, cert.b1) == (4, 3)
    assert cert.v == (0, 4)
    assert cert.x == (0, 3, 6)
    assert cert.subgroup() == ResidueSet(12, [0])
    assert cert.verify(U12)


@pytest.mark.parametrize("field, value", [
    ("translation", 1), ("a1", 8), ("b1", 6), ("v", (0, 5)), ("x", (0, 3, 7)),
    ("subgroup_step", 6),
    ("v", (0, 4, 16)),      # the same reconstruction, but |U| != |V| * |X| * |H|
])
def test_tampered_certificate_fails_verify(field, value):
    cert = decompose_equality_case(U12, 4, 3)
    assert cert.verify(U12)
    assert not replace(cert, **{field: value}).verify(U12)


def test_swapped_components_fail_only_the_divisibility_check():
    u = ResidueSet(12, [0, 3, 4, 7])
    cert = decompose_equality_case(u, 3, 4)
    assert (cert.v, cert.x, cert.a1, cert.b1) == ((0, 3), (0, 4), 3, 4)
    swapped = replace(cert, v=cert.x, x=cert.v)
    # the reconstruction, the sizes and step = a1 * b1 all still hold: only
    # V inside a1*G and X inside b1*G tell the swap apart
    assert swapped.reconstruct() == u
    assert len(u) == len(swapped.v) * len(swapped.x) * (12 // swapped.subgroup_step)
    assert swapped.subgroup_step == swapped.a1 * swapped.b1
    assert not swapped.verify(u)


def test_decompose_matches_bruteforce_search():
    # enumerate every (a1, b1, V, X) over the divisor lattice for the worked
    # example; the certificate's choice must be among the solutions, and at
    # its (a1, b1) level the split is unique
    from itertools import combinations

    g, a, b = 12, 4, 3
    u = set(U12.elems)
    cert = decompose_equality_case(U12, a, b)
    solutions = []
    for a1 in (1, 2, 4):
        if math.gcd(g, a) % a1:
            continue
        for b1 in (1, 3):
            if math.gcd(g, b) % b1:
                continue
            h = set(range(0, g, a1 * b1))
            va = list(range(0, g, a1))
            xb = list(range(0, g, b1))
            for vs in range(1, len(va) + 1):
                for v in combinations(va, vs):
                    if len(u) % (vs * len(h)):
                        continue
                    xs = len(u) // (vs * len(h))
                    if xs > len(xb):
                        continue
                    for x in combinations(xb, xs):
                        got = {(vv + xx + hh) % g for vv in v for xx in x for hh in h}
                        if got == u and len(u) == vs * xs * len(h):
                            solutions.append((a1, b1, v, x))
    key = (cert.a1, cert.b1, cert.v, cert.x)
    assert key in solutions
    same_level = [s for s in solutions if s[:2] == (cert.a1, cert.b1)]
    assert same_level == [key]


def test_decompose_failure_reports(monkeypatch):
    r = decompose_equality_case(ResidueSet(6, [0, 1, 2]), 5, 1)
    assert isinstance(r, DecompositionFailure)
    assert r.hypothesis == "cardinality not preserved"
    r = decompose_equality_case(ResidueSet(8, [0, 2, 4, 6]), 3, 1)
    assert isinstance(r, DecompositionFailure)
    assert r.hypothesis == "contained in a proper subgroup"
    with pytest.raises(InputError, match="coefficients must be coprime"):
        decompose_equality_case(ResidueSet(4, [0, 2]), 2, 2)
    # a certificate its own check refuses is never returned
    monkeypatch.setattr(DecompositionCertificate, "verify", lambda self, u: False)
    assert decompose_equality_case(U12, 4, 3) == DecompositionFailure("reconstruction mismatch")


def test_decompose_full_group():
    g = 10
    cert = decompose_equality_case(ResidueSet(g, range(g)), 3, 1)
    assert isinstance(cert, DecompositionCertificate)
    assert (cert.a1, cert.b1) == (1, 1)
    assert cert.v == (0,) and cert.x == (0,)
    assert len(cert.subgroup()) == g


def test_orbit_examples():
    orb = residue_orbit(ResidueSet(3, [1]), 2, 1)
    # {1} -> {0} -> {0}: fixed point
    assert orb.states[1] == ResidueSet(3, [0])
    assert orb.length == 1

    h = ResidueSet.subgroup(12, 4)
    orb = residue_orbit(h, 5, 7)
    assert (orb.onset, orb.length) == (0, 1)

    orb = residue_orbit(U12, 4, 3)
    assert totient(4) * totient(3) % orb.length == 0
    assert orb.order_divisibility is True

    with pytest.raises(InputError, match="^coefficients must be coprime$"):
        residue_orbit(U12, 4, 2)


def test_orbit_singleton_cycles_are_not_misjudged():
    # {1} mod 5 under 2U+U cycles with length 4; the structural hypotheses
    # fail (proper subgroup after translation), so no divisibility claim.
    orb = residue_orbit(ResidueSet(5, [1]), 2, 1)
    assert orb.length == 4
    assert orb.order_divisibility is None


def test_one_bit_masks_hash_apart():
    # hash(int) is the int mod 2^61 - 1, so the masks 1 << k alone take 61
    # values; residue_orbit keys its seen dict by the states, and the
    # one-element states of a large modulus must not collide there
    g = 20023
    assert len({hash(ResidueSet.from_mask(g, 1 << k)) for k in range(g)}) == g


def test_residue_layer_builds_no_epset(monkeypatch):
    def refuse(*args):
        raise AssertionError("the residue layer built an EPSet")
    monkeypatch.setattr(EPSet, "__init__", refuse)
    assert residue_orbit(U12, 4, 3).order_divisibility is True
    assert isinstance(decompose_equality_case(U12, 4, 3), DecompositionCertificate)
    assert cardinality_check(U12, 4, 3) == (6, 6, True)
    assert cardinality_sweep(6, 2, 1)[0]
    assert nonperiodic_absorption_check(ResidueSet(6, [0]), 5, 2).holds


def test_absorption_examples():
    g = 6
    ok = 0
    for a in (1, 5):
        for size in range(1, 7):
            for elems in combinations(range(g), size):
                if 0 not in elems:
                    continue
                x = ResidueSet(g, elems)
                rep = nonperiodic_absorption_check(x, a, 2)
                if rep.applicable:
                    ok += 1
                    assert rep.holds
                    assert all(t % 3 == 0 for t in x.elems)
    assert ok > 0
    # periodic input is reported, not checked
    rep = nonperiodic_absorption_check(ResidueSet(6, [0, 3]), 5, 2)
    assert not rep.applicable and rep.failed_hypothesis == "set is periodic"
    rep = nonperiodic_absorption_check(ResidueSet(6, [0]), 5, 2)
    assert rep.applicable and rep.holds
    rep = nonperiodic_absorption_check(ResidueSet(6, [1, 2]), 5, 2)
    assert not rep.applicable and rep.failed_hypothesis == "0 not a member"
    with pytest.raises(InputError, match="^coefficients must be coprime$"):
        nonperiodic_absorption_check(ResidueSet(6, [0]), 4, 2)


def test_difference_periodicity_examples():
    n = EPSet.naturals()
    rep = difference_fully_periodic_check(n, 1, n, 1)
    assert rep.fully_periodic and rep.difference == EPSet.integers()
    s = EPSet.half_line(0, 4, 0)
    t = EPSet.half_line(0, 6, 0)
    rep = difference_fully_periodic_check(s, 4, t, 6)
    assert rep.modulus == 2 and rep.fully_periodic
    s2 = EPSet.half_line(2, 4, 2)
    rep = difference_fully_periodic_check(s2, 4, t, 6)
    assert rep.fully_periodic and rep.difference.period <= 2
    with pytest.raises(ValueError):
        difference_fully_periodic_check(EPSet.from_iterable([0, 1]), 3, n, 1)


def test_sweep_agrees_with_bruteforce_small():
    rng = random.Random(3)
    for g in (2, 3, 4, 5, 6, 8):
        for a, b in ((1, 1), (2, 1), (3, 2), (5, 1)):
            hold, eq = cardinality_sweep(g, a, b)
            assert hold
            eq = set(eq)
            for _ in range(200):
                mask = rng.getrandbits(g)
                u = ResidueSet.from_mask(g, mask)
                if not u.elems:
                    continue
                im = brute_gamma(u, a, b)
                assert (len(im) == len(u)) == (mask in eq)


def test_sweep_period_preservation_and_decomposition():
    for g in (6, 8, 12):
        for a, b in ((1, 1), (2, 1), (3, 1), (4, 3), (5, 2)):
            if math.gcd(a, b) != 1:
                continue
            hold, eq = cardinality_sweep(g, a, b)
            assert hold
            for mask in eq:
                u = ResidueSet.from_mask(g, mask)
                im = gamma_mod(u, a, b)
                assert period_shift(im) == period_shift(u)
                t = min(u.elems)
                shifted = u.translate(-t)
                if math.gcd(g, math.gcd(*shifted.elems)) == 1:
                    cert = decompose_equality_case(u, a, b)
                    assert isinstance(cert, DecompositionCertificate), (g, a, b, mask, cert)
                    assert cert.verify(u)
                    # the image respects the same split: (a+b)t + aV + bX + H
                    image = {((a + b) * cert.translation + a * v + b * x + h) % g
                             for v in cert.v for x in cert.x
                             for h in range(0, g, cert.subgroup_step)}
                    assert ResidueSet(g, image) == gamma_mod(u, a, b), (g, a, b, mask)


def test_orbit_iterate_count_bound():
    # cardinality-preserving orbits stay within (g*L)^2 distinct iterates
    rng = random.Random(11)
    for _ in range(150):
        g = rng.randint(2, 10)
        a, b = 1, 1
        while math.gcd(a, b) != 1 or max(a, b) < 2:
            a, b = rng.randint(1, 5), rng.randint(1, 5)
        mask = rng.getrandbits(g) or 1
        u = ResidueSet.from_mask(g, mask)
        orb = residue_orbit(u, a, b)
        if orb.cardinality_preserved and orb.onset == 0:
            assert len(orb.states) <= (g * max(a, b)) ** 2


def test_multiplicative_order():
    assert multiplicative_order(2, 15) == 4
    assert multiplicative_order(1, 7) == 1
    assert multiplicative_order(5, 1) == 1
    with pytest.raises(ValueError):
        multiplicative_order(3, 6)


@pytest.mark.parametrize("x, n", [(2, -5), (1, 0), (3, -1)])
def test_multiplicative_order_refuses_a_modulus_below_1(x, n):
    # (2, -5) looped forever, and (1, 0) divided by zero
    with pytest.raises(InputError, match="modulus must be positive"):
        multiplicative_order(x, n)


@pytest.mark.parametrize("make", [lambda: ResidueSet(0, []),
                                  lambda: ResidueSet.from_mask(0, 0),
                                  lambda: ResidueSet.subgroup(0, 1)],
                         ids=["init", "from_mask", "subgroup"])
def test_modulus_below_1_refused(make):
    with pytest.raises(InputError, match="^modulus must be positive$"):
        make()


def test_totient_matches_gcd_count():
    for n in range(1, 501):
        assert totient(n) == sum(math.gcd(k, n) == 1 for k in range(1, n + 1))


@pytest.mark.parametrize("n", [0, -3])
def test_totient_refuses_below_1(n):
    # it returned n itself, so residue_orbit read phi(-3) as -3
    with pytest.raises(InputError, match="totient needs a positive integer"):
        totient(n)


def test_order_divisibility_with_negative_coefficients(capsys):
    from linset.cli import run
    # {0,1} mod 3 under -3U - U cycles with length 2 = phi(3) * phi(1)
    assert run(["residue", "--set", "mod 3 {0,1}", "--a", "-3", "--b", "-1"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert (rep["cycle_length"], rep["order_divisibility"]) == (2, True)
    # phi(|a|) * phi(|b|) holds whatever the signs, and a coefficient 0
    # makes no claim
    for g in range(1, 8):
        for a in range(-5, 6):
            for b in range(-5, 6):
                if math.gcd(a, b) != 1 or min(a, b) >= 0:
                    continue
                for mask in range(1, 1 << g):
                    orb = residue_orbit(ResidueSet.from_mask(g, mask), a, b)
                    if a and b:
                        assert orb.order_divisibility is not False, (g, a, b, mask)
                    else:
                        assert orb.order_divisibility is None


def test_to_expr_matches_join_form():
    # masks of at most 32 members are walked bit by bit, and those wider
    # than 256 bits with more members go through numpy
    rng = random.Random(11)
    for g in range(1, 601):
        for k in {min(g, 32), min(g, rng.randint(0, 32)), min(g, rng.randint(33, 600))}:
            u = ResidueSet(g, rng.sample(range(g), k))
            assert u.to_expr() == "mod %d {%s}" % (g, ",".join(map(str, sorted(u.elems))))


def _pairs_for(g):
    return [(a, b) for a in range(1, 7) for b in range(1, 7)] + \
        [(g, 1), (g + 1, g), (2 * g + 3, 7 * g + 5)]


def test_image_table_matches_image_masks():
    # coprime or not, and coefficients at or past the modulus
    for g in range(1, 15):
        masks = np.arange(1 << g, dtype=np.uint16)
        for a, b in _pairs_for(g):
            got = residue._image_table(g, a, b)
            assert got.dtype == np.uint16
            assert np.array_equal(got, oracle.image_lanes(masks, g, a, b)), (g, a, b)


def test_image_table_matches_gamma_mod_sampled():
    rng = np.random.default_rng(7)
    for g, pairs in ((17, ((2, 1), (4, 1))), (18, ((5, 2), (4, 3))),
                     (19, ((2, 1), (5, 4))), (20, ((3, 2), (6, 5)))):
        for a, b in pairs:
            table = residue._image_table(g, a, b)
            for mask in rng.integers(0, 1 << g, size=2000).tolist():
                want = gamma_mod(ResidueSet.from_mask(g, mask), a, b).mask
                assert int(table[mask]) == want, (g, a, b, mask)


def test_sweep_exhaustive_matches_explicit_masks():
    for g in range(1, 15):
        masks = np.arange(1 << g, dtype=np.uint64)
        for a, b in ((1, 1), (2, 1), (3, 2), (4, 2), (5, 3), (6, 6)):
            assert cardinality_sweep(g, a, b) == oracle.sweep(g, a, b, masks), (g, a, b)


# sha256 of "<all_hold> <equality masks>" for the benchmark's moduli above
# the exhaustive range, recorded with the per-bit image kernel
SWEEP_DIGESTS = {
    (17, 2, 1): "507a35cd6be756850163da991eec9548e5136f08ae0d0787b98726b2cf3e60db",
    (17, 3, 2): "507a35cd6be756850163da991eec9548e5136f08ae0d0787b98726b2cf3e60db",
    (17, 5, 3): "507a35cd6be756850163da991eec9548e5136f08ae0d0787b98726b2cf3e60db",
    (17, 4, 1): "507a35cd6be756850163da991eec9548e5136f08ae0d0787b98726b2cf3e60db",
    (18, 3, 1): "9ae8cd3d681b0bdbb3406c40944c4931318d43abe6e7a04fb66c5a867d7f4bdf",
    (18, 5, 2): "b6715a8fc348f1eacf1205f481f77a2e26367e4b62d2690ad3406ac73448773d",
    (18, 4, 3): "9ae8cd3d681b0bdbb3406c40944c4931318d43abe6e7a04fb66c5a867d7f4bdf",
    (19, 2, 1): "1c4a121f34da88d0039a88455ecfb5de4c1a42e0d64fc91c4323220f3b99460b",
    (19, 5, 4): "1c4a121f34da88d0039a88455ecfb5de4c1a42e0d64fc91c4323220f3b99460b",
    (20, 3, 2): "d4dddf146d7cb4b8515c50db7fd03212d22c08874306c2413d42ba62c996c574",
    (20, 6, 5): "1968e909561e3fa888d009bf92abddbe784a8b776c10dc04c26634c04eb7fbef",
}


@pytest.mark.parametrize("g,a,b", sorted(SWEEP_DIGESTS))
def test_sweep_golden_digests(g, a, b):
    hold, eq = cardinality_sweep(g, a, b)
    text = "%s %s" % (hold, " ".join(map(str, eq)))
    assert hashlib.sha256(text.encode()).hexdigest() == SWEEP_DIGESTS[g, a, b]


@pytest.mark.parametrize("g", [15, 16, 17])
def test_sweep_masks_across_dtype_boundary(g):
    # the image table is uint16 up to g = 16 and uint32 above: top bits must
    # survive the rotations of the last uint16 lanes and the first uint32 one
    rng = random.Random(g)
    top = (1 << g) - 1
    samples = [top, 1 << (g - 1), 1, 3 << (g - 2), top ^ 1] + \
        [rng.getrandbits(g) for _ in range(60)] + \
        [rng.getrandbits(g) & rng.getrandbits(g) & rng.getrandbits(g) for _ in range(60)]
    for a, b in ((2, 1), (3, 2), (g - 1, 1)):
        table = residue._image_table(g, a, b)
        assert table.dtype == residue._mask_dtype(g)
        for mask in samples:
            want = gamma_mod(ResidueSet.from_mask(g, mask), a, b).mask
            assert int(table[mask]) == want, (g, a, b, mask)


def test_sweep_input_contract():
    for g in (0, -3, 65):
        with pytest.raises(ValueError, match="1..64"):
            cardinality_sweep(g, 2, 1)


@pytest.mark.parametrize("make", [lambda g: ResidueSet(g, [g - 1]),
                                  lambda g: ResidueSet.from_mask(g, 1),
                                  lambda g: ResidueSet.subgroup(g, 1)],
                         ids=["init", "from_mask", "subgroup"])
def test_modulus_past_the_cap_refused_before_its_mask(make):
    with allocates_below(1 << 20):
        with pytest.raises(WindowCapExceeded):
            make(10 ** 8)
    assert make(window_cap()).modulus == window_cap()


def test_sweep_refuses_above_window_cap():
    # 2^40 subsets at the default cap of 2^20: refused before any allocation
    with pytest.raises(ResourceLimitExceeded, match="2\\^40 subsets"):
        cardinality_sweep(40, 2, 1)
    old = window_cap()
    try:
        set_window_cap(1 << 10)
        assert cardinality_sweep(10, 2, 1) == oracle.sweep(10, 2, 1, np.arange(1 << 10))
        with pytest.raises(ResourceLimitExceeded):
            cardinality_sweep(11, 2, 1)
    finally:
        set_window_cap(old)


# sha256 over "g mask a b fields" lines of decompose_equality_case for every
# mask with g <= 10 and every coprime pair a, b <= 6, the fields being the
# certificate's or the failure's; recorded before the unreachable split and
# b-side checks were deleted
DECOMPOSE_SMALL_SHA256 = "950cd71f3eb66e2624ac630734e2562edc7b1b23d1ecab9d8781afabf1be3f8d"


def test_decompose_small_moduli_pinned():
    h = hashlib.sha256()
    pairs = [(a, b) for a in range(1, 7) for b in range(1, 7) if math.gcd(a, b) == 1]
    for g in range(1, 11):
        for mask in range(1 << g):
            u = ResidueSet.from_mask(g, mask)
            for a, b in pairs:
                res = decompose_equality_case(u, a, b)
                h.update(("%d %d %d %d %r\n" % (g, mask, a, b, astuple(res))).encode())
    assert h.hexdigest() == DECOMPOSE_SMALL_SHA256
