"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every criterion computes a deterministic report dict; the final criterion
re-runs all of them and checks byte-identical rendering, plus 1-job vs
2-job agreement of the sweep command.
"""

import json
import math
import random
import time
from fractions import Fraction

import numpy as np

import oracle
from conftest import random_epset
from linset.analysis import dplus, stability_time, stability_time_bounds
from linset.cli import parse_ops, parse_set_expression, random_ops, render_json, run
from linset.constructions import (
    ap_counterexample,
    bohr_truncation,
    finite_gamma,
    interval_gap_profile,
    parity_flip_sequence,
    sqrt2_minus_one,
)
from linset.epset import EPSet
from linset.linops import (
    LinearOp,
    OpSequence,
    apply_linear_op,
    dominant_coefficient_pair,
    guaranteed_collision_count,
)
from linset.residue import (
    DecompositionCertificate,
    ResidueSet,
    cardinality_sweep,
    decompose_equality_case,
    gamma_mod,
    period_shift,
)
from linset.stability import iterate_trace, verify_stabilization

_reports = {}


def _record(n, name, budget, fn):
    t0 = time.perf_counter()
    try:
        report = fn()
    except Exception:
        print("ACCEPTANCE %d %s: FAIL" % (n, name), flush=True)
        raise
    dt = time.perf_counter() - t0
    _reports[n] = render_json(report)
    print("ACCEPTANCE %d %s: PASS (%.1fs)" % (n, name, dt), flush=True)
    assert dt < budget, "runtime %.1fs exceeds the %.0fs budget" % (dt, budget)
    return report


# -- criterion 1: orbit formula for progressions -----------------------------

def coprime_pairs(a_max, b_max=None):
    out = []
    for a in range(1, a_max + 1):
        for b in range(1, (b_max or a_max) + 1):
            if math.gcd(a, b) == 1:
                out.append((a, b))
    return out


def _criterion_orbit_formula():
    rows = []
    for a in range(2, 8):
        for b in range(1, a):
            if math.gcd(a, b) != 1:
                continue
            orbit = ap_counterexample(a, b)
            cur = orbit.start
            for k in range(1, 2 * orbit.cycle_length + 1):
                cur = apply_linear_op(LinearOp(a, b), cur)
                assert cur == orbit.predicted(k), (a, b, k)
            # stability of the exact orbit: a fixed point appears iff a = b+1
            tr = iterate_trace(orbit.start, OpSequence.repeat(a, b, 1, cyclic=True),
                               max_k=4 * orbit.cycle_length + 4)
            stable = tr.cycle is not None and tr.cycle[1] == 1
            assert stable == (a == b + 1), (a, b)
            rows.append({"a": a, "b": b, "cycle_length": orbit.cycle_length,
                         "stable": stable})
    return {"criterion": 1, "pairs": rows}


def test_criterion_01_orbit_formula():
    _record(1, "progression orbit formula", 10, _criterion_orbit_formula)


# -- criterion 2: exhaustive residue suite ------------------------------------

def _criterion_residue_suite():
    pairs = coprime_pairs(6)
    per_g = []
    for g in range(1, 17):
        eq_count = 0
        decomposed = 0
        for a, b in pairs:
            hold, eq_masks = cardinality_sweep(g, a, b)
            assert hold, (g, a, b)
            for mask in eq_masks:
                u = ResidueSet.from_mask(g, mask)
                assert period_shift(gamma_mod(u, a, b)) == period_shift(u), \
                    (g, a, b, mask)
                eq_count += 1
                shifted = u.translate(-min(u.elems))
                if math.gcd(g, math.gcd(*shifted.elems)) == 1:
                    cert = decompose_equality_case(u, a, b)
                    assert isinstance(cert, DecompositionCertificate), \
                        (g, a, b, mask, cert)
                    assert cert.verify(u)
                    decomposed += 1
        per_g.append({"g": g, "equality_instances": eq_count,
                      "decomposed": decomposed})

    rng = np.random.default_rng(20240811)
    sampled = []
    for g in range(17, 25):
        eq_count = 0
        decomposed = 0
        for a, b in pairs:
            masks = rng.integers(0, 1 << g, size=10_000, dtype=np.uint64)
            hold, eq_masks = oracle.sweep(g, a, b, masks)
            assert hold, (g, a, b)
            for mask in set(eq_masks):
                u = ResidueSet.from_mask(g, mask)
                assert period_shift(gamma_mod(u, a, b)) == period_shift(u)
                eq_count += 1
                shifted = u.translate(-min(u.elems))
                if math.gcd(g, math.gcd(*shifted.elems)) == 1:
                    cert = decompose_equality_case(u, a, b)
                    assert isinstance(cert, DecompositionCertificate)
                    assert cert.verify(u)
                    decomposed += 1
        sampled.append({"g": g, "equality_instances": eq_count,
                        "decomposed": decomposed})
    return {"criterion": 2, "exhaustive": per_g, "sampled": sampled}


def test_criterion_02_residue_suite():
    _record(2, "residue cardinality and decomposition", 300, _criterion_residue_suite)


# -- criterion 3: oracle equivalence ------------------------------------------

def _criterion_oracle():
    rng = random.Random(20240812)
    radius = 200
    counts = {}
    checked = 0
    for _ in range(125):
        s = random_epset(rng)
        t = random_epset(rng)
        cases = [
            ("minkowski", s.minkowski(t), oracle.sum_bitmap(s, t, radius)),
            ("union", s.union(t), oracle.union_bitmap(s, t, radius)),
            ("negate", s.negate(), oracle.negate_bitmap(s, radius)),
            ("translate", s.translate(rng.randint(-30, 30)), None),
            ("dilate", None, None),
            ("restrict", s.restrict_nonnegative(),
             oracle.restrict_nonnegative_bitmap(s, radius)),
        ]
        c = rng.randint(-30, 30)
        n = rng.choice([2, 3, 5, -2, -3])
        cases[3] = ("translate", s.translate(c), oracle.translate_bitmap(s, c, radius))
        cases[4] = ("dilate", s.dilate(n), oracle.dilate_bitmap(s, n, radius))
        for name, got, expected in cases:
            assert oracle.agrees(got, expected, radius), name
            counts[name] = counts.get(name, 0) + 1
            checked += 1
    assert checked >= 500
    return {"criterion": 3, "applications": checked, "discrepancies": 0,
            "by_operation": dict(sorted(counts.items()))}


def test_criterion_03_oracle_equivalence():
    _record(3, "set algebra vs brute-force oracle", 60, _criterion_oracle)


# -- criterion 4: positive-difference stability bounds ------------------------

def _criterion_dplus_bounds():
    rows = []
    for r, g in ((1, 2), (1, 3), (1, 5), (1, 10)):
        a = EPSet(g, 0, -1, 0, 0, (1 << r) - 1)
        t, _ = stability_time(a)
        st, rz = stability_time_bounds(Fraction(r, g))
        assert t <= rz <= st, (r, g, t, rz, st)
        rows.append({"density": "%d/%d" % (r, g), "T": t,
                     "refined_bound": round(rz, 6), "doubling_bound": round(st, 6)})
    dense_rows = []
    for r, g in ((2, 3), (3, 5), (5, 8), (1, 1)):
        a = EPSet(g, 0, -1, 0, 0, (1 << r) - 1)
        t, its = stability_time(a)
        assert t <= 1, (r, g, t)
        assert dplus(its[-1] if its else a) == EPSet.naturals()
        dense_rows.append({"density": "%d/%d" % (r, g), "T": t})
    return {"criterion": 4, "bounded": rows, "dense": dense_rows}


def test_criterion_04_dplus_bounds():
    _record(4, "positive-difference stability bounds", 10, _criterion_dplus_bounds)


# -- criterion 5: stabilization verifier grid ----------------------------------

def grid_sets():
    exprs = [
        "N",
        "AP+(0,2,0)",
        "AP+(1,3,1)",
        "AP+(2,5,2)",
        "AP+(1,4,1)",
        "AP+(3,7,3)",
        "AP+(0,1,-6)",
        "AP(1,3)",
        "AP(2,4)",
        "AP(0,5)",
        "U(AP(0,4),AP(1,4))",
        "U(AP(1,6),AP(3,6),AP(4,6))",
        "U(AP+(0,5,0),AP+(2,5,2))",
        "U(AP+(1,8,1),AP+(4,8,4))",
        "U(AP(2,9),AP(5,9))",
        "U({0,1,5},AP+(2,7,9))",
        "U({-3,0},AP+(1,5,6))",
        "U(AP+(0,3,0),{1})",
        "U(AP(0,10),AP(3,10),AP(7,10))",
        "U({2,4,8},AP+(0,6,12))",
        "U(AP+(5,11,5),{0})",
    ]
    return exprs


def grid_sequences(seed):
    constants = ["cyc[(2,1)]", "cyc[(3,1)]", "cyc[(3,2)]", "cyc[(5,2)]",
                 "cyc[(4,3)]", "cyc[(5,4)]", "cyc[(5,1)]"]
    alternating = ["cyc[(2,1)(3,2)]", "cyc[(5,2)(3,1)]", "cyc[(4,1)(2,1)]",
                   "cyc[(5,4)(4,3)]"]
    rand = [str(random_ops(30, 5, seed + i)) for i in range(3)]
    return constants, alternating, rand


def _criterion_verifier_grid():
    sets = grid_sets()
    constants, alternating, rand = grid_sequences(seed=77)
    cells = []
    for i, se in enumerate(sets):
        cells.append((se, constants[i % len(constants)]))
        cells.append((se, alternating[i % len(alternating)]))
        cells.append((se, rand[i % len(rand)]))
    results = []
    for se, oe in cells:
        s = parse_set_expression(se)
        seq = parse_ops(oe)
        rep = verify_stabilization(s, seq, bound=5, c=10)
        results.append({"set": se, "ops": oe, "verdict": rep.verdict,
                        "distinct": rep.distinct_count,
                        "k0": rep.observed_k0, "g": rep.observed_g})
    verdicts = [r["verdict"] for r in results]
    conclusive = sum(1 for v in verdicts if v != "INCONCLUSIVE")
    assert all(v != "FAIL" for v in verdicts), verdicts
    assert conclusive >= 0.9 * len(results)
    assert all(v == "PASS" for v in verdicts if v != "INCONCLUSIVE")
    return {"criterion": 5, "cells": results,
            "conclusive": conclusive, "total": len(results)}


def test_criterion_05_verifier_grid():
    _record(5, "stabilization verifier grid", 300, _criterion_verifier_grid)


# -- criterion 6: distinct truncated iterates at desk scale --------------------

def _criterion_truncation_distinctness():
    n = 10_000
    alpha = sqrt2_minus_one(4 * n)
    trunc = bohr_truncation(alpha, Fraction(1, 6), n)
    s0 = list(trunc.elems)
    s1 = finite_gamma(s0, 1, 1)
    s2 = finite_gamma(s1, 2, 1)
    sets = [tuple(s0), tuple(s1), tuple(s2)]
    assert len(set(sets)) == 3
    dens = trunc.density()
    assert abs(dens - Fraction(1, 6)) < Fraction(5, 100)
    return {"criterion": 6, "sizes": [len(s) for s in sets],
            "density": str(dens), "target": "1/6"}


def test_criterion_06_truncation_distinctness():
    _record(6, "bounded-coefficient non-stability at desk scale", 30,
            _criterion_truncation_distinctness)


# -- criterion 7: growing gaps of the sparse union ------------------------------

def _criterion_sparse_gaps():
    xs = [i ** i for i in range(1, 7)]
    rows = interval_gap_profile(xs, Fraction(1, 5), 2, 1)
    gaps = [g for _, g in rows]
    active = [g for g in gaps if g > 0]
    assert all(x <= y for x, y in zip(gaps, gaps[1:])), gaps
    assert all(x < y for x, y in zip(active, active[1:])), gaps
    assert len(active) >= 3
    return {"criterion": 7, "gaps": gaps}


def test_criterion_07_sparse_gaps():
    _record(7, "sparse interval union gap growth", 10, _criterion_sparse_gaps)


# -- criterion 8: parity fixture, exhaustive -----------------------------------

def _criterion_parity():
    cases = 0
    for code in range(1 << 10):
        bits = [(code >> i) & 1 for i in range(10)]
        fx = parity_flip_sequence(bits)
        cur = EPSet.residue_class(1, 3)
        for k, op in enumerate(fx.seq, start=1):
            cur = apply_linear_op(op, cur)
            assert cur == fx.predictions[k], (bits, k)
        cases += 1
    assert cases == 1 << 10
    return {"criterion": 8, "cases": cases, "mismatches": 0}


def test_criterion_08_parity_fixture():
    _record(8, "parity flip prediction (exhaustive)", 30, _criterion_parity)


# -- criterion 9: coefficient collision counting --------------------------------

def _criterion_collision_counts():
    rows = []
    rng = random.Random(5)
    for bound in (2, 3):
        for m in (4, 16):
            t = math.ceil(2 * math.log2(m) + 4 * bound + 2)
            pairs = []
            while len(pairs) < t:
                a, b = rng.randint(1, bound), rng.randint(1, bound)
                pairs.append((a, b))
            for seq in (OpSequence.repeat(2, 1, t, bound=bound),
                        OpSequence(tuple(pairs), bound=bound)):
                got = dominant_coefficient_pair(seq, m)
                assert got is not None, (bound, m, t)
                alpha, beta, mult = got
                floor_count = guaranteed_collision_count(t, bound)
                assert mult >= floor_count >= m
                assert alpha <= bound ** t and beta <= bound ** t
                rows.append({"L": bound, "m": m, "t": t,
                             "alpha": str(alpha), "beta": str(beta),
                             "multiplicity": str(mult),
                             "floor": str(floor_count)})
    return {"criterion": 9, "instances": rows}


def test_criterion_09_collision_counts():
    _record(9, "coefficient collision counting", 10, _criterion_collision_counts)


# -- criterion 10: determinism ---------------------------------------------------

def test_criterion_10_determinism(tmp_path):
    def check():
        builders = {
            1: _criterion_orbit_formula,
            2: _criterion_residue_suite,
            3: _criterion_oracle,
            4: _criterion_dplus_bounds,
            5: _criterion_verifier_grid,
            6: _criterion_truncation_distinctness,
            7: _criterion_sparse_gaps,
            8: _criterion_parity,
            9: _criterion_collision_counts,
        }
        for n, fn in builders.items():
            assert n in _reports, "criterion %d must run before the determinism check" % n
            again = render_json(fn())
            assert again == _reports[n], "criterion %d report is not reproducible" % n

        argv = ["sweep", "--sets", ";".join(grid_sets()[:6]),
                "--ops-list", "cyc[(3,1)];cyc[(2,1)(3,2)];rand(8,5)",
                "--L", "5", "--seed", "41"]
        one = tmp_path / "jobs1.json"
        two = tmp_path / "jobs2.json"
        assert run(argv + ["--jobs", "1", "--out", str(one)]) == 0
        assert run(argv + ["--jobs", "2", "--out", str(two)]) == 0
        assert one.read_bytes() == two.read_bytes()
        return {"criterion": 10, "reports_checked": len(builders),
                "parallel_identical": True}

    _record(10, "byte-identical reports", 600, check)
