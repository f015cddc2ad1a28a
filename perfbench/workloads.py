"""Seeded workload generators for the linset benchmark.

A workload is a list of items.  Each item is one request a user would make,
either a command through ``linset.cli.run`` in-process (CLI items) or a few
public library calls, and returns a canonical output text plus an exit
code.  Library functions are looked up on their module at call time, so the
tracer's wrappers see every call.

Items run one at a time from a single process (a closed loop with one
client); nothing here starts a worker pool.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from linset import cli, constructions, linops, residue, stability

# widths of the wide-window sets, log-uniform
WIDE_MIN, WIDE_MAX = 1000, 6000
WIDE_ITEMS = 200
WIDE_OPS = ("(2,1)", "(3,1)", "(3,2)", "(4,3)")
WIDE_STRIDES = (1, 2, 3, 4)
WIDE_BOHR_OPS = ((2, 1), (3, 1), (3, 2))

# the 21 sets of the acceptance verifier grid
GRID_SETS = (
    "N", "AP+(0,2,0)", "AP+(1,3,1)", "AP+(2,5,2)", "AP+(1,4,1)", "AP+(3,7,3)",
    "AP+(0,1,-6)", "AP(1,3)", "AP(2,4)", "AP(0,5)", "U(AP(0,4),AP(1,4))",
    "U(AP(1,6),AP(3,6),AP(4,6))", "U(AP+(0,5,0),AP+(2,5,2))",
    "U(AP+(1,8,1),AP+(4,8,4))", "U(AP(2,9),AP(5,9))", "U({0,1,5},AP+(2,7,9))",
    "U({-3,0},AP+(1,5,6))", "U(AP+(0,3,0),{1})", "U(AP(0,10),AP(3,10),AP(7,10))",
    "U({2,4,8},AP+(0,6,12))", "U(AP+(5,11,5),{0})",
)
GRID_CONSTANT = ("cyc[(2,1)]", "cyc[(3,1)]", "cyc[(3,2)]", "cyc[(5,2)]",
                 "cyc[(4,3)]", "cyc[(5,4)]", "cyc[(5,1)]")
GRID_ALTERNATING = ("cyc[(2,1)(3,2)]", "cyc[(5,2)(3,1)]", "cyc[(4,1)(2,1)]",
                    "cyc[(5,4)(4,3)]")
GRID_RANDOM_CELLS = 153
GRID_RANDOM_SEQS = 6
GRID_DCP_ITEMS = 8
GRID_DCP_DEPTH = 40

RESIDUE_PAIRS = tuple((a, b) for a in range(1, 7) for b in range(1, 7)
                      if math.gcd(a, b) == 1)
RESIDUE_EXHAUSTIVE_G = 16
# moduli above the exhaustive range, each swept for a few fixed pairs
RESIDUE_LARGE_G = ((17, ((2, 1), (3, 2), (5, 3), (4, 1))), (18, ((3, 1), (5, 2), (4, 3))),
                   (19, ((2, 1), (5, 4))), (20, ((3, 2), (6, 5))))
RESIDUE_CLI_SHARE = 64          # every 64th equality instance goes through the CLI
RESIDUE_SET_ITEMS = 48
RESIDUE_SET_MODULI = (100, 400)


@dataclass
class Item:
    """One unit of work.

    ``run`` returns (canonical output, exit code).  ``check`` returns an
    error message or None.  ``follow`` derives further items from the
    output; they run right after this item in the same pass.
    """

    key: str
    run: Callable[[], tuple]
    expect_code: int = 0
    check: Callable[[str], str | None] | None = None
    follow: Callable[[str], list] | None = None


def run_cli(argv) -> tuple:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    return buf.getvalue(), code


def _cli_item(key, argv, expect_code=0, check=None) -> Item:
    return Item(key, lambda: run_cli(argv), expect_code, check)


# ---------------------------------------------------------------------------
# wide-window: dense explicit windows with small-period upward tails

def _wide_set(rng: random.Random, width: int, stride: int) -> str:
    m = rng.randint(2, 6)
    r = rng.randrange(m)
    elems = list(range(0, width, stride))
    # a few seeded holes keep the window from being a plain progression
    holes = set(rng.sample(elems[1:], max(1, len(elems) // 50)))
    elems = [x for x in elems if x not in holes]
    return "U({%s},AP+(%d,%d,%d))" % (",".join(map(str, elems)), r, m, width + 1)


def _check_iterate(steps):
    def check(out):
        rep = json.loads(out)
        if rep["command"] != "iterate" or rep["resource_flag"] is not None:
            return "unexpected iterate report header"
        if len(rep["iterates"]) != steps + 1:
            return "expected %d iterates" % (steps + 1)
        return None
    return check


def _check_dplus(out):
    rep = json.loads(out)
    its = rep["iterates"]
    if rep["command"] != "dplus" or rep["stability_time"] != len(its) - 1:
        return "stability time disagrees with the iterate list"
    return None


def _bohr_item(key, n, a, b) -> Item:
    def run():
        alpha = constructions.sqrt2_minus_one(4 * n)
        t = constructions.bohr_truncation(alpha, Fraction(1, 6), n)
        out = constructions.finite_gamma(t.elems, a, b)
        lo, hi = t.elems[0], t.elems[-1]
        return "%d;%d,%d;%s" % (len(t), a * lo - b * hi, a * hi - b * lo,
                                ",".join(map(str, out))), 0

    def check(out):
        _, ends, elems = out.split(";")
        lo, hi = map(int, ends.split(","))
        vals = list(map(int, elems.split(",")))
        if vals[0] != lo or vals[-1] != hi or vals != sorted(set(vals)):
            return "finite_gamma output is not the sorted sumset range"
        return None
    return Item(key, run, 0, check)


def wide_window(seed: int) -> list:
    rng = random.Random(seed)
    items = []
    span = math.log(WIDE_MAX / WIDE_MIN)
    for i in range(WIDE_ITEMS):
        # one item per log-width stratum, with kind, stride and op fixed by
        # the stratum: seeds vary the inputs but hardly the cost of a pass
        width = int(WIDE_MIN * math.exp(span * (i + rng.random()) / WIDE_ITEMS))
        kind = i % 4
        stride = WIDE_STRIDES[(i // 4) % len(WIDE_STRIDES)]
        if kind == 3:
            a, b = WIDE_BOHR_OPS[(i // 4) % len(WIDE_BOHR_OPS)]
            items.append(_bohr_item("bohr:%d:%d:%d" % (width, a, b), width, a, b))
            continue
        expr = _wide_set(rng, width, stride)
        if kind == 2:
            items.append(_cli_item("dplus:" + expr, ["dplus", "--set", expr],
                                   check=_check_dplus))
        else:
            op = WIDE_OPS[(i // 4 + kind) % len(WIDE_OPS)]
            argv = ["iterate", "--set", expr, "--ops", op]
            items.append(_cli_item("iterate:%s:%s" % (op, expr), argv,
                                   check=_check_iterate(1)))
    return items


# ---------------------------------------------------------------------------
# tail-grid: the verifier grid plus seeded small sets and sequences

def _random_grid_set(rng: random.Random) -> str:
    # density at least 1/3 keeps every cell within the window cap
    g = rng.randint(3, 10)
    n0 = rng.randint(0, 20)
    parts = ["AP+(%d,%d,%d)" % (r, g, n0)
             for r in sorted(rng.sample(range(g), rng.randint(-(-g // 3), g - 1)))]
    if rng.random() < 0.6:
        finite = sorted(rng.sample(range(-10, 30), rng.randint(1, 5)))
        parts.append("{%s}" % ",".join(map(str, finite)))
    if rng.random() < 0.25:
        parts.append("AP-(%d,%d,%d)" % (rng.randrange(g), g, -rng.randint(0, 20)))
    return "U(%s)" % ",".join(parts)


VERDICT_CODES = {"PASS": 0, "FAIL": 1, "INCONCLUSIVE": 2}


def _cell_item(se, oe) -> Item:
    """One verifier cell along the per-cell path of ``sweep --jobs 1``."""
    def run():
        seq = cli.parse_ops(oe)
        rep = stability.verify_stabilization(cli.parse_set_expression(se), seq,
                                             bound=5, c=10)
        d = rep.to_json_dict()
        d["set"], d["ops"] = se, oe
        return cli.render_json(d), VERDICT_CODES[rep.verdict]

    def check(out):
        verdict = json.loads(out)["verdict"]
        return None if verdict == "PASS" else "grid cell verdict %s" % verdict
    return Item("verify:%s:%s" % (se, oe), run, 0, check)


def _dcp_item(key, ops, m) -> Item:
    def run():
        seq = linops.OpSequence(ops, bound=5)
        got = linops.dominant_coefficient_pair(seq, m)
        return repr(got), 0

    def check(out):
        return "collision depth not reached" if out == "None" else None
    return Item(key, run, 0, check)


def tail_grid(seed: int) -> list:
    rng = random.Random(seed)
    rand = [str(cli.random_ops(30, 5, rng.getrandbits(32)))
            for _ in range(GRID_RANDOM_SEQS)]
    seqs = GRID_CONSTANT + GRID_ALTERNATING + tuple(rand)
    items = [_cell_item(se, oe) for se in GRID_SETS for oe in seqs]
    # a fresh small set per cell: many independent draws keep the cost of
    # a pass nearly the same from seed to seed
    for i in range(GRID_RANDOM_CELLS):
        items.append(_cell_item(_random_grid_set(rng), seqs[i % len(seqs)]))
    for _ in range(GRID_DCP_ITEMS):
        ops = cli.random_ops(GRID_DCP_DEPTH, 5, rng.getrandbits(32), cyclic=False).ops
        m = rng.randint(64, 512)
        key = "dcp:%d:%s" % (m, "".join(map(str, ops)))
        items.append(_dcp_item(key, tuple((op.a, op.b) for op in ops), m))
    return items


# ---------------------------------------------------------------------------
# residue-structure: bulk sweeps, their equality instances, per-set items

def _generates(u) -> bool:
    low = min(u.elems)
    shifted = [(x - low) % u.modulus for x in u.elems]
    return math.gcd(u.modulus, *shifted) == 1


def _equality_items(g, a, b, mask, via_cli) -> list:
    u = residue.ResidueSet.from_mask(g, mask)
    key = "eq:%d:%d:%d:%d" % (g, a, b, mask)
    certified = _generates(u)
    if via_cli:
        expr = u.to_expr()
        ab = ["--a", str(a), "--b", str(b)]

        def check_orbit(out):
            return None if json.loads(out)["cardinality_preserved"] else \
                "orbit lost cardinality"

        def check_decompose(out):
            rep = json.loads(out)
            if rep["result"] == "certificate" and not rep["verified"]:
                return "certificate does not verify"
            return None
        return [_cli_item(key + ":residue", ["residue", "--set", expr] + ab,
                          check=check_orbit),
                _cli_item(key + ":decompose", ["decompose", "--set", expr] + ab,
                          expect_code=0 if certified else 1,
                          check=check_decompose)]

    def run():
        orb = residue.residue_orbit(u, a, b)
        res = residue.decompose_equality_case(u, a, b)
        if isinstance(res, residue.DecompositionCertificate):
            dec = "cert %d %d %d %s %s %d" % (res.translation, res.a1, res.b1,
                                              res.v, res.x, res.verify(u))
        else:
            dec = "fail " + res.hypothesis
        states = " ".join(s.to_expr() for s in orb.states)
        return "%d %d %s %s|%s|%s" % (orb.onset, orb.length, orb.cardinality_preserved,
                                      orb.order_divisibility, dec, states), 0

    def check(out):
        if not out.split("|")[0].split()[2] == "True":
            return "orbit lost cardinality"
        dec = out.split("|")[1]
        if certified != dec.startswith("cert") or dec.endswith(" 0"):
            return "decomposition outcome disagrees with the structure theorem"
        return None
    return [Item(key, run, 0, check)]


def _sweep_item(g, pairs, cli_pick) -> Item:
    """One modulus swept for every pair: per-pair sweeps of small g are
    dominated by numpy call overhead and would crowd the upper percentiles."""
    def run():
        lines = []
        for a, b in pairs:
            hold, eq = residue.cardinality_sweep(g, a, b)
            lines.append("%d %d %s %s" % (a, b, hold, " ".join(map(str, eq))))
        return "\n".join(lines), 0

    def check(out):
        if any(line.split()[2] != "True" for line in out.splitlines()):
            return "cardinality monotonicity violated"
        return None

    def follow(out):
        items = []
        for line in out.splitlines():
            a, b, _, *masks = line.split()
            for i, mask in enumerate(masks):
                items.extend(_equality_items(g, int(a), int(b), int(mask), cli_pick(i)))
        return items
    return Item("sweep:%d:%s" % (g, pairs), run, 0, check, follow)


def _residue_set_item(rng: random.Random, g: int) -> Item:
    size = rng.randint(max(2, g // 40), max(3, g // 12))
    elems = sorted(rng.sample(range(g), size))
    a, b = rng.choice(RESIDUE_PAIRS)
    u = residue.ResidueSet(g, elems)

    def run():
        img = residue.gamma_mod(u, a, b)
        shift = residue.period_shift(u)
        orb = residue.residue_orbit(u, a, b)
        res = residue.decompose_equality_case(u, a, b)
        dec = res.hypothesis if isinstance(res, residue.DecompositionFailure) else "cert"
        return "%d %d %d %d %s|%s" % (len(img), shift, orb.onset, orb.length, dec,
                                      orb.states[-1].to_expr()), 0

    def check(out):
        return None if int(out.split()[0]) >= len(u) else "|aU+bU| < |U|"
    return Item("set:%d:%d:%d:%s" % (g, a, b, elems), run, 0, check)


def residue_structure(seed: int) -> list:
    rng = random.Random(seed)
    offset = rng.randrange(RESIDUE_CLI_SHARE)

    def cli_pick(i):
        return i % RESIDUE_CLI_SHARE == offset
    items = [_sweep_item(g, RESIDUE_PAIRS, cli_pick)
             for g in range(1, RESIDUE_EXHAUSTIVE_G + 1)]
    items += [_sweep_item(g, pairs, cli_pick) for g, pairs in RESIDUE_LARGE_G]
    lo, hi = RESIDUE_SET_MODULI
    for i in range(RESIDUE_SET_ITEMS):
        g = int(lo * (hi / lo) ** ((i + rng.random()) / RESIDUE_SET_ITEMS))
        items.append(_residue_set_item(rng, g))
    return items


BUILDERS = {
    "wide-window": wide_window,
    "tail-grid": tail_grid,
    "residue-structure": residue_structure,
}
