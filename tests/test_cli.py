"""Tests for the command-line front end: grammar, dispatch, exit codes."""

import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from conftest import random_epset
import linset.cli as cli
from linset.cli import (
    SetSemanticError,
    SetSyntaxError,
    parse_ops,
    parse_residue_set,
    parse_set_expression,
    run,
)
from linset.constructions import TruncatedSet
from linset.epset import EPSet, ResourceLimitExceeded
from linset.linops import LinearOp


def test_parse_basic_sets():
    assert parse_set_expression("Z") == EPSet.integers()
    assert parse_set_expression("N") == EPSet.naturals()
    assert parse_set_expression("{1,4,7}") == EPSet.from_iterable([1, 4, 7])
    assert parse_set_expression("{}") == EPSet.empty()
    assert parse_set_expression("AP+(1,3,1)") == EPSet.half_line(1, 3, 1)
    assert parse_set_expression("AP(2,4)") == EPSet.residue_class(2, 4)
    assert parse_set_expression("AP-(-1,3,-1)") == EPSet.half_line_down(-1, 3, -1)
    got = parse_set_expression("U({0}, AP(2,4))")
    assert got == EPSet.from_iterable([0]).union(EPSet.residue_class(2, 4))


def test_parse_whitespace_insensitive():
    a = parse_set_expression("U( {0,2} ,AP+( 1 , 3 , 1 ) )")
    b = parse_set_expression("U({0,2},AP+(1,3,1))")
    assert a == b


def test_parse_errors_are_positioned():
    with pytest.raises(SetSyntaxError) as e:
        parse_set_expression("AP(1,")
    assert "position" in str(e.value)
    with pytest.raises(SetSemanticError):
        parse_set_expression("AP(1,0)")
    with pytest.raises(SetSyntaxError):
        parse_set_expression("Q(1)")
    with pytest.raises(SetSyntaxError):
        parse_set_expression("{1,2} junk")


# message and position of malformed literals, recorded before the
# one-pass literal scan replaced the token-by-token one
MALFORMED_LITERALS = [("{1,,2}", "expected an integer", 3),
                      ("{1 2}", "expected '}'", 3),
                      ("{1,2", "expected '}'", 4)]


@pytest.mark.parametrize("text,message,pos", MALFORMED_LITERALS)
def test_parse_malformed_literals_pinned(text, message, pos):
    for prefix, parse in (("", parse_set_expression), ("mod 5 ", parse_residue_set)):
        at = pos + len(prefix)
        with pytest.raises(SetSyntaxError) as e:
            parse(prefix + text)
        assert (str(e.value), e.value.pos) == ("%s (at position %d)" % (message, at), at)


def test_parse_non_decimal_digits_are_syntax_errors():
    # "\u00b2" passes str.isdigit but is no decimal digit: a positioned
    # error, not a ValueError from int()
    for text, pos in (("{1,\u00b2}", 3), ("{7\u00b2}", 2), ("AP+(1,2\u00b2)", 7)):
        with pytest.raises(SetSyntaxError) as e:
            parse_set_expression(text)
        assert e.value.pos == pos
    with pytest.raises(SetSyntaxError):
        parse_residue_set("mod \u00b2 {1}")


def test_parse_constructions():
    t = parse_set_expression("sparse(1/2, 50, 1, 4, 27)")
    assert isinstance(t, TruncatedSet)
    assert t.elems[0] == 5
    with pytest.raises(SetSemanticError):
        parse_set_expression("bohr(41/100, 1/6, 100)")  # too coarse


def test_roundtrip_grammar():
    import random
    rng = random.Random(12)
    for _ in range(200):
        s = random_epset(rng)
        assert parse_set_expression(s.to_expr()) == s
        assert parse_set_expression(s.to_expr()).to_expr() == s.to_expr()


def test_parse_ops():
    seq = parse_ops("(3,1)^5")
    assert len(seq) == 5 and seq[0] == LinearOp(3, 1)
    assert not seq.cyclic
    seq = parse_ops("cyc[(2,1)(3,2)]")
    assert seq.cyclic and len(seq) == 2
    with pytest.raises(SetSemanticError):
        parse_ops("(0,1)")
    with pytest.raises(SetSyntaxError):
        parse_ops("")
    seq = parse_ops("(2,1)(3,1)^2(5,4)")
    assert [str(o) for o in seq] == ["(2,1)", "(3,1)", "(3,1)", "(5,4)"]


def test_parse_residue_set():
    u = parse_residue_set("mod 12 {0,3,4,6,7,10}")
    assert u.modulus == 12 and len(u) == 6
    with pytest.raises(SetSemanticError):
        parse_residue_set("mod 0 {1}")


def test_cli_iterate(capsys):
    code = run(["iterate", "--set", "AP+(1,3,1)", "--ops", "(3,1)^10"])
    out = capsys.readouterr().out
    assert code == 0
    rep = json.loads(out)
    assert rep["distinct_count"] == 3
    assert rep["cycle"] == [1, 2]


def test_cli_verify_exit_codes(capsys):
    code = run(["verify-thm61", "--set", "AP+(1,3,1)", "--ops", "cyc[(3,1)]",
                "--L", "3", "--c", "10"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["verdict"] == "PASS"


def test_cli_decompose(capsys):
    code = run(["decompose", "--g", "12", "--a", "4", "--b", "3",
                "--set", "mod 12 {0,3,4,6,7,10}"])
    out = capsys.readouterr().out
    assert code == 0
    rep = json.loads(out)
    assert rep["result"] == "certificate"
    assert rep["a1"] == 4 and rep["b1"] == 3
    assert rep["v"] == [0, 4] and rep["x"] == [0, 3, 6]

    code = run(["decompose", "--a", "5", "--b", "1", "--set", "mod 6 {0,1,2}"])
    out = capsys.readouterr().out
    assert code == 1
    assert json.loads(out)["result"] == "failure"


def test_cli_dplus(capsys):
    code = run(["dplus", "--set", "AP+(1,2,1)"])
    rep = json.loads(capsys.readouterr().out)
    assert code == 0
    assert rep["stability_time"] == 1


def test_cli_usage_errors(capsys):
    assert run(["iterate", "--set", "AP(1,0)", "--ops", "(2,1)"]) == 3
    assert run(["iterate", "--set", "Z", "--ops", "(0,1)"]) == 3
    assert run(["decompose", "--g", "11", "--a", "4", "--b", "3",
                "--set", "mod 12 {0}"]) == 3
    assert run(["nonsense"]) == 3
    capsys.readouterr()


def test_cli_construct(capsys):
    code = run(["construct", "--kind", "parity", "--bits", "101"])
    rep = json.loads(capsys.readouterr().out)
    assert code == 0
    assert rep["predictions"][1]["set"] == "AP(2,3)"
    assert rep["predictions"][3]["set"] == "AP(1,3)"


def test_cli_sweep_deterministic_and_parallel(tmp_path):
    argv = ["sweep", "--sets", "AP+(1,3,1);U(AP(0,4),AP(1,4))",
            "--ops-list", "cyc[(3,1)];cyc[(2,1)(3,2)];rand(6,3)",
            "--L", "3", "--seed", "9"]
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert run(argv + ["--jobs", "1", "--out", str(out1)]) == 0
    assert run(argv + ["--jobs", "2", "--out", str(out2)]) == 0
    b1 = out1.read_bytes()
    assert b1 == out2.read_bytes()
    rep = json.loads(b1)
    assert rep["summary"]["PASS"] == len(rep["cells"]) == 6


@pytest.mark.parametrize("jobs,cores,workers", [
    (100000, 8, 3),     # no more workers than cells
    (100000, 2, 2),     # nor than cores
    (100000, None, None),
    (2, 1, None),
    (1, 8, None),       # nor than --jobs
])
def test_cli_sweep_bounds_its_workers(jobs, cores, workers, monkeypatch, capsys):
    import concurrent.futures
    import os

    started = []

    class Pool:
        # records the pool size and runs the cells here, starting no process
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, cells):
            return map(fn, cells)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    argv = ["sweep", "--sets", "AP+(1,3,1)", "--ops-list", "cyc[(3,1)];cyc[(2,1)];cyc[(3,2)]",
            "--L", "3"]
    assert run(argv + ["--jobs", str(jobs)]) == 0
    out = capsys.readouterr().out
    assert started == ([] if workers is None else [workers])
    assert run(argv + ["--jobs", "1"]) == 0
    assert capsys.readouterr().out == out


def test_cli_cross_process_determinism(tmp_path):
    import os
    import subprocess
    import sys

    argv = [sys.executable, "-m", "linset.cli", "verify-thm61",
            "--set", "U(AP(0,4),AP(1,4))", "--ops", "cyc[(2,1)(3,2)]",
            "--L", "3"]
    outs = []
    for seed in ("1", "31337"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run(argv, capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_cli_env_window_cap():
    # the cap is read from the environment at import, so each case is a process
    import os
    import subprocess
    import sys

    import linset
    from linset.epset import DEFAULT_WINDOW_CAP

    def linset_run(cap, *argv):
        env = dict(os.environ, LINSET_WINDOW_CAP=cap,
                   PYTHONPATH=os.path.dirname(os.path.dirname(linset.__file__)))
        return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)

    # the residues decide (3,1) on AP+(1,400,1), so it returns although 3S
    # has period 1200; (3,3) needs G = 1200, past the cap
    step = ["-m", "linset.cli", "iterate", "--set", "AP+(1,400,1)", "--ops"]
    proc = linset_run("1000", *step, "(3,1)")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert [x["set"] for x in report["iterates"]] == ["AP+(1,400,1)", "AP(2,400)"]
    proc = linset_run("1000", *step, "(3,3)")
    assert proc.returncode == 2, proc.stderr
    assert json.loads(proc.stdout)["resource_flag"] == "window-cap"
    # a cap that is not a positive integer is a usage error of every command
    for cap in ("abc", "1e6", "0", "-5"):
        proc = linset_run(cap, "-m", "linset.cli", "iterate", "--set", "AP+(1,3,1)",
                          "--ops", "(3,1)")
        assert proc.returncode == 3 and not proc.stdout
        assert proc.stderr.count("\n") == 1 and "LINSET_WINDOW_CAP" in proc.stderr
    proc = linset_run("abc", "-m", "linset.cli", "residue", "--set", "mod 4 {0}",
                      "--a", "2", "--b", "1")
    assert proc.returncode == 3 and proc.stderr.count("\n") == 1
    # importing the library does not raise: it keeps the default cap
    proc = linset_run("abc", "-c", "import linset; print(linset.window_cap())")
    assert proc.returncode == 0 and proc.stdout.split() == [str(DEFAULT_WINDOW_CAP)]


def test_cli_unprintable_g_bound_is_a_usage_error(capsys):
    for argv in (["verify-thm61", "--set", "AP+(1,3,1)", "--ops", "cyc[(3,1)]"],
                 ["sweep", "--sets", "AP+(1,3,1)", "--ops-list", "cyc[(3,1)]"]):
        assert run(argv + ["--L", "3", "--c", "2000"]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--c or --L" in err


def test_cli_resource_exit_code(capsys):
    from linset.epset import set_window_cap, window_cap
    old = window_cap()
    try:
        set_window_cap(400)
        code = run(["iterate", "--set", "{0,50,131}", "--ops", "(3,2)^8"])
        out = capsys.readouterr().out
        assert code == 2
        assert json.loads(out)["resource_flag"] == "window-cap"
    finally:
        set_window_cap(old)


def test_cli_covered_sum_returns_under_the_cap(capsys):
    # the tail+tail pieces of this step lie in the classes of its cross
    # pieces, so no 1.68M-position window is asked for
    m = "40000"
    start = "U(AP-(0,%s,0),AP+(%s,%s,%s),AP+(1,%s,1),AP+(7,%s,7))" % (m, m, m, m, m, m)
    code = run(["iterate", "--set", start, "--ops", "(5,4)", "--max-k", "1"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["resource_flag"] is None
    classes = (0, 1, 5, 7, 31, 35, 39972, 39977, 39996)
    assert report["iterates"][1]["set"] == "U(%s)" % ",".join(
        "AP(%d,%s)" % (r, m) for r in classes)


def test_cli_dplus_budget_exit_code(capsys):
    assert run(["dplus", "--set", "AP+(1,7,1)", "--max-k", "1"]) == 2
    err = capsys.readouterr().err
    assert err == "resource limit: no fixed point within 1 positive-difference steps\n"


def test_cli_residue_budget_exit_code(capsys):
    assert run(["residue", "--set", "mod 12 {0,3,4}", "--a", "4", "--b", "3",
                "--max-steps", "1"]) == 2
    err = capsys.readouterr().err
    assert err == "resource limit: orbit did not close within 1 steps\n"


# pieces of op text: every token of the grammar, whitespace, signs, a
# non-ASCII decimal digit, a digit that int() refuses, and stray characters
OP_TOKENS = ["(", ")", ",", "^", "cyc", "cyc[", "[", "]", "c", "cy", "x", " ", "\t",
             "\u2003", "0", "1", "3", "12", "-1", "+2", "\u0663", "\u00b2", "(2,1)", "(3,2)^4"]


def op_outcome(parse, text):
    try:
        return "value", parse(text)
    except SetSyntaxError as e:
        return "syntax", str(e), e.pos
    except (SetSemanticError, ResourceLimitExceeded) as e:
        return type(e).__name__, str(e)


@st.composite
def op_texts(draw):
    """Well-formed op text with whitespace between tokens, then at most
    one character inserted, dropped or replaced."""
    ws = st.sampled_from(["", "", " ", "\t ", "\n"])
    atoms = []
    for _ in range(draw(st.integers(0, 4))):
        a, b = draw(st.integers(1, 12)), draw(st.integers(1, 12))
        reps = "" if draw(st.booleans()) else "%s^%s%d" % (draw(ws), draw(ws),
                                                          draw(st.integers(1, 5)))
        atoms.append("(%s%d%s,%s%d%s)%s" % (draw(ws), a, draw(ws), draw(ws), b, draw(ws), reps))
    text = draw(ws).join(atoms)
    if draw(st.booleans()):
        text = "%scyc%s[%s%s]%s" % (draw(ws), draw(ws), text, draw(ws), draw(ws))
    edit = draw(st.sampled_from(["", "insert", "drop", "replace"]))
    if edit and text:
        i = draw(st.integers(0, len(text) - 1))
        ch = draw(st.sampled_from("(),^[]c01-x \u0663"))
        text = {"insert": text[:i] + ch + text[i:], "drop": text[:i] + text[i + 1:],
                "replace": text[:i] + ch + text[i + 1:]}[edit]
    return text


@given(st.one_of(op_texts(), st.lists(st.sampled_from(OP_TOKENS), max_size=12).map("".join)))
@example("(2,1)^" + "1" + "0" * 4999)
@example("(2,1)^(3,1)")
@example(" cyc [ (2 ,1 ) ^ 3 ( 3, 2) ] ")
@example("cycx[(2,1)]")
@example("(2,1)^0")
@example("(2,1)^-2")
@example("(0,1)^x")
@example("(2,1)^x")
@example("(2,1)^")
@example("(2,1)^3^4")
@example("(2,1)^ (3,1)")
@settings(max_examples=600, deadline=None)
def test_parse_ops_matches_token_parse(text):
    # the same sequence, or the same error with the same message and position
    assert op_outcome(parse_ops, text) == op_outcome(oracle.parse_ops, text)


# pieces of set text: every token of the set grammar, whitespace, signs,
# a non-ASCII decimal digit and stray characters
SET_TOKENS = ["(", ")", ",", "/", "{", "}", "U", "AP", "AP+", "AP-", "bohr", "sparse", "N",
              "Z", "x", " ", "\t", "0", "1", "3", "-2", "+5", "1/6", "\u0663", "AP(1,3)",
              "AP+(1,3,2)", "{0,2}"]


def set_outcome(parse, text):
    try:
        return "value", parse(text).to_expr()
    except Exception as e:
        return type(e).__name__, str(e)


@st.composite
def set_calls(draw, depth=2):
    """A well-formed call of the set grammar with whitespace between its
    tokens."""
    ws = st.sampled_from(["", "", " ", "\t "])
    kinds = ["AP", "AP+", "AP-", "bohr", "sparse", "N", "{}"] + ["U"] * (depth > 0)
    kind = draw(st.sampled_from(kinds))
    if kind == "N":
        return kind
    if kind == "{}":
        return "{%s}" % ",".join(map(str, draw(st.lists(st.integers(-9, 9), max_size=4))))
    small = st.integers(-4, 12).map(str)
    fraction = st.builds("{}/{}".format, st.integers(0, 5), st.integers(1, 7))
    args = {"AP": [small, small], "AP+": [small, small, small], "AP-": [small, small, small],
            "bohr": [fraction, fraction, st.integers(0, 40).map(str)],
            "sparse": [fraction, st.integers(0, 40).map(str)]
            + [fraction] * draw(st.integers(0, 3)),
            "U": [set_calls(depth - 1)] * draw(st.integers(1, 3))}[kind]
    sep = "%s,%s" % (draw(ws), draw(ws))
    return "%s%s(%s%s%s)" % (kind, draw(ws), draw(ws), sep.join(draw(a) for a in args),
                             draw(ws))


@st.composite
def set_texts(draw):
    """A well-formed set call, then at most two characters inserted,
    dropped or replaced."""
    text = draw(set_calls())
    for _ in range(draw(st.integers(0, 2))):
        if text:
            i = draw(st.integers(0, len(text) - 1))
            ch = draw(st.sampled_from("(),/{}+-U0123x \u0663"))
            edit = draw(st.sampled_from(["insert", "drop", "replace"]))
            text = {"insert": text[:i] + ch + text[i:], "drop": text[:i] + text[i + 1:],
                    "replace": text[:i] + ch + text[i + 1:]}[edit]
    return text


@given(st.one_of(set_texts(), st.lists(st.sampled_from(SET_TOKENS), max_size=12).map("".join)))
@example("AP(1 3)")
@example("AP+(1,3)")
@example("AP(1,3,5)")
@example("sparse(1/6,10,)")
@example("U()")
@example("U(N,)")
@example("bohr(1/3,1/6)")
@example("U(N x)")
@example("sparse(1/6,10")
# AP atoms that the one _AP match reads, and some that it leaves to the
# token reading
@example("AP( 1 , 3 )")
@example("AP+ (1,3,1)")
@example("AP+(1, 3 ,1)")
@example("AP(+1,3)")
@example("AP(1,-3)")
@example("AP(1,0)")
@example("AP-(4,6,-11)")
@example("AP(0,2000000)")
@example("AP(" + "9" * 5000 + ",3)")
# lcm(1024, 1025) = 1049600 passes the cap of 2^20: a U refuses its own
# window before the trailing input or an outer U (7347200 with AP(0,7)) is read
@example("U(AP(0,1024),AP(0,1025))x")
@example("U(U(AP(0,1024),AP(0,1025)),AP(0,7))")
@settings(max_examples=600, deadline=None)
def test_parse_set_matches_per_constructor_parse(text):
    # the same set, or the same error with the same message and position
    assert set_outcome(parse_set_expression, text) == \
        set_outcome(oracle.parse_set_expression, text)


@given(st.sampled_from(["AP", "AP+", "AP-"]), st.integers(-40, 40), st.integers(1, 30),
       st.integers(-40, 40))
@example("AP", 5, 1, 0)
@example("AP+", -7, 1, -9)
@example("AP-", 4, 6, -11)
def test_ap_atom_key_is_canonical(kind, r, g, n0):
    # the key that _parse_set returns for an AP atom is that of the EPSet
    text = "%s(%d,%d)" % (kind, r, g) if kind == "AP" else "%s(%d,%d,%d)" % (kind, r, g, n0)
    key = cli._parse_set(cli._Scanner(text))
    if kind == "AP":
        want = EPSet.residue_class(r, g)
    elif kind == "AP+":
        want = EPSet.half_line(r, g, max(r, n0))
    else:
        want = EPSet.half_line_down(r, g, min(r, n0))
        # the window sits at the member after the last one, not at last + 1
        last = min(r, n0) - (min(r, n0) - r) % g
        assert key == (g, last + g, last + g - 1, 0, 1 << r % g, 0)
    assert key == want._key()


def test_union_of_atoms_canonicalizes_once(monkeypatch):
    want = EPSet.union(EPSet.half_line(0, 5, 0), EPSet.half_line(2, 5, 2),
                       EPSet.residue_class(1, 5))
    made = []
    init = EPSet.__init__

    def counted(self, *args):
        made.append(args)
        init(self, *args)
    monkeypatch.setattr(EPSet, "__init__", counted)
    s = parse_set_expression("U(AP+(0,5,0),AP+(2,5,2),AP(1,5))")
    assert s == want and len(made) == 1


# JSON values: every scalar kind json writes, strings with quotes,
# backslashes, control and non-ASCII characters, and nested containers
JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(-10 ** 60, 10 ** 60)
                | st.floats(allow_nan=True, allow_infinity=True) | st.text()
                | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\u00e9\u2603\U0001f600"]))
JSON_VALUES = st.recursive(JSON_SCALARS, lambda inner: st.lists(inner, max_size=4)
                           | st.lists(inner, max_size=4).map(tuple)
                           | st.dictionaries(st.text(max_size=4), inner, max_size=4),
                           max_leaves=30)


@given(JSON_VALUES)
@example({"a": [], "b": {}, "c": [{}], "d": -0.0, "e": float("nan"), "f": float("-inf"),
          "g": float("inf")})
@example([-(10 ** 1000), 2 ** 64, 1e300, 5e-324])
@example({1: "int", 2.5: "float", -3: "negative"})
@example({True: "true", False: "false"})
@example({None: "none"})
@settings(max_examples=400, deadline=None)
def test_render_json_matches_json_dumps(value):
    assert cli.render_json(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("value", [{1, 2}, b"x", Fraction(1, 3), object(), [1, {"a": {2}}],
                                   {(1, 2): 0}])
def test_render_json_refuses_what_json_refuses(value):
    with pytest.raises(TypeError):
        json.dumps(value, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        cli.render_json(value)


def test_parse_ops_repetition_cap():
    # 2^21 repetitions exceed the default cap of 2^20 before any list is built
    with pytest.raises(ResourceLimitExceeded, match="2097152 ops exceeds the cap 1048576"):
        parse_ops("(3,1)^2097152")
    with pytest.raises(ResourceLimitExceeded):
        parse_ops("(2,1)^1048575(3,1)^2")


def test_cli_repetition_cap_exit_code(capsys):
    assert run(["iterate", "--set", "N", "--ops", "(3,1)^1000000000"]) == 2
    err = capsys.readouterr().err
    assert err == "resource limit: operation sequence of 1000000000 ops exceeds the cap 1048576\n"


# malformed rand(n,L) entries of sweep --ops-list: exit 3, one stderr line
RAND_ERRORS = [("rand(3)", "expected ',' (at position 6)"),
               ("rand(3,x)", "expected an integer (at position 7)"),
               ("rand(3,5)))", "trailing input (at position 9)"),
               ("randx(3,5)", "expected 'rand' (at position 0)"),
               ("rand(0,5)", "rand(n,L) needs n >= 1 and L >= 1"),
               ("rand(3,0)", "rand(n,L) needs n >= 1 and L >= 1")]


@pytest.mark.parametrize("entry,message", RAND_ERRORS)
def test_cli_sweep_rand_errors(entry, message, capsys):
    code = run(["sweep", "--sets", "N", "--ops-list", "(2,1);" + entry, "--L", "3"])
    captured = capsys.readouterr()
    assert (code, captured.err, captured.out) == (3, "error: %s\n" % message, "")


def test_cli_sweep_rand_length_cap(capsys):
    assert run(["sweep", "--sets", "N", "--ops-list", "rand(2000000,3)", "--L", "3"]) == 2
    err = capsys.readouterr().err
    assert err == "resource limit: operation sequence of 2000000 ops exceeds the cap 1048576\n"


def test_cli_sweep_grid_cap(capsys):
    # the grid is counted before any rand(n,L) entry is expanded: rand(5,3)
    # alone is refused with its own message, as its 5 ops pass the cap of 4
    from linset.epset import set_window_cap, window_cap
    ops = ["(2,1)", "(3,1)", "(3,2)", "(2,1)(3,1)", "rand(5,3)"]
    old = window_cap()
    try:
        set_window_cap(4)
        assert run(["sweep", "--sets", "N", "--ops-list", ";".join(ops), "--L", "3"]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", "resource limit: sweep grid of 5 cells exceeds the cap 4\n")
        assert run(["sweep", "--sets", "Z;AP(0,2)", "--ops-list", ";".join(ops[:2]),
                    "--L", "3"]) == 0
        out, err = capsys.readouterr()
        assert err == "" and json.loads(out)["summary"]["PASS"] == 4
    finally:
        set_window_cap(old)


def test_cli_text_and_csv_formats(capsys):
    assert run(["iterate", "--set", "Z", "--ops", "(2,1)", "--format", "text"]) == 0
    text = capsys.readouterr().out
    assert "distinct_count: 1" in text
    assert run(["iterate", "--set", "Z", "--ops", "(2,1)", "--format", "csv"]) == 0
    csv_out = capsys.readouterr().out
    assert csv_out.splitlines()[0] == "k,set,full_period"


BOHR_ARGV = ["construct", "--kind", "bohr", "--alpha", "33461/80782",
             "--delta", "1/6", "--N", "2000"]
# golden report, recorded from the inline profile code that
# analysis.density_profile replaced
BOHR_SHA256 = "2450164ff532e67f5e61f590d685ebd907948432f2424e50e90dc55b12faa1f0"
BOHR_PROFILE = [(200, 34, "17/100"), (400, 66, "33/200"), (600, 100, "1/6"),
                (800, 133, "133/800"), (1000, 167, "167/1000"), (1200, 200, "1/6"),
                (1400, 233, "233/1400"), (1600, 266, "133/800"),
                (1800, 299, "299/1800"), (2000, 334, "167/1000")]


def test_cli_construct_bohr_golden(capsys):
    assert run(BOHR_ARGV) == 0
    out = capsys.readouterr().out
    rep = json.loads(out)
    assert [(p["n"], p["count"], p["density"]) for p in rep["profile"]] == BOHR_PROFILE
    assert (rep["count"], rep["density"]) == (334, "167/1000")
    assert hashlib.sha256(out.encode()).hexdigest() == BOHR_SHA256


# the dense-window stress set U({0,7,...,<2e5}, AP+(1,5,200001)); digests of
# the JSON reports recorded with the shift-or kernels the FFT path replaced
STRESS_SET = "U({%s},AP+(1,5,200001))" % ",".join(map(str, range(0, 200000, 7)))
STRESS_SHA256 = {
    "iterate": "be194bad8b9157f09d8185db3ebbccbaa51d49275f8e9f22b1bce865dcea8b0e",
    "dplus": "0c77cd898bc848bdaf7a7b418ad4cd698e16386524e2ef019127868920e266e3",
}


@pytest.mark.parametrize("argv", [["iterate", "--set", STRESS_SET, "--ops", "(3,1)"],
                                  ["dplus", "--set", STRESS_SET]],
                         ids=["iterate", "dplus"])
def test_cli_stress_case_golden(argv, capsys):
    assert run(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == STRESS_SHA256[argv[0]]


def test_sweep_cell_carries_window_cap_to_spawned_workers():
    # a spawned worker starts from a fresh import, at the default cap, so
    # only the cap carried in the cell can make this cell hit it
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    from linset.cli import _sweep_cell
    from linset.epset import DEFAULT_WINDOW_CAP, window_cap
    cell = ("U({0,5,11},AP+(20,7,20))", "cyc[(3,1)]", 5, 10, 20000)
    old = window_cap()
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=ctx) as ex:
        small = ex.submit(_sweep_cell, cell + (32,)).result(timeout=120)
        default = ex.submit(_sweep_cell, cell + (DEFAULT_WINDOW_CAP,)).result(timeout=120)
    assert (small["verdict"], small["resource_flag"]) == ("INCONCLUSIVE", "window-cap")
    assert (default["verdict"], default["resource_flag"]) == ("PASS", None)
    assert window_cap() == old


def test_cli_residue_max_steps_default(monkeypatch):
    import linset.cli as cli
    seen = []
    real = cli.residue_orbit

    def spy(u, a, b, max_steps=None):
        seen.append(max_steps)
        return real(u, a, b, max_steps=max_steps)
    monkeypatch.setattr(cli, "residue_orbit", spy)
    assert run(["residue", "--set", "mod 12 {0,3,4}", "--a", "4", "--b", "3"]) == 0
    assert seen == [20000]


# -- one parser per process, and the exit code of each failure mode -------------

def mixed_sequence(out_path):
    # every subcommand and format, an --out call, a usage, a syntax and a
    # resource-limit error; each --g, --out or --format is followed by a
    # call without it, so a value carried over would change that call
    return [
        ["residue", "--set", "mod 12 {0,3,4}", "--a", "4", "--b", "3", "--g", "12",
         "--format", "csv"],
        ["residue", "--set", "mod 10 {0,1}", "--a", "3", "--b", "1"],
        ["decompose", "--set", "mod 12 {0,3,4,6,7,10}", "--a", "4", "--b", "3",
         "--g", "12", "--out", out_path],
        ["decompose", "--set", "mod 6 {0,1,2}", "--a", "5", "--b", "1", "--format", "text"],
        ["iterate", "--set", "AP+(1,3,1)", "--ops", "(3,1)^4", "--format", "text"],
        ["iterate", "--set", "Z", "--ops", "(2,1)"],
        ["dplus", "--set", "AP+(1,2,1)", "--format", "csv"],
        ["verify-thm61", "--set", "AP+(1,3,1)", "--ops", "cyc[(3,1)]", "--L", "3"],
        ["construct", "--kind", "parity", "--bits", "101", "--format", "csv"],
        ["construct", "--kind", "ap"],
        ["sweep", "--sets", "AP+(1,3,1)", "--ops-list", "cyc[(3,1)];rand(4,3)", "--L", "3",
         "--format", "text"],
        ["nonsense"],
        ["iterate", "--set", "AP(1,", "--ops", "(2,1)"],
        ["residue", "--set", "mod 12 {0,3,4}", "--a", "4", "--b", "3", "--max-steps", "1"],
        ["residue", "--set", "mod 12 {0,3,4}", "--a", "4", "--b", "3"],
    ]


def run_sequence(sequence, out_file, capsys):
    outcomes = []
    for argv in sequence:
        code = run(argv)
        captured = capsys.readouterr()
        written = out_file.read_text() if out_file.exists() else None
        if written is not None:
            out_file.unlink()
        outcomes.append((code, captured.out, captured.err, written))
    return outcomes


def test_cli_one_parser_matches_fresh_parsers(tmp_path, capsys, monkeypatch):
    out_file = tmp_path / "report.json"
    sequence = mixed_sequence(str(out_file))
    builds = []
    build = cli.build_parser

    def counted_build():
        builds.append(1)
        return build()
    monkeypatch.setattr(cli, "build_parser", counted_build)
    cli._parser.cache_clear()
    reused = run_sequence(sequence, out_file, capsys)
    assert len(builds) == 1
    # the same calls, each against a parser built for it alone
    monkeypatch.setattr(cli, "_parser", build)
    fresh = run_sequence(sequence, out_file, capsys)
    assert reused == fresh
    assert [o[0] for o in reused] == [0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 3, 3, 2, 0]
    assert reused[2][1] == "" and reused[2][3].startswith("{")
    assert all(o[1] for i, o in enumerate(reused) if o[0] in (0, 1) and i != 2)


def test_build_parser_returns_a_fresh_parser():
    assert cli.build_parser() is not cli.build_parser()
    assert cli._parser() is cli._parser()


def raise_from_orbit(exc):
    def orbit(*args, **kwargs):
        raise exc
    return orbit


FAILURE_MODES = [
    ("usage", ["nonsense"], None, 3, "usage error: argument command: invalid choice"),
    ("input", ["residue", "--set", "mod 12 {0,3,4}", "--a", "2", "--b", "4"], None,
     3, "error: coefficients must be coprime"),
    ("decompose-input", ["decompose", "--set", "mod 4 {0,1}", "--a", "3", "--b", "3"], None,
     3, "error: coefficients must be coprime"),
    ("syntax", ["iterate", "--set", "AP(1,", "--ops", "(2,1)"], None,
     3, "error: expected an integer (at position 5)"),
    ("construct-fraction", ["construct", "--kind", "bohr", "--alpha", "1/0"], None,
     3, "error: zero denominator in '1/0'"),
    ("resource", ["residue", "--set", "mod 12 {0,3,4}", "--a", "4", "--b", "3",
                  "--max-steps", "1"], None,
     2, "resource limit: orbit did not close within 1 steps"),
    ("internal-keyerror", ["residue", "--set", "mod 12 {0,3,4}", "--a", "4", "--b", "3"],
     KeyError("boom"), 4, "internal error: KeyError: 'boom'"),
    ("internal-valueerror", ["residue", "--set", "mod 12 {0,3,4}", "--a", "4", "--b", "3"],
     ValueError("not an input error"), 4, "internal error: ValueError: not an input error"),
]


@pytest.mark.parametrize("argv,exc,code,line", [m[1:] for m in FAILURE_MODES],
                         ids=[m[0] for m in FAILURE_MODES])
def test_cli_failure_modes(argv, exc, code, line, capsys, monkeypatch):
    if exc is not None:
        monkeypatch.setattr(cli, "residue_orbit", raise_from_orbit(exc))
    assert run(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith(line)


# (id, argv, the one stderr line): input errors of the set, residue-set and
# op grammars, the fraction options and the verifier's arguments, each exit 3
INPUT_ERRORS = [
    ("no-name", ["residue", "--set", "5 {1}", "--a", "2", "--b", "1"],
     "error: expected a name (at position 0)"),
    ("not-mod", ["residue", "--set", "modx 5 {1}", "--a", "2", "--b", "1"],
     "error: expected 'mod' (at position 0)"),
    ("bad-char", ["iterate", "--set", "#", "--ops", "(2,1)"],
     "error: unexpected character '#' (at position 0)"),
    ("no-set", ["iterate", "--set", "U(", "--ops", "(2,1)"],
     "error: expected a set expression (at position 2)"),
    ("bohr-zero-den", ["iterate", "--set", "bohr(1/0,1/6,5)", "--ops", "(2,1)"],
     "error: zero denominator"),
    ("zero-reps", ["iterate", "--set", "N", "--ops", "(2,1)^0"],
     "error: repetition count must be positive"),
    ("alpha-literal", ["construct", "--kind", "bohr", "--alpha", "abc"],
     "error: Invalid literal for Fraction: 'abc'"),
    ("L-below-2", ["verify-thm61", "--set", "N", "--ops", "cyc[(2,1)]", "--L", "1"],
     "error: the coefficient bound L must be at least 2"),
    ("c-zero", ["verify-thm61", "--set", "N", "--ops", "cyc[(2,1)]", "--L", "3", "--c", "0"],
     "error: the constant c must be a positive integer"),
    ("above-L", ["verify-thm61", "--set", "N", "--ops", "cyc[(3,1)]", "--L", "2"],
     "error: sequence coefficients exceed the declared bound"),
    # an empty grid is refused, not a vacuous PASS over no cells
    ("sweep-no-sets", ["sweep", "--sets", " ; ", "--ops-list", "(2,1)", "--L", "3"],
     "error: sweep needs at least one --sets entry and one --ops-list entry"),
    ("sweep-no-ops", ["sweep", "--sets", "N", "--ops-list", "", "--L", "3"],
     "error: sweep needs at least one --sets entry and one --ops-list entry"),
    ("unknown-kind", ["construct", "--kind", "nope"],
     "usage error: argument --kind: invalid choice: 'nope' "
     "(choose from 'ap', 'bohr', 'sparse', 'parity', 'scaled')"),
]


@pytest.mark.parametrize("argv,line", [e[1:] for e in INPUT_ERRORS],
                         ids=[e[0] for e in INPUT_ERRORS])
def test_cli_input_errors_exit_3(argv, line, capsys):
    assert run(argv) == 3
    assert capsys.readouterr() == ("", line + "\n")


def test_cli_run_refuses_a_malformed_env_cap_in_process(monkeypatch, capsys):
    # the in-process view of test_cli_env_window_cap: run reads the message
    # that epset left at import, before it parses any argument
    line = "LINSET_WINDOW_CAP must be a positive integer, not 'abc'"
    monkeypatch.setattr(cli, "_env_cap_error", line)
    assert run(["dplus", "--set", "N"]) == 3
    assert capsys.readouterr() == ("", "error: %s\n" % line)
    assert run(["nonsense"]) == 3
    assert capsys.readouterr() == ("", "error: %s\n" % line)


@pytest.mark.parametrize("argv, code", [
    (["dplus", "--set", "N"], 0),
    (["decompose", "--set", "mod 6 {0,1,2}", "--a", "5", "--b", "1"], 1),
    (["residue", "--set", "mod 12 {0,3,4}", "--a", "4", "--b", "3", "--max-steps", "1"], 2),
    (["nonsense"], 3),
], ids=["pass", "fail", "resource", "usage"])
def test_cli_main_exits_with_the_run_code(argv, code, monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["linset", *argv])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == code


def test_cli_unwritable_out_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "missing" / "report.json"
    assert run(["dplus", "--set", "N", "--out", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: cannot write --out: ")


# -- orbit edge cases, one budget rule -------------------------------------------

# (argv, exit code, sha256 of stdout, stderr), recorded before the orbit loops
# were merged into one engine
EDGE_GOLDENS = [
    (["iterate", "--set", "AP(1,3)", "--ops", "(3,1)(3,1)(2,1)^5"], 0,
     "e91f2ea25188212fe5c01387a3004f2ec6a392c2737ba5f1ee944cf49f0b5a3f", ""),
    (["iterate", "--set", "AP+(1,3,1)", "--ops", "cyc[(2,1)(3,1)(2,1)(3,1)]"], 0,
     "d43029b2dc9c10cfd943b48cfd222e7e39718dccebce122d6b4280b559e7b80d", ""),
    (["verify-thm61", "--set", "AP+(1,3,1)", "--ops", "(3,1)(2,1)(3,2)", "--L", "3"], 2,
     "a9180842980eae3ca4aea1ff48a083f6a3951b20b0dc3dc9a0c8468eeec8abda", ""),
    (["dplus", "--set", "{0,3,7,12}"], 0,
     "eaf7142d22343bae6f57a4216da7ba00d8f75a83d0b57686740aa968ad820b63", ""),
    (["dplus", "--set", "{2,3,7}"], 0,
     "2f35650227427ba94591047b2f741aa31f979213b5408bb0e3230e05dd38fcbf", ""),
    (["dplus", "--set", "{0,5,9}", "--max-k", "0"], 2,
     hashlib.sha256(b"").hexdigest(),
     "resource limit: no fixed point within 0 positive-difference steps\n"),
    (["residue", "--set", "mod 3 {0}", "--a", "2", "--b", "1", "--max-steps", "1"], 0,
     "a3c8329ba99105e167e66ce3c22a956c9d014d7ebb8b314834f374860aac60a4", ""),
    (["iterate", "--set", "AP+(1,3,1)", "--ops", "cyc[(3,1)]", "--max-k", "0"], 0,
     "3530214edbc7618fb7fb7e3f391c8e3cf1c80d15f296ff2a7ec49a587149f5e6", ""),
]


@pytest.mark.parametrize("argv,code,digest,err", EDGE_GOLDENS,
                         ids=[" ".join(g[0][:3]) + " " + g[0][-1] for g in EDGE_GOLDENS])
def test_cli_orbit_edge_goldens(argv, code, digest, err, capsys):
    assert run(argv) == code
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest
    assert captured.err == err


BUDGET_ERRORS = [
    (["iterate", "--set", "N", "--ops", "(3,1)", "--max-k", "-1"], 3,
     "error: step budget -1 is negative\n"),
    (["residue", "--set", "mod 12 {0,3,4}", "--a", "4", "--b", "3", "--max-steps", "-3"], 3,
     "error: step budget -3 is negative\n"),
    (["dplus", "--set", "AP+(1,7,1)", "--max-k", "-1"], 3,
     "error: step budget -1 is negative\n"),
    (["verify-thm61", "--set", "N", "--ops", "(3,1)", "--L", "3", "--max-steps", "-1"], 3,
     "error: step budget -1 is negative\n"),
    (["sweep", "--sets", "N", "--ops-list", "(3,1)", "--L", "3", "--max-steps", "-1"], 3,
     "error: step budget -1 is negative\n"),
    (["construct", "--kind", "scaled", "--steps", "-1"], 3,
     "error: step budget -1 is negative\n"),
    (["construct", "--kind", "bohr", "--N", "-5"], 3,
     "error: the horizon n must be at least 1\n"),
    (["construct", "--kind", "sparse", "--N", "0"], 3,
     "error: the horizon n must be at least 1\n"),
    (["dplus", "--set", "bohr(13/101,1/2,-3)"], 3,
     "error: the horizon n must be at least 1\n"),
    (["dplus", "--set", "sparse(1/2,0,5)"], 3,
     "error: the horizon n must be at least 1\n"),
    # zero means zero steps: the fixed point of mod 3 {0} is not reached
    (["residue", "--set", "mod 3 {0}", "--a", "2", "--b", "1", "--max-steps", "0"], 2,
     "resource limit: orbit did not close within 0 steps\n"),
]


# 5000 digits, past int()'s default limit of 4300
LONG = "1" + "0" * 4999
LONG_LITERALS = [(["iterate", "--set", "{1," + LONG + "}", "--ops", "(2,1)"], 3),
                 (["iterate", "--set", "AP(1," + LONG + ")", "--ops", "(2,1)"], 5),
                 (["iterate", "--set", "N", "--ops", "(2,1)^" + LONG], 6),
                 (["residue", "--set", "mod " + LONG + " {1}", "--a", "2", "--b", "1"], 4)]


@pytest.mark.parametrize("argv,pos", LONG_LITERALS, ids=["set", "AP", "repeat", "mod"])
def test_cli_long_literal_is_a_usage_error(argv, pos, capsys):
    assert run(argv) == 3
    assert capsys.readouterr() == ("", "error: integer literal too long (at position %d)\n"
                                   % pos)


@pytest.mark.parametrize("option", ["--alpha", "--delta"])
def test_cli_long_fraction_option_is_a_usage_error(option, capsys):
    assert run(["construct", "--kind", "bohr", option, "1/" + LONG, "--N", "5"]) == 3
    assert capsys.readouterr() == ("", "error: integer literal too long in %s\n" % option)


@pytest.mark.parametrize("argv,code,err", BUDGET_ERRORS,
                         ids=[" ".join(b[0][:2]) + " " + b[0][-1] for b in BUDGET_ERRORS])
def test_cli_budget_and_horizon_errors(argv, code, err, capsys):
    assert run(argv) == code
    assert capsys.readouterr() == ("", err)


# -- one report path: every subcommand in every format ------------------------

# (argv, sha256 over json, csv and text of "exit code NUL stdout NUL stderr NUL"),
# recorded before the commands shared one report path, except where noted
REPORT_GOLDENS = [
    (["iterate", "--set", "AP+(1,3,1)", "--ops", "(3,1)^4"],
     "458ccd85c4b373d2081c3a7d0107695064fe05f9948926408ff42739af0dc469"),
    (["iterate", "--set", "U({0,2,5},AP+(1,3,7))", "--ops", "cyc[(2,1)(3,2)]"],
     "9e958bbb55fcc94db98494c5dbeed42e74d52953832f458192d80bba36509308"),
    (["iterate", "--set", "sparse(1/2,40,1,4,27)", "--ops", "(2,1)"],
     "44184eaf77cf9999c6c3993b37e5af833c54d89e2c306e4477220a0a118e17bf"),
    (["iterate", "--set", "AP+(1,3,1)", "--ops", "cyc[(3,1)]", "--max-k", "0"],
     "bc896b596478652c937939192527efaa3f852b80a6ae1b640fe1fec4a4443b8e"),
    (["residue", "--set", "mod 12 {0,3,4}", "--a", "4", "--b", "3", "--g", "12"],
     "3d4c252c9e9253f066c4fadeabd8c7c1e89c418a0461facfc3e03dba0b7faf7d"),
    (["residue", "--set", "mod 10 {0,1}", "--a", "3", "--b", "1"],
     "6524151837e957c5f6c4a6d08a931ebf3426025896cf3fcca82ab9072e8e097c"),
    (["residue", "--set", "mod 12 {0,3,4}", "--a", "4", "--b", "3", "--g", "11"],
     "23fd6d23f5eb66b5a3871cd827f3c8485ea3de3dee6efd3b50deb8e79f65a5d8"),
    (["decompose", "--set", "mod 12 {0,3,4,6,7,10}", "--a", "4", "--b", "3", "--g", "12"],
     "c43a2c63713cd6ac93892b2d9855fe278d3a0fec7876a372a7818362091786b4"),
    (["decompose", "--set", "mod 6 {0,1,2}", "--a", "5", "--b", "1"],
     "eb896c0c48d0e86c952737e7e619834ebf44a7386c6c6f8fc068f01983094ef4"),
    (["decompose", "--set", "mod 12 {0}", "--a", "4", "--b", "3", "--g", "11"],
     "23fd6d23f5eb66b5a3871cd827f3c8485ea3de3dee6efd3b50deb8e79f65a5d8"),
    (["dplus", "--set", "AP+(1,5,1)"],
     "0ff978c2fc1c3cdcad2725a524a0839a70e92b869024b35d0f3c598b3787fbeb"),
    (["dplus", "--set", "{0,3,7,12}"],
     "800bb04c159003978ac610a9a5903b4699965ecb27102b77f0db74d25d31c0d0"),
    (["dplus", "--set", "bohr(33461/80782,1/6,200)"],
     "fbfed680557a674ab318674e1b1ff182d2925dbcd3c8dd6947a945e5f5e710e2"),
    (["verify-thm61", "--set", "AP+(1,3,1)", "--ops", "cyc[(3,1)]", "--L", "3"],
     "96bd559ee1ee7ba1b967b8b2c791bfa4882d8a14645fde05e1f90c8e4b63bdaa"),
    (["verify-thm61", "--set", "AP+(1,3,1)", "--ops", "(3,1)(2,1)(3,2)", "--L", "3"],
     "c8c2a7b4d1e7a58730a67dc783ad22b7fd38a9d0555465543ca42d610c85f0aa"),
    (["verify-thm61", "--set", "U(AP(0,4),AP(1,4))",
      "--ops", "cyc[(2,1)(3,2)]", "--L", "3"],
     "25e93dcf2001f88bf549dac7937088b3c204ff17d05e63725ae0ba4c2d09d129"),
    (["verify-thm61", "--set", "N", "--ops", "cyc[(4,2)]", "--L", "4"],
     "b8ea793afacf8e4ab7652f070c5365b36cb539b0145ae4160f2185f28968d707"),
    # recorded once a finite truncation was refused as sweep refuses it, by
    # the verifier's density check (exit 3 both before and since)
    (["verify-thm61", "--set", "sparse(1/2,40,1,4,27)",
      "--ops", "cyc[(2,1)]", "--L", "2"],
     "45bb775b1ec8af6fc39194f88b9f4bd7dc52865fa6407a05c619d3524b793459"),
    (["construct", "--kind", "ap", "--a", "5", "--b", "2"],
     "dc687775b67ed5bd4ff388426dfbe394d2471f9cf827a6712fa3c779596d1e02"),
    (["construct", "--kind", "bohr", "--alpha", "33461/80782", "--N", "300"],
     "af6001bff67b3557cc318154c67c497b1f354a23a302ed457433a37243a2ee8e"),
    (["construct", "--kind", "sparse", "--N", "300"],
     "d92a2f0a8ca570fab573f713c2ae206919ebdbbc82a720178202ac8a0da16784"),
    (["construct", "--kind", "parity", "--bits", "0110"],
     "8809f87da83904e56757ab128f7b6a5dce51884692d7750052cc4ce7469de7b6"),
    (["construct", "--kind", "parity", "--bits", "01x"],
     "0a5753a7dcbec54919b3b9735c687388f74db1067801e259dcd333bd95b4e224"),
    (["construct", "--kind", "scaled", "--d", "3", "--steps", "3"],
     "c45c8ccc87ef04fdeca1f983d22f25d3f2e96bd41d88c8913c24fc4969a0e6c7"),
    (["sweep", "--sets", "AP+(1,3,1);U({0,1,5},AP+(2,7,9))",
      "--ops-list", "cyc[(3,1)];rand(5,3)", "--L", "3", "--seed", "4"],
     "68c19e36fba7f872cf3646f4a33d8cbe4cd6c1cf74ad7992ad5d78d0b436914f"),
    # recorded once Z minus {0} no longer compared equal to Z, which had made
    # this cell a false FAIL (exit 1); no true FAIL cell is known
    (["sweep", "--sets", "AP+(1,3,1);U(AP-(-1,1,-1),AP+(1,1,1))",
      "--ops-list", "cyc[(2,1)]", "--L", "2"],
     "5f950c478ec956399daa6f838e23be113febd088494742047a7a1e5a651f6490"),
    (["sweep", "--sets", "N", "--ops-list", "(3,1)(2,1)(3,2)", "--L", "3"],
     "3dd9cb1c00f81d60fe1b236e957f2ad82dd768d518e7eac12fa4f91b4a85374a"),
    (["sweep", "--sets", "bohr(33461/80782,1/6,200)",
      "--ops-list", "cyc[(2,1)]", "--L", "2"],
     "45bb775b1ec8af6fc39194f88b9f4bd7dc52865fa6407a05c619d3524b793459"),
    (["iterate", "--set", "N"],
     "6fbdcb5bc0d71dfc427f0a1e688326d3ceb9cf7ec4cf3e24c3067f1b074a93fa"),
    (["iterate", "--set", "AP(1,", "--ops", "(2,1)"],
     "b138271f3f069c26cec7782beaa87fdf0e8cec9ba5fd323049d9ebe86a7d38c1"),
]


def report_digest(argv, capsys):
    h = hashlib.sha256()
    for fmt in ("json", "csv", "text"):
        code = run(argv + ["--format", fmt])
        out, err = capsys.readouterr()
        h.update(("%d\0%s\0%s\0" % (code, out, err)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("argv,digest", REPORT_GOLDENS,
                         ids=[" ".join(g[0])[:60] for g in REPORT_GOLDENS])
def test_cli_reports_pinned(argv, digest, capsys):
    assert report_digest(argv, capsys) == digest


@pytest.mark.parametrize("expr", ["sparse(1/2,40,1,4,27)", "bohr(33461/80782,1/6,200)"])
def test_cli_verify_refuses_a_truncation_by_density(expr, capsys):
    assert run(["verify-thm61", "--set", expr, "--ops", "cyc[(2,1)]", "--L", "2"]) == 3
    assert capsys.readouterr() == ("", "error: the input set must have positive upper density\n")


def test_cli_sweep_exit_code_ranks_fail_first(capsys, monkeypatch):
    # no true FAIL cell is known, so the cells' verdicts are stubbed by set
    def cell(set_expr, ops_expr, bound, c, max_steps):
        d = {"verdict": set_expr, "distinct_count": 1, "bound": None,
             "observed_k0": None, "observed_g": None}
        return None, None, d
    monkeypatch.setattr(cli, "_verify_cell", cell)
    for sets, code, summary in (("PASS;INCONCLUSIVE;FAIL", 1, [1, 1, 1]),
                                ("INCONCLUSIVE;PASS", 2, [0, 1, 1]),
                                ("PASS;PASS", 0, [0, 0, 2])):
        assert run(["sweep", "--sets", sets, "--ops-list", "(2,1)", "--L", "2"]) == code
        rep = json.loads(capsys.readouterr().out)
        assert [rep["summary"][v] for v in ("FAIL", "INCONCLUSIVE", "PASS")] == summary


# Z minus {0}: its canonical window [0, 0] holds no element, and equality
# used to ignore the window's end, so the set compared equal to Z
Z_MINUS_0 = "U(AP-(-1,1,-1),AP+(1,1,1))"


def test_cli_iterate_of_z_minus_a_point(capsys):
    assert run(["iterate", "--set", Z_MINUS_0, "--ops", "(2,1)"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert (rep["set"], rep["closed"], rep["cycle"], rep["periodicity_onset"]) == \
        (Z_MINUS_0, False, None, [1, 1])
    assert [i["set"] for i in rep["iterates"]] == [Z_MINUS_0, "Z"]


def test_cli_verify_of_z_minus_a_point_passes(capsys):
    assert run(["verify-thm61", "--set", Z_MINUS_0, "--ops", "cyc[(2,1)]", "--L", "2"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert (rep["set"], rep["verdict"], rep["observed_k0"], rep["observed_g"]) == \
        (Z_MINUS_0, "PASS", 1, 1)
