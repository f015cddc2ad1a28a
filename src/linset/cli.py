"""Command-line front end: set-expression and op-sequence parsing,
experiment dispatch, deterministic JSON/CSV/text reports.

Exit codes: 0 complete/PASS, 1 verification FAIL, 2 resource-limited or
inconclusive (ResourceLimitExceeded), 3 usage error (bad arguments, and
InputError, which the set-grammar errors derive from), 4 internal error
(any other exception, reported as one "internal error:" line).  The
window cap honors the LINSET_WINDOW_CAP environment variable; a value
that is not a positive integer is a usage error for every command.  JSON is
the format of record.  Its "schema" field has one source,
``stability.SCHEMA``, which the verifier's cells carry too; ``run`` adds
it and "command" to every report, and renders the report as JSON, as text
from the same dict, or as the command's CSV rows.  ``run`` reuses one
argument parser per process, built on its first call.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import os
import random
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from . import constructions
from ._bits import _SMALL_BITS
from .analysis import density_profile, dplus, stability_time, stability_time_bounds
from .constructions import TruncatedSet
from .epset import (EPSet, InputError, ResourceLimitExceeded, _class_bit, _env_cap_error, _union,
                    set_window_cap, window_cap)
from .linops import LinearOp, OpSequence
from .residue import (
    DecompositionCertificate,
    ResidueSet,
    decompose_equality_case,
    residue_orbit,
)
from .stability import SCHEMA, iterate_trace, verify_stabilization


class SetSyntaxError(InputError):
    def __init__(self, message, pos):
        super().__init__("%s (at position %d)" % (message, pos))
        self.pos = pos


class SetSemanticError(InputError):
    pass


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# recursive-descent parsing

# An integer; and the rest of a {e1,e2,...} literal after its "{": the
# longest well-formed run of elements, a comma left dangling after it, and
# the closing brace.  The one match gives the elements or the error position.
_INT = r"[+-]?\d+"
_INTEGER = re.compile(r"\s*(%s)" % _INT)
_INT_LIST = re.compile(r"\s*(?:(%s(?:\s*,\s*%s)*)(\s*,)?)?\s*(\})?" % (_INT, _INT))


class _Scanner:
    def __init__(self, text):
        self.text = text
        self.i = 0

    def skip_ws(self):
        while self.i < len(self.text) and self.text[self.i].isspace():
            self.i += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.i] if self.i < len(self.text) else ""

    def take(self, ch):
        self.skip_ws()
        if self.i >= len(self.text) or self.text[self.i] != ch:
            raise SetSyntaxError("expected '%s'" % ch, self.i)
        self.i += 1

    def end(self):
        self.skip_ws()
        if self.i < len(self.text):
            raise SetSyntaxError("trailing input", self.i)

    def integer(self):
        m = _INTEGER.match(self.text, self.i)
        if not m:
            self.skip_ws()
            raise SetSyntaxError("expected an integer", self.i)
        self.i = m.end()
        return _to_int(m, 1)

    def fraction(self):
        num = self.integer()
        self.skip_ws()
        if self.i < len(self.text) and self.text[self.i] == "/":
            self.i += 1
            den = self.integer()
            if den == 0:
                raise SetSemanticError("zero denominator")
            return Fraction(num, den)
        return Fraction(num)

    def name(self):
        self.skip_ws()
        start = self.i
        while self.i < len(self.text) and (self.text[self.i].isalpha()):
            self.i += 1
        if self.i < len(self.text) and self.text[self.i] in "+-" and \
                self.text[start:self.i] == "AP":
            self.i += 1
        if self.i == start:
            raise SetSyntaxError("expected a name", start)
        return self.text[start:self.i]


def _to_int(m, group):
    """The integer matched by ``m.group(group)``; one past int()'s digit
    limit is a syntax error at its position."""
    try:
        return int(m.group(group))
    except ValueError:
        raise SetSyntaxError("integer literal too long", m.start(group)) from None


def _int_literal(sc: _Scanner):
    """The integers of a ``{e1,e2,...}`` literal, braces included: a list,
    or an int64 array when ``_int_array`` parses the body.

    A body (the text after ``{`` up to the first ``}``) longer than
    ``_SMALL_BITS`` characters goes to ``_int_array`` first.  Any other
    body, and a long one that it refuses, goes through the ``_INT_LIST``
    match, which also gives every error its message and position.  Both
    paths accept the same text and return the same values, so the errors
    do not depend on the path."""
    sc.take("{")
    end = sc.text.find("}", sc.i)
    if end - sc.i > _SMALL_BITS:
        xs = _int_array(sc.text[sc.i:end])
        if xs is not None:
            sc.i = end + 1
            return xs
    m = _INT_LIST.match(sc.text, sc.i)
    body, comma, close = m.groups()
    if close and not comma:
        sc.i = m.end()
        try:
            return list(map(int, body.split(","))) if body else []
        except ValueError:
            return [_to_int(x, 1) for x in _INTEGER.finditer(sc.text, m.start(1), m.end(1))]
    sc.i = m.start(3) if close else m.end()
    if body and not comma:
        raise SetSyntaxError("expected '}'", sc.i)
    raise SetSyntaxError("expected an integer", sc.i)


def _int_array(body: str):
    """The integers of ``body`` as an int64 array; None unless the body is
    ASCII tokens ``[+-]?[0-9]{1,18}`` split by commas.

    The tokens are checked in one numpy pass over the bytes, and the checked
    body is read by numpy's own text parser.  At most 18 digits keep every
    value below 10^18 < 2^63.  Whitespace, ``_``, an empty token, a bare sign
    or one inside a token, a longer token and any other character are
    refused."""
    if not body.isascii():
        return None
    b = np.frombuffer(body.encode("ascii"), np.uint8)
    cut = np.flatnonzero(b == 44)
    signs = np.count_nonzero(b == 43) + np.count_nonzero(b == 45)
    # b - 48 wraps past 9 for every non-digit
    if np.count_nonzero(b - 48 < 10) + len(cut) + signs != len(b):
        return None
    starts = np.append(0, cut + 1)
    lengths = np.append(cut, len(b)) - starts
    if lengths.min() < 1:
        return None
    signed = (b[starts] == 45) | (b[starts] == 43)
    digits = lengths - signed
    if np.count_nonzero(signed) != signs or digits.min() < 1 or digits.max() > 18:
        return None
    return np.fromstring(body, np.int64, sep=",")


def _call(sc: _Scanner, readers, more=None) -> list:
    """The values of a parenthesized argument list ``(v1,v2,...)``.

    Takes ``(``, reads one value with each of ``readers`` in turn, a ``,``
    between two of them, then one more value with ``more`` for each ``,``
    that follows, and takes ``)``.  A reader is called with the scanner:
    an unbound ``_Scanner`` method or ``_parse_set``.  Every error is that
    of the token reading, at the position where it stopped."""
    sc.take("(")
    out = []
    for read in readers:
        if out:
            sc.take(",")
        out.append(read(sc))
    if more is not None:
        while sc.peek() == ",":
            sc.take(",")
            out.append(more(sc))
    sc.take(")")
    return out


# One well-formed AP(r,g), AP+(r,g,n0) or AP-(r,g,n0) atom; the reader
# checks that the sign and the third argument come together.
_AP = re.compile(r"\s*AP([+-]?)\s*\(\s*(%s)\s*,\s*(%s)\s*(?:,\s*(%s)\s*)?\)" % ((_INT,) * 3))


def _ap_key(kind: str, r: int, g: int, n0=None) -> tuple:
    """The canonical key of ``AP(r,g)`` (kind ""), ``AP+(r,g,n0)`` ("+")
    or ``AP-(r,g,n0)`` ("-"), the ``_key()`` of its EPSet: a half line's
    empty window sits where its tail rules split, at its least member for
    AP+, and for AP- at the least member of the class above its last."""
    if g <= 0:
        raise SetSemanticError("modulus must be positive")
    bit = _class_bit(r, g)
    if not kind:
        return (g, 0, -1, 0, bit, bit)
    if kind == "+":
        lo = max(r, n0)
        lo += (r - lo) % g
        return (g, lo, lo - 1, 0, 0, bit)
    lo = min(r, n0) + 1
    lo += (r - lo) % g
    return (g, lo, lo - 1, 0, bit, 0)


def _parse_set(sc: _Scanner):
    """The value of the set expression at the scanner: the canonical key of
    an AP atom, else an EPSet or a TruncatedSet."""
    m = _AP.match(sc.text, sc.i)
    if m and (m[1] == "") == (m[4] is None):
        sc.i = m.end()
        return _ap_key(m[1], _to_int(m, 2), _to_int(m, 3), m[4] and _to_int(m, 4))
    ch = sc.peek()
    if ch == "{":
        return EPSet.from_iterable(_int_literal(sc))
    if not ch:
        raise SetSyntaxError("expected a set expression", sc.i)
    if not ch.isalpha():
        raise SetSyntaxError("unexpected character '%s'" % ch, sc.i)
    name = sc.name()
    if name == "Z":
        return EPSet.integers()
    if name == "N":
        return EPSet.naturals()
    if name == "U":
        # one canonicalization, of the union of the parts' keys
        return _union([p if isinstance(p, tuple) else
                       (p.to_epset() if isinstance(p, TruncatedSet) else p)._key()
                       for p in _call(sc, (_parse_set,), _parse_set)])
    if name in ("AP", "AP+", "AP-"):
        # not one _AP match: its token reading raises
        return _ap_key(name[2:], *_call(sc, (_Scanner.integer,) * (2 if name == "AP" else 3)))
    if name == "bohr":
        alpha, delta, n = _call(sc, (_Scanner.fraction, _Scanner.fraction, _Scanner.integer))
        try:
            return constructions.bohr_truncation(alpha, delta, n)
        except InputError as e:
            raise SetSemanticError(str(e))
    if name == "sparse":
        delta, n, *xs = _call(sc, (_Scanner.fraction, _Scanner.integer), _Scanner.fraction)
        try:
            return constructions.sparse_interval_union(xs, delta, n)
        except InputError as e:
            raise SetSemanticError(str(e))
    raise SetSyntaxError("unknown set constructor '%s'" % name, sc.i)


def parse_set_expression(text: str):
    """Parse the set grammar: Z, N, {..}, AP, AP+, AP-, U(..), bohr(..),
    sparse(..).  Returns an EPSet or a TruncatedSet."""
    sc = _Scanner(text)
    out = _parse_set(sc)
    sc.end()
    return EPSet(*out) if isinstance(out, tuple) else out


def parse_residue_set(text: str) -> ResidueSet:
    """Parse the residue-set form ``mod g {e1,e2,...}``."""
    sc = _Scanner(text)
    if sc.name() != "mod":
        raise SetSyntaxError("expected 'mod'", 0)
    g = sc.integer()
    if g <= 0:
        raise SetSemanticError("modulus must be positive")
    elems = _int_literal(sc)
    sc.end()
    return ResidueSet(g, elems)


# One well-formed (a,b)^k atom of the op grammar: a "^" must be followed by
# an integer.  Where the matches stop at a "(", the atom there is malformed.
_OP = re.compile(r"\s*\(\s*(%s)\s*,\s*(%s)\s*\)(?:\s*\^\s*(%s)|(?!\s*\^))"
                 % (_INT, _INT, _INT))


def parse_ops(text: str) -> OpSequence:
    """Parse op sequences: ``(a,b)`` atoms, ``^k`` repetition, and the
    cyclic extension marker ``cyc[...]``.

    Each well-formed atom is one ``_OP`` match.  A malformed atom, where
    the matches stop at a ``(``, is read again token by token by
    ``_Scanner``, which raises its error with that reading's message and
    position."""
    sc = _Scanner(text)
    cyclic = False
    if sc.peek() == "c":
        if sc.name() != "cyc":
            raise SetSyntaxError("expected 'cyc'", sc.i)
        sc.take("[")
        cyclic = True
    ops = []
    made = {}       # (a, b) as matched -> its LinearOp, checked once
    i = sc.i
    while m := _OP.match(text, i):
        a, b, k = m.groups()
        op = made.get((a, b))
        if op is None:
            op = made[a, b] = _atom_op(_to_int(m, 1), _to_int(m, 2))
        reps = 1
        if k is not None:
            reps = _to_int(m, 3)
            if reps < 1:
                raise SetSemanticError("repetition count must be positive")
        _check_op_count(len(ops) + reps)
        ops += [op] * reps
        i = m.end()
    sc.i = i
    if sc.peek() == "(":
        # a malformed atom: its token reading raises
        _atom_op(*_call(sc, (_Scanner.integer,) * 2))
        sc.take("^")
        sc.integer()
    if cyclic:
        sc.take("]")
    sc.end()
    if not ops:
        raise SetSyntaxError("empty operation sequence", sc.i)
    return OpSequence(tuple(ops), cyclic=cyclic)


def _check_op_count(n: int) -> None:
    if n > window_cap():
        raise ResourceLimitExceeded("operation sequence of %d ops exceeds the cap %d"
                                    % (n, window_cap()))


def _atom_op(a: int, b: int) -> LinearOp:
    if a < 1 or b < 1:
        raise SetSemanticError("operation entries must be positive")
    return LinearOp(a, b)


def random_ops(length: int, bound: int, seed: int, cyclic: bool = True) -> OpSequence:
    """Seeded pseudo-random sequence of coprime pairs with entries <= bound."""
    rng = random.Random(seed)
    ops = []
    while len(ops) < length:
        a = rng.randint(1, bound)
        b = rng.randint(1, bound)
        if math.gcd(a, b) == 1:
            ops.append((a, b))
    return OpSequence(tuple(ops), bound=bound, cyclic=cyclic)


def _parse_rand(text: str, seed: int) -> OpSequence:
    """The ``rand(n,L)`` entry of ``sweep --ops-list``: ``random_ops(n, L,
    seed)``."""
    sc = _Scanner(text)
    if sc.name() != "rand":
        raise SetSyntaxError("expected 'rand'", 0)
    n, bound = _call(sc, (_Scanner.integer,) * 2)
    sc.end()
    if n < 1 or bound < 1:
        raise SetSemanticError("rand(n,L) needs n >= 1 and L >= 1")
    _check_op_count(n)
    return random_ops(n, bound, seed)


# ---------------------------------------------------------------------------
# report rendering

def render_json(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)`` and a newline, byte for
    byte, written by one recursive pass into one list of chunks: strings by
    json's C string encoder, in place of the pure-Python encoder that json
    takes for ``indent`` before Python 3.13."""
    out = []
    _json_chunks(obj, out, "\n")
    out.append("\n")
    return "".join(out)


def _json_chunks(o, out, nl):
    """Append the JSON text of ``o`` to ``out``; ``nl`` is the newline and
    indent of the line that ``o`` starts on."""
    if isinstance(o, str):
        out.append(_quote(o))
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for k, v in sorted(o.items()):
            out.append(sep)
            sep = "," + inner
            # json writes a key that is not a str as the text of that scalar
            out.append(_quote(k) if isinstance(k, str) else '"%s"' % _json_scalar(k))
            out.append(": ")
            _json_chunks(v, out, inner)
        out.append(nl + "}")
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for v in o:
            out.append(sep)
            sep = "," + inner
            _json_chunks(v, out, inner)
        out.append(nl + "]")
    else:
        out.append(_json_scalar(o))


def _json_scalar(o) -> str:
    """json's text of None, a bool, an int or a float; TypeError for any
    other value, as json raises it."""
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        if o == math.inf:
            return "Infinity"
        if o == -math.inf:
            return "-Infinity"
        return float.__repr__(o)
    raise TypeError("Object of type %s is not JSON serializable" % type(o).__name__)


def render_text(obj) -> str:
    lines = []

    def walk(o, pre):
        if isinstance(o, dict):
            for k in sorted(o):
                v = o[k]
                if isinstance(v, (dict, list)):
                    lines.append("%s%s:" % (pre, k))
                    walk(v, pre + "  ")
                else:
                    lines.append("%s%s: %s" % (pre, k, v))
        elif isinstance(o, list):
            for i, v in enumerate(o):
                if isinstance(v, (dict, list)):
                    lines.append("%s- [%d]" % (pre, i))
                    walk(v, pre + "  ")
                else:
                    lines.append("%s- %s" % (pre, v))

    walk(obj, "")
    return "\n".join(lines) + "\n"


def render_csv(rows, header) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# commands
#
# Each cmd_* returns (report, rows, header, code): the report body, without
# the "schema" and "command" fields that ``run`` adds; its CSV rows under
# ``header``, built from the same set texts as the report, or None for the
# full report's sorted (field, value) pairs; and the exit code.


def _fraction(text: str, option: str) -> Fraction:
    """The value of a fraction option such as ``--delta 1/6``; InputError
    when malformed, naming the option when a digit run is past int()'s
    digit limit."""
    try:
        return Fraction(text)
    except ValueError as e:
        limit = sys.get_int_max_str_digits()
        if limit and re.search(r"\d{%d}" % (limit + 1), text):
            raise InputError("integer literal too long in %s" % option) from None
        raise InputError(str(e))
    except ZeroDivisionError:
        raise InputError("zero denominator in '%s'" % text)


def _epset(text: str) -> EPSet:
    """The set grammar's value as an EPSet: a finite truncation becomes
    its finite set."""
    s = parse_set_expression(text)
    return s.to_epset() if isinstance(s, TruncatedSet) else s


def _residue_set(args) -> ResidueSet:
    """``--set`` as a residue set, checked against ``--g`` when given."""
    u = parse_residue_set(args.set)
    if args.g is not None and args.g != u.modulus:
        raise UsageError("--g disagrees with the modulus in --set")
    return u


def cmd_iterate(args):
    s = _epset(args.set)
    seq = parse_ops(args.ops)
    tr = iterate_trace(s, seq, max_k=args.max_k)
    texts = [x.to_expr() for x in tr.iterates]
    report = {
        "set": texts[0],
        "ops": str(seq),
        "distinct_count": tr.distinct_count,
        "cycle": list(tr.cycle) if tr.cycle else None,
        "periodicity_onset": list(tr.periodicity_onset) if tr.periodicity_onset else None,
        "closed": tr.closed,
        "resource_flag": tr.resource_flag,
        "iterates": [{"k": k, "set": t} for k, t in enumerate(texts)],
    }
    rows = [(k, t, q) for k, (t, q) in enumerate(zip(texts, tr.periods))]
    return report, rows, ("k", "set", "full_period"), (2 if tr.resource_flag else 0)


def cmd_residue(args):
    u = _residue_set(args)
    orb = residue_orbit(u, args.a, args.b, max_steps=args.max_steps)
    texts = [s.to_expr() for s in orb.states]
    report = {
        "set": texts[0],
        "a": args.a,
        "b": args.b,
        "onset": orb.onset,
        "cycle_length": orb.length,
        "cardinality_preserved": orb.cardinality_preserved,
        "order_divisibility": orb.order_divisibility,
        "states": texts,
    }
    return report, list(enumerate(texts)), ("k", "state"), 0


def cmd_decompose(args):
    u = _residue_set(args)
    res = decompose_equality_case(u, args.a, args.b)
    report = {"set": u.to_expr(), "a": args.a, "b": args.b}
    if isinstance(res, DecompositionCertificate):
        subgroup = res.subgroup().to_expr()
        report.update({
            "result": "certificate",
            "translation": res.translation,
            "a1": res.a1,
            "b1": res.b1,
            "v": list(res.v),
            "x": list(res.x),
            "subgroup": subgroup,
            "verified": res.verify(u),
        })
        rows = [("a1", res.a1), ("b1", res.b1), ("v", " ".join(map(str, res.v))),
                ("x", " ".join(map(str, res.x))), ("subgroup", subgroup)]
        code = 0
    else:
        report.update({"result": "failure", "failed_hypothesis": res.hypothesis})
        rows = [("failed_hypothesis", res.hypothesis)]
        code = 1
    return report, rows, ("field", "value"), code


def cmd_dplus(args):
    s = _epset(args.set)
    t, its = stability_time(s, max_k=args.max_k)
    dens = s.upper_density()
    bounds = None
    if 0 < dens <= Fraction(1, 2):
        st, rz = stability_time_bounds(dens)
        bounds = {"doubling": st, "refined": rz}
    texts = [x.to_expr() for x in its]
    report = {
        "set": texts[0],
        "density": str(dens),
        "stability_time": t,
        "bounds": bounds,
        "iterates": [{"k": k, "set": t} for k, t in enumerate(texts)],
    }
    return report, list(enumerate(texts)), ("k", "set"), 0


def _verify_cell(set_expr, ops_expr, bound, c, max_steps):
    """One verifier cell: the parsed set and ops, and the JSON dict of
    their stabilization report."""
    s = _epset(set_expr)
    seq = parse_ops(ops_expr)
    rep = verify_stabilization(s, seq, bound=bound, c=c, max_steps=max_steps)
    return s, seq, rep.to_json_dict()


def cmd_verify(args):
    s, seq, d = _verify_cell(args.set, args.ops, args.L, args.c, args.max_steps)
    d["set"] = s.to_expr()
    d["ops"] = str(seq)
    code = {"PASS": 0, "FAIL": 1, "INCONCLUSIVE": 2}[d["verdict"]]
    return d, None, ("field", "value"), code


def cmd_construct(args):
    kind = args.kind
    if kind == "ap":
        orbit = constructions.ap_counterexample(args.a, args.b)
        texts = [orbit.predicted(k).to_expr() for k in range(0, 2 * orbit.cycle_length + 1)]
        report = {
            "set": texts[0],
            "cycle_length": orbit.cycle_length,
            "stable": orbit.stable,
            "predicted": [{"k": k, "set": t} for k, t in enumerate(texts)],
        }
        rows, header = list(enumerate(texts)), ("k", "set")
    elif kind == "bohr":
        t = constructions.bohr_truncation(_fraction(args.alpha, "--alpha"),
                                         _fraction(args.delta, "--delta"), args.N)
        points = {max(1, args.N * i // 10) for i in range(1, 11)}
        rows = [(n, int(d * n), str(d)) for n, d in density_profile(t.elems, points).profile]
        report = {"alpha": args.alpha, "delta": args.delta, "n": args.N,
                  "count": len(t), "density": str(t.density()),
                  "profile": [{"n": n, "count": c, "density": d} for n, c, d in rows],
                  "set": t.to_expr()}
        header = ("n", "count", "density")
    elif kind == "sparse":
        xs = [_fraction(x, "--xs") for x in args.xs.split(",")]
        t = constructions.sparse_interval_union(xs, _fraction(args.delta, "--delta"), args.N)
        report = {"delta": args.delta, "n": args.N, "count": len(t), "set": t.to_expr()}
        rows, header = [(x,) for x in t.elems], ("element",)
    elif kind == "parity":
        fx = constructions.parity_flip_sequence(args.bits)
        texts = [x.to_expr() for x in fx.predictions]
        report = {"bits": args.bits, "prediction_rule": "prefix-parity",
                  "ops": str(fx.seq),
                  "predictions": [{"k": k, "set": t} for k, t in enumerate(texts)]}
        rows, header = list(enumerate(texts)), ("k", "set")
    else:           # "scaled": argparse's choices admit no other kind
        rep = constructions.scaled_divergence(args.d, args.a, args.b, steps=args.steps)
        rows = [(k, x.to_expr(), rep.divisible[k], rep.min_nonzero_abs[k])
                for k, x in enumerate(rep.iterates)]
        header = ("k", "set", "divisible", "min_nonzero_abs")
        report = {"d": args.d, "all_distinct": rep.all_distinct,
                  "iterates": [dict(zip(header, row)) for row in rows]}
    return {"kind": kind, **report}, rows, header, 0


def _sweep_cell(cell):
    # the cell carries the window cap: a worker started by spawn or
    # forkserver does not inherit a cap set through set_window_cap
    set_expr, ops_expr, bound, c, max_steps, cap = cell
    set_window_cap(cap)
    d = _verify_cell(set_expr, ops_expr, bound, c, max_steps)[2]
    d["set"] = set_expr
    d["ops"] = ops_expr
    return d


def cmd_sweep(args):
    sets = [x.strip() for x in args.sets.split(";") if x.strip()]
    ops_entries = [x.strip() for x in args.ops_list.split(";") if x.strip()]
    if not sets or not ops_entries:     # an empty grid would PASS vacuously
        raise InputError("sweep needs at least one --sets entry and one --ops-list entry")
    cap = window_cap()
    if len(sets) * len(ops_entries) > cap:
        raise ResourceLimitExceeded("sweep grid of %d cells exceeds the cap %d"
                                    % (len(sets) * len(ops_entries), cap))
    expanded_ops = [str(_parse_rand(e, args.seed)) if e.startswith("rand") else e
                    for e in ops_entries]
    cells = [(se, oe, args.L, args.c, args.max_steps, cap)
             for se in sets for oe in expanded_ops]
    # a pool that forks starts all its workers at once: no more than cells or cores
    jobs = min(args.jobs, len(cells), os.cpu_count() or 1)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor   # loaded only where it runs
        with ProcessPoolExecutor(max_workers=jobs) as ex:
            results = list(ex.map(_sweep_cell, cells))
    else:
        results = [_sweep_cell(c) for c in cells]
    summary = {"PASS": 0, "FAIL": 0, "INCONCLUSIVE": 0}
    for r in results:
        summary[r["verdict"]] += 1
    report = {
        "seed": args.seed,
        "cells": results,
        "summary": summary,
    }
    rows = [(r["set"], r["ops"], r["verdict"], r["distinct_count"],
             r["bound"], r["observed_k0"], r["observed_g"]) for r in results]
    code = 0
    if summary["FAIL"]:
        code = 1
    elif summary["INCONCLUSIVE"]:
        code = 2
    return report, rows, ("set", "ops", "verdict", "distinct", "bound", "k0", "g"), code


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="linset", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "csv", "text"), default="json")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("iterate", help="trace iterates of composed operations")
    p.add_argument("--set", required=True)
    p.add_argument("--ops", required=True)
    p.add_argument("--max-k", type=int, default=256, dest="max_k")
    common(p)
    p.set_defaults(func=cmd_iterate)

    p = sub.add_parser("residue", help="orbit of a residue set under aU+bU")
    p.add_argument("--set", required=True, help='e.g. "mod 12 {0,3,4}"')
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--g", type=int, default=None)
    p.add_argument("--max-steps", type=int, default=20000, dest="max_steps")
    common(p)
    p.set_defaults(func=cmd_residue)

    p = sub.add_parser("decompose", help="equality-case decomposition certificate")
    p.add_argument("--set", required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--g", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("dplus", help="iterated positive difference sets")
    p.add_argument("--set", required=True)
    p.add_argument("--max-k", type=int, default=128, dest="max_k")
    common(p)
    p.set_defaults(func=cmd_dplus)

    p = sub.add_parser("verify-thm61", help="bounded-composition stabilization check")
    p.add_argument("--set", required=True)
    p.add_argument("--ops", required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--c", type=int, default=10)
    p.add_argument("--max-steps", type=int, default=20000, dest="max_steps")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("construct", help="generate a named construction")
    p.add_argument("--kind", required=True,
                   choices=("ap", "bohr", "sparse", "parity", "scaled"))
    p.add_argument("--a", type=int, default=2)
    p.add_argument("--b", type=int, default=1)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--alpha", default="0")
    p.add_argument("--delta", default="1/6")
    p.add_argument("--N", type=int, default=1000)
    p.add_argument("--xs", default="1,4,27,256,3125,46656")
    p.add_argument("--bits", default="0")
    p.add_argument("--steps", type=int, default=5)
    common(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("sweep", help="cartesian stabilization sweep")
    p.add_argument("--sets", required=True, help="semicolon-separated set expressions")
    p.add_argument("--ops-list", required=True, dest="ops_list",
                   help="semicolon-separated op expressions; rand(n,L) allowed")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--c", type=int, default=10)
    p.add_argument("--max-steps", type=int, default=20000, dest="max_steps")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    common(p)
    p.set_defaults(func=cmd_sweep)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built on first use, not at import.  One parser serves every run()
    # call: parse_args fills a fresh Namespace each time and reads the
    # parser's defaults without changing them.
    return build_parser()


def run(argv) -> int:
    """Run one command; returns its exit code (see the module docstring)."""
    try:
        if _env_cap_error:      # a malformed LINSET_WINDOW_CAP is a usage error
            raise InputError(_env_cap_error)
        args = _parser().parse_args(argv)
        body, rows, header, code = args.func(args)
        report = {"schema": SCHEMA, "command": args.command, **body}
        if args.format == "json":
            out = render_json(report)
        elif args.format == "csv":
            out = render_csv(sorted(report.items()) if rows is None else rows, header)
        else:
            out = render_text(report)
    except UsageError as e:
        sys.stderr.write("usage error: %s\n" % e)
        return 3
    except InputError as e:
        sys.stderr.write("error: %s\n" % e)
        return 3
    except ResourceLimitExceeded as e:
        sys.stderr.write("resource limit: %s\n" % e)
        return 2
    except Exception as e:
        # a fault of the program, not of its input: neither FAIL nor usage
        sys.stderr.write("internal error: %s: %s\n" % (type(e).__name__, e))
        return 4
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(out)
        except OSError as e:
            sys.stderr.write("error: cannot write --out: %s\n" % e)
            return 3
    else:
        sys.stdout.write(out)
    return code


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
