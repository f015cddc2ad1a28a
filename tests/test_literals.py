"""Long ``{...}`` literals parsed in one numpy pass (``cli._int_array``),
checked against the regex scan it fronts (``oracle.int_literal``): the same
values, or the same error with the same message and position."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
import linset.cli as cli
from linset.cli import SetSyntaxError, parse_residue_set, parse_set_expression
from linset.epset import InputError, ResourceLimitExceeded

PARSERS = [("", parse_set_expression), ("mod 7 ", parse_residue_set)]

# magnitudes on both sides of 18 digits, of 2^62 and of 2^63
BASES = [0, 10 ** 17, 10 ** 18 - 200, 10 ** 18, 2 ** 62, 2 ** 63 - 200, 2 ** 63, 2 ** 64]
# members that need care, and tokens that both paths must refuse alike
ODD = ["-0", "+0", "00", "-007", "+12"]
BAD = ["1_000", "1 2", " 3", "4 ", "1-2", "--1", "+-1", "", "-", "+", "٣", "1²", "x"]


def outcome(parse, text):
    """What a parse returns or raises, in a comparable form."""
    try:
        return "value", parse(text)
    except SetSyntaxError as e:
        return "syntax", str(e), e.pos
    except (InputError, ResourceLimitExceeded) as e:
        return type(e).__name__, str(e)


def assert_matches_reference(text):
    for prefix, parse in PARSERS:
        got = outcome(parse, prefix + text)
        with mock.patch.object(cli, "_int_literal", oracle.int_literal):
            want = outcome(parse, prefix + text)
        assert got == want, prefix + text[:80]


def filler(base, count):
    # count members near base: with them a body passes 256 characters
    return [str(base + i) for i in range(count)]


@st.composite
def literals(draw):
    # weighted toward bases that fit in 18 digits, and bodies with no bad
    # token, so that many long bodies take the array path
    base = draw(st.sampled_from(BASES[:3] * 3 + BASES[3:])) * draw(st.sampled_from([1, -1]))
    member = st.tuples(st.integers(-40, 40), st.sampled_from(["", "", "+", "0"])).map(
        lambda t: ("-" if base + t[0] < 0 else t[1]) + str(abs(base + t[0])))
    tokens = draw(st.lists(st.one_of(member, st.sampled_from(ODD)), max_size=8))
    if draw(st.integers(0, 3)) == 0:
        tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(BAD)))
    pad = filler(base, draw(st.sampled_from([0, 30, 120])))
    at = draw(st.integers(0, len(pad)))
    end = draw(st.sampled_from(["}", "", "}}", " } ", ",}", "}1"]))
    return "{" + ",".join(pad[:at] + tokens + pad[at:]) + end


@given(literals())
@settings(max_examples=400, deadline=None)
def test_literal_matches_regex_reference(text):
    assert_matches_reference(text)


@pytest.mark.parametrize("token", ODD + BAD + ["9" * 18, "-" + "9" * 18, "9" * 19, "0" * 18 + "1",
                                                str(2 ** 62), str(-2 ** 63), str(2 ** 63)])
@pytest.mark.parametrize("pad", [0, 120])
def test_named_tokens_match_regex_reference(token, pad):
    members = filler(-60, pad)
    for at in (0, len(members) // 2, len(members)):
        body = ",".join(members[:at] + [token] + members[at:])
        assert_matches_reference("{" + body + "}")
        assert_matches_reference("{" + body)


@st.composite
def bodies(draw):
    # comma-split tokens over 0-9, +, -, space and x, mostly well formed, so
    # that both the refusals and the values are compared
    digits = st.text("0123456789", min_size=1, max_size=19)
    token = st.one_of(st.tuples(st.sampled_from(["", "+", "-"]), digits).map("".join),
                      st.text("0123456789+- x", max_size=4))
    return ",".join(draw(st.lists(token, min_size=1, max_size=40)))


@given(st.one_of(bodies(), st.text("0123456789,+- x", min_size=1, max_size=60)))
@settings(max_examples=500, deadline=None)
def test_int_array_matches_digit_accumulation(body):
    got, want = cli._int_array(body), oracle.int_array(body)
    if want is None:
        assert got is None
    else:
        assert got.dtype == np.int64 and got.tolist() == want.tolist()


def test_long_literal_takes_the_array_path():
    text = "{%s}" % ",".join(filler(-60, 120))
    sc = cli._Scanner(text)
    xs = cli._int_literal(sc)
    assert isinstance(xs, np.ndarray) and xs.dtype == np.int64
    assert xs.tolist() == list(range(-60, 60)) and sc.i == len(text)
    assert isinstance(cli._int_literal(cli._Scanner("{1,5,7}")), list)


def test_long_literal_fields_are_python_ints():
    # the array path must not leak numpy scalars into EPSet or ResidueSet
    members = ",".join(str(x) for x in range(-400, 400, 3))
    s = parse_set_expression("U({%s},AP+(1,3,500))" % members)
    t = parse_set_expression("{%s}" % members)
    u = parse_residue_set("mod 1000 {%s}" % members)
    for value in s._key() + t._key() + (u.modulus, u.mask):
        assert type(value) is int


def test_parse_2_18_member_literal():
    # members 3i - 2^19 for i < 2^18, descending, every fifth with a '+'
    n = 1 << 18
    xs = [3 * i - (1 << 19) for i in reversed(range(n))]
    body = ",".join(("+%d" if i % 5 == 0 and x > 0 else "%d") % x for i, x in enumerate(xs))
    s = parse_set_expression("{%s}" % body)
    u = parse_residue_set("mod %d {%s}" % (3 * n, body))
    every_third = ((1 << 3 * n) - 1) // 7             # bits 0, 3, ..., 3(n-1)
    assert s._key() == (1, -(1 << 19), 3 * (n - 1) - (1 << 19), every_third, 0, 0)
    # 2^19 = 2 mod 3, so every member is 1 mod 3 and hits one class mod 3n
    assert (u.modulus, u.mask) == (3 * n, every_third << 1)
