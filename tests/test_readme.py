"""The README runs as written: every `linset ...` line of its command block,
and its library example."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from linset.cli import run

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _blocks(lang):
    return re.findall(r"^```%s\n(.*?)^```" % lang, README, re.S | re.M)


def _commands():
    block = next(b for b in _blocks("sh") if "linset iterate" in b)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("linset ")]


def test_readme_lists_every_subcommand():
    assert [argv[0] for argv in _commands()] == [
        "iterate", "verify-thm61", "decompose", "dplus", "residue", "construct", "sweep"]


@pytest.mark.parametrize("argv", _commands(), ids=lambda argv: argv[0])
def test_readme_command_exits_0(argv, capsys):
    assert run(argv) == 0, capsys.readouterr().err


def test_readme_library_example():
    (code,) = _blocks("python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert out.getvalue().split() == ["PASS", "3", "AP(2,3)"]
