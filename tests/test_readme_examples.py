"""Every command of the README "Command line" block prints what it printed
when its expected transcript was recorded, byte for byte.

The commands are read from the README itself; the poset and quiver files
they name are the committed inputs in tests/data. Each transcript in
tests/data/readme holds the command line, its exit code and its stdout."""

import contextlib
import io
import shlex
from pathlib import Path

import pytest

from dequiv.cli import run

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"
INPUTS = ("diamond.json", "kronecker.json", "a2.json")


def readme_commands():
    """The `dequiv ...` lines of the README "Command line" block."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("dequiv ")]


def transcript(command: str) -> str:
    """Command line, exit code and stdout of one in-process CLI run."""
    argv = [str(DATA / a) if a in INPUTS else a for a in shlex.split(command)[1:]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    return "$ %s\nexit %d\n%s" % (command, code, out.getvalue())


COMMANDS = readme_commands()


def test_readme_block_has_twelve_commands():
    assert len(COMMANDS) == 12


@pytest.mark.parametrize("index", range(len(COMMANDS)),
                         ids=[c[len("dequiv "):] for c in COMMANDS])
def test_readme_example_output_is_unchanged(index):
    expected = (DATA / "readme" / ("%02d.txt" % (index + 1))).read_text()
    assert transcript(COMMANDS[index]) == expected
