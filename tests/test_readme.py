"""The README's Library example and CLI lines run as written."""

import re
import shlex
from pathlib import Path

import pytest

from mhscalc.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text()


def test_readme_library_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", TEXT, re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


CLI_BLOCK = re.search(r"^## CLI\n\n```sh\n(.*?)^```$", TEXT, re.M | re.S).group(1)
CLI_LINES = [line for line in CLI_BLOCK.splitlines() if line.startswith("mhscalc ")]


@pytest.mark.parametrize(
    "line", CLI_LINES, ids=[line.partition("#")[0].strip() for line in CLI_LINES]
)
def test_readme_cli_line_runs(capsys, line):
    """Exit 0, and where the comment says `-> value`, that value is printed."""
    command, _, comment = line.partition("#")
    code = main(shlex.split(command)[1:])
    out = capsys.readouterr().out
    assert code == 0
    expected = re.match(r"\s*-> (\S+)", comment)
    if expected:
        assert out == expected.group(1) + "\n"
