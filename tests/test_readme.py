"""The commands README.md gives for the paper's bounds print what it says."""

import re
import shlex
from pathlib import Path

import pytest

from mechdock.cli import main
from mechdock.exactnum import EPS1, format_value, parse_value, tv

README = (Path(__file__).parent.parent / "README.md").read_text()
SECTION = README.split("## The paper's bounds\n", 1)[1].split("\n## ", 1)[0]

# A table row: | bound | `mechdock <args>` | `<summary line>` |
ROW = re.compile(r"^\|[^|]*\| `mechdock ([^`]*)` \| `([^`]*)` \|$", re.M)
TABLE_ROWS = ROW.findall(SECTION)

# The indented block: "$ mechdock <args>", then the lines it prints.
BLOCK = re.search(r"^    \$ mechdock (.*)\n((?:    .*\n)+)", SECTION, re.M)
BLOCK_RUN = (BLOCK[1], [line[4:] for line in BLOCK[2].splitlines()])


def test_the_section_lists_every_bound():
    assert len(TABLE_ROWS) == 5
    assert BLOCK_RUN[0] == "bounds --optimize" and len(BLOCK_RUN[1]) == 6


@pytest.mark.parametrize(
    "args, printed",
    [(args, [line]) for args, line in TABLE_ROWS] + [BLOCK_RUN],
    ids=[args for args, _ in TABLE_ROWS] + [BLOCK_RUN[0]],
)
def test_a_readme_command_prints_its_lines(args, printed, capsys):
    assert main(shlex.split(args)) == 0
    assert capsys.readouterr().out.splitlines() == printed


def test_the_grammar_example_reads_and_writes_back_as_itself():
    example = re.search(r"\(`([^`]*)` is 1 − 2ε₁\)", README)[1]
    assert example == "1-2e1"
    assert parse_value(example) == tv(1) - 2 * EPS1
    assert format_value(parse_value(example)) == example
