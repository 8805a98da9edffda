"""README.md's examples run against the package in src/: every fenced
python block, every command line of the "Command line" section, and its
table of the formats each command writes."""
from __future__ import annotations

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from permniven.cli import run

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README, re.M | re.S)
COMMANDS = [
    line
    for block in re.findall(r"^```sh\n(.*?)^```$", README, re.M | re.S)
    for line in re.findall(r"^permniven (.*)$", block, re.M)
]
FORMATS = ("text", "json", "csv", "bfile")
FORMAT_ROWS = re.findall(r"^\| (`.*?) +\|(.*)\|$", README, re.M)
# a small run of each command the format table names
TABLE_ARGV = {
    "`check`": [["check", "2448"]],
    "`search`": [["search", "--k", "2"]],
    "`families`, `catalog`": [["families", "--k", "10"], ["catalog", "--k", "2"]],
    "`repdigit` (point)": [["repdigit", "--n", "1"]],
    "`repdigit --grid`": [["repdigit", "--grid", "--max-exp", "1"]],
    "`repdigit --sweep`": [["repdigit", "--sweep", "100"]],
    "`order`": [["order", "--m", "7"]],
    "`census`": [["census", "--max", "99"]],
    "`probe-zero-insertion`": [["probe-zero-insertion", "18", "0", "1"]],
}


def _env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs(block):
    done = subprocess.run(
        [sys.executable, "-c", block], env=_env(), capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_line_exits_as_its_comment_says(capsys, line):
    # a line whose comment names no exit code exits 0
    stated = re.search(r"# exit (\d)", line)
    assert run(shlex.split(line, comments=True)) == (int(stated.group(1)) if stated else 0)
    capsys.readouterr()


def test_readme_format_table_is_what_each_command_writes(capsys):
    assert sorted(row for row, _ in FORMAT_ROWS) == sorted(TABLE_ARGV)
    for row, cells in FORMAT_ROWS:
        written = [cell.strip() == "yes" for cell in cells.split("|")]
        allowed = ", ".join(f for f, w in zip(FORMATS, written) if w)
        for argv in TABLE_ARGV[row]:
            for fmt, w in zip(FORMATS, written):
                code = run([*argv, "--format", fmt])
                refusal = f"error: format {fmt!r} is not valid here (choose from {allowed})\n"
                assert (capsys.readouterr().err == refusal) is not w, (argv, fmt)
                assert (code == 2) is not w, (argv, fmt, code)


def test_module_entry_point_exits_with_the_verdict():
    done = subprocess.run(
        [sys.executable, "-m", "permniven.cli", "check", "13"],
        env=_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1, done.stderr
    assert done.stdout == "13 is not a PINN: witness 13 mod 4 = 1\n"
