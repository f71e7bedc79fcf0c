"""README.md stays true: its Python blocks run and its shell recipes parse.

Every ```python block runs in a fresh namespace.  Every line of a ```sh
block that starts with ``oqf`` (a trailing ``# comment`` removed) parses
with the CLI's own parser; every subcommand in ``cli.COMMANDS`` and every
one that CI's "README CLI recipes at toy size" step runs is shown there.
"""

import re
import shlex
from pathlib import Path

import pytest

from oqf.cli import COMMANDS, build_parser

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
CI_STEP = "README CLI recipes at toy size"


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README, flags=re.M | re.S)


def _oqf_lines():
    lines = []
    for block in _blocks("sh"):
        for line in block.splitlines():
            line = line.split(" #", 1)[0].strip()
            if line.startswith("oqf "):
                lines.append(line)
    return lines


def _shown_subcommands():
    return {shlex.split(line)[1] for line in _oqf_lines()}


def _ci_step_subcommands():
    """The subcommands of every `oqf` call in the CI step's run script."""
    text = (ROOT / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
    start = text.index(f"- name: {CI_STEP}\n")
    indent = text[:start].rsplit("\n", 1)[1]
    end = text.find(f"\n{indent}- name:", start)
    step = text[start:] if end < 0 else text[start:end]
    return set(re.findall(r"(?:^|[\s|;])oqf ([a-z][a-z-]*)", step))


def test_readme_has_python_and_cli_blocks():
    assert _blocks("python")
    assert _oqf_lines()


@pytest.mark.parametrize("index", range(len(_blocks("python"))))
def test_readme_python_block_runs(index, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    source = _blocks("python")[index]
    exec(compile(source, f"README.md python block {index}", "exec"), {"__name__": "readme"})


@pytest.mark.parametrize("line", _oqf_lines())
def test_readme_cli_line_parses(line):
    args = build_parser().parse_args(shlex.split(line)[1:])
    assert args.command in COMMANDS


def test_readme_shows_every_subcommand():
    missing = set(COMMANDS) - _shown_subcommands()
    assert not missing, sorted(missing)


def test_readme_shows_every_subcommand_of_the_ci_recipes():
    run = _ci_step_subcommands()
    assert run, f"no oqf call found in the CI step {CI_STEP!r}"
    missing = run - _shown_subcommands()
    assert not missing, sorted(missing)
