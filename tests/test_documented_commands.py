"""Every ``python -m repro …`` command the docs show still parses.

Each documented command line is resolved through
``repro.__main__.COMMANDS`` (or, for ``python -m <module>``, to that
module) and its flags go through the target's ``build_parser()``'s
``parse_args`` — nothing runs.  ``[optional]`` groups, ``# comments``
and anything after a shell operator are ignored.
"""

import re
import shlex
from importlib import import_module
from pathlib import Path

import pytest

from repro.__main__ import COMMANDS

ROOT = Path(__file__).resolve().parents[1]
DOCS = [
    ROOT / "README.md",
    ROOT / "DESIGN.md",
    ROOT / "EXPERIMENTS.md",
    ROOT / "PROTOCOL.md",
    *sorted((ROOT / "examples").glob("*.py")),
    ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
    ROOT / ".github" / "workflows" / "ci.yml",
]
#: The module after ``-m`` and the rest of the command, up to the end
#: of its inline-code span or of the line.
COMMAND = re.compile(r"python -m (repro[\w.]*)([^`]*)")
SHELL_OPERATORS = {">", ">>", "2>", "|", "&&", "||", ";"}


def _documented_commands():
    for path in DOCS:
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            for match in COMMAND.finditer(line):
                where = f"{path.relative_to(ROOT)}:{lineno}"
                yield pytest.param(*match.groups(), id=where)


def _words(rest: str) -> list[str]:
    words = []
    depth = 0
    for word in shlex.split(rest, comments=True):
        if word in SHELL_OPERATORS:
            break
        depth += word.count("[")
        if depth == 0:
            words.append(word)
        depth -= word.count("]")
    return words


def test_docs_show_commands():
    # Guard against the pattern silently matching nothing.
    assert len(list(_documented_commands())) >= 20


@pytest.mark.parametrize("module, rest", _documented_commands())
def test_documented_command_parses(module, rest):
    args = _words(rest)
    name = []
    if module == "repro":
        if not args:
            return  # the overview
        command, *args = args
        assert command in COMMANDS, f"no command {command!r} in repro.__main__"
        module, *name = COMMANDS[command][0].split(":")
    parser = import_module(module).build_parser(*name)
    try:
        parser.parse_args(args)
    except SystemExit as exc:
        pytest.fail(f"{module} rejects {args} (exit {exc.code})")
