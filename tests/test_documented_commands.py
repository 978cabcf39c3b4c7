"""Every ``python -m repro …`` command the docs show still parses, and
every code name the prose docs show still resolves.

Each documented command line is resolved through
``repro.__main__.COMMANDS`` (or, for ``python -m <module>``, to that
module) and its flags go through the target's ``build_parser()``'s
``parse_args`` — nothing runs.  ``[optional]`` groups, ``# comments``
and anything after a shell operator are ignored.

In README, DESIGN, EXPERIMENTS and PROTOCOL, a back-ticked name of
three kinds must resolve: a dotted ``repro.…`` name (a module, then
attributes), ``Class.attr`` for a class defined in ``src/`` (a class
attribute, or one its methods set on ``self``; ``Class.a/b`` names
both) and a repo path (from the root, ``src/`` or ``src/repro/``;
``./`` marks a path relative to where a command runs, such as an
output directory, and is not checked).  A back-ticked ``--flag`` there
outside a ``python -m`` command must be an option of a ``repro``
command's parser or an ``add_argument`` literal of ``bench/*.py``
(read as source: the bench scripts are not imported).
"""

import ast
import inspect
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


PROSE = [ROOT / name for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md", "PROTOCOL.md")]
SPAN = re.compile(r"(?<!`)`([^`\n]+)`(?!`)")
DOTTED = re.compile(r"(repro(?:\.\w+)+)(?:\(.*\))?")
CLASS_ATTR = re.compile(r"([A-Z]\w*)\.(\w+(?:/\w+)*)(?:\(.*\))?")
#: A relative path with at least one directory part, maybe a line suffix.
REPO_PATH = re.compile(r"((?:[a-z_][\w.-]*/)+[\w.-]*)(?::\d+(?:[-–]\d+)?)?")


def _src_classes() -> dict[str, list[str]]:
    """Class name -> the modules of ``src/`` that define it."""
    src = ROOT / "src"
    found: dict[str, list[str]] = {}
    for path in sorted(src.rglob("*.py")):
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                found.setdefault(node.name, []).append(module)
    return found


def _prose_spans():
    """(``FILE:line``, span) for each inline-code span outside fences."""
    for path in PROSE:
        fenced = False
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if line.lstrip().startswith("```"):
                fenced = not fenced
                continue
            if fenced:
                continue
            for span in SPAN.findall(line):
                yield f"{path.name}:{lineno}", span.strip()


def _documented_names():
    classes = _src_classes()
    for where, span in _prose_spans():
        if DOTTED.fullmatch(span) or REPO_PATH.fullmatch(span):
            yield where, span, None
        else:
            match = CLASS_ATTR.fullmatch(span)
            if match and match.group(1) in classes:
                yield where, span, classes[match.group(1)]


def _dotted_resolves(name: str) -> bool:
    parts = name.split(".")
    for i in range(len(parts), 0, -1):
        try:
            target = import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for attr in parts[i:]:
            if not hasattr(target, attr):
                return False
            target = getattr(target, attr)
        return True
    return False


def _class_has(cls: type, attr: str) -> bool:
    if hasattr(cls, attr):
        return True
    pattern = re.compile(rf"\bself\.{attr}\b")
    for klass in cls.__mro__:
        if klass.__module__.startswith("repro.") and pattern.search(inspect.getsource(klass)):
            return True
    return False


def _name_resolves(span: str, modules) -> bool:
    if modules is not None:
        name, attrs = CLASS_ATTR.fullmatch(span).groups()
        defined = [getattr(import_module(module), name, None) for module in modules]
        defined = [cls for cls in defined if isinstance(cls, type)]
        return all(any(_class_has(cls, attr) for cls in defined) for attr in attrs.split("/"))
    dotted = DOTTED.fullmatch(span)
    if dotted:
        return _dotted_resolves(dotted.group(1))
    path = REPO_PATH.fullmatch(span).group(1)
    return any((base / path).exists() for base in (ROOT, ROOT / "src", ROOT / "src" / "repro"))


def test_documented_names_resolve():
    names = list(_documented_names())
    # Guard against the patterns silently matching nothing.
    assert len(names) >= 150
    stale = [f"{where}: `{span}`" for where, span, modules in names
             if not _name_resolves(span, modules)]
    assert stale == [], "stale names in the docs:\n" + "\n".join(stale)


FLAG = re.compile(r"(?<![\w-])--[a-z][\w-]*")


def _documented_flags():
    for where, span in _prose_spans():
        if "python -m" not in span:  # test_documented_command_parses has those
            for flag in FLAG.findall(span):
                yield where, flag


def _known_flags() -> set[str]:
    flags = set()
    for target, _usage in COMMANDS.values():
        module, *name = target.split(":")
        flags.update(import_module(module).build_parser(*name)._option_string_actions)
    for path in sorted((ROOT / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_argument"
            ):
                flags.update(
                    arg.value for arg in node.args
                    if isinstance(arg, ast.Constant) and str(arg.value).startswith("--")
                )
    return flags


def test_documented_flags_exist():
    flags = list(_documented_flags())
    # Guard against the pattern silently matching nothing.
    assert len(flags) >= 20
    known = _known_flags()
    unknown = [f"{where}: `{flag}`" for where, flag in flags if flag not in known]
    assert unknown == [], "flags no parser accepts:\n" + "\n".join(unknown)
