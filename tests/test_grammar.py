"""Every Python file of the project parses under the grammar of the oldest supported Python, and uses no
standard-library name that is newer.

``ast.parse`` with ``feature_version`` checks the grammar only (``except*``, ``match`` and the like), not
which standard-library names exist in that version; ``newer_names`` finds the 3.11 names in a table below.
The CI job on the oldest version runs the suite itself.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
OLDEST = (3, 10)  # pyproject's requires-python floor
SOURCES = sorted(path for folder in ("src", "tests", "perfbench", "demos") for path in (ROOT / folder).rglob("*.py"))

#: standard-library names new in Python 3.11, by module; "builtins" holds the bare names
NEW_MODULES = {"tomllib"}
NEW_NAMES = {
    "builtins": {"ExceptionGroup", "BaseExceptionGroup"},
    "typing": {"Self", "Never", "LiteralString", "assert_never"},
    "enum": {"StrEnum"},
    "datetime": {"UTC"},
    "hashlib": {"file_digest"},
    "operator": {"call"},
    "math": {"cbrt", "exp2"},
    "asyncio": {"TaskGroup", "timeout"},
    "contextlib": {"chdir"},
}
NEW_METHODS = {"add_note"}  # BaseException.add_note


def newer_names(source: str) -> set[str]:
    """The 3.11 names that source uses: an import of a new module or of a new name from an old one, a new
    name read as an attribute of its module (imported under any name), a new builtin, or a new method."""
    nodes = list(ast.walk(ast.parse(source)))
    local = {alias.asname or alias.name: alias.name for node in nodes if isinstance(node, ast.Import)
             for alias in node.names}
    found = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names if alias.name.partition(".")[0] in NEW_MODULES}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            found |= {module} & NEW_MODULES
            found |= {f"{module}.{alias.name}" for alias in node.names if alias.name in NEW_NAMES.get(module, ())}
        elif isinstance(node, ast.Attribute):
            module = local.get(node.value.id, node.value.id) if isinstance(node.value, ast.Name) else None
            if node.attr in NEW_METHODS:
                found.add(f".{node.attr}")
            elif node.attr in NEW_NAMES.get(module, ()):
                found.add(f"{module}.{node.attr}")
        elif isinstance(node, ast.Name) and node.id in NEW_NAMES["builtins"]:
            found.add(node.id)
    return found


def test_sources_found():
    assert len(SOURCES) >= 30


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_parses_under_the_oldest_grammar(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=OLDEST)


def test_newer_grammar_rejected():
    # except* is 3.11 grammar: the check would catch it
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=OLDEST)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_uses_no_newer_standard_library_name(path):
    assert newer_names(path.read_text(encoding="utf-8")) == set()


NEWER_SNIPPETS = [
    ("tomllib", "import tomllib"),
    ("tomllib", "from tomllib import loads"),
    ("typing.Self", "from typing import Self"),
    ("typing.Never", "import typing as t\nx: t.Never"),
    ("ExceptionGroup", "raise ExceptionGroup('two', [ValueError(), KeyError()])"),
    (".add_note", "exc.add_note('while loading')"),
    ("math.cbrt", "import math\nmath.cbrt(8.0)"),
    ("contextlib.chdir", "import contextlib\nwith contextlib.chdir('..'):\n    pass"),
    ("datetime.UTC", "from datetime import UTC"),
]


@pytest.mark.parametrize("name, snippet", NEWER_SNIPPETS, ids=[name for name, _ in NEWER_SNIPPETS])
def test_newer_standard_library_name_caught(name, snippet):
    assert newer_names(snippet) == {name}


def test_older_names_pass():
    # os.chdir is old; contextlib.chdir is new, and so only a name read through its module counts
    assert newer_names("import math, os\nfrom typing import Sequence\nos.chdir('..')\nmath.sqrt(2.0)\n") == set()
