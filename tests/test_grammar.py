"""Every Python file of the project parses under the grammar of the oldest supported Python.

``ast.parse`` with ``feature_version`` checks the grammar only (``except*``, ``match`` and the like), not
which standard-library names exist in that version; the CI job on that version runs the suite itself.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
OLDEST = (3, 10)  # pyproject's requires-python floor
SOURCES = sorted(path for folder in ("src", "tests", "perfbench", "demos") for path in (ROOT / folder).rglob("*.py"))


def test_sources_found():
    assert len(SOURCES) >= 30


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_parses_under_the_oldest_grammar(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=OLDEST)


def test_newer_grammar_rejected():
    # except* is 3.11 grammar: the check would catch it
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=OLDEST)
