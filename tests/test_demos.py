"""Every demo script runs to completion against the in-tree package."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS, "no demo scripts found"


@pytest.mark.parametrize("demo", DEMOS, ids=[path.stem for path in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("BERNASYM_CACHE_DIR", None)
    result = subprocess.run(
        [sys.executable, str(demo)], env=env, cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr


def test_star_import_binds_every_public_name():
    # the README quickstart starts with `from bernasym import *`: every exported name must exist
    import bernasym

    namespace: dict = {}
    exec("from bernasym import *", namespace)
    assert set(bernasym.__all__) <= set(namespace)
    assert not {"MonoidSeries", "geometric_factor"} & set(namespace)


def readme_public_name_list() -> str:
    """The README's list of public names: from its opening sentence up to the demos paragraph."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return readme.split("The public names (", 1)[1].split("Narrative walkthroughs", 1)[0]


def test_readme_names_every_public_name():
    # a public name needs a documented user: each one appears in the list as code, `name` or `name(...)`
    import bernasym

    listing = readme_public_name_list()
    assert [name for name in bernasym.__all__ if not re.search(rf"`{re.escape(name)}\b", listing)] == []


def test_readme_public_names_exist():
    # every code span in the list that reads as a Python name, `name`, `Class.attr` or `name()`, resolves on
    # bernasym, so a removed name cannot linger in the docs; flags, paths and formulas are not names
    import bernasym

    def resolves(path: str) -> bool:
        owner = bernasym
        for attr in path.split("."):
            if not hasattr(owner, attr):
                return False
            owner = getattr(owner, attr)
        return True

    spans = re.findall(r"`([^`]*)`", readme_public_name_list())
    names = [span for span in spans if re.fullmatch(r"[A-Za-z_]\w*(\.\w+)*(\(\))?", span)]
    assert [name for name in names if not resolves(name.removeprefix("bernasym.").removesuffix("()"))] == []


def test_readme_quickstart_runs(capsys):
    # the "Library quickstart" block of README.md, run as it is written
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library quickstart", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    exec(block, namespace)
    assert capsys.readouterr().out == "1 - q\n"
    assert len(namespace["table"].entries) == 28  # the coweights of G2 of height <= 6: C(8, 2)
