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


def test_readme_names_every_public_name():
    # a public name needs a documented user: each one appears in README.md as code, `name` or `name(...)`
    import bernasym

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert [name for name in bernasym.__all__ if not re.search(rf"`{re.escape(name)}\b", readme)] == []


def test_readme_quickstart_runs(capsys):
    # the "Library quickstart" block of README.md, run as it is written
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library quickstart", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    exec(block, namespace)
    assert capsys.readouterr().out == "1 - q\n"
    assert len(namespace["table"].entries) == 28  # the coweights of G2 of height <= 6: C(8, 2)
