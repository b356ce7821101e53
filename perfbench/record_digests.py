"""Record the SHA-256 of every table the benchmark checks, each from a *verified* CLI run.

Tables print the same bytes with and without ``--verify``, so an unverified
workload is checked against the digest of the run that cross-checked all
three routes.  Run from the repository root, only after a deliberate change
of the output format::

    python3 perfbench/record_digests.py
"""

from __future__ import annotations

import dataclasses
import json
import sys

import checks
from run import REPO_ROOT, Workdir, child_env, run_cli
from workloads import CARTAN_TABLES, CONFIG_TABLES, WORKLOADS, Task


def table_tasks() -> list[Task]:
    tasks = {dataclasses.replace(w.setup, verify=True) for w in WORKLOADS.values()}
    tasks |= {dataclasses.replace(next(w.tasks(0)), verify=True) for w in WORKLOADS.values()}
    tasks |= {Task("table", s, r, height=h) for s, r, h in CONFIG_TABLES}
    tasks |= {Task("table", s, r, height=h, route="cartan") for s, r, h in CARTAN_TABLES}
    return sorted((t for t in tasks if t.kind == "table"), key=lambda t: t.digest_key)


def main() -> int:
    digests = {}
    env = child_env(REPO_ROOT)
    with Workdir() as work:
        for task in table_tasks():
            result = run_cli(task.argv(work.inputs), env, work)
            if result.errors:
                sys.stderr.write(f"{task.digest_key}: {result.errors}\n")
                return 1
            digests[task.digest_key] = checks.sha256(result.stdout)
            print(f"{task.digest_key} {digests[task.digest_key]} ({result.wall_s:.1f} s)")
    checks.DIGESTS_FILE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
