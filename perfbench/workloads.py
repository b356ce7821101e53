"""The benchmark's workloads: which ``bernasym`` invocations each one runs.

A :class:`Task` is one CLI invocation, described by its parameters; both
passes turn it into the same argv (a child process end to end, an
in-process ``cli.main`` when traced).  Every task knows how to check its own
stdout with :mod:`checks`.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Mapping

import checks

#: Cartan matrices written to files for the ``--cartan FILE`` route; row-major,
#: ``cartan[i][j]`` pairs simple coroot i with simple root j.
CARTANS = {
    "A2": [[2, -1], [-1, 2]],
    "B2": [[2, -1], [-2, 2]],
    "C2": [[2, -2], [-1, 2]],
    "G2": [[2, -3], [-1, 2]],
    "A3": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
}


@dataclass(frozen=True)
class Task:
    """One CLI invocation.

    ``kind`` is ``table``, ``trace``, ``divisor``, ``parabolic``, ``local`` or
    ``poset``; ``route`` says how a table names its root system (``flags``,
    ``config`` for ``--config FILE``, ``cartan`` for ``--cartan FILE``).
    """

    kind: str
    series: str
    rank: int
    height: int = 0
    verify: bool = True
    route: str = "flags"
    theta: tuple[int, ...] = ()
    levi: tuple[int, ...] = ()
    points: tuple[tuple[str, tuple[int, ...]], ...] = ()

    @property
    def system(self) -> str:
        return f"{self.series}{self.rank}"

    @property
    def digest_key(self) -> str:
        """Tables print the same bytes with or without verification; ``--cartan`` names the system "custom"."""
        prefix = "cartan:" if self.route == "cartan" else ""
        return f"{prefix}{self.system}:h{self.height}"

    @property
    def divisor_text(self) -> str:
        return ";".join(f"{label}:{_csv(theta)}" for label, theta in self.points)

    def input_file(self, inputs: Path) -> Path | None:
        """Write the file a ``config``/``cartan`` table reads, and return its path."""
        if self.route == "config":
            path = inputs / f"{self.system}-h{self.height}.cfg"
            text = f"type={self.series}\nrank={self.rank}\nheight={self.height}\n"
        elif self.route == "cartan":
            path = inputs / f"{self.system}.json"
            text = json.dumps(CARTANS[self.system])
        else:
            return None
        if not path.exists():
            path.write_text(text, encoding="utf-8")
        return path

    def argv(self, inputs: Path) -> list[str]:
        if self.route == "config":
            return ["--config", str(self.input_file(inputs)), "table"]
        if self.route == "cartan":
            return ["--cartan", str(self.input_file(inputs)), "--height", str(self.height), "table"]
        argv = ["--type", self.series, "--rank", str(self.rank)]
        if self.levi:
            argv += ["--levi", _csv(self.levi)]
        if self.kind == "table":
            return argv + ["--height", str(self.height)] + ([] if self.verify else ["--no-verify"]) + ["table"]
        if self.kind == "trace":
            return argv + ["--theta", _csv(self.theta), "--method", "all", "trace"]
        if self.kind == "divisor":
            return argv + ["--divisor", self.divisor_text, "--format", "json", "divisor"]
        if self.kind == "local":
            return argv + ["--theta", _csv(self.theta), "strata", "local"]
        if self.kind == "poset":
            return argv + ["--height", str(self.height), "strata", "poset"]
        return argv + ["strata", "parabolic"]

    def errors(self, stdout: bytes, digests: Mapping[str, str]) -> list[str]:
        if self.kind == "table":
            return checks.table_errors(stdout, self.rank, self.height, digests.get(self.digest_key))
        if self.kind == "trace":
            return checks.trace_all_errors(stdout, self.theta)
        if self.kind == "divisor":
            return checks.divisor_errors(stdout, self.points)
        if self.kind == "local":
            return checks.local_errors(stdout, self.theta)
        if self.kind == "poset":
            return checks.poset_errors(stdout, self.rank - len(self.levi), self.height)
        return checks.parabolic_errors(stdout, self.rank)


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


# -- cli_mixed -----------------------------------------------------------------

SYSTEMS = [
    (series, rank)
    for series, lo, hi in (("A", 2, 10), ("B", 2, 10), ("C", 2, 10), ("D", 4, 10), ("E", 6, 8), ("F", 4, 4), ("G", 2, 2))
    for rank in range(lo, hi + 1)
]
#: Small verified tables (series, rank, height); each takes well under 0.1 s of table work.
CONFIG_TABLES = [("A", 2, 5), ("B", 2, 5), ("C", 2, 5), ("G", 2, 6), ("A", 3, 4), ("B", 3, 3), ("C", 3, 3), ("A", 4, 3), ("D", 4, 3)]
CARTAN_TABLES = [("A", 2, 5), ("B", 2, 5), ("C", 2, 5), ("G", 2, 6), ("A", 3, 4)]
MIXED_KINDS = ("trace", "divisor", "parabolic", "local", "poset", "config", "cartan")


def _coweight(rng: random.Random, rank: int, height: int) -> tuple[int, ...]:
    theta = [0] * rank
    for _ in range(height):
        theta[rng.randrange(rank)] += 1
    return tuple(theta)


def _levi(rng: random.Random, rank: int) -> tuple[int, ...]:
    return tuple(sorted(rng.sample(range(rank), rng.randint(0, rank - 1))))


def mixed_task(rng: random.Random, kind: str) -> Task:
    """Every kind stays near interpreter start-up cost: heights are capped so rank-10 series products stay small."""
    if kind in ("config", "cartan"):
        series, rank, height = rng.choice(CONFIG_TABLES if kind == "config" else CARTAN_TABLES)
        return Task("table", series, rank, height=height, route=kind)
    series, rank = rng.choice(SYSTEMS)
    if kind == "trace":
        return Task("trace", series, rank, theta=_coweight(rng, rank, rng.randint(1, 3 if rank <= 6 else 2)))
    if kind == "divisor":
        points = tuple((label, _coweight(rng, rank, rng.randint(1, 2))) for label in ("x", "y"))
        return Task("divisor", series, rank, points=points)
    if kind == "parabolic":
        return Task("parabolic", series, rank)
    levi = _levi(rng, rank)
    if kind == "local":
        return Task("local", series, rank, levi=levi, theta=_coweight(rng, rank - len(levi), rng.randint(0, 3)))
    return Task("poset", series, rank, levi=levi, height=rng.randint(1, 3))


def mixed_tasks(seed: int) -> Iterator[Task]:
    """A closed loop cycles through the seven kinds in a fixed order; the seed draws each one's parameters."""
    rng = random.Random(seed)
    for kind in itertools.cycle(MIXED_KINDS):
        yield mixed_task(rng, kind)


# -- the workloads ---------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    #: zero-work invocation on the workload's root system, timed as ``setup_s``
    setup: Task
    tasks: Callable[[int], Iterator[Task]]


def _fixed(task: Task) -> Callable[[int], Iterator[Task]]:
    return lambda seed: itertools.repeat(task)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verified_deep", Task("table", "A", 3, verify=False), _fixed(Task("table", "A", 3, height=9))),
        Workload(
            "unverified_wide",
            Task("table", "E", 6, verify=False),
            _fixed(Task("table", "E", 6, height=5, verify=False)),
        ),
        Workload("cli_mixed", Task("table", "D", 6, verify=False), mixed_tasks),
    )
}
