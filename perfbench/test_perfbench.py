"""Tests of the benchmark's own checks: a corrupted table, a stray cache directory and a failing route are caught.

Run from the repository root with ``python3 -m pytest perfbench`` or
``python3 perfbench/test_perfbench.py``.
"""

from __future__ import annotations

import itertools
import json
import os
import unittest
from unittest import mock

import checks
import run
import traced
from workloads import Task, Workload, mixed_tasks


def _rewrite(stdout: bytes, theta: list[int], trace: list[list[int]]) -> bytes:
    obj = json.loads(stdout)
    for entry in obj["entries"]:
        if entry["theta"] == theta:
            entry["trace"] = trace
    return (json.dumps(obj, indent=2) + "\n").encode()


class TableChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls) -> None:
        cls.task = Task("table", "A", 2, height=5)
        cls.digests = checks.load_digests()
        with run.Workdir() as work:
            result = run.run_cli(cls.task.argv(work.inputs), run.child_env(run.REPO_ROOT), work)
        assert not result.errors, result.errors
        cls.stdout = result.stdout

    def test_verified_output_passes(self) -> None:
        self.assertEqual(self.task.errors(self.stdout, self.digests), [])

    def test_one_flipped_coefficient_is_caught(self) -> None:
        obj = json.loads(self.stdout)
        entry = obj["entries"][-1]
        (exponent, coefficient), *rest = entry["trace"]
        corrupted = _rewrite(self.stdout, entry["theta"], [[exponent, -coefficient], *rest])
        errors = self.task.errors(corrupted, self.digests)
        self.assertTrue(any("sha256" in e for e in errors), errors)
        self.assertTrue(any("at q=1" in e for e in errors), errors)

    def test_wrong_simple_coroot_is_caught(self) -> None:
        corrupted = _rewrite(self.stdout, [1, 0], [[0, 1], [2, -1]])
        errors = checks.table_errors(corrupted, 2, 5, checks.sha256(corrupted))
        self.assertEqual(errors, ["simple coroot [1, 0] has trace [(0, 1), (2, -1)], expected 1 - q"])

    def test_missing_entry_is_caught(self) -> None:
        obj = json.loads(self.stdout)
        del obj["entries"][3]
        corrupted = (json.dumps(obj, indent=2) + "\n").encode()
        errors = checks.table_errors(corrupted, 2, 5, checks.sha256(corrupted))
        self.assertEqual(len(errors), 1)
        self.assertIn("expected C(5+2,2) = 21", errors[0])


class Hermeticity(unittest.TestCase):
    def test_stray_cache_directory_is_caught(self) -> None:
        with run.Workdir() as work:
            env = run.child_env(run.REPO_ROOT)
            self.assertEqual(checks.hermetic_errors(work.cwd, env), [])
            env[checks.CACHE_ENV_VAR] = str(work.cwd / "cache")
            result = run.run_cli(Task("table", "A", 2, height=2).argv(work.inputs), env, work)
            self.assertEqual(result.errors, [])
            errors = checks.hermetic_errors(work.cwd, env)
        self.assertEqual(
            errors,
            [f"{checks.CACHE_ENV_VAR} is set for the child", "the run left files in its working directory: ['cache']"],
        )

    def test_children_never_see_the_cache_variable(self) -> None:
        os.environ[checks.CACHE_ENV_VAR] = "somewhere"
        try:
            self.assertNotIn(checks.CACHE_ENV_VAR, run.child_env(run.REPO_ROOT))
        finally:
            del os.environ[checks.CACHE_ENV_VAR]


class TextChecks(unittest.TestCase):
    def test_parse_poly_text(self) -> None:
        self.assertEqual(checks.parse_poly_text("1 - q - 2q^2 + q^-3"), {0: 1, 1: -1, 2: -2, -3: 1})
        self.assertEqual(checks.parse_poly_text("-q^2"), {2: -1})
        self.assertEqual(checks.parse_poly_text("0"), {})

    def test_trace_routes_must_agree(self) -> None:
        self.assertEqual(checks.trace_all_errors(b"1 - q\n1 - q\n1 - q\n", (0, 1)), [])
        self.assertEqual(len(checks.trace_all_errors(b"1 - q\n1 - q\n1 + q\n", (0, 1))), 1)
        self.assertEqual(len(checks.trace_all_errors(b"1 - 2q\n1 - 2q\n1 - 2q\n", (0, 1))), 2)


class TracedPass(unittest.TestCase):
    """The traced pass on a small verified A2 table, the program intact or with its oracle broken."""

    workload = Workload("a2", Task("table", "A", 2, verify=False), lambda seed: itertools.repeat(Task("table", "A", 2, height=5)))

    def measure(self, break_oracle=None) -> dict:
        def import_library(src):
            times, lib = real_import(src)
            if break_oracle is not None:
                lib.asymptotics.trace_grothendieck_oracle = break_oracle(lib)
            return times, lib

        real_import = traced.import_library
        with run.Workdir() as work, mock.patch.object(traced, "import_library", import_library):
            return traced.measure_layers(self.workload, 0, 0.0, 60.0, checks.load_digests(), work, run.REPO_ROOT / "src")

    def test_intact_program_passes_with_exact_counts(self) -> None:
        summary = self.measure()
        self.assertEqual((summary["failed"], summary["failures"]), (0, []))
        metrics = summary["metrics"]
        self.assertEqual(metrics["cartan.thetas"], 21)
        self.assertEqual(metrics["asymptotics.oracle_box_points"], sum((a + 1) * (b + 1) for a in range(6) for b in range(6 - a)))
        self.assertGreater(metrics["asymptotics.layer_coverage"], 0.5)
        for name in traced.LAYER_SPANS:
            self.assertIn(name, {span[0] for span in summary["spans"][0]})
        self.assertEqual(summary["samples"]["asymptotics.verify_ratio"], 1)
        self.assertEqual(summary["samples"]["cli.import_s"], traced.IMPORT_REPEATS)

    def test_raising_route_is_a_failed_sample(self) -> None:
        def raising(lib):
            def oracle(rs, theta):
                raise RuntimeError("broken oracle")

            return oracle

        summary = self.measure(raising)
        self.assertEqual(summary["failed"], summary["attempted"])
        self.assertTrue(any("RuntimeError: broken oracle" in f for f in summary["failures"]), summary["failures"])

    def test_disagreeing_route_is_a_failed_sample(self) -> None:
        summary = self.measure(lambda lib: lambda rs, theta: lib.qlaurent.LaurentPoly.zero())
        self.assertEqual(summary["failed"], summary["attempted"])
        self.assertIn("A2 table: cli.main exited with 3", summary["failures"])


class Workloads(unittest.TestCase):
    def test_same_seed_same_invocations(self) -> None:
        first = [t for t, _ in zip(mixed_tasks(7), range(50))]
        self.assertEqual(first, [t for t, _ in zip(mixed_tasks(7), range(50))])
        self.assertNotEqual(first, [t for t, _ in zip(mixed_tasks(8), range(50))])

    def test_tail_has_ten_samples_beyond_it(self) -> None:
        self.assertEqual(run.tail([float(x) for x in range(1, 101)]), (90.0, 90.0))
        self.assertEqual(run.tail([float(x) for x in range(1, 12)]), (1.0, 100.0 / 11))


if __name__ == "__main__":
    unittest.main()
