"""bernasym benchmark: end-to-end CLI timings and a traced per-layer pass.

Usage, from the root of a checkout (standard library only, nothing to build)::

    python3 perfbench/run.py --workload verified_deep --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55   # every metric of every workload

Every metric is printed to stderr with its unit and sample count; the last
line of stdout is one JSON object::

    {"correct": true, "attempted": 40, "failed": 0,
     "metrics": {"wall_s": {"value": 1.2034, "unit": "s"}, ...}}

``correct`` is true when no invocation failed.  An invocation fails on a
nonzero exit, a timeout, a failed output check (:mod:`checks`, which shares
no code with the library) or a non-hermetic run; the error rate is
``failed / attempted``.  Per-invocation samples (``--trace 0``) and spans
(``--trace 1``) are written to ``perfbench/results/``.

End-to-end metrics (``--trace 0``, tracing off)
-----------------------------------------------
Each workload runs as real ``python3 -m bernasym.cli`` processes, one at a
time from this single process (a closed loop with one client), for
``--seconds`` and at least 11 invocations.

* ``wall_s`` -- mean wall time of one invocation, from process start to EOF
  on its stdout.  The mean, not the median: on a shared two-core host the
  whole machine runs up to twice as slow for stretches of tens of seconds,
  and a run's median jumps between the fast and the slow mode while the mean
  moves only with the share of the run spent in each.
* ``tail_wall_s`` -- the highest percentile of invocation wall time with at
  least ten samples beyond it; the percentile and the sample count are
  printed beside it.
* ``cpu_s`` -- mean user + system CPU time of the child (``os.wait4``).
* ``peak_rss_mb`` -- mean of the child's ``ru_maxrss`` (cli_mixed's kinds
  differ by about a megabyte, which makes a median jump between them).
* ``setup_s`` -- median wall time of a zero-work invocation on the
  workload's root system (``--height 0 --no-verify table``): interpreter
  start, import, root-system build and argument parsing.  About fifteen are
  interleaved with the workload's invocations in every run.

Children get ``PYTHONPATH=src``, no ``BERNASYM_CACHE_DIR``, and an empty
working directory that must still be empty afterwards.

Workloads, and why each was chosen
----------------------------------
* ``verified_deep`` -- ``--type A --rank 3 --height 9 table``, verified, JSON
  (220 thetas).  The default CLI path; the oracle's re-enumeration dominates,
  then the DP counter, the GK series and the count-check enumeration.  Any
  verification speed-up shows here.
* ``unverified_wide`` -- ``--type E --rank 6 --height 5 --no-verify table``
  (36 coroots, 462 thetas, 140 KB of output).  Kostant enumeration dominates;
  the oracle, DP and series do no work, so an oracle-only change must leave
  it unchanged.  Changes to ``descend`` pruning or serialization show here.
  It is not listed in ``BENCHMARK.json``: three workloads leave room for
  30-second runs only, too short to be steady on a shared host, so it is
  run by hand.
* ``cli_mixed`` -- short invocations generated from ``--seed``, cycling
  through ``trace --method all``, ``divisor``, ``strata parabolic|local|poset``
  and small verified tables read through ``--config FILE`` and
  ``--cartan FILE``, over types A-G and ranks 2-10.  Start-up, parsing and the
  strata and divisor layers dominate, and the series route builds a whole
  product to read one coefficient, so a table-tuned change that costs
  single-theta traces shows here.

The table workloads are one fixed input each; ``--seed`` draws cli_mixed's
invocations, and the same seed gives the same invocations.

Per-layer metrics (``--trace 1``, see :mod:`traced`)
----------------------------------------------------
The traced pass runs the same tasks as in-process ``cli.main(argv)`` calls
while the layer functions are wrapped in timing spans, so the spans are the
program's own calls.

Layer metric -> the end-to-end metric it should move, on which workload:

* ``cartan.build_s``, ``cartan.coroots`` -> ``setup_s``, all workloads.
* ``cartan.coweights_s``, ``cartan.thetas`` -> ``wall_s``, unverified_wide.
* ``kostant.enumerate_s``, ``kostant.enumerate_calls``, ``kostant.partitions``
  -> ``wall_s``, unverified_wide (dominant) and verified_deep (count check).
* ``kostant.dp_s``, ``kostant.dp_cells`` (box size x coroots) -> ``wall_s``,
  verified_deep only.
* ``asymptotics.kostant_sum_s`` -> ``wall_s``, both table workloads.
* ``asymptotics.gk_series_s``, ``asymptotics.series_terms``,
  ``asymptotics.series_lookup_s`` -> ``wall_s``, verified_deep and cli_mixed.
* ``asymptotics.oracle_s``, ``asymptotics.oracle_box_points`` -> ``wall_s``,
  verified_deep; the prediction for unverified_wide is no change.
* ``asymptotics.serialize_s``, ``asymptotics.output_bytes`` -> ``wall_s``,
  unverified_wide.
* ``asymptotics.divisor_s``, ``strata.parabolic_s``, ``strata.local_s``,
  ``strata.poset_s``, ``strata.elements`` -> ``wall_s``, cli_mixed.
* ``cli.import_s`` (fresh ``import bernasym.cli``), ``cli.main_s``
  (in-process ``cli.main(argv)``) -> ``setup_s``, and ``wall_s`` on cli_mixed.
* ``asymptotics.table_s`` (untraced in-process ``build_asymp_table``),
  ``asymptotics.layer_coverage`` (layer spans / ``table_s``),
  ``asymptotics.unaccounted_s`` (traced table time outside any layer span),
  ``trace.overhead_s`` (traced minus untraced table time; noise can make it
  negative) and
  ``asymptotics.verify_ratio`` (verified / unverified ``table_s``) -- the
  ROADMAP's main figure; reported, not gated.
* ``qlaurent.max_coeff_bits``, ``qlaurent.terms`` -- counts on the output
  that explain arithmetic size.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import selectors
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import traced
from workloads import WORKLOADS, Task

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
MIN_SAMPLES = 11  # the tail percentile needs ten samples beyond it
SETUP_SAMPLES = 15
INVOCATION_TIMEOUT_S = 60.0
MEASURE_CAP_S = 120.0  # a run must end within 180 s, build included
E2E_UNITS = {"wall_s": "s", "tail_wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class Workdir:
    """A private directory under ``perfbench/.work``: an empty ``cwd`` for children and their ``inputs``."""

    base = BENCH_DIR / ".work"

    def __enter__(self) -> "Workdir":
        self.base.mkdir(parents=True, exist_ok=True)
        self.path = Path(tempfile.mkdtemp(dir=self.base))
        self.cwd, self.inputs, self.stderr = self.path / "cwd", self.path / "inputs", self.path / "stderr"
        self.cwd.mkdir()
        self.inputs.mkdir()
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path)
        try:
            self.base.rmdir()
        except OSError:
            pass  # another run is still using it

    def clear_cwd(self) -> None:
        shutil.rmtree(self.cwd)
        self.cwd.mkdir()


def child_env(root: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != checks.CACHE_ENV_VAR}
    env["PYTHONPATH"] = str(root / "src")
    return env


@dataclasses.dataclass
class CliResult:
    stdout: bytes
    wall_s: float
    cpu_s: float
    rss_kb: int
    errors: list[str]


def _read_until_eof(pipe, deadline: float) -> tuple[bytes, bool]:
    chunks = []
    with selectors.DefaultSelector() as sel:
        sel.register(pipe, selectors.EVENT_READ)
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or not sel.select(remaining):
                return b"".join(chunks), True
            chunk = os.read(pipe.fileno(), 1 << 16)
            if not chunk:
                return b"".join(chunks), False
            chunks.append(chunk)


def run_cli(argv: list[str], env: dict[str, str], work: Workdir) -> CliResult:
    """Run ``python3 -m bernasym.cli argv`` to completion; wall time ends at EOF on stdout."""
    with open(work.stderr, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "bernasym.cli", *argv], cwd=work.cwd, env=env, stdout=subprocess.PIPE, stderr=err
        )
        try:
            stdout, timed_out = _read_until_eof(proc.stdout, start + INVOCATION_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        if timed_out:
            proc.kill()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        errors = []
        if timed_out:
            errors.append(f"timed out after {INVOCATION_TIMEOUT_S:.0f} s")
        elif proc.returncode:
            err.seek(0)
            errors.append(f"exit code {proc.returncode}: {err.read()[-300:].decode('utf-8', 'replace').strip()}")
    return CliResult(stdout, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, errors)


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    k = max(len(ordered) - 10, 1)
    return ordered[k - 1], 100.0 * k / len(ordered)


def measure_cli(workload, seed: int, seconds: float, digests, work: Workdir) -> dict:
    env = child_env(REPO_ROOT)
    tasks = workload.tasks(seed)
    checked: dict[tuple[Task, str], list[str]] = {}
    failures: list[str] = []
    attempted = 0

    def invoke(task: Task) -> CliResult:
        nonlocal attempted
        argv = task.argv(work.inputs)
        result = run_cli(argv, env, work)
        errors = list(result.errors)
        if not errors:
            key = (task, checks.sha256(result.stdout))
            if key not in checked:
                checked[key] = task.errors(result.stdout, digests)
            errors += checked[key]
        stray = checks.hermetic_errors(work.cwd, env)
        if stray:
            work.clear_cwd()
        errors += stray
        attempted += 1
        if errors:
            failures.append(f"{' '.join(argv)}: {'; '.join(errors)}")
        return result

    invoke(workload.setup)  # warm-up: compiles bytecode into src/
    invoke(next(tasks))
    runs: list[CliResult] = []
    setups: list[CliResult] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= MEASURE_CAP_S or (elapsed >= seconds and min(len(runs), len(setups)) >= MIN_SAMPLES):
            break
        # set-up invocations are spread evenly over the run, then topped up to MIN_SAMPLES
        if len(setups) * seconds / SETUP_SAMPLES <= elapsed < seconds or (elapsed >= seconds and len(setups) < MIN_SAMPLES):
            setups.append(invoke(workload.setup))
        else:
            runs.append(invoke(next(tasks)))

    walls = [r.wall_s for r in runs]
    tail_value, tail_pct = tail(walls)
    metrics = {
        "wall_s": statistics.fmean(walls),
        "tail_wall_s": tail_value,
        "cpu_s": statistics.fmean(r.cpu_s for r in runs),
        "peak_rss_mb": statistics.fmean(r.rss_kb for r in runs) / 1024,
        "setup_s": statistics.median(r.wall_s for r in setups),
    }
    return {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "metrics": metrics,
        "samples": dict.fromkeys(metrics, len(runs)) | {"setup_s": len(setups)},
        "tail_percentile": tail_pct,
        "invocations": [[r.wall_s, r.cpu_s, r.rss_kb, len(r.stdout)] for r in runs],
        "setups": [r.wall_s for r in setups],
    }


def unit_of(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_coverage")):
        return "ratio"
    if name.endswith("_bits"):
        return "bits"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def git_commit(root: Path) -> str:
    if (root / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        except OSError:
            proc = None
        if proc is not None and proc.returncode == 0:
            return proc.stdout.strip()
    return "unknown (not a git checkout)"


def run_one(name: str, seed: int, seconds: float, trace: bool, digests) -> dict:
    host = {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "loadavg_before": os.getloadavg(),
        "commit": git_commit(REPO_ROOT),
    }
    with Workdir() as work:
        if trace:
            summary = traced.measure_layers(WORKLOADS[name], seed, seconds, MEASURE_CAP_S, digests, work, REPO_ROOT / "src")
        else:
            summary = measure_cli(WORKLOADS[name], seed, seconds, digests, work)
    host["loadavg_after"] = os.getloadavg()
    summary.update(workload=name, seed=seed, seconds=seconds, trace=trace, host=host)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(summary) + "\n")
    return summary


def report(summary: dict) -> None:
    out = sys.stderr
    attempted, failed = summary["attempted"], summary["failed"]
    out.write(f"# {summary['workload']} seed={summary['seed']} trace={int(summary['trace'])} {summary['host']}\n")
    for name, value in summary["metrics"].items():
        n = summary["samples"][name]
        extra = f"  (p{summary['tail_percentile']:.1f})" if name == "tail_wall_s" else ""
        out.write(f"{name:30s} {value:>14.6g} {unit_of(name):6s} n={n}{extra}\n")
    out.write(f"{'error_rate':30s} {failed / attempted:>14.6g} {'ratio':6s} n={attempted}\n")
    for failure in summary["failures"][:5]:
        out.write(f"FAILED: {failure}\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (REPO_ROOT / "src" / "bernasym" / "cli.py").is_file():
        sys.stderr.write(f"error: no bernasym sources under {REPO_ROOT / 'src'}; run from a full checkout\n")
        return 2
    digests = checks.load_digests()

    if args.workload == "all":
        for name in WORKLOADS:
            for trace in (False, True):
                report(run_one(name, args.seed, args.seconds, trace, digests))
        return 0
    summary = run_one(args.workload, args.seed, args.seconds, bool(args.trace), digests)
    report(summary)
    metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in summary["metrics"].items()}
    print(json.dumps({"correct": summary["failed"] == 0, "attempted": summary["attempted"], "failed": summary["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
