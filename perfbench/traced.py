"""The traced pass: per-layer times and work counts, measured in process.

The pass runs the program itself: each task is one in-process
``bernasym.cli.main(argv)``, with the same argv the end-to-end pass gives a
child process.  Layers are timed from outside: the layer functions that
``bernasym.cli`` and ``bernasym.asymptotics`` look up as module globals at
call time (``build_root_system``, ``build_asymp_table``,
``trace_kostant_sum``, ``enumerate_partitions``, ``count_partitions``,
``gk_product_series``, ``trace_from_series``, ``trace_grothendieck_oracle``,
the divisor and strata functions, ...) are replaced by wrappers that open a
span around the original, for the duration of the pass; ``AsympTable.to_json_obj``
and the JSON encoding of its result form the ``serialize`` span.  Nothing in
``src/`` changes, and whatever the program calls, the spans are the
program's own calls.  Enumerations made by the oracle stay oracle time: they
are the oracle's own work.

Spans are (name, start, end, parent index), kept in memory and written out
when the run ends.  A layer's time is its *self* time: the span's duration
minus its child spans.  Layers that a workload's invocations never reach are
timed on one small call on the workload's root system, under a ``probe``
span, so that every row is a measurement; the probes are outside the table
and do not enter ``layer_coverage``.

Before every task the process-global count cache is cleared, as in a fresh
process, so no work carries over between tasks or samples;
``BERNASYM_CACHE_DIR`` is removed from the environment and the working
directory must stay empty.  A task that raises, exits nonzero or prints a
wrong answer makes its repetition a failed one; the pass goes on.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import itertools
import math
import os
import statistics
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import checks
from workloads import Workload

TABLE = "asymptotics.table"
PROBE = "probe"
SERIALIZE = "asymptotics.serialize"
#: span name -> the per-layer metric reporting its self time
LAYER_SPANS = (
    "cartan.build",
    "cartan.coweights",
    "kostant.enumerate",
    "kostant.dp",
    "asymptotics.kostant_sum",
    "asymptotics.gk_series",
    "asymptotics.series_lookup",
    "asymptotics.oracle",
    SERIALIZE,
    "asymptotics.divisor",
    "strata.parabolic",
    "strata.local",
    "strata.poset",
)
#: counts that must repeat exactly between repetitions
COUNTS = (
    "cartan.coroots",
    "cartan.thetas",
    "kostant.enumerate_calls",
    "kostant.partitions",
    "kostant.dp_cells",
    "asymptotics.series_terms",
    "asymptotics.oracle_box_points",
    "asymptotics.output_bytes",
    "strata.elements",
    "qlaurent.max_coeff_bits",
    "qlaurent.terms",
)
#: the cli_mixed traced pass runs this many tasks (two cycles of the seven kinds)
MIXED_TRACED_TASKS = 14
IMPORT_REPEATS = 5


class Tracer:
    """Spans and counts of one repetition, and the table calls it saw."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.table_calls: list[tuple[tuple, dict]] = []  # (args, kwargs) of each build_asymp_table that returned
        self.table_obj: object = None  # the last AsympTable.to_json_obj() result, encoded under SERIALIZE
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._open[-1] if self._open else -1])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def current(self) -> str | None:
        return self.spans[self._open[-1]][0] if self._open else None

    def self_times(self) -> Counter:
        inner = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                inner[parent] += end - start
        out: Counter = Counter()
        for (name, start, end, _), child in zip(self.spans, inner):
            out[name] += end - start - child
        return out

    def total(self, name: str) -> float:
        return sum(end - start for n, start, end, _ in self.spans if n == name)


def import_library(src: Path) -> tuple[list[float], SimpleNamespace]:
    """Time fresh imports of ``bernasym.cli`` (the standard library stays imported) and return the modules."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    times = []
    for _ in range(IMPORT_REPEATS):
        for name in [n for n in sys.modules if n == "bernasym" or n.startswith("bernasym.")]:
            del sys.modules[name]
        start = time.perf_counter()
        importlib.import_module("bernasym.cli")
        times.append(time.perf_counter() - start)
    names = ("asymptotics", "cartan", "cli", "kostant", "qlaurent", "strata")
    return times, SimpleNamespace(**{n: sys.modules[f"bernasym.{n}"] for n in names})


def _box(theta) -> int:
    return math.prod(t + 1 for t in theta)


@contextlib.contextmanager
def layer_spans(tr: Tracer, lib):
    """Replace the layer functions of ``bernasym.cli`` and ``bernasym.asymptotics`` by span-opening wrappers."""
    A, C = lib.asymptotics, lib.cli
    count = tr.counts.update

    def timed(span, counted=None, unless_inside=None):
        """A decorator: time the call under ``span`` and pass its result and arguments to ``counted``."""

        def decorate(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if unless_inside is not None and tr.current() == unless_inside:
                    return fn(*args, **kwargs)
                with tr.span(span):
                    result = fn(*args, **kwargs)
                if counted is not None:
                    counted(result, *args)
                return result

            return wrapper

        return decorate

    def build_table(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tr.span(TABLE):
                table = fn(*args, **kwargs)
            tr.table_calls.append((args, kwargs))
            return table

        return wrapper

    def json_text(fn):
        @functools.wraps(fn)
        def wrapper(obj):
            if obj is not tr.table_obj:
                return fn(obj)
            with tr.span(SERIALIZE):
                return fn(obj)

        return wrapper

    kostant_sum = timed("asymptotics.kostant_sum")
    gk_series = timed("asymptotics.gk_series", lambda series, *_: count({"asymptotics.series_terms": len(series.terms())}))
    lookup = timed("asymptotics.series_lookup")
    oracle = timed("asymptotics.oracle", lambda _, rs, theta: count({"asymptotics.oracle_box_points": _box(theta)}))
    divisor = timed("asymptotics.divisor")
    wrappers = {
        (A, "coweights_up_to_height"): timed("cartan.coweights", lambda thetas, *_: count({"cartan.thetas": len(thetas)})),
        (A, "enumerate_partitions"): timed(
            "kostant.enumerate",
            lambda parts, *_: count({"kostant.enumerate_calls": 1, "kostant.partitions": len(parts)}),
            unless_inside="asymptotics.oracle",
        ),
        (A, "count_partitions"): timed(
            "kostant.dp",
            lambda _, rs, theta: count({"kostant.dp_cells": _box(theta) * len(rs.positive_coroots)}),
        ),
        (A, "trace_kostant_sum"): kostant_sum,
        (C, "trace_kostant_sum"): kostant_sum,
        (A, "gk_product_series"): gk_series,
        (C, "gk_product_series"): gk_series,
        (A, "trace_from_series"): lookup,
        (C, "trace_from_series"): lookup,
        (A, "trace_grothendieck_oracle"): oracle,
        (C, "trace_grothendieck_oracle"): oracle,
        (C, "parse_divisor"): divisor,
        (C, "divisor_trace"): divisor,
        (C, "build_root_system"): timed("cartan.build", lambda rs, *_: count({"cartan.coroots": len(rs.positive_coroots)})),
        (C, "enumerate_parabolic_strata"): timed("strata.parabolic", lambda s, *_: count({"strata.elements": len(s)})),
        (C, "enumerate_local_strata"): timed("strata.local", lambda s, *_: count({"strata.elements": len(s)})),
        (C, "defect_poset"): timed("strata.poset", lambda p, *_: count({"strata.elements": len(p.elements)})),
        (C, "build_asymp_table"): build_table,
        (A.AsympTable, "to_json_obj"): timed(SERIALIZE, lambda obj, *_: setattr(tr, "table_obj", obj)),
        (C, "_json_text"): json_text,
    }
    originals = {key: getattr(*key) for key in wrappers}
    for (owner, name), wrap in wrappers.items():
        setattr(owner, name, wrap(originals[owner, name]))
    try:
        yield
    finally:
        for (owner, name), original in originals.items():
            setattr(owner, name, original)


def probe_missing(tr: Tracer, lib, rs) -> None:
    """Time, on ``rs``, each layer that the workload's tasks did not reach, through the wrapped functions."""
    missing = set(LAYER_SPANS) - {name for name, *_ in tr.spans}
    A, C = lib.asymptotics, lib.cli
    coroots = rs.positive_coroots
    simple, mid, top = coroots[0], coroots[len(coroots) // 2], coroots[-1]
    borel = lib.cartan.ParabolicType()
    with tr.span(PROBE):
        if "kostant.dp" in missing:
            A.count_partitions(rs, top)
        if {"asymptotics.gk_series", "asymptotics.series_lookup"} & missing:
            A.trace_from_series(A.gk_product_series(rs, 1), rs, simple)
        if "asymptotics.oracle" in missing:
            A.trace_grothendieck_oracle(rs, mid)  # the oracle at the highest coroot of E6 takes seconds
        if "asymptotics.divisor" in missing:
            point = ",".join(map(str, simple))
            C.divisor_trace(rs, C.parse_divisor(f"x:{point};y:{point}", rs.rank))
        if "strata.parabolic" in missing:
            C.enumerate_parabolic_strata(rs)
        if "strata.local" in missing:
            C.enumerate_local_strata(rs, borel, (1,) * rs.rank)
        if "strata.poset" in missing:
            C.defect_poset(rs, borel, 2)


@contextlib.contextmanager
def _inside(path: Path):
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)


def run_main(lib, argv: list[str]) -> tuple[int, bytes, float]:
    """In-process ``cli.main(argv)`` on an empty count cache: (exit code, stdout, seconds)."""
    lib.kostant.count_cache_clear()
    buffer = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buffer):
        code = lib.cli.main(argv)
    return code, buffer.getvalue().encode(), time.perf_counter() - start


def task_errors(lib, task, work, digests, tr: Tracer | None = None) -> tuple[list[str], float]:
    """Run one task in process and check its stdout; with a tracer, count the output's size."""
    try:
        code, out, seconds = run_main(lib, task.argv(work.inputs))
    except Exception as exc:  # a broken program must show as a failed sample, not end the pass
        return [f"{task.system} {task.kind}: {type(exc).__name__}: {exc}"], 0.0
    if code:
        return [f"{task.system} {task.kind}: cli.main exited with {code}"], seconds
    if tr is not None and task.kind == "table":
        bits, terms = checks.output_stats(out)
        tr.counts.update({"asymptotics.output_bytes": len(out), "qlaurent.terms": terms})
        tr.counts["qlaurent.max_coeff_bits"] = max(tr.counts["qlaurent.max_coeff_bits"], bits)
    return task.errors(out, digests), seconds


def _timed_tables(lib, calls, flip_verify: bool = False) -> float:
    """Seconds of untraced ``build_asymp_table`` over the traced pass's table calls."""
    total = 0.0
    for args, kwargs in calls:
        if flip_verify:
            kwargs = {**kwargs, "verify": not kwargs.get("verify", True)}
        lib.kostant.count_cache_clear()
        start = time.perf_counter()
        lib.asymptotics.build_asymp_table(*args, **kwargs)
        total += time.perf_counter() - start
    return total


def measure_layers(workload: Workload, seed: int, seconds: float, deadline: float, digests, work, src: Path):
    """Repeat the traced pass until ``seconds`` have passed (at least twice); return the run's summary."""
    start = time.perf_counter()
    import_times, lib = import_library(src)
    os.environ.pop(checks.CACHE_ENV_VAR, None)
    tasks = list(dict.fromkeys(itertools.islice(workload.tasks(seed), MIXED_TRACED_TASKS)))
    probe_rs = lib.cartan.build_root_system(lib.cartan.RootSystemSpec(series=workload.setup.series, rank=workload.setup.rank))
    reps: list[dict] = []
    tracers: list[Tracer] = []
    failures: list[str] = []
    failed_reps = 0
    verify_ratio = 0.0

    while len(reps) < 2 or time.perf_counter() - start < min(seconds, deadline):
        tr = Tracer()
        errors: list[str] = []
        with _inside(work.cwd), layer_spans(tr, lib):
            for task in tasks:
                errors += task_errors(lib, task, work, digests, tr)[0]
            try:
                probe_missing(tr, lib, probe_rs)
            except Exception as exc:
                errors.append(f"probe: {type(exc).__name__}: {exc}")

        table_s = _timed_tables(lib, tr.table_calls)
        if not verify_ratio and tr.table_calls:
            other_s = _timed_tables(lib, tr.table_calls, flip_verify=True)
            verified = tr.table_calls[0][1].get("verify", True)
            verify_ratio = table_s / other_s if verified else other_s / table_s

        main_times = []
        with _inside(work.cwd):
            for task in tasks:
                task_failures, main_s = task_errors(lib, task, work, digests)
                errors += task_failures
                main_times.append(main_s)
        errors += checks.hermetic_errors(work.cwd, os.environ)

        counts = {name: tr.counts[name] for name in COUNTS}
        if reps and counts != reps[0]["counts"]:
            errors.append(f"work counts changed between repetitions: {reps[0]['counts']} -> {counts}")
        self_times = tr.self_times()
        traced_s = tr.total(TABLE)
        reps.append(
            {
                "counts": counts,
                "times": {
                    **{f"{name}_s": self_times[name] for name in LAYER_SPANS},
                    "cli.main_s": statistics.median(main_times),
                    "asymptotics.table_s": table_s,
                    "asymptotics.layer_coverage": (traced_s - self_times[TABLE]) / table_s if table_s else 0.0,
                    "asymptotics.unaccounted_s": self_times[TABLE],
                    "trace.overhead_s": traced_s - table_s,
                },
            }
        )
        tracers.append(tr)
        failures += errors
        failed_reps += bool(errors)

    metrics = {name: statistics.median(rep["times"][name] for rep in reps) for name in reps[0]["times"]}
    metrics.update(reps[0]["counts"])
    metrics["cli.import_s"] = statistics.median(import_times)
    metrics["asymptotics.verify_ratio"] = verify_ratio
    samples = dict.fromkeys(metrics, len(reps))
    samples.update({"cli.import_s": len(import_times), "asymptotics.verify_ratio": 1})
    return {
        "attempted": len(reps),
        "failed": failed_reps,
        "failures": failures,
        "metrics": metrics,
        "samples": samples,
        "spans": [tr.spans for tr in tracers],
    }
