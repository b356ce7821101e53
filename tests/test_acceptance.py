"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Every tolerance is exact (integer Laurent-polynomial equality); nothing is
approximate.
"""

from __future__ import annotations

import itertools
import json
import math
import random

import pytest
from closed_forms import CLOSED_FORM_COUNTS

from bernasym.asymptotics import (
    ColoredDivisor,
    asymp_table_from_json,
    build_asymp_table,
    divisor_trace,
    gk_product_series,
    trace_from_series,
    trace_grothendieck_oracle,
    trace_kostant_sum,
)
from bernasym.cartan import (
    ParabolicType,
    coweights_up_to_height,
    height,
    root_system,
)
from bernasym.cli import main as cli_main
from bernasym.kostant import (
    count_partitions,
    enumerate_partitions,
    partition_from_json,
    partition_to_json,
)
from bernasym.qlaurent import LaurentPoly
from bernasym.strata import defect_poset, enumerate_local_strata, enumerate_parabolic_strata

ONE_MINUS_Q = LaurentPoly({0: 1, 1: -1})

TRIANGLE_SWEEP = [
    ("A", 1, 8),
    ("A", 2, 8),
    ("A", 3, 6),
    ("B", 2, 6),
    ("C", 2, 6),
    ("G", 2, 6),
]


def report(criterion: str, passed: bool) -> None:
    print(f"{'PASS' if passed else 'FAIL'} {criterion}")
    assert passed, criterion


def test_criterion_1_oracle_triangle():
    failures = []
    for series_name, rank, bound in TRIANGLE_SWEEP:
        rs = root_system(series_name, rank)
        gk = gk_product_series(rs, bound)
        for theta in coweights_up_to_height(rank, bound):
            a = trace_kostant_sum(rs, theta)
            b = trace_from_series(gk, rs, theta)
            c = trace_grothendieck_oracle(rs, theta)
            if not (a == b == c):
                failures.append((rs.name, theta, str(a), str(b), str(c)))
    report(
        "criterion 1: oracle triangle (kostant = series = oracle, exact) on "
        "A1/A2 height<=8 and A3/B2/C2/G2 height<=6",
        not failures,
    )


def test_criterion_2_sl2_closed_form():
    rs = root_system("A", 1)
    ok = all(trace_kostant_sum(rs, (n,)) == ONE_MINUS_Q for n in range(1, 11))
    report("criterion 2: SL2 closed form, trace(n*alpha) = 1 - q for n = 1..10", ok)


def test_criterion_3_q_one_specialization():
    ok = True
    for series_name, rank, bound in TRIANGLE_SWEEP:
        rs = root_system(series_name, rank)
        table = build_asymp_table(rs, bound, verify=False)
        for theta, poly in table.entries.items():
            expected = 1 if height(theta) == 0 else 0
            if sum(c for _, c in poly.to_pairs()) != expected:
                ok = False
    report("criterion 3: q = 1 specialization is 0 off zero and 1 at zero", ok)


def test_criterion_4_factorization():
    rng = random.Random(20250810)
    checked = 0
    ok = True
    for series_name, rank in [("A", 1), ("A", 2), ("A", 3)]:
        rs = root_system(series_name, rank)
        for _ in range(40):
            n_points = rng.randint(1, 3)
            points = []
            for i in range(n_points):
                theta = tuple(rng.randint(0, 3) for _ in range(rank))
                if all(x == 0 for x in theta):
                    theta = tuple(1 if k == rng.randrange(rank) else x for k, x in enumerate(theta))
                points.append((f"p{i}", theta))
            divisor = ColoredDivisor(points=tuple(points))
            whole = divisor_trace(rs, divisor)
            for mask in range(2**n_points):
                left = ColoredDivisor(
                    points=tuple(p for k, p in enumerate(points) if mask >> k & 1)
                )
                right = ColoredDivisor(
                    points=tuple(p for k, p in enumerate(points) if not mask >> k & 1)
                )
                if divisor_trace(rs, left) * divisor_trace(rs, right) != whole:
                    ok = False
            checked += 1
    report(
        f"criterion 4: divisor factorization over every bipartition, {checked} random divisors",
        ok and checked >= 100,
    )


def test_criterion_5_kostant_counting():
    ok = True
    for series_name, rank in [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("G", 2)]:
        rs = root_system(series_name, rank)
        for theta in coweights_up_to_height(rank, 6):
            if count_partitions(rs, theta) != len(enumerate_partitions(rs, theta)):
                ok = False
            lhs = 0
            for theta2 in itertools.product(*(range(t + 1) for t in theta)):
                theta1 = tuple(t - s for t, s in zip(theta, theta2))
                lhs += count_partitions(rs, theta1) * sum(k.is_simple for k in enumerate_partitions(rs, theta2))
            rhs = sum(2 ** len(k.support) for k in enumerate_partitions(rs, theta))
            if lhs != rhs:
                ok = False
    report(
        "criterion 5: DP count = enumeration and the (K,S) <-> (K1, simple K2) "
        "cardinality identity, height <= 6",
        ok,
    )


def test_criterion_6_root_count_table():
    cases = [("A", r) for r in range(1, 5)]
    cases += [("B", r) for r in range(2, 5)]
    cases += [("C", r) for r in range(2, 5)]
    cases += [("D", r) for r in range(2, 5)]
    cases += [("G", 2), ("F", 4)]
    ok = all(
        len(root_system(s, r).positive_coroots) == CLOSED_FORM_COUNTS[s](r) for s, r in cases
    )
    report("criterion 6: |positive coroots| matches closed forms up to rank 4 plus G2, F4", ok)


def test_criterion_7_strata_counts():
    ok = True
    for rank in range(1, 5):
        if len(enumerate_parabolic_strata(root_system("A", rank))) != 2**rank:
            ok = False
    borel = ParabolicType()
    for series_name, rank in [("A", 1), ("A", 2), ("A", 3)]:
        rs = root_system(series_name, rank)
        for theta in coweights_up_to_height(rank, 5):
            strata = enumerate_local_strata(rs, borel, theta)
            formula = math.prod(math.comb(n + 2, 2) for n in theta)
            box = list(itertools.product(*(range(t + 1) for t in theta)))
            brute = sum(
                1
                for a in box
                for b in box
                if all(t - x - y >= 0 for t, x, y in zip(theta, a, b))
            )
            if not (len(strata) == formula == brute):
                ok = False
        poset = defect_poset(rs, borel, 5)
        for lower, upper in poset.covers:
            if not 2 * height(lower) < 2 * height(upper):
                ok = False
        for theta in poset.elements:
            if 2 * height(theta) != sum(2 * x for x in theta):
                ok = False
    report(
        "criterion 7: 2^r parabolic strata (r<=4); local-strata count = "
        "prod C(n_i+2,2) = brute force (height<=5); codim = 2*height, "
        "strictly monotone along the poset",
        ok,
    )


def test_criterion_8_determinism_and_round_trip(capsys):
    argvs = [
        ["--type", "A", "--rank", "2", "--height", "4", "table"],
        ["--type", "G", "--rank", "2", "--height", "3", "table"],
    ]
    ok = True
    for argv in argvs:
        code1 = cli_main(list(argv))
        out1 = capsys.readouterr().out
        code2 = cli_main(list(argv))
        out2 = capsys.readouterr().out
        if code1 != 0 or code2 != 0 or out1 != out2:
            ok = False
    for series_name, rank, bound in TRIANGLE_SWEEP:
        rs = root_system(series_name, rank)
        table = build_asymp_table(rs, bound, verify=False)
        clone = asymp_table_from_json(json.loads(json.dumps(table.to_json_obj())))
        if clone.entries != table.entries or clone.root_system != table.root_system:
            ok = False
        for theta in coweights_up_to_height(rank, bound):
            for part in enumerate_partitions(rs, theta):
                data = json.loads(json.dumps(partition_to_json(rs, part)))
                if partition_from_json(rs, data) != part:
                    ok = False
    with capsys.disabled():
        report(
            "criterion 8: byte-identical table runs and lossless JSON round-trips "
            "for tables and partitions",
            ok,
        )
