"""Property tests: Laurent-polynomial ring laws, oracle == series, divisor factorization and wire round trips.

Hypothesis runs derandomized with a bounded number of examples, so the suite
stays deterministic and quick.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from bernasym.asymptotics import (
    ColoredDivisor,
    asymp_table_from_json,
    build_asymp_table,
    divisor_trace,
    gk_product_series,
    trace_from_series,
    trace_grothendieck_oracle,
)
from bernasym.cartan import root_system
from bernasym.kostant import enumerate_partitions, partition_from_json, partition_to_json
from bernasym.qlaurent import LaurentPoly

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)

polys = st.dictionaries(st.integers(-6, 6), st.integers(-50, 50), max_size=6).map(LaurentPoly)


@PROPERTY
@given(polys, polys, polys)
def test_ring_laws(a, b, c):
    one, zero = LaurentPoly.one(), LaurentPoly.zero()
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a + zero == a
    assert a - a == zero
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * one == a
    assert a * (b + c) == a * b + a * c


@PROPERTY
@given(polys)
def test_wire_round_trip(p):
    assert LaurentPoly.from_pairs(p.to_pairs()) == p


SYSTEMS = {name: root_system(name[0], int(name[1:])) for name in ("A3", "B3", "C3", "D4", "G2")}
SERIES = {name: gk_product_series(rs, 6) for name, rs in SYSTEMS.items()}


@st.composite
def system_and_theta(draw):
    name = draw(st.sampled_from(sorted(SYSTEMS)))
    budget, theta = 6, []
    for _ in range(SYSTEMS[name].rank):
        theta.append(draw(st.integers(0, budget)))
        budget -= theta[-1]
    return name, tuple(theta)


@settings(PROPERTY, max_examples=40)
@given(system_and_theta())
def test_oracle_matches_series(case):
    name, theta = case
    rs = SYSTEMS[name]
    assert trace_grothendieck_oracle(rs, theta) == trace_from_series(SERIES[name], rs, theta)


def wire(obj):
    """obj after a trip through JSON text."""
    return json.loads(json.dumps(obj))


@st.composite
def system_and_divisor(draw):
    name = draw(st.sampled_from(sorted(SYSTEMS)))
    rank = SYSTEMS[name].rank
    part = st.lists(st.integers(0, 2), min_size=rank, max_size=rank).filter(lambda v: 0 < sum(v) <= 3)
    points = draw(st.lists(part, max_size=3))
    return name, ColoredDivisor(points=tuple((f"p{i}", tuple(v)) for i, v in enumerate(points)))


@settings(PROPERTY, max_examples=40)
@given(system_and_divisor())
def test_divisor_factorization(case):
    # the single-point traces come from the series route, which shares no code with divisor_trace
    name, divisor = case
    rs = SYSTEMS[name]
    product = LaurentPoly.one()
    for _, theta in divisor.points:
        product = product * trace_from_series(SERIES[name], rs, theta)
    assert divisor_trace(rs, divisor) == product


@settings(PROPERTY, max_examples=30)
@given(st.sampled_from(sorted(SYSTEMS)), st.integers(0, 3), st.none() | st.integers(0, 5))
def test_table_wire_round_trip(name, height_bound, genus):
    table = build_asymp_table(SYSTEMS[name], height_bound, verify=False, genus=genus)
    assert asymp_table_from_json(wire(table.to_json_obj())) == table


@PROPERTY
@given(system_and_theta(), st.integers(min_value=0))
def test_partition_wire_round_trip(case, pick):
    name, theta = case
    rs = SYSTEMS[name]
    partitions = enumerate_partitions(rs, theta)
    partition = partitions[pick % len(partitions)]
    assert partition_from_json(rs, wire(partition_to_json(rs, partition))) == partition
