"""Property tests: Laurent-polynomial ring laws, the wire round trip, and oracle == series.

Hypothesis runs derandomized with a bounded number of examples, so the suite
stays deterministic and quick.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from bernasym.asymptotics import gk_product_series, trace_from_series, trace_grothendieck_oracle
from bernasym.cartan import root_system
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


SYSTEMS = {name: root_system(name[0], int(name[1:])) for name in ("A3", "B3", "G2")}
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
