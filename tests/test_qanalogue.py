"""Lusztig's q-analogue of the zero weight multiplicity of the adjoint representation, from each trace route.

Let t = q^-1 and c_theta = q^-<rho,theta> trace(theta), the coefficient of
e^theta in prod_beta (1 - e^beta) / (1 - t e^beta).  Multiplying by
prod_beta 1 / (1 - e^beta) gives the t-analogue of Kostant's partition
function, P_t(gamma) = sum over theta <= gamma of c_theta p(gamma - theta),
with p the ordinary partition count.  For the dual group (roots = the
coroots) and lambda its highest root, the highest coroot,

    K(t) = sum over w in W of sign(w) P_t(w . lambda) = sum_i t^(m_i),

with w . lambda = w(lambda + rho) - rho and m_i the exponents of the type
(Hesselink, Math. Ann. 252 (1980); Lusztig, Asterisque 101-102 (1983);
exponents from Bourbaki, Lie Groups ch. VI, Plates I-IX).  The Weyl group
walk, the exponents and the alternating sum are written here, so the check
shares no code with the routes: it reads only their traces and the DP count.
"""

from __future__ import annotations

import math

import pytest

from bernasym.asymptotics import gk_product_series, trace_from_series, trace_grothendieck_oracle, trace_kostant_sum
from bernasym.cartan import coordinate_box, height, root_system
from bernasym.kostant import count_partitions
from bernasym.qlaurent import LaurentPoly

EXPONENTS = {
    ("A", 2): (1, 2),
    ("A", 3): (1, 2, 3),
    ("A", 4): (1, 2, 3, 4),
    ("A", 5): (1, 2, 3, 4, 5),
    ("B", 3): (1, 3, 5),
    ("C", 3): (1, 3, 5),
    ("D", 4): (1, 3, 3, 5),
    ("G", 2): (1, 5),
    ("F", 4): (1, 5, 7, 11),
}


def dot_orbit(cartan, lam):
    """{w . lam: sign(w)} over the Weyl group, by breadth-first search from lam.

    In simple coroot coordinates, v pairs with the simple root alpha_i as
    sum_j v_j cartan[j][i], and s_i . v = v - (<v, alpha_i> + 1) alpha_i^vee.
    lam + rho is regular, so the orbit is in bijection with W, the BFS depth
    is the length of w and its parity the sign.
    """
    signs = {lam: 1}
    frontier = [lam]
    while frontier:
        following = []
        for v in frontier:
            for i in range(len(v)):
                pairing = sum(x * row[i] for x, row in zip(v, cartan))
                w = v[:i] + (v[i] - pairing - 1,) + v[i + 1:]
                if w not in signs:
                    signs[w] = -signs[v]
                    following.append(w)
        frontier = following
    return signs


def q_analogue(rs, trace):
    """K(t) at the highest coroot, as a Laurent polynomial in q = t^-1, from ``trace(theta)`` on its box."""
    lam = rs.positive_coroots[-1]
    c = {theta: LaurentPoly.q_power(-height(theta)) * trace(theta) for theta in coordinate_box(lam)}
    total = LaurentPoly.zero()
    for gamma, sign in dot_orbit(rs.cartan, lam).items():
        if min(gamma) < 0:
            continue  # P_t vanishes off the positive cone
        for theta in coordinate_box(gamma):
            rest = tuple(g - x for g, x in zip(gamma, theta))
            total = total + sign * count_partitions(rs, rest) * c[theta]
    return total


def exponent_sum(series, rank):
    """sum_i t^(m_i) with t = q^-1."""
    total = LaurentPoly.zero()
    for m in EXPONENTS[series, rank]:
        total = total + LaurentPoly.q_power(-m)
    return total


def route(rs, name):
    if name == "kostant":
        return lambda theta: trace_kostant_sum(rs, theta)
    if name == "series":
        lam = rs.positive_coroots[-1]
        series = gk_product_series(rs, height(lam), box=lam)
        return lambda theta: trace_from_series(series, rs, theta)
    return lambda theta: trace_grothendieck_oracle(rs, theta)


@pytest.mark.parametrize("name", ["kostant", "series", "oracle"])
@pytest.mark.parametrize("series,rank", list(EXPONENTS))
def test_q_analogue_is_the_exponent_sum(series, rank, name):
    rs = root_system(series, rank)
    assert q_analogue(rs, route(rs, name)) == exponent_sum(series, rank)


@pytest.mark.parametrize("series,rank", list(EXPONENTS))
def test_dot_orbit_is_the_weyl_group(series, rank):
    # |W| = prod_i (m_i + 1), and W has as many even elements as odd ones
    rs = root_system(series, rank)
    signs = dot_orbit(rs.cartan, rs.positive_coroots[-1])
    assert len(signs) == math.prod(m + 1 for m in EXPONENTS[series, rank])
    assert sum(signs.values()) == 0


@pytest.mark.parametrize("series,rank", [("B", 3), ("G", 2), ("D", 4)])
def test_q_added_at_one_simple_coroot_is_caught(series, rank):
    rs = root_system(series, rank)
    simple = rs.positive_coroots[0]

    def corrupted(theta):
        return trace_kostant_sum(rs, theta) + (LaurentPoly.q_power(1) if theta == simple else 0)

    assert q_analogue(rs, corrupted) != exponent_sum(series, rank)
