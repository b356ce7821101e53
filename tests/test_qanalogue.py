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
exponents from Bourbaki, Lie Groups ch. VI, Plates I-IX, in closed_forms.py).
The Weyl group walk, the exponents and the alternating sum are written in the
tests, so the check shares no code with the routes: it reads only their
traces and the DP count.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest
from closed_forms import exponents

from bernasym.asymptotics import (
    build_asymp_table,
    gk_product_series,
    trace_from_series,
    trace_grothendieck_oracle,
    trace_kostant_sum,
)
from bernasym.cartan import coordinate_box, height, root_system
from bernasym.kostant import count_partitions
from bernasym.qlaurent import LaurentPoly

EXPONENTS = {key: exponents(*key) for key in [("A", 2), ("A", 3), ("A", 4), ("A", 5), ("B", 3), ("C", 3),
                                             ("D", 4), ("G", 2), ("F", 4)]}


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


def t_kostant(rs, trace):
    """P_t as a memoized function of gamma >= 0, from ``trace(theta)`` on the thetas below the gammas asked for.

    P_t(gamma) = sum over theta <= gamma of c_theta p(gamma - theta), with c_theta = q^-<rho,theta> trace(theta).
    """
    c, p_t = {}, {}

    def kostant_t(gamma):
        if gamma not in p_t:
            total = LaurentPoly.zero()
            for theta in coordinate_box(gamma):
                if theta not in c:
                    c[theta] = LaurentPoly.q_power(-height(theta)) * trace(theta)
                total = total + count_partitions(rs, tuple(g - x for g, x in zip(gamma, theta))) * c[theta]
            p_t[gamma] = total
        return p_t[gamma]

    return kostant_t


def q_analogue(rs, trace):
    """K(t) at the highest coroot, as a Laurent polynomial in q = t^-1, from ``trace(theta)`` on its box."""
    kostant_t = t_kostant(rs, trace)
    total = LaurentPoly.zero()
    for gamma, sign in dot_orbit(rs.cartan, rs.positive_coroots[-1]).items():
        if min(gamma) >= 0:  # P_t vanishes off the positive cone
            total = total + sign * kostant_t(gamma)
    return total


def exponent_sum(series, rank):
    """sum_i t^(m_i) with t = q^-1."""
    total = LaurentPoly.zero()
    for m in EXPONENTS[series, rank]:
        total = total + LaurentPoly.q_power(-m)
    return total


def route(rs, name, height_bound=None):
    """``trace(theta)`` by one route; the series covers the highest coroot's box, or every theta of
    height <= ``height_bound`` when it is given."""
    if name == "kostant":
        return lambda theta: trace_kostant_sum(rs, theta)
    if name == "series":
        if height_bound is None:
            lam = rs.positive_coroots[-1]
            series = gk_product_series(rs, height(lam), box=lam)
        else:
            series = gk_product_series(rs, height_bound)
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


# -- The top coefficient, from Weyl's denominator formula ------------------------------------------
#
# trace(theta) = q^ht(theta) c_theta, and the t^0 part of c_theta = [e^theta] prod_beta (1 - e^beta) / (1 - t e^beta)
# is [e^theta] prod_beta (1 - e^beta).  For the dual group Weyl's denominator formula (Humphreys, Introduction to
# Lie Algebras and Representation Theory, 24.3) writes that product as sum over w in W of sign(w) e^d(w), with
# d(w) = rho - w rho = -(w . 0).  So no exponent of trace(theta) exceeds ht theta, and the coefficient of
# q^ht(theta) is sign(w) if theta = d(w), else 0.


def denominator_terms(cartan, bound):
    """{d(w): sign(w)} over the w with ht d(w) <= bound, by a walk up from d(1) = 0.

    As in dot_orbit, d(s_i w) = d(w) + (1 - <d(w), alpha_i>) alpha_i^vee, and the step raises the height
    exactly when s_i w is longer than w.  The walk takes only those steps, so its depth is the length of w,
    and it reaches every d(w) of height <= bound through the d of shorter elements, whose heights are lower.
    """
    signs = {(0,) * len(cartan): 1}
    frontier = list(signs)
    while frontier:
        following = []
        for d in frontier:
            for i in range(len(d)):
                step = 1 - sum(x * row[i] for x, row in zip(d, cartan))
                e = d[:i] + (d[i] + step,) + d[i + 1:]
                if step > 0 and sum(e) <= bound and e not in signs:
                    signs[e] = -signs[d]
                    following.append(e)
        frontier = following
    return signs


@pytest.mark.parametrize("series,rank,bound,size", [("A", 3, 9, 23), ("B", 3, 9, 20), ("C", 3, 9, 20),
                                                    ("G", 2, 16, 12), ("D", 4, 8, 47), ("F", 4, 8, 39),
                                                    ("E", 6, 6, 114), ("A", 5, 7, 87)])
def test_top_coefficient_is_the_weyl_denominator(series, rank, bound, size):
    rs = root_system(series, rank)
    signs = denominator_terms(rs.cartan, bound)
    assert len(signs) == size
    for theta, poly in build_asymp_table(rs, bound).entries.items():
        top = sum(theta)
        assert all(e <= top for e, _ in poly.to_pairs()), theta
        assert poly.coefficient(top) == signs.get(theta, 0), theta


# -- The whole trace, from Weyl's denominator formula ----------------------------------------------
#
# With P_t(gamma) = sum of t^|K| over the Kostant partitions K of gamma, the coefficient of e^gamma in
# prod_beta 1 / (1 - t e^beta), the same formula gives c_theta = sum over w with d(w) <= theta of
# sign(w) P_t(theta - d(w)), so trace(theta) = q^ht(theta) times that sum, with t = q^-1.


def t_partition_sizes(coroots, region):
    """{gamma: {|K|: number of Kostant partitions K of gamma}} over a downward-closed region.

    One pass per coroot beta multiplies by 1 / (1 - t e^beta): in increasing height, every gamma takes
    t times the value at gamma - beta, which already counts the partitions with copies of beta.
    """
    sizes = {gamma: {} for gamma in region}
    sizes[(0,) * len(coroots[0])] = {0: 1}
    ordered = sorted(region, key=sum)
    for beta in coroots:
        for gamma in ordered:
            below = sizes.get(tuple(g - b for g, b in zip(gamma, beta)))
            if below:
                counts = sizes[gamma]
                for size, count in below.items():
                    counts[size + 1] = counts.get(size + 1, 0) + count
    return sizes


@pytest.mark.parametrize("series,rank,bound", [("A", 3, 9), ("B", 3, 9), ("G", 2, 16), ("D", 4, 8),
                                               ("F", 4, 8), ("E", 6, 6), ("A", 5, 7)])
def test_every_entry_is_weyls_denominator_sum(series, rank, bound):
    rs = root_system(series, rank)
    table = build_asymp_table(rs, bound, verify=False)
    signs = denominator_terms(rs.cartan, bound)
    sizes = t_partition_sizes(rs.positive_coroots, table.entries)
    for theta, poly in table.entries.items():
        top, expected = sum(theta), {}
        for d, sign in signs.items():
            for size, count in sizes.get(tuple(x - y for x, y in zip(theta, d)), {}).items():
                expected[top - size] = expected.get(top - size, 0) + sign * count
        assert poly.to_pairs() == [[e, c] for e, c in sorted(expected.items()) if c], theta


# -- Kostka-Foulkes polynomials of GL_n ------------------------------------------------------------
#
# For dominant lambda, mu with lambda - mu in the root lattice, the same alternating sum gives
# K_{lambda,mu}(t) = sum over w in W of sign(w) P_t(w(lambda + rho) - (mu + rho)).  For GL_n the Weyl
# group S_n permutes the epsilon-coordinates, rho = (n-1, ..., 1, 0), and gamma = sum_i c_i alpha_i
# with alpha_i = eps_i - eps_(i+1) has c_i = gamma_1 + ... + gamma_i.  Lascoux and Schutzenberger
# ("Sur une conjecture de H. O. Foulkes", 1978; Macdonald, Symmetric Functions and Hall Polynomials,
# III.6) give K_{lambda,mu}(t) = sum of t^charge(T) over the semistandard tableaux T of shape lambda
# and content mu.  The tableaux, the charge and the permutation sum are written here.

KOSTKA_SIZE = 6  # every pair of partitions of one size <= 6 with at most n parts, for n = 2, 3, 4


def partitions_of(size, parts):
    """The partitions of ``size`` with at most ``parts`` parts, padded with zeros to ``parts`` entries."""
    def fill(rest, largest, slots):
        if slots == 0:
            if rest == 0:
                yield ()
            return
        for first in range(min(rest, largest), -1, -1):
            for tail in fill(rest - first, first, slots - 1):
                yield (first,) + tail

    return list(fill(size, size, parts))


def gl_pairs(n):
    return [(lam, mu) for size in range(KOSTKA_SIZE + 1)
            for lam in partitions_of(size, n) for mu in partitions_of(size, n)]


def tableaux(shape, content):
    """The semistandard tableaux of ``shape`` and ``content``, as tuples of rows.

    The cells holding letters <= i form a shape nu_i, and nu_i / nu_(i-1) is a horizontal strip of
    content[i - 1] cells: nu_(i-1)_j lies between nu_i_(j+1) and nu_i_j in every row j.
    """
    def grow(inner, letter):
        if letter > len(content):
            if inner == shape:
                yield ()
            return
        for outer in itertools.product(*(range(inner[j], (inner[j - 1] if j else shape[0]) + 1)
                                          for j in range(len(shape)))):
            if all(o <= s for o, s in zip(outer, shape)) and sum(outer) - sum(inner) == content[letter - 1]:
                for rest in grow(outer, letter + 1):
                    yield ((inner, outer),) + rest

    found = []
    for chain in grow((0,) * len(shape), 1):
        rows = [[] for _ in shape]
        for letter, (inner, outer) in enumerate(chain, 1):
            for j, row in enumerate(rows):
                row.extend([letter] * (outer[j] - inner[j]))
        found.append(tuple(tuple(row) for row in rows))
    return found


def charge(word):
    """Lascoux-Schutzenberger charge of a word of partition content.

    From the right end, read leftward cyclically for a 1, then a 2, ..., up to the largest letter:
    that is a standard subword, whose charge adds the index of each letter, where 1 has index 0 and
    r + 1 has the index of r, plus one if the reading wrapped around (r + 1 lies to the right of r).
    Remove the subword and repeat.
    """
    word = list(word)
    total = 0
    while word:
        positions, at = [], len(word)
        for letter in range(1, max(word) + 1):
            at = next(p for p in itertools.chain(range(at - 1, -1, -1), range(len(word) - 1, at - 1, -1))
                      if word[p] == letter)
            positions.append(at)
        index = 0
        for before, after in zip(positions, positions[1:]):
            index += after > before
            total += index
        word = [x for p, x in enumerate(word) if p not in positions]
    return total


def charge_sum(lam, mu):
    """sum over tableaux T of shape lam and content mu of t^charge(T), t = q^-1; the reading word runs
    through the rows from the bottom one up, each left to right."""
    total = LaurentPoly.zero()
    for rows in tableaux(tuple(x for x in lam if x), mu):
        total = total + LaurentPoly.q_power(-charge([x for row in reversed(rows) for x in row]))
    return total


def kostka_from_traces(n, trace):
    """{(lam, mu): K_{lam,mu}(t)} over ``gl_pairs(n)``, from ``trace(theta)`` on the root system A_(n-1)."""
    kostant_t = t_kostant(root_system("A", n - 1), trace)
    rho = tuple(range(n - 1, -1, -1))
    out = {}
    for lam, mu in gl_pairs(n):
        total = LaurentPoly.zero()
        for perm in itertools.permutations(range(n)):
            sign = (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
            eps = [lam[perm[i]] + rho[perm[i]] - mu[i] - rho[i] for i in range(n)]
            gamma = tuple(itertools.accumulate(eps))[:-1]  # the last partial sum is |lam| - |mu| = 0
            if min(gamma, default=0) >= 0:
                total = total + sign * kostant_t(gamma)
        out[lam, mu] = total
    return out


def dominates(lam, mu):
    return all(a >= b for a, b in zip(itertools.accumulate(lam), itertools.accumulate(mu)))


def test_charge_sum_closed_forms():
    # Macdonald III.6, with t = q^-1 (the top degree is n(mu) - n(lam)): the tableaux and the charge alone
    t = LaurentPoly.q_power(-1)
    assert charge_sum((2, 1, 0), (1, 1, 1)) == t + t * t
    assert charge_sum((3, 1, 0, 0), (2, 1, 1, 0)) == t + t * t
    assert charge_sum((2, 2, 0, 0), (2, 1, 1, 0)) == t
    assert charge_sum((4, 0, 0, 0), (2, 2, 0, 0)) == t ** 2
    assert charge_sum((2, 2, 0, 0), (1, 1, 1, 1)) == t ** 2 + t ** 4
    assert charge_sum((2, 1, 1, 0), (1, 1, 1, 1)) == t + t ** 2 + t ** 3
    # every pair: K_{lam,mu} != 0 exactly when lam dominates mu, K_{lam,lam} = 1, and for mu = (1^k)
    # the sum over lam of K_{lam,mu}(1)^2 is k! (the Robinson-Schensted correspondence)
    pairs = [pair for n in (2, 3, 4) for pair in gl_pairs(n)]
    assert len(pairs) == 306 and sum(dominates(lam, mu) for lam, mu in pairs) == 183
    for lam, mu in pairs:
        value = charge_sum(lam, mu)
        assert bool(value) == dominates(lam, mu)
        assert lam != mu or value == LaurentPoly.one()
    for size in range(5):
        ones = (1,) * size + (0,) * (4 - size)
        squares = [sum(c for _, c in charge_sum(lam, ones).to_pairs()) ** 2 for lam in partitions_of(size, 4)]
        assert sum(squares) == math.factorial(size)


@pytest.mark.parametrize("name", ["kostant", "series", "oracle"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_kostka_foulkes_is_the_charge_sum(n, name):
    # w(lam + rho) <= lam + rho, so no gamma is taller than lam - mu, of height <= (n - 1) |lam|
    kostka = kostka_from_traces(n, route(root_system("A", n - 1), name, (n - 1) * KOSTKA_SIZE))
    for (lam, mu), value in kostka.items():
        assert value == charge_sum(lam, mu), (lam, mu)


def test_q_minus_three_at_the_first_simple_coroot_is_caught():
    changed = 0
    for n in (3, 4):
        rs = root_system("A", n - 1)
        simple = rs.positive_coroots[0]

        def corrupted(theta):
            return trace_kostant_sum(rs, theta) + (LaurentPoly.q_power(-3) if theta == simple else 0)

        kostka = kostka_from_traces(n, corrupted)
        changed += sum(value != charge_sum(lam, mu) for (lam, mu), value in kostka.items())
    assert changed > 0


# -- Kostka-Foulkes polynomials beyond type A ------------------------------------------------------
#
# For the dual group (its roots are the coroots, as in dot_orbit) and dominant weights lam >= mu with
# lam - mu in the coroot lattice, the same alternating sum gives
# K_{lam,mu}(t) = sum over w in W of sign(w) P_t(w(lam + rho) - (mu + rho)) = sum of sign(w) P_t(w . lam - mu).
# At t = 1 it is Kostant's multiplicity formula, so K_{lam,mu}(1) = dim V(lam)_mu, here from Freudenthal's
# formula (Humphreys, Introduction to Lie Algebras and Representation Theory, 22.3); and every coefficient
# is >= 0 (Lusztig, Asterisque 101-102 (1983)).  Weights are tuples of Fractions in simple coroot
# coordinates: the weight lattices of B3, C3 and G2 lie in (1/2)Z^n, as their Cartan matrices have
# determinants 2, 2 and 1.  Freudenthal's formula and the weight enumeration are written here.

WEIGHT_TOPS = {("B", 3): 4, ("C", 3): 3, ("G", 2): 6}  # the largest coroot coordinate of lam, per type


def labels(cartan, weight):
    """<weight, alpha_i> for each simple root alpha_i, for a weight in simple coroot coordinates."""
    return tuple(sum(x * row[i] for x, row in zip(weight, cartan)) for i in range(len(cartan)))


def weight_pairs(cartan, top):
    """(lam, mu) for each dominant lam with coordinates in {0, 1/2, ..., top} and each dominant mu <= lam with
    lam - mu in the coroot lattice; dominant weights have coordinates >= 0, so lam - mu lies in lam's box."""
    steps = [Fraction(k, 2) if k % 2 else k // 2 for k in range(2 * top + 1)]  # ints where they can be
    pairs = []
    for lam in itertools.product(steps, repeat=len(cartan)):
        if all(a.denominator == 1 and a >= 0 for a in labels(cartan, lam)):
            for delta in coordinate_box([math.floor(x) for x in lam]):
                mu = tuple(x - d for x, d in zip(lam, delta))
                if min(labels(cartan, mu)) >= 0:
                    pairs.append((lam, mu))
    return pairs


def freudenthal(cartan, coroots, lam):
    """mu -> dim V(lam)_mu for the dual group, by Freudenthal's formula

        (|lam + rho|^2 - |mu + rho|^2) m(mu) = 2 sum over alpha > 0, k >= 1 of m(mu + k alpha) (mu + k alpha, alpha),

    at the dominant conjugate of mu.  The form is (beta_i, beta_j) = d_i cartan[j][i] on the simple roots
    beta_i of the dual group (the simple coroots), with d_i cartan[j][i] = d_j cartan[i][j]; then
    (x, beta_i) = d_i <x, alpha_i>, so (2 rho, delta) = 2 sum_i d_i delta_i.
    """
    n = len(cartan)
    d = [Fraction(1)] + [None] * (n - 1)
    while None in d:
        for i, j in itertools.permutations(range(n), 2):
            if d[i] is not None and d[j] is None and cartan[i][j]:
                d[j] = d[i] * cartan[j][i] / cartan[i][j]

    def form(x, y):
        return sum(x[i] * y[j] * d[i] * cartan[j][i] for i in range(n) for j in range(n))

    memo = {}

    def mult(mu):
        while any(a < 0 for a in labels(cartan, mu)):  # reflect to the dominant conjugate: s_i mu = mu - a_i beta_i
            i, a = next((i, a) for i, a in enumerate(labels(cartan, mu)) if a < 0)
            mu = mu[:i] + (mu[i] - a,) + mu[i + 1:]
        delta = tuple(x - y for x, y in zip(lam, mu))
        if min(delta) < 0:
            return 0
        if mu not in memo:
            total = 0
            for alpha in coroots:
                k = 1
                while all(x >= k * a for x, a in zip(delta, alpha)):  # mu + k alpha <= lam
                    up = tuple(x + k * a for x, a in zip(mu, alpha))
                    total += mult(up) * form(up, alpha)
                    k += 1
            gap = form(tuple(x + y for x, y in zip(lam, mu)), delta) + 2 * sum(di * x for di, x in zip(d, delta))
            memo[mu] = 2 * total / gap if any(delta) else 1
        return memo[mu]

    return mult


def kostka_from_weights(rs, trace, pairs):
    """{(lam, mu): K_{lam,mu}(t)} over ``pairs``, from ``trace(theta)``."""
    kostant_t = t_kostant(rs, trace)
    orbits, out = {}, {}
    for lam, mu in pairs:
        if lam not in orbits:
            orbits[lam] = dot_orbit(rs.cartan, lam)
        total = LaurentPoly.zero()
        for v, sign in orbits[lam].items():
            gamma = tuple(int(x - y) for x, y in zip(v, mu))  # w . lam - mu lies in the coroot lattice
            if min(gamma) >= 0:
                total = total + sign * kostant_t(gamma)
        out[lam, mu] = total
    return out


def kostka_mismatches(rs, trace, pairs):
    """The pairs whose K(t) from ``trace`` has a negative coefficient or K(1) other than dim V(lam)_mu."""
    multiplicity = {}
    bad = []
    for (lam, mu), value in kostka_from_weights(rs, trace, pairs).items():
        if lam not in multiplicity:
            multiplicity[lam] = freudenthal(rs.cartan, rs.positive_coroots, lam)
        coefficients = [c for _, c in value.to_pairs()]
        if min(coefficients, default=0) < 0 or sum(coefficients) != multiplicity[lam](mu):
            bad.append((lam, mu))
    return bad


@pytest.mark.parametrize("name", ["kostant", "series", "oracle"])
@pytest.mark.parametrize("series,rank", list(WEIGHT_TOPS))
def test_kostka_foulkes_beyond_type_a(series, rank, name):
    rs = root_system(series, rank)
    pairs = weight_pairs(rs.cartan, WEIGHT_TOPS[series, rank])
    assert any(any(mu) for _, mu in pairs)
    # w . lam - mu <= lam - mu, so the series needs no theta taller than the tallest lam - mu
    top = max(int(sum(lam) - sum(mu)) for lam, mu in pairs)
    assert kostka_mismatches(rs, route(rs, name, top), pairs) == []


@pytest.mark.parametrize("series,rank", list(WEIGHT_TOPS))
def test_q_minus_three_at_a_simple_coroot_beyond_type_a_is_caught(series, rank):
    rs = root_system(series, rank)
    simple = rs.positive_coroots[0]

    def corrupted(theta):
        return trace_kostant_sum(rs, theta) + (LaurentPoly.q_power(-3) if theta == simple else 0)

    assert kostka_mismatches(rs, corrupted, weight_pairs(rs.cartan, WEIGHT_TOPS[series, rank]))
