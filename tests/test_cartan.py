"""Root-system engine tests.

The independent oracle here builds positive roots level by level with root
strings (the p - q test on known lower-height roots), a different algorithm
from the production reflection closure.
"""

from __future__ import annotations

import copy
import itertools
import json
import pickle
import random
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest
from closed_forms import CLOSED_FORM_COUNTS, exponents, highest_coroot

import bernasym
from bernasym.asymptotics import (
    AsympTable,
    ColoredDivisor,
    GKSeries,
    asymp_table_from_json,
    build_asymp_table,
    gk_product_series,
)
from bernasym.cartan import (
    ParabolicType,
    RootSystem,
    RootSystemSpec,
    Value,
    build_root_system,
    coweights_up_to_height,
    height,
    height_region,
    positive_roots_of,
    root_system,
    root_system_from_json,
    root_system_to_json,
    series_cartan,
    validate_cartan_matrix,
)
from bernasym.cli import parse_key_values
from bernasym.kostant import KostantPartition, enumerate_partitions, partition_from_json, partition_to_json
from bernasym.qlaurent import GrothendieckClass, LaurentPoly
from bernasym.strata import DefectPoset, DefectStratumIndex, ParabolicStratum, enumerate_local_strata


def positive_roots_by_strings(cartan) -> set[tuple[int, ...]]:
    """Oracle: grow roots height by height using the root-string criterion.

    beta + alpha_i is a root iff q >= 1 in the alpha_i-string through beta,
    where p - q = <alpha_i-check, beta> and p counts how far the string
    extends below beta through already-known roots.
    """
    n = len(cartan)
    simple = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
    roots: set[tuple[int, ...]] = set(simple)
    level = list(simple)
    while level:
        nxt = []
        for beta in level:
            for i in range(n):
                cand = tuple(x + 1 if k == i else x for k, x in enumerate(beta))
                if cand in roots:
                    continue
                p = 0
                while True:
                    down = tuple(x - (p + 1) if k == i else x for k, x in enumerate(beta))
                    if any(x < 0 for x in down) or down not in roots:
                        break
                    p += 1
                pairing = sum(cartan[i][j] * beta[j] for j in range(n))
                if p - pairing >= 1:
                    roots.add(cand)
                    nxt.append(cand)
        level = nxt
    return roots


SERIES_UNDER_TEST = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4),
    ("B", 2), ("B", 3), ("B", 4),
    ("C", 2), ("C", 3), ("C", 4),
    ("D", 2), ("D", 3), ("D", 4),
    ("G", 2), ("F", 4), ("E", 6), ("E", 7), ("E", 8),
]


class TestGeneration:
    def test_rank_one(self):
        rs = root_system("A", 1)
        assert rs.positive_coroots == ((1,),)

    def test_a2_by_hand(self):
        # closure of the A2 Cartan matrix by hand: the two simples and their sum
        rs = root_system("A", 2)
        assert set(rs.positive_coroots) == {(1, 0), (0, 1), (1, 1)}

    def test_g2_count(self):
        assert len(root_system("G", 2).positive_coroots) == 6

    @pytest.mark.parametrize("series,rank", SERIES_UNDER_TEST)
    def test_counts_match_closed_forms(self, series, rank):
        rs = root_system(series, rank)
        assert len(rs.positive_coroots) == CLOSED_FORM_COUNTS[series](rank)

    @pytest.mark.parametrize("series,rank,count", [("A", 40, 820), ("A", 64, 2080), ("B", 20, 400),
                                                   ("C", 20, 400), ("D", 20, 380)])
    def test_counts_at_large_rank(self, series, rank, count):
        # n(n+1)/2 for A_n, n^2 for B_n and C_n, n(n-1) for D_n
        assert CLOSED_FORM_COUNTS[series](rank) == count
        assert len(root_system(series, rank).positive_coroots) == count

    @pytest.mark.parametrize("series,rank", SERIES_UNDER_TEST)
    def test_against_root_string_oracle(self, series, rank):
        matrix = series_cartan(series, rank)
        transpose = tuple(tuple(matrix[j][i] for j in range(rank)) for i in range(rank))
        expected = positive_roots_by_strings(transpose)
        rs = root_system(series, rank)
        assert set(rs.positive_coroots) == expected

    @pytest.mark.parametrize("series,rank", SERIES_UNDER_TEST)
    def test_structure_invariants(self, series, rank):
        rs = root_system(series, rank)
        coroots = rs.positive_coroots
        assert len(set(coroots)) == len(coroots)
        # simple coroots all present; exactly rank elements of height 1
        simple = {tuple(1 if k == i else 0 for k in range(rank)) for i in range(rank)}
        assert simple <= set(coroots)
        assert sum(1 for b in coroots if height(b) == 1) == rank
        assert all(all(x >= 0 for x in b) and height(b) >= 1 for b in coroots)
        # canonical sort
        assert list(coroots) == sorted(coroots, key=lambda b: (height(b), b))

    def test_explicit_matrix(self):
        spec = RootSystemSpec(cartan=((2, -1), (-1, 2)))
        rs = build_root_system(spec)
        assert set(rs.positive_coroots) == {(1, 0), (0, 1), (1, 1)}
        assert rs.name == "custom"

    def test_spec_label(self):
        spec = RootSystemSpec(cartan=((2,),), label="my-a1")
        assert build_root_system(spec).name == "my-a1"

    @pytest.mark.parametrize("label", [5, ["x"]], ids=repr)
    def test_non_string_label_rejected(self, label):
        # 5 named a system whose JSON did not load back; ["x"] made an unhashable one
        for spec in ({"series": "A", "rank": 2}, {"cartan": ((2,),)}):
            with pytest.raises(ValueError, match="must be a string"):
                RootSystemSpec(**spec, label=label)


class _Int(int):
    pass


class TestValidation:
    @pytest.mark.parametrize(
        "matrix",
        [
            ((2, -1),),  # not square
            ((2, -1), (-1, 3)),  # diagonal not 2
            ((2, 1), (1, 2)),  # positive off-diagonal
            ((2, -1), (0, 2)),  # zero symmetry broken
            ((2, -2), (-2, 2)),  # affine, not finite type
            ((2, -1, -1), (-2, 2, -1), (-1, -1, 2)),  # not symmetrizable
            ((2.9, -1.2), (-1, 2)),  # not integers (truncation would give A2)
            ((2, -1), (-1.0, 2)),  # integral float
            ((2, -1), (True, 2)),  # boolean
            (2, -1, -1, 2),  # rows are not lists
            ((_Int(2), _Int(-1)), (_Int(-1), _Int(2))),  # int subclass, which was stored as it came
        ],
    )
    def test_bad_matrices_rejected(self, matrix):
        with pytest.raises(ValueError):
            RootSystemSpec(cartan=matrix)

    @pytest.mark.parametrize(
        "series,rank",
        [("A", 0), ("B", 1), ("C", 1), ("D", 1), ("E", 5), ("E", 9), ("F", 3), ("G", 3), ("H", 2)],
    )
    def test_bad_series_rejected(self, series, rank):
        with pytest.raises(ValueError):
            RootSystemSpec(series=series, rank=rank)

    @pytest.mark.parametrize("value", [5, None, "2 -1 -1 2", {0: (2,)}, [], ()], ids=repr)
    def test_non_list_value_rejected(self, value):
        with pytest.raises(ValueError, match="expected a nonempty list of rows"):
            validate_cartan_matrix(value)
        if value is not None:  # None is the absent matrix
            with pytest.raises(ValueError, match="expected a nonempty list of rows"):
                RootSystemSpec(cartan=value)

    def test_both_sources_rejected(self):
        with pytest.raises(ValueError):
            RootSystemSpec(series="A", rank=2, cartan=((2,),))

    @pytest.mark.parametrize("series,rank", [("A", True), ("A", 2.0), (3, 2), (b"A", 2)], ids=repr)
    def test_series_and_rank_types_rejected(self, series, rank):
        # a bool is an int to Python: only an exact type check keeps rank=True from building A1 named "ATrue"
        with pytest.raises(ValueError, match="must be a letter and an integer"):
            RootSystemSpec(series=series, rank=rank)
        with pytest.raises(ValueError, match="must be a letter and an integer"):
            series_cartan(series, rank)

    @pytest.mark.parametrize(
        "coroots,match",
        [
            (((1, 1), (0, 1), (1, 0)), "strictly sorted"),  # the A2 coroots, tallest first
            (((0, 1), (1, 1), (1, 0)), "strictly sorted"),  # a simple coroot after a taller one
            (((0, 1), (1, 0), (1, 0), (1, 1)), "strictly sorted"),  # a repeated coroot
            (((0, 1), (1, 1)), "unit vectors"),  # a simple coroot missing
            (((0, 1), (1, 0), (2, -1), (1, 1)), r"\(2, -1\) is not positive"),  # a third height-1 entry
            # each of these was accepted, and build_asymp_table then raised or reported a route disagreement
            (((0, 0), (0, 1), (1, 0), (1, 1)), "unit vectors"),  # a zero coroot first
            (((1, -1), (0, 1), (1, 0), (1, 1)), r"\(1, -1\) is not positive"),  # a height-0 coroot first
            (((0, 1), (1, 0), (1, 1, 0)), "has length 3, expected 2"),
            (((0, 1), (1, 0), (1, 1.0)), "not an integer"),
        ],
        ids=["reversed", "simple-late", "repeated", "simple-missing", "extra-height-one",
             "zero-first", "negative-first", "length-3", "float-coordinate"],
    )
    def test_malformed_coroots_rejected(self, coroots, match):
        with pytest.raises(ValueError, match=match):
            RootSystem("A2", series_cartan("A", 2), coroots)

    @pytest.mark.parametrize("series,rank", SERIES_UNDER_TEST)
    def test_generated_coroots_accepted(self, series, rank):
        # the coroots that build_root_system generates, and a pickled copy
        rs = root_system(series, rank)
        assert pickle.loads(pickle.dumps(rs)) == rs


def symmetrizer(matrix) -> list[Fraction] | None:
    """Positive d with d_i a_ij = d_j a_ji, d = 1 at the first vertex of each component; None if there is none.

    The matrix has 2s on the diagonal, entries <= 0 off it and zero symmetry.
    """
    n = len(matrix)
    d: list[Fraction | None] = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        queue = [start]
        while queue:
            i = queue.pop()
            for j in range(n):
                if i == j or matrix[i][j] == 0:
                    continue
                required = d[i] * Fraction(matrix[i][j], matrix[j][i])
                if d[j] is None:
                    d[j] = required
                    queue.append(j)
                elif d[j] != required:
                    return None
    return d


def fraction_verdict(matrix) -> str:
    """Reference finite-type check on a matrix with 2s on the diagonal and entries <= 0 off it.

    Zero symmetry, then a symmetrizer d in Fraction arithmetic, then Sylvester's
    criterion for DA by Fraction Gaussian elimination; the verdict names the
    first check that fails, or is "finite".
    """
    n = len(matrix)
    if any((matrix[i][j] == 0) != (matrix[j][i] == 0) for i in range(n) for j in range(n)):
        return "zero symmetry"
    d = symmetrizer(matrix)
    if d is None:
        return "not symmetrizable"
    m = [[d[i] * matrix[i][j] for j in range(n)] for i in range(n)]
    for k in range(n):
        if m[k][k] <= 0:
            return "not of finite type"
        for i in range(k + 1, n):
            factor = m[i][k] / m[k][k]
            for j in range(k, n):
                m[i][j] -= factor * m[k][j]
    return "finite"


def integer_verdict(matrix) -> str:
    """The production check's verdict in the reference's words."""
    try:
        validate_cartan_matrix(matrix)
    except ValueError as exc:
        for verdict in ("zero symmetry", "not symmetrizable", "not of finite type"):
            if verdict in str(exc):
                return verdict
        raise
    return "finite"


def diagonal_two_matrices(n: int):
    """Every n x n matrix with 2s on the diagonal and off-diagonal entries in {0, -1, -2, -3, -4}."""
    off = [(i, j) for i in range(n) for j in range(n) if i != j]
    for values in itertools.product((0, -1, -2, -3, -4), repeat=len(off)):
        m = [[2] * n for _ in range(n)]
        for (i, j), a in zip(off, values):
            m[i][j] = a
        yield m


class TestFiniteTypeCrossCheck:
    """The integer check (Bareiss minors of A) against the Fraction reference (Sylvester on DA)."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_every_small_matrix_agrees(self, n):
        verdicts = {}
        for matrix in diagonal_two_matrices(n):
            expected = fraction_verdict(matrix)
            assert integer_verdict(matrix) == expected, matrix
            verdicts[expected] = verdicts.get(expected, 0) + 1
        # both sets are nonempty, so agreement is not vacuous
        assert verdicts["finite"] and verdicts["not of finite type"]
        if n == 3:
            assert verdicts["not symmetrizable"]

    @pytest.mark.parametrize("series,rank", [("E", 8), ("F", 4), ("D", 10), ("B", 10)])
    def test_finite_series_accepted(self, series, rank):
        matrix = series_cartan(series, rank)
        assert fraction_verdict(matrix) == integer_verdict(matrix) == "finite"

    @pytest.mark.parametrize(
        "matrix",
        [
            ((2, -2), (-2, 2)),
            ((2, -1, -1), (-1, 2, -1), (-1, -1, 2)),
            # two hyperbolic blocks: the determinant is positive, the second leading minor is not
            ((2, -3, 0, 0), (-3, 2, 0, 0), (0, 0, 2, -3), (0, 0, -3, 2)),
        ],
        ids=["affine-A1", "affine-A2", "hyperbolic-pair"],
    )
    def test_infinite_type_rejected(self, matrix):
        assert fraction_verdict(matrix) == integer_verdict(matrix) == "not of finite type"


def heights_follow_exponents(coroots, series, rank) -> bool:
    """Distinct coroots, and #{coroots of height k} = #{i : m_i >= k} for every k >= 1.

    The height distribution of the positive roots is dual to the exponents m_i
    (Kostant, "The principal three-dimensional subgroup and the Betti numbers
    of a complex simple Lie group", Amer. J. Math. 81, 1959); a root system and
    its dual have the same exponents.
    """
    m = exponents(series, rank)
    expected = Counter({k: sum(x >= k for x in m) for k in range(1, max(m) + 1)})
    return len(set(coroots)) == len(coroots) and Counter(sum(beta) for beta in coroots) == expected


def norm_criterion_failures(cartan, coroots) -> list:
    """The listed coroots that are not positive coroots by the norm criterion of the transpose's form.

    The coroots are the roots of the transpose T, with T_ij = 2 (a_i, a_j) / (a_i, a_i) for its simple
    roots a_i.  Integers d_i > 0 with d_i T_ij = d_j T_ji are proportional to (a_i, a_i) on a connected
    diagram, so G_ij = d_i T_ij is a positive multiple of the Gram matrix; on a disconnected one the
    factor differs between components, and the norms of two components cannot be compared.

    Criterion (cf. Kac, *Infinite-Dimensional Lie Algebras*, ch. 5, real roots): a nonzero v >= 0 is a
    positive root iff v_i (a_i, a_i) / (v, v) is an integer for every i, and then (v, v) is some
    (a_j, a_j), since W moves every root to a simple one.  Both conditions are checked.  Proof that the
    integers suffice, for a positive-definite form: they are the coordinates of v' = 2v / (v, v) in the
    coroot basis, so v' lies in the coroot lattice, which every s_i keeps.  A multiple k a_i has 1/k
    there, so it is a_i.  Otherwise (v, v) = sum_i v_i (v, a_i) > 0 gives an i with v_i > 0 and
    (v, a_i) > 0, and the integers n = 2 (v, a_i) / (a_i, a_i) and m = 2 (v, a_i) / (v, v) have
    nm < 4 by Cauchy-Schwarz, so one of them is 1.  If n = 1, s_i v = v - a_i >= 0.  If m = 1,
    n = (v, v) / (a_i, a_i) and v_i / n is an integer, so s_i v = v - n a_i >= 0.  Either way s_i v
    has the same property and a smaller height, so by induction it is a positive root, and so is v.
    """
    n = len(cartan)
    transpose = [[cartan[j][i] for j in range(n)] for i in range(n)]
    d = symmetrizer(transpose)
    scale = lcm(*(x.denominator for x in d))
    gram = [[int(d[i] * scale) * transpose[i][j] for j in range(n)] for i in range(n)]
    norms = {gram[i][i] for i in range(n)}
    failures = []
    for v in coroots:
        norm = sum(v[i] * gram[i][j] * v[j] for i in range(n) for j in range(n))
        if norm not in norms or any(v[i] * gram[i][i] % norm for i in range(n)):
            failures.append(v)
    return failures


NAMED_UP_TO_RANK_16 = ([(s, r) for s, low in zip("ABCD", (1, 2, 2, 2)) for r in range(low, 17)]
                       + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])

CONNECTED_UP_TO_RANK_6 = ([("A", r) for r in range(1, 7)] + [("B", r) for r in range(2, 7)]
                          + [("C", r) for r in range(2, 7)] + [("D", r) for r in range(3, 7)]
                          + [("E", 6), ("F", 4), ("G", 2)])


class TestCorootList:
    """Checks of the one input every route shares, by code that shares nothing with positive_roots_of.

    Where both run, the coroots are distinct and each passes the norm
    criterion, so they are positive coroots, and the height distribution
    fixes how many there are: together the two checks fix the exact set.
    """

    @pytest.mark.parametrize("series,rank", NAMED_UP_TO_RANK_16)
    def test_heights_follow_exponents(self, series, rank):
        assert heights_follow_exponents(root_system(series, rank).positive_coroots, series, rank)

    @pytest.mark.parametrize("series,rank", NAMED_UP_TO_RANK_16)
    def test_highest_coroot_pins_the_labeling(self, series, rank):
        # heights and norms do not change when the vertices are relabeled; the highest coroot does
        coroots = root_system(series, rank).positive_coroots
        if (series, rank) == ("D", 2):  # A1 x A1 has no highest coroot
            assert set(coroots) == {(1, 0), (0, 1)}
        else:
            assert coroots[-1] == highest_coroot(series, rank)

    @pytest.mark.parametrize("series,rank", CONNECTED_UP_TO_RANK_6)
    def test_norm_criterion(self, series, rank):
        rs = root_system(series, rank)
        assert norm_criterion_failures(rs.cartan, rs.positive_coroots) == []

    def test_norm_criterion_rejects_non_roots(self):
        # twice a coroot has four times its norm; v = (1, 2, 3, 2) in B4 has the norm of the long simple
        # coroot, but v_0 (a_0, a_0) / (v, v) = 1/2
        b4 = root_system("B", 4)
        wrong = [tuple(2 * x for x in beta) for beta in b4.positive_coroots] + [(1, 2, 3, 2)]
        assert norm_criterion_failures(b4.cartan, wrong) == wrong

    def test_mutated_e6_lists_fail(self):
        e6 = root_system("E", 6)
        coroots = list(e6.positive_coroots)
        swapped = [(3, 0, 0, 0, 0, 0) if beta == (0, 0, 0, 1, 1, 1) else beta for beta in coroots]
        assert swapped != coroots and heights_follow_exponents(swapped, "E", 6)  # the swap keeps every height
        assert norm_criterion_failures(e6.cartan, swapped) == [(3, 0, 0, 0, 0, 0)]
        for k in range(len(coroots)):
            assert not heights_follow_exponents(coroots[:k] + coroots[k + 1:], "E", 6)


def diagram_automorphisms(cartan) -> list[tuple[int, ...]]:
    """Every permutation sigma of the vertices with a[sigma i][sigma j] = a[i][j], by brute force."""
    n = len(cartan)
    return [sigma for sigma in itertools.permutations(range(n))
            if all(cartan[sigma[i]][sigma[j]] == cartan[i][j] for i in range(n) for j in range(n))]


def entries_moved_by(table, sigma) -> list:
    """The thetas whose trace differs from that of sigma theta, whose coordinate sigma(i) is theta_i."""
    def image(theta):
        out = [0] * len(theta)
        for i, t in enumerate(theta):
            out[sigma[i]] = t
        return tuple(out)

    return [theta for theta, trace in table.entries.items() if table.entries[image(theta)] != trace]


class TestDiagramAutomorphisms:
    """A diagram automorphism maps the root datum to itself, so trace(sigma theta) = trace(theta) for every theta."""

    @pytest.mark.parametrize("series,rank,bound,count",
                             [("A", 5, 7, 2), ("D", 4, 8, 6), ("D", 5, 6, 2), ("E", 6, 6, 2)])
    def test_automorphisms_fix_every_entry(self, series, rank, bound, count):
        rs = root_system(series, rank)
        table = build_asymp_table(rs, bound, verify=False)
        automorphisms = diagram_automorphisms(rs.cartan)
        assert len(automorphisms) == count  # the identity among them
        for sigma in automorphisms:
            assert entries_moved_by(table, sigma) == [], sigma

    def test_other_permutation_moves_an_entry(self):
        # swapping the end vertex 0 of A5 with its neighbour 1: (0, 1, 1, 0, 0) is a coroot, (1, 0, 1, 0, 0) is not
        rs = root_system("A", 5)
        sigma = (1, 0, 2, 3, 4)
        assert sigma not in diagram_automorphisms(rs.cartan)
        assert (0, 1, 1, 0, 0) in entries_moved_by(build_asymp_table(rs, 2, verify=False), sigma)


def rho_in_root_coords(rs: RootSystem) -> tuple[Fraction, ...]:
    """rho = half the sum of the positive roots, in simple-root coordinates."""
    roots = positive_roots_of(rs.cartan)
    return tuple(Fraction(sum(b[i] for b in roots), 2) for i in range(rs.rank))


def pair_weight_with_coroot(rs: RootSystem, weight, coroot) -> Fraction:
    """Pair a weight (simple-root coordinates) with a coroot (simple-coroot coordinates)."""
    n = rs.rank
    total = Fraction(0)
    for j in range(n):
        if coroot[j]:
            total += coroot[j] * sum(rs.cartan[j][i] * weight[i] for i in range(n))
    return total


def rho_pairing(rs: RootSystem, theta) -> Fraction:
    """<rho, theta> with rho computed as the half-sum of the positive roots."""
    return pair_weight_with_coroot(rs, rho_in_root_coords(rs), theta)


class TestRhoPairing:
    def test_a2_sum(self):
        assert rho_pairing(root_system("A", 2), (1, 1)) == 2 == height((1, 1))

    def test_zero(self):
        assert rho_pairing(root_system("B", 2), (0, 0)) == 0 == height((0, 0))

    def test_a1_multiple(self):
        assert rho_pairing(root_system("A", 1), (3,)) == 3 == height((3,))

    def test_additivity(self):
        rs = root_system("B", 3)
        rng = random.Random(5)
        for _ in range(50):
            a = tuple(rng.randint(-4, 4) for _ in range(3))
            b = tuple(rng.randint(-4, 4) for _ in range(3))
            s = tuple(x + y for x, y in zip(a, b))
            assert rho_pairing(rs, s) == rho_pairing(rs, a) + rho_pairing(rs, b)
            assert rho_pairing(rs, s) == height(s)

    @pytest.mark.parametrize("series,rank", SERIES_UNDER_TEST)
    def test_half_sum_cross_check(self, series, rank):
        # <rho, alpha_i-check> = 1 for every simple coroot, with rho computed
        # as the honest half-sum of positive roots
        rs = root_system(series, rank)
        rho = rho_in_root_coords(rs)
        for i in range(rank):
            simple = tuple(1 if k == i else 0 for k in range(rank))
            assert pair_weight_with_coroot(rs, rho, simple) == Fraction(1)
        # and the pairing therefore equals the height on the coroot lattice
        for beta in rs.positive_coroots:
            assert pair_weight_with_coroot(rs, rho, beta) == height(beta)


VALUE_MAKERS = {
    "RootSystem": lambda: root_system("A", 2),
    "RootSystemSpec": lambda: RootSystemSpec(series="B", rank=2),
    "KostantPartition": lambda: KostantPartition(parts=((0, 1), (2, 1))),
    "ParabolicType": lambda: ParabolicType((2, 0)),
    "ColoredDivisor": lambda: ColoredDivisor(points=(("x", (1, 0)),)),
    "ParabolicStratum": lambda: ParabolicStratum(levi_vertices=(1,), canonical_point=(0, 1)),
    "DefectStratumIndex": lambda: DefectStratumIndex(levi_vertices=(), total=(1, 0),
                                                     parts=((0, 0), (1, 0), (0, 0))),
    "DefectPoset": lambda: DefectPoset(elements=((0,), (1,)), covers=(((0,), (1,)),), bound=1),
}
#: a value of every class, also those whose dict field makes them unhashable
REPR_MAKERS = {
    **VALUE_MAKERS,
    "AsympTable": lambda: build_asymp_table(root_system("A", 2), 2, genus=1),
    "GKSeries": lambda: gk_product_series(root_system("A", 2), 2),
    "GrothendieckClass": lambda: GrothendieckClass({(0, 0): 1, (3, 1): -2}),
}


def value_classes() -> list[type]:
    """Every subclass of Value that the package defines."""
    found, pending = [], [Value]
    while pending:
        for sub in pending.pop().__subclasses__():
            if sub.__module__.startswith(bernasym.__name__):
                found.append(sub)
            pending.append(sub)
    return found


#: the classes whose constructor is Value.__init__ itself
PLAIN_VALUE_CLASSES = [cls for cls in value_classes() if "__init__" not in vars(cls)]
#: a call to each class with a constructor of its own, short of a field it needs
MISSING_FIELD = {
    RootSystem: lambda: RootSystem("A1", ((2,),)),
    ColoredDivisor: lambda: ColoredDivisor(),
    AsympTable: lambda: AsympTable(root_system("A", 1)),
    GrothendieckClass: lambda: GrothendieckClass(),
}


class TestValueSemantics:
    @pytest.mark.parametrize("kind", VALUE_MAKERS)
    def test_fields_are_read_only(self, kind):
        value = VALUE_MAKERS[kind]()
        for name in type(value).__slots__:
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(value, name))
            with pytest.raises(AttributeError):
                delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = 1

    @pytest.mark.parametrize("kind", VALUE_MAKERS)
    def test_equal_fields_equal_values(self, kind):
        a, b = VALUE_MAKERS[kind](), VALUE_MAKERS[kind]()
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    @pytest.mark.parametrize("kind", VALUE_MAKERS)
    def test_keyword_construction_equals_positional(self, kind):
        value = VALUE_MAKERS[kind]()
        fields = value.__reduce__()[1]
        by_name = type(value)(**dict(zip(type(value).__slots__, fields)))
        assert by_name == type(value)(*fields) == value

    def test_plain_value_classes_found(self):
        names = {cls.__name__ for cls in PLAIN_VALUE_CLASSES}
        assert names == {"KostantPartition", "ParabolicStratum", "DefectStratumIndex", "DefectPoset", "GKSeries"}
        own_constructor = set(value_classes()) - set(PLAIN_VALUE_CLASSES)
        assert own_constructor == set(MISSING_FIELD) | {RootSystemSpec, ParabolicType}

    @pytest.mark.parametrize("cls", PLAIN_VALUE_CLASSES, ids=lambda cls: cls.__name__)
    def test_wrong_field_set_raises_type_error(self, cls):
        # unchecked, GKSeries() builds an object whose repr raises AttributeError, and
        # GKSeries({}, "extra") drops "extra" without a word
        slots = [name.removeprefix("_") for name in cls.__slots__]  # the field names
        calls = {
            "missing by position": lambda: cls(*range(len(slots) - 1)),
            "missing by name": lambda: cls(**{name: 0 for name in slots[1:]}),
            "extra by position": lambda: cls(*range(len(slots) + 1)),
            "unknown name": lambda: cls(*range(len(slots) - 1), unknown=0),
            "unknown name added": lambda: cls(**{name: 0 for name in slots}, unknown=0),
            # with two or more fields: the first one twice and the last one missing, so the count is right
            "named twice": lambda: cls(*range(max(len(slots) - 1, 1)), **{slots[0]: 0}),
            "none": lambda: cls(),
        }
        for what, call in calls.items():
            try:
                call()
            except TypeError as exc:
                assert f"{cls.__name__} takes the fields" in str(exc), what
            else:
                pytest.fail(f"{cls.__name__}: {what} was accepted")
        assert cls(*range(len(slots))) == cls(**{name: i for i, name in enumerate(slots)})

    @pytest.mark.parametrize("cls", value_classes(), ids=lambda cls: cls.__name__)
    def test_extra_or_unknown_field_raises_type_error_everywhere(self, cls):
        with pytest.raises(TypeError):
            cls(*range(len(cls.__slots__) + 1))
        with pytest.raises(TypeError):
            cls(unknown=0)
        if cls in MISSING_FIELD:
            with pytest.raises(TypeError):
                MISSING_FIELD[cls]()

    def test_unequal_fields(self):
        assert root_system("A", 2) != root_system("A", 3)
        assert ParabolicType((0,)) != ParabolicType((1,))
        assert KostantPartition(((0, 1),)) != KostantPartition(((0, 2),))

    def test_same_fields_different_classes_unequal(self):
        parabolic, divisor = ParabolicType(()), ColoredDivisor(points=())
        assert parabolic.__reduce__()[1] == divisor.__reduce__()[1] == ((),)
        assert parabolic != divisor and divisor != parabolic

    @pytest.mark.parametrize("kind", VALUE_MAKERS)
    def test_copy_and_pickle_round_trip(self, kind):
        value = VALUE_MAKERS[kind]()
        for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert clone == value and type(clone) is type(value)

    def test_not_equal_to_other_types(self):
        assert ParabolicType((0,)) != ((0,),)
        assert root_system("A", 1) != "A1"

    @pytest.mark.parametrize("cls", value_classes(), ids=lambda cls: cls.__name__)
    def test_repr_is_a_constructor_call(self, cls):
        value = REPR_MAKERS[cls.__name__]()
        namespace = {kind.__name__: kind for kind in value_classes()} | {"LaurentPoly": LaurentPoly}
        assert type(value) is cls and eval(repr(value), namespace) == value

    def test_private_slot_is_named_as_its_field(self):
        # the slot _terms holds the field terms: the keyword, the repr and the error all say terms
        series = REPR_MAKERS["GKSeries"]()
        assert GKSeries(terms=series.__reduce__()[1][0]) == series and repr(series).startswith("GKSeries(terms={")
        with pytest.raises(TypeError, match="GKSeries takes the fields terms, each once"):
            GKSeries(_terms={})
        assert "entries={(0, 0): LaurentPoly({0: 1})," in repr(REPR_MAKERS["AsympTable"]())

    def test_repr(self):
        assert repr(ParabolicType((2, 0))) == "ParabolicType(levi_vertices=(0, 2))"
        assert repr(root_system("A", 1)) == (
            "RootSystem(name='A1', cartan=((2,),), positive_coroots=((1,),))"
        )
        assert repr(RootSystemSpec(series="b", rank=2)) == (
            "RootSystemSpec(series='B', rank=2, cartan=None, label=None)"
        )


class TestQuotient:
    def test_wrong_quotient_length_rejected(self):
        rs = root_system("A", 2)
        with pytest.raises(ValueError, match="expected 2"):
            enumerate_local_strata(rs, ParabolicType(), (1,))
        with pytest.raises(ValueError, match=r"quotient coweight \(1, 1\) has length 2, expected 1"):
            enumerate_local_strata(rs, ParabolicType((0,)), (1, 1))

    @pytest.mark.parametrize("vertices", [(1.5,), (0, 1.0), (True,)], ids=["fractional", "float", "boolean"])
    def test_non_integer_levi_vertex_rejected(self, vertices):
        with pytest.raises(ValueError, match="not an integer"):
            ParabolicType(vertices)

    @pytest.mark.parametrize("vertices", [5, None], ids=repr)
    def test_non_sequence_levi_vertices_rejected(self, vertices):
        # each raised TypeError: '...' object is not iterable
        with pytest.raises(ValueError, match=f"Levi vertex list {vertices} is not a sequence of integers"):
            ParabolicType(vertices)

    @pytest.mark.parametrize("vertices", [(-1,), (0, -2)], ids=["alone", "with-another"])
    def test_negative_levi_vertex_rejected(self, vertices):
        # refused at construction; a negative vertex used to pass until validate() saw the rank
        with pytest.raises(ValueError, match=r"Levi vertex list \(.*\) is not positive"):
            ParabolicType(vertices)

    def test_non_integer_quotient_coweight_rejected(self):
        rs = root_system("A", 2)
        with pytest.raises(ValueError, match="not an integer"):
            enumerate_local_strata(rs, ParabolicType((0,)), (1.5,))

    def test_bad_vertex_rejected(self):
        rs = root_system("A", 2)
        with pytest.raises(ValueError, match="Levi vertex 5 is out of range for rank 2"):
            enumerate_local_strata(rs, ParabolicType((5,)), (0,))


class TestEnumeration:
    def test_coweights_sorted_and_complete(self):
        out = coweights_up_to_height(2, 2)
        assert out == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]

    def test_bound_zero(self):
        assert coweights_up_to_height(3, 0) == [(0, 0, 0)]

    @pytest.mark.parametrize("rank", range(7))
    def test_equals_the_sorted_box(self, rank):
        for bound in range(6):
            box = [v for v in itertools.product(range(bound + 1), repeat=rank) if sum(v) <= bound]
            assert coweights_up_to_height(rank, bound) == sorted(box, key=lambda v: (sum(v), v))

    @pytest.mark.parametrize("rank", range(5))
    def test_box_region_equals_the_filtered_box(self, rank):
        for box in itertools.product(range(4), repeat=rank):
            points = list(itertools.product(*(range(t + 1) for t in box)))
            for bound in range(7):
                expected = sorted((v for v in points if sum(v) <= bound), key=lambda v: (sum(v), v))
                assert height_region(rank, bound, box) == expected, (box, bound)

    def test_rank_zero_region(self):
        for bound in range(3):
            assert height_region(0, bound) == height_region(0, bound, ()) == [()]

    @pytest.mark.parametrize("rank,bound,what", [(-1, 2, "rank -1"), (1.0, 2, "rank 1.0"), (True, 2, "rank True"),
                                                 (2, -1, "height bound -1"), (2, 2.0, "height bound 2.0")])
    def test_box_region_bad_rank_or_bound_rejected(self, rank, bound, what):
        with pytest.raises(ValueError, match=f"^{what} must be an integer >= 0$"):
            height_region(rank, bound, (1, 1))

    @pytest.mark.parametrize("box", [(1,), (1, 1, 1), (1, -1), (1, 1.0), 5], ids=repr)
    def test_box_not_a_coweight_of_the_rank_rejected(self, box):
        with pytest.raises(ValueError, match=r"^box "):
            height_region(2, 3, box)

    def test_large_rank_count(self):
        # C(66, 64) coweights of A64 up to height 2: 1, 64 and C(65, 2) of heights 0, 1, 2
        assert len(coweights_up_to_height(64, 2)) == 2145

    @pytest.mark.parametrize("rank,bound,what", [(-1, 2, "rank -1"), (1.0, 2, "rank 1.0"), (True, 2, "rank True"),
                                                 (2, -1, "height bound -1"), (2, 2.0, "height bound 2.0")])
    def test_bad_rank_or_bound_rejected(self, rank, bound, what):
        # rank -1 recursed until RecursionError, and rank 1.0 gave [(0,), (1,), (2,)]
        with pytest.raises(ValueError, match=f"^{what} must be an integer >= 0$"):
            coweights_up_to_height(rank, bound)


class TestWireFormats:
    def test_root_system_json_round_trip(self):
        for series, rank in [("A", 2), ("G", 2), ("B", 3)]:
            rs = root_system(series, rank)
            assert root_system_from_json(root_system_to_json(rs)) == rs

    def test_root_system_json_rejects_affine_matrix(self):
        obj = root_system_to_json(root_system("A", 2))
        obj["cartan"] = [[2, 5], [5, 2]]
        with pytest.raises(ValueError, match="positive"):
            root_system_from_json(obj)

    def test_root_system_json_rejects_non_integer_matrix(self):
        obj = root_system_to_json(root_system("A", 2))
        obj["cartan"] = [[2.9, -1.2], [-1, 2]]
        with pytest.raises(ValueError, match="not an integer"):
            root_system_from_json(obj)

    def test_root_system_json_rejects_inconsistent_coroots(self):
        # with only the simple coroots, theta (1, 1) would get 1 - 2q + q^2 instead of 1 - q
        obj = root_system_to_json(root_system("A", 2))
        obj["positive_coroots"] = [[1, 0], [0, 1]]
        with pytest.raises(ValueError, match="is not exactly what root_system_to_json writes"):
            root_system_from_json(obj)

    @pytest.mark.parametrize(
        "field, value, match",
        [("labels", [0], "root_system_to_json writes"), ("labels", [1, 0], "root_system_to_json writes"),
         ("heights", [1, 1, 1], "root_system_to_json writes"), ("extra", 1, "root_system_to_json writes"),
         ("name", 2, "label 2 must be a string"), ("labels", [0.0, True], "root_system_to_json writes"),
         ("heights", [1.0, 1, 2], "root_system_to_json writes")],
        ids=["short-labels", "permuted-labels", "heights", "extra-key", "non-string-name", "float-boolean-labels",
             "float-heights"],
    )
    def test_root_system_json_to_json_does_not_write_rejected(self, field, value, match):
        # each was read as A2 before
        obj = root_system_to_json(root_system("A", 2))
        obj[field] = value
        with pytest.raises(ValueError, match=match):
            root_system_from_json(obj)

    @pytest.mark.parametrize(
        "load, write, edit",
        [(LaurentPoly.from_pairs, lambda: LaurentPoly({0: 1}).to_pairs(), lambda pairs: dict(pairs)),
         (LaurentPoly.from_pairs, lambda: LaurentPoly({0: 1}).to_pairs(), lambda pairs: [tuple(pairs[0])]),
         (lambda data: partition_from_json(root_system("A", 2), data),
          lambda: partition_to_json(root_system("A", 2), enumerate_partitions(root_system("A", 2), (1, 0))[0]),
          tuple),
         (root_system_from_json, lambda: root_system_to_json(root_system("A", 2)),
          lambda obj: {**obj, "positive_coroots": tuple(obj["positive_coroots"])}),
         (root_system_from_json, lambda: root_system_to_json(root_system("A", 2)),
          lambda obj: {**obj, "cartan": tuple(obj["cartan"])}),
         (root_system_from_json, lambda: root_system_to_json(root_system("A", 2)), lambda obj: {**obj, "name": ""}),
         (asymp_table_from_json, lambda: build_asymp_table(root_system("A", 2), 1).to_json_obj(),
          lambda obj: {**obj, "entries": tuple(obj["entries"])})],
        ids=["pairs-as-object", "pair-as-tuple", "partition-as-tuple", "coroots-as-tuple", "cartan-as-tuple",
             "empty-name", "entries-as-tuple"],
    )
    def test_every_loader_refuses_what_its_writer_does_not_write(self, load, write, edit):
        # each loaded before, or was refused with the message of another cause
        data = write()
        load(data)  # the value as written loads
        with pytest.raises(ValueError, match=r"is not exactly what \S+ writes$"):
            load(edit(data))

    def test_parse_key_value_text(self):
        assert parse_key_values("type=A rank=3") == {"type": "A", "rank": "3"}
        fields = parse_key_values("# comment\ntype=G\nrank=2\nlabel=my-g2\n")
        assert fields == {"type": "G", "rank": "2", "label": "my-g2"}
        assert parse_key_values("type = B\n  rank =2 label= b\nrank=4\n") == {"type": "B", "rank": "4", "label": "b"}

    def test_parse_json_matrix(self):
        # the CLI reads a --cartan file with json.load and hands the value to RootSystemSpec as it is
        assert RootSystemSpec(cartan=json.loads("[[2, -1], [-1, 2]]")).cartan == ((2, -1), (-1, 2))
        for text in ("[2, -1, -1, 2]", "[[2, -1], [-1, 2.0]]", "[[2, -1], [-1, true]]", "4"):
            with pytest.raises(ValueError):
                RootSystemSpec(cartan=json.loads(text))

    def test_parse_failures(self):
        for text in ("type A rank 3", "type=A rank=3 label=my g2", "type= rank=3", "=A"):
            with pytest.raises(ValueError, match="expected key=value tokens"):
                parse_key_values(text)
