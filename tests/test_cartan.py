"""Root-system engine tests.

The independent oracle here builds positive roots level by level with root
strings (the p - q test on known lower-height roots), a different algorithm
from the production reflection closure.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from bernasym.cartan import (
    CLOSED_FORM_COUNTS,
    ParabolicType,
    RootSystem,
    RootSystemSpec,
    build_root_system,
    check_quotient_coweight,
    coweights_up_to_height,
    height,
    leq,
    levi_subsystem,
    pair_weight_with_coroot,
    parse_spec_text,
    rho_in_root_coords,
    root_system,
    root_system_from_json,
    root_system_to_json,
    series_cartan,
)


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

    def test_both_sources_rejected(self):
        with pytest.raises(ValueError):
            RootSystemSpec(series="A", rank=2, cartan=((2,),))


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


class TestQuotient:
    def test_leq_reflexive(self):
        rs = root_system("A", 2)
        assert leq(rs, ParabolicType.borel(), (0, 0), (0, 0))

    def test_leq_examples(self):
        rs = root_system("A", 2)
        b = ParabolicType.borel()
        assert leq(rs, b, (0, 1), (1, 1))
        assert not leq(rs, b, (2, 0), (1, 1))

    def test_leq_is_partial_order_on_box(self):
        rs = root_system("A", 2)
        b = ParabolicType.borel()
        box = list(itertools.product(range(3), repeat=2))
        for x in box:
            assert leq(rs, b, x, x)
            for y in box:
                if leq(rs, b, x, y) and leq(rs, b, y, x):
                    assert x == y
                for z in box:
                    if leq(rs, b, x, y) and leq(rs, b, y, z):
                        assert leq(rs, b, x, z)

    def test_leq_mismatched_lengths_rejected(self):
        rs = root_system("A", 2)
        with pytest.raises(ValueError):
            leq(rs, ParabolicType.borel(), (1,), (1, 1))
        with pytest.raises(ValueError):
            leq(rs, ParabolicType((0,)), (1, 1), (1, 1))

    @pytest.mark.parametrize("vertices", [(1.5,), (0, 1.0), (True,)], ids=["fractional", "float", "boolean"])
    def test_non_integer_levi_vertex_rejected(self, vertices):
        with pytest.raises(ValueError, match="not an integer"):
            ParabolicType(vertices)

    def test_non_integer_quotient_coweight_rejected(self):
        rs = root_system("A", 2)
        with pytest.raises(ValueError, match="not an integer"):
            check_quotient_coweight(rs, ParabolicType((0,)), (1.5,))

    def test_bad_vertex_rejected(self):
        rs = root_system("A", 2)
        with pytest.raises(ValueError):
            leq(rs, ParabolicType((5,)), (0,), (0,))


class TestLevi:
    def test_a3_disconnected_levi(self):
        rs = root_system("A", 3)
        levi = levi_subsystem(rs, ParabolicType((0, 2)))
        assert len(levi.positive_coroots) == 2
        assert levi.labels == (0, 2)

    def test_a2_single_vertex(self):
        levi = levi_subsystem(root_system("A", 2), ParabolicType((0,)))
        assert levi.positive_coroots == ((1,),)

    def test_a3_connected_levi(self):
        levi = levi_subsystem(root_system("A", 3), ParabolicType((0, 1)))
        assert len(levi.positive_coroots) == 3

    def test_empty_levi_rejected(self):
        with pytest.raises(ValueError):
            levi_subsystem(root_system("A", 2), ParabolicType.borel())

    @pytest.mark.parametrize("series,rank", [("A", 3), ("B", 3), ("C", 4), ("D", 4), ("G", 2)])
    def test_full_levi_bijection(self, series, rank):
        # the full Levi reproduces the coroots supported on the chosen vertices,
        # height for height
        rs = root_system(series, rank)
        full = levi_subsystem(rs, ParabolicType(tuple(range(rank))))
        assert set(full.positive_coroots) == set(rs.positive_coroots)
        for verts in itertools.combinations(range(rank), 2):
            levi = levi_subsystem(rs, ParabolicType(verts))
            embedded = set()
            for b in levi.positive_coroots:
                vec = [0] * rank
                for pos, value in zip(verts, b):
                    vec[pos] = value
                assert height(tuple(vec)) == height(b)  # embedding preserves height
                embedded.add(tuple(vec))
            supported = {
                b
                for b in rs.positive_coroots
                if all(b[i] == 0 for i in range(rank) if i not in verts)
            }
            assert embedded == supported


class TestEnumeration:
    def test_coweights_sorted_and_complete(self):
        out = coweights_up_to_height(2, 2)
        assert out == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]

    def test_bound_zero(self):
        assert coweights_up_to_height(3, 0) == [(0, 0, 0)]


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
        with pytest.raises(ValueError, match="positive_coroots"):
            root_system_from_json(obj)

    def test_parse_key_value_text(self):
        spec = parse_spec_text("type=A rank=3")
        assert (spec.series, spec.rank) == ("A", 3)
        spec = parse_spec_text("# comment\ntype=G\nrank=2\nlabel=my-g2\n")
        assert (spec.series, spec.rank, spec.label) == ("G", 2, "my-g2")
        spec = parse_spec_text("type = B\n  rank =2 label= b\n")
        assert (spec.series, spec.rank, spec.label) == ("B", 2, "b")

    def test_parse_json_matrix(self):
        spec = parse_spec_text("[[2, -1], [-1, 2]]")
        assert spec.cartan == ((2, -1), (-1, 2))
        spec = parse_spec_text("[2, -1, -1, 2]")
        assert spec.cartan == ((2, -1), (-1, 2))

    def test_parse_failures(self):
        with pytest.raises(ValueError):
            parse_spec_text("rank=3")
        with pytest.raises(ValueError):
            parse_spec_text("[2, -1, -1]")
        with pytest.raises(ValueError):
            parse_spec_text("type A rank 3")
        with pytest.raises(ValueError):
            parse_spec_text("type=A rank=3 label=my g2")
        with pytest.raises(ValueError):
            parse_spec_text("type= rank=3")
        with pytest.raises(ValueError, match="not an integer"):
            parse_spec_text("[[2.9, -1.2], [-1, 2]]")
        with pytest.raises(ValueError, match="not an integer"):
            parse_spec_text("[2, -1, -1, true]")
