"""Stratification-index tests: parabolic strata, local triples, codimension, poset."""

from __future__ import annotations

import itertools
import math

import pytest

from bernasym.cartan import ParabolicType, coweights_up_to_height, height, root_system
from bernasym.strata import (
    defect_poset,
    defect_poset_to_json,
    enumerate_local_strata,
    enumerate_parabolic_strata,
    local_strata_to_json,
    parabolic_strata_to_json,
)


class TestParabolicStrata:
    def test_rank_one_has_two(self):
        strata = enumerate_parabolic_strata(root_system("A", 1))
        assert len(strata) == 2
        assert [s.canonical_point for s in strata] == [(0,), (1,)]
        assert [s.levi_vertices for s in strata] == [(), (0,)]

    def test_a2_has_four(self):
        assert len(enumerate_parabolic_strata(root_system("A", 2))) == 4

    def test_a3_borel_point(self):
        strata = enumerate_parabolic_strata(root_system("A", 3))
        borel = [s for s in strata if s.levi_vertices == ()]
        assert len(borel) == 1 and borel[0].canonical_point == (0, 0, 0)

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_power_of_two(self, rank):
        strata = enumerate_parabolic_strata(root_system("A", rank))
        assert len(strata) == 2**rank
        assert len({s.levi_vertices for s in strata}) == 2**rank
        assert strata[0].canonical_point == (0,) * rank  # the Borel stratum
        assert strata[-1].canonical_point == (1,) * rank  # the group stratum

    def test_sorted_by_size_then_lex(self):
        strata = enumerate_parabolic_strata(root_system("A", 3))
        keys = [(len(s.levi_vertices), s.levi_vertices) for s in strata]
        assert keys == sorted(keys)

    def test_json_shape(self):
        data = parabolic_strata_to_json(enumerate_parabolic_strata(root_system("A", 1)))
        assert data == [
            {"levi_vertices": [], "canonical_point": [0]},
            {"levi_vertices": [0], "canonical_point": [1]},
        ]


class TestLocalStrata:
    def test_a1_two(self):
        strata = enumerate_local_strata(root_system("A", 1), ParabolicType(), (2,))
        assert len(strata) == 6  # compositions of 2 into 3 ordered parts

    def test_zero(self):
        strata = enumerate_local_strata(root_system("A", 2), ParabolicType(), (0, 0))
        assert len(strata) == 1
        assert strata[0].parts == ((0, 0), (0, 0), (0, 0))

    def test_a2_one_one(self):
        strata = enumerate_local_strata(root_system("A", 2), ParabolicType(), (1, 1))
        assert len(strata) == 9

    def test_parts_positive_and_sum(self):
        rs = root_system("A", 2)
        for theta in coweights_up_to_height(2, 4):
            for s in enumerate_local_strata(rs, ParabolicType(), theta):
                assert all(all(x >= 0 for x in part) for part in s.parts)
                total = tuple(sum(col) for col in zip(*s.parts))
                assert total == theta
                assert s.defect == s.parts[1]

    def test_count_formula_vs_brute_force(self):
        # stars-and-bars product against cubic brute force
        for series, rank in [("A", 1), ("A", 2), ("A", 3)]:
            rs = root_system(series, rank)
            for theta in coweights_up_to_height(rank, 5):
                strata = enumerate_local_strata(rs, ParabolicType(), theta)
                formula = math.prod(math.comb(n + 2, 2) for n in theta)
                box = list(itertools.product(*(range(t + 1) for t in theta)))
                brute = sum(
                    1
                    for a in box
                    for b in box
                    for c in box
                    if tuple(x + y + z for x, y, z in zip(a, b, c)) == theta
                )
                assert len(strata) == formula == brute
                assert len(set(strata)) == len(strata)

    def test_defect_multiset_cross_count(self):
        # for fixed middle defect mu, the number of triples equals the number
        # of ordered pairs summing to theta - mu
        rs = root_system("A", 2)
        theta = (2, 1)
        strata = enumerate_local_strata(rs, ParabolicType(), theta)
        for mu in itertools.product(range(3), range(2)):
            with_mu = sum(1 for s in strata if s.defect == mu)
            rest = tuple(t - m for t, m in zip(theta, mu))
            pairs = math.prod(r + 1 for r in rest)
            assert with_mu == pairs

    def test_quotient_coordinates(self):
        rs = root_system("A", 3)
        p = ParabolicType((1,))
        strata = enumerate_local_strata(rs, p, (1, 1))
        assert len(strata) == 9
        assert all(len(s.total) == 2 for s in strata)

    def test_full_parabolic_trivial_quotient(self):
        rs = root_system("A", 2)
        strata = enumerate_local_strata(rs, ParabolicType((0, 1)), ())
        assert len(strata) == 1
        assert strata[0].parts == ((), (), ())

    def test_rejects_bad_theta(self):
        rs = root_system("A", 2)
        with pytest.raises(ValueError):
            enumerate_local_strata(rs, ParabolicType(), (1,))
        with pytest.raises(ValueError):
            enumerate_local_strata(rs, ParabolicType(), (-1, 0))

    def test_json_shape(self):
        rs = root_system("A", 1)
        data = local_strata_to_json(enumerate_local_strata(rs, ParabolicType(), (1,)))
        assert {"levi_vertices": [], "total": [1], "parts": [[0], [1], [0]], "defect": [1]} in data


class TestCodimension:
    def test_twice_height_everywhere(self):
        # the DOT label of each element of the poset gives its codimension, twice its height
        for series, rank in [("A", 1), ("A", 2), ("B", 2)]:
            poset = defect_poset(root_system(series, rank), ParabolicType(), 5)
            for theta in coweights_up_to_height(rank, 5):
                label = f'[label="({", ".join(map(str, theta))})\\ncodim {2 * sum(theta)}"];'
                assert label in poset.to_dot(), theta


class TestDefectPoset:
    def test_a1_chain(self):
        poset = defect_poset(root_system("A", 1), ParabolicType(), 2)
        assert poset.elements == ((0,), (1,), (2,))
        assert poset.covers == (((0,), (1,)), ((1,), (2,)))

    def test_bound_zero(self):
        poset = defect_poset(root_system("A", 2), ParabolicType(), 0)
        assert poset.elements == ((0, 0),)
        assert poset.covers == ()

    @pytest.mark.parametrize("bound", [True, 2.0, -1], ids=["boolean", "float", "negative"])
    def test_bad_bound_rejected(self, bound):
        # True was a bound of 1 whose JSON said "bound": true, and 2.0 raised TypeError
        with pytest.raises(ValueError, match="must be an integer >= 0"):
            defect_poset(root_system("A", 2), ParabolicType(), bound)

    def test_a2_bound_two(self):
        poset = defect_poset(root_system("A", 2), ParabolicType(), 2)
        assert len(poset.elements) == 6
        assert poset.elements[0] == (0, 0) and all(min(v) >= 0 for v in poset.elements)  # (0, 0) is below all

    def test_covers_match_brute_force(self):
        # b covers a iff a < b coordinatewise with nothing strictly between, inside the box
        poset = defect_poset(root_system("A", 2), ParabolicType(), 3)
        elements = poset.elements
        below = {(a, b) for a in elements for b in elements if a != b and all(x <= y for x, y in zip(a, b))}
        expected = {(a, b) for a, b in below if not any((a, c) in below and (c, b) in below for c in elements)}
        assert set(poset.covers) == expected

    def test_codim_strictly_monotone_along_covers(self):
        rs = root_system("A", 2)
        poset = defect_poset(rs, ParabolicType(), 4)
        for lower, upper in poset.covers:
            assert 2 * height(lower) < 2 * height(upper)

    def test_quotient_poset(self):
        rs = root_system("A", 3)
        poset = defect_poset(rs, ParabolicType((0, 2)), 2)
        assert all(len(v) == 1 for v in poset.elements)
        assert poset.elements == ((0,), (1,), (2,))

    def test_dot_output(self):
        poset = defect_poset(root_system("A", 2), ParabolicType(), 2)
        dot = poset.to_dot()
        assert dot.startswith("digraph defect_poset {")
        assert dot.count("[label=") == 6
        assert 'codim 4' in dot
        assert dot.endswith("}\n")

    def test_dot_of_rank_zero_quotient(self):
        # a Levi holding every vertex leaves quotient rank 0: one empty coweight, named "0", no edges
        poset = defect_poset(root_system("A", 2), ParabolicType((0, 1)), 2)
        assert poset.elements == ((),) and poset.covers == ()
        assert poset.to_dot() == 'digraph defect_poset {\n  rankdir=BT;\n  "0" [label="()\\ncodim 0"];\n}\n'

    def test_json(self):
        poset = defect_poset(root_system("A", 1), ParabolicType(), 1)
        assert defect_poset_to_json(poset) == {
            "bound": 1,
            "elements": [[0], [1]],
            "covers": [[[0], [1]]],
        }
