"""Stratification-index tests: parabolic strata, local triples, codimension, poset."""

from __future__ import annotations

import itertools
import math

import pytest

from bernasym.cartan import ParabolicType, coweights_up_to_height, height, leq, root_system
from bernasym.strata import (
    codim_defect,
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
        strata = enumerate_local_strata(root_system("A", 1), ParabolicType.borel(), (2,))
        assert len(strata) == 6  # compositions of 2 into 3 ordered parts

    def test_zero(self):
        strata = enumerate_local_strata(root_system("A", 2), ParabolicType.borel(), (0, 0))
        assert len(strata) == 1
        assert strata[0].parts == ((0, 0), (0, 0), (0, 0))

    def test_a2_one_one(self):
        strata = enumerate_local_strata(root_system("A", 2), ParabolicType.borel(), (1, 1))
        assert len(strata) == 9

    def test_parts_positive_and_sum(self):
        rs = root_system("A", 2)
        for theta in coweights_up_to_height(2, 4):
            for s in enumerate_local_strata(rs, ParabolicType.borel(), theta):
                assert all(all(x >= 0 for x in part) for part in s.parts)
                total = tuple(sum(col) for col in zip(*s.parts))
                assert total == theta
                assert s.defect == s.parts[1]

    def test_count_formula_vs_brute_force(self):
        # stars-and-bars product against cubic brute force
        for series, rank in [("A", 1), ("A", 2), ("A", 3)]:
            rs = root_system(series, rank)
            for theta in coweights_up_to_height(rank, 5):
                strata = enumerate_local_strata(rs, ParabolicType.borel(), theta)
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
        strata = enumerate_local_strata(rs, ParabolicType.borel(), theta)
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
            enumerate_local_strata(rs, ParabolicType.borel(), (1,))
        with pytest.raises(ValueError):
            enumerate_local_strata(rs, ParabolicType.borel(), (-1, 0))

    def test_json_shape(self):
        rs = root_system("A", 1)
        data = local_strata_to_json(enumerate_local_strata(rs, ParabolicType.borel(), (1,)))
        assert {"levi_vertices": [], "total": [1], "parts": [[0], [1], [0]], "defect": [1]} in data


class TestCodimension:
    def test_examples(self):
        assert codim_defect(root_system("A", 2), (0, 0)) == 0
        assert codim_defect(root_system("A", 1), (1,)) == 2
        assert codim_defect(root_system("A", 2), (1, 1)) == 4

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            codim_defect(root_system("A", 1), (-1,))

    def test_twice_height_everywhere(self):
        for series, rank in [("A", 1), ("A", 2), ("B", 2)]:
            rs = root_system(series, rank)
            for theta in coweights_up_to_height(rank, 5):
                assert codim_defect(rs, theta) == 2 * height(theta)


class TestDefectPoset:
    def test_a1_chain(self):
        poset = defect_poset(root_system("A", 1), ParabolicType.borel(), 2)
        assert poset.elements == ((0,), (1,), (2,))
        assert poset.covers == (((0,), (1,)), ((1,), (2,)))

    def test_bound_zero(self):
        poset = defect_poset(root_system("A", 2), ParabolicType.borel(), 0)
        assert poset.elements == ((0, 0),)
        assert poset.covers == ()

    def test_a2_bound_two(self):
        rs, borel = root_system("A", 2), ParabolicType.borel()
        poset = defect_poset(rs, borel, 2)
        assert len(poset.elements) == 6
        bottom = (0, 0)
        for v in poset.elements:
            assert leq(rs, borel, bottom, v)

    def test_covers_match_brute_force(self):
        # b covers a iff a < b with nothing strictly between, inside the box
        rs, borel = root_system("A", 2), ParabolicType.borel()
        poset = defect_poset(rs, borel, 3)
        elements = poset.elements
        expected = set()
        for a in elements:
            for b in elements:
                if a == b or not leq(rs, borel, a, b):
                    continue
                strictly_between = any(
                    c != a and c != b and leq(rs, borel, a, c) and leq(rs, borel, c, b)
                    for c in elements
                )
                if not strictly_between:
                    expected.add((a, b))
        assert set(poset.covers) == expected

    def test_codim_strictly_monotone_along_covers(self):
        rs = root_system("A", 2)
        poset = defect_poset(rs, ParabolicType.borel(), 4)
        for lower, upper in poset.covers:
            assert 2 * height(lower) < 2 * height(upper)

    def test_quotient_poset(self):
        rs = root_system("A", 3)
        poset = defect_poset(rs, ParabolicType((0, 2)), 2)
        assert all(len(v) == 1 for v in poset.elements)
        assert poset.elements == ((0,), (1,), (2,))

    def test_dot_output(self):
        poset = defect_poset(root_system("A", 2), ParabolicType.borel(), 2)
        dot = poset.to_dot()
        assert dot.startswith("digraph defect_poset {")
        assert dot.count("[label=") == 6
        assert 'codim 4' in dot
        assert dot.endswith("}\n")

    def test_json(self):
        poset = defect_poset(root_system("A", 1), ParabolicType.borel(), 1)
        assert defect_poset_to_json(poset) == {
            "bound": 1,
            "elements": [[0], [1]],
            "covers": [[[0], [1]]],
        }
