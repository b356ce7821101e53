"""Kostant partition tests: enumeration vs the DP counter, and the (K, S) bijection."""

from __future__ import annotations

import itertools
import json

import pytest

from bernasym.cartan import coweights_up_to_height, root_system
from bernasym.kostant import (
    count_cache_clear,
    count_cache_load,
    count_cache_save,
    count_partitions,
    count_region,
    enumerate_partitions,
    partition_from_json,
    partition_to_json,
)

SWEEP = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("G", 2)]


def simple_partitions(rs, theta):
    """The partitions of theta with every multiplicity 1, by the ``is_simple`` filter."""
    return [k for k in enumerate_partitions(rs, theta) if k.is_simple]


def as_coroot_multiset(rs, partition):
    return tuple(sorted((rs.positive_coroots[i], n) for i, n in partition.parts))


class TestEnumeration:
    def test_zero_gives_empty_partition(self):
        for series, rank in SWEEP:
            rs = root_system(series, rank)
            parts = enumerate_partitions(rs, tuple(0 for _ in range(rank)))
            assert len(parts) == 1
            assert parts[0].parts == ()
            assert parts[0].size == 0

    def test_a2_by_hand(self):
        rs = root_system("A", 2)
        parts = enumerate_partitions(rs, (1, 1))
        found = {as_coroot_multiset(rs, k) for k in parts}
        assert found == {
            (((1, 1), 1),),  # the long coroot once
            (((0, 1), 1), ((1, 0), 1)),  # both simples
        }

    def test_a1_single_partition(self):
        rs = root_system("A", 1)
        for n in range(1, 8):
            parts = enumerate_partitions(rs, (n,))
            assert len(parts) == 1
            assert parts[0].size == n
            assert parts[0].support == (0,)

    def test_a2_two_one(self):
        rs = root_system("A", 2)
        parts = enumerate_partitions(rs, (2, 1))
        found = {as_coroot_multiset(rs, k) for k in parts}
        assert found == {
            (((0, 1), 1), ((1, 0), 2)),  # 2 alpha1 + alpha2
            (((1, 0), 1), ((1, 1), 1)),  # alpha1 + the long coroot
        }

    def test_weights_recompute(self):
        for series, rank in SWEEP:
            rs = root_system(series, rank)
            for theta in coweights_up_to_height(rank, 5):
                for k in enumerate_partitions(rs, theta):
                    total = [0] * rank
                    for i, n in k.parts:
                        for j, x in enumerate(rs.positive_coroots[i]):
                            total[j] += n * x
                    assert tuple(total) == theta
                    assert len(k.support) <= k.size
                    assert (len(k.support) == k.size) == k.is_simple

    def test_deterministic_order(self):
        rs = root_system("B", 2)
        assert enumerate_partitions(rs, (2, 2)) == enumerate_partitions(rs, (2, 2))

    def test_order_pinned(self):
        # ascending lex order of the multiplicity vectors over the coroots (0,1), (1,0), (1,1)
        rs = root_system("A", 2)
        assert rs.positive_coroots == ((0, 1), (1, 0), (1, 1))
        assert [k.parts for k in enumerate_partitions(rs, (2, 2))] == [
            ((2, 2),),
            ((0, 1), (1, 1), (2, 1)),
            ((0, 2), (1, 2)),
        ]
        for series, rank in SWEEP + [("D", 4), ("B", 3)]:
            rs = root_system(series, rank)
            for theta in coweights_up_to_height(rank, 4):
                vectors = []
                for k in enumerate_partitions(rs, theta):
                    vector = [0] * len(rs.positive_coroots)
                    for i, n in k.parts:
                        vector[i] = n
                    vectors.append(vector)
                assert vectors == sorted(vectors)

    # A1 (0,) ... (6,) and A4 h <= 4, whose thetas such as (2, 0, 1, 0) and (0, 3, 0, 0) have boxes
    # that are flat in some directions
    @pytest.mark.parametrize("series,rank,bound", [("A", 3, 5), ("B", 3, 4), ("C", 3, 4), ("G", 2, 6),
                                                   ("A", 1, 6), ("A", 4, 4)])
    def test_against_every_multiplicity_vector(self, series, rank, bound):
        # reference: every vector n with n_beta <= the most copies of beta that fit in theta and
        # sum n_beta * beta = theta, in ascending lex order; the simple partitions are its 0/1 vectors,
        # and the DP counts them all
        rs = root_system(series, rank)
        count_cache_clear()  # so that the DP runs rather than a cached count
        for theta in coweights_up_to_height(rank, bound):
            caps = [min(t // b for t, b in zip(theta, beta) if b) for beta in rs.positive_coroots]
            vectors = [n for n in itertools.product(*(range(cap + 1) for cap in caps))
                       if all(sum(m * beta[k] for m, beta in zip(n, rs.positive_coroots)) == theta[k]
                              for k in range(rank))]
            expected = [tuple((i, m) for i, m in enumerate(n) if m) for n in vectors]
            assert [k.parts for k in enumerate_partitions(rs, theta)] == expected, theta
            assert [k.parts for k in simple_partitions(rs, theta)] == [
                parts for parts, n in zip(expected, vectors) if max(n) <= 1
            ], theta
            assert count_partitions(rs, theta) == len(vectors), theta

    def test_coroots_outside_the_box_keep_canonical_indices(self):
        # A40 has 820 coroots; e_i + e_(i+1) fits only the two simple coroots and itself
        rs = root_system("A", 40)
        for i in range(39):
            simple = [tuple(int(k == j) for k in range(40)) for j in (i, i + 1)]
            theta = tuple(a + b for a, b in zip(*simple))
            assert [partition_to_json(rs, k) for k in enumerate_partitions(rs, theta)] == [
                [[list(theta), 1]],
                [[list(simple[1]), 1], [list(simple[0]), 1]],
            ]

    def test_negative_theta_rejected(self):
        rs = root_system("A", 2)
        with pytest.raises(ValueError):
            enumerate_partitions(rs, (-1, 0))
        with pytest.raises(ValueError):
            count_partitions(rs, (0, -2))
        for theta in (5, None):  # each raised TypeError: '...' object is not iterable
            with pytest.raises(ValueError, match=f"theta {theta} is not a sequence of integers"):
                rs.check_positive_coweight(theta)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            enumerate_partitions(root_system("A", 2), (1,))


class TestCounting:
    def test_count_examples(self):
        a2 = root_system("A", 2)
        assert count_partitions(a2, (1, 1)) == 2
        assert count_partitions(a2, (2, 1)) == 2
        assert count_partitions(a2, (0, 0)) == 1

    @pytest.mark.parametrize("n", range(1, 8))
    def test_a_n_highest_root(self, n):
        # the highest root (1, ..., 1) of A_n splits into consecutive runs: 2^(n-1) ways, all simple
        rs = root_system("A", n)
        theta = (1,) * n
        assert count_partitions(rs, theta) == 2 ** (n - 1)
        assert len(enumerate_partitions(rs, theta)) == 2 ** (n - 1)
        assert len(simple_partitions(rs, theta)) == 2 ** (n - 1)

    def test_a2_closed_form(self):
        # a partition of (a, b) uses the long coroot k times, for each 0 <= k <= min(a, b)
        rs = root_system("A", 2)
        for a in range(9):
            for b in range(9):
                assert count_partitions(rs, (a, b)) == min(a, b) + 1
                assert len(enumerate_partitions(rs, (a, b))) == min(a, b) + 1

    @staticmethod
    def check_rank2(series, coroots, formula):
        rs = root_system(series, 2)
        assert set(rs.positive_coroots) == set(coroots)  # the premise of the formula
        for a in range(9):
            for b in range(9):
                assert count_partitions(rs, (a, b)) == formula(a, b), (series, a, b)
                assert len(enumerate_partitions(rs, (a, b))) == formula(a, b), (series, a, b)

    def test_b2_closed_form(self):
        # n copies of the highest coroot (2, 1) leave (a - 2n, b - n) for the A2-like rest
        # (1, 0), (0, 1), (1, 1), which has min + 1 partitions (test_a2_closed_form)
        def p(a, b):
            return sum(min(a - 2 * n, b - n) + 1 for n in range(min(a // 2, b) + 1))

        self.check_rank2("B", [(1, 0), (0, 1), (1, 1), (2, 1)], p)

    def test_c2_closed_form(self):
        # the B2 formula with the coordinates swapped: the highest coroot is (1, 2)
        def p(a, b):
            return sum(min(a - n, b - 2 * n) + 1 for n in range(min(a, b // 2) + 1))

        self.check_rank2("C", [(1, 0), (0, 1), (1, 1), (1, 2)], p)

    def test_g2_closed_form(self):
        # choose the multiplicities of the four non-simple coroots; the two simple ones finish
        # the remainder in exactly one way when it is nonnegative
        def p(a, b):
            total = 0
            for n1, n2, n3, n4 in itertools.product(range(min(a, b) + 1), repeat=4):
                x = a - n1 - n2 - n3 - 2 * n4
                y = b - n1 - 2 * n2 - 3 * n3 - 3 * n4
                total += x >= 0 and y >= 0
            return total

        self.check_rank2("G", [(1, 0), (0, 1), (1, 1), (1, 2), (1, 3), (2, 3)], p)

    def test_count_matches_enumeration(self):
        # the DP generating-function counter against explicit enumeration
        for series, rank in SWEEP:
            rs = root_system(series, rank)
            for theta in coweights_up_to_height(rank, 6):
                assert count_partitions(rs, theta) == len(enumerate_partitions(rs, theta))

    def test_e7_highest_coroot(self):
        # the deepest theta enumerated here: 63 coroots and height 17; the DP shares no code with the search
        rs = root_system("E", 7)
        theta = rs.positive_coroots[-1]
        assert len(enumerate_partitions(rs, theta)) == count_partitions(rs, theta) == 18837

    @pytest.mark.parametrize("series,rank,bound", [("A", 3, 9), ("B", 3, 5), ("D", 4, 6), ("G", 2, 16)])
    def test_region_counts_equal_enumeration(self, series, rank, bound):
        # one DP over the table's height region against the per-theta enumerator, at every theta
        rs = root_system(series, rank)
        region = coweights_up_to_height(rank, bound)
        counts = count_region(rs, region)
        assert list(counts) == region
        for theta in region:
            assert counts[theta] == len(enumerate_partitions(rs, theta)), theta

    @pytest.mark.parametrize("region", [[], [(1, 0), (0, 0)]], ids=["empty", "zero-not-first"])
    def test_region_must_start_at_zero(self, region):
        with pytest.raises(ValueError, match="zero coweight"):
            count_region(root_system("A", 2), region)

    def test_cache_round_trip(self, tmp_path):
        count_cache_clear()
        rs = root_system("A", 2)
        value = count_partitions(rs, (3, 2))
        path = tmp_path / "counts.json"
        count_cache_save(str(path))
        count_cache_clear()
        loaded = count_cache_load(str(path))
        assert loaded >= 1
        assert count_partitions(rs, (3, 2)) == value


    @pytest.mark.parametrize(
        "records",
        [
            {"not": "a list"},
            [1],
            [[[[2, -1], [-1, 2]], [0, 1], "A2", [1, 1]]],
            [[[[2, -1], [-1, 2]], [0], "A2", [1, 1], 1]],
            [[[[2, -1], [-1, 2]], [0, 1], "A2", [1, 1], "1"]],
            [[[[2, -2], [-2, 2]], [0, 1], "affine", [1, 1], 3]],
            [[[[2.5, -1], [-1, 2]], [0, 1], "A2", [1, 1], 1]],
            [[[[2, -1], [-1, 2]], [1, 0], "A2", [1, 1], 1]],
        ],
        ids=["not-a-list", "int-record", "short-record", "short-labels", "string-count", "affine", "float-entry",
             "permuted-labels"],
    )
    def test_cache_load_rejects_bad_records(self, tmp_path, records):
        count_cache_clear()
        good = [[[2, -1], [-1, 2]], [0, 1], "A2", [2, 1], 99]
        path = tmp_path / "counts.json"
        path.write_text(json.dumps([good] + records if isinstance(records, list) else records))
        try:
            with pytest.raises(ValueError):
                count_cache_load(str(path))
            assert count_partitions(root_system("A", 2), (2, 1)) == 2  # nothing was loaded
        finally:
            count_cache_clear()


class TestSimpleFamily:
    def test_a1_two_alpha_has_none(self):
        assert simple_partitions(root_system("A", 1), (2,)) == []

    def test_a2_both_simple(self):
        assert len(simple_partitions(root_system("A", 2), (1, 1))) == 2

    def test_zero(self):
        parts = simple_partitions(root_system("A", 2), (0, 0))
        assert len(parts) == 1 and parts[0].parts == ()

    def test_simple_equals_subsets_summing_to_theta(self):
        # reference sharing no code with the enumerator: every subset of the positive coroots
        # (at most 6 here, so 64 subsets) whose sum is theta, in ascending lex order of its 0/1 vector
        for series, rank in SWEEP:
            rs = root_system(series, rank)
            coroots = rs.positive_coroots
            subsets = [chosen for size in range(len(coroots) + 1)
                       for chosen in itertools.combinations(range(len(coroots)), size)]
            for theta in coweights_up_to_height(rank, 5):
                expected = [chosen for chosen in subsets
                            if all(sum(coroots[i][k] for i in chosen) == theta[k] for k in range(rank))]
                expected.sort(key=lambda chosen: [int(i in chosen) for i in range(len(coroots))])
                assert [k.parts for k in simple_partitions(rs, theta)] == [
                    tuple((i, 1) for i in chosen) for chosen in expected
                ], (series, rank, theta)


class TestPairSplittingIdentity:
    def test_bijection_cardinalities(self):
        # sum over theta1 + theta2 = theta of |Kostant(theta1)| * |SimpleKostant(theta2)|
        # equals sum over K in Kostant(theta) of 2^|R_K|
        import itertools

        for series, rank in SWEEP:
            rs = root_system(series, rank)
            for theta in coweights_up_to_height(rank, 5):
                lhs = 0
                for theta2 in itertools.product(*(range(t + 1) for t in theta)):
                    theta1 = tuple(t - s for t, s in zip(theta, theta2))
                    lhs += count_partitions(rs, theta1) * len(
                        simple_partitions(rs, theta2)
                    )
                rhs = sum(2 ** len(k.support) for k in enumerate_partitions(rs, theta))
                assert lhs == rhs


class TestWireFormat:
    def test_round_trip(self):
        rs = root_system("B", 2)
        for theta in coweights_up_to_height(2, 4):
            for k in enumerate_partitions(rs, theta):
                data = partition_to_json(rs, k)
                assert partition_from_json(rs, data) == k

    def test_sorted_by_canonical_order(self):
        rs = root_system("A", 2)
        [k] = [
            k
            for k in enumerate_partitions(rs, (2, 1))
            if len(k.parts) == 2 and not k.is_simple
        ]
        data = partition_to_json(rs, k)
        indices = [rs.positive_coroots.index(tuple(coords)) for coords, _ in data]
        assert indices == sorted(indices)

    def test_bad_data_rejected(self):
        rs = root_system("A", 2)
        with pytest.raises(ValueError):
            partition_from_json(rs, [[[5, 5], 1]])
        with pytest.raises(ValueError, match="not positive"):
            partition_from_json(rs, [[[-1, 0], 1]])
        with pytest.raises(ValueError):
            partition_from_json(rs, [[[1, 0], 0]])
        with pytest.raises(ValueError, match="is not exactly what partition_to_json writes"):
            partition_from_json(rs, [[[1, 0], 1], [[1, 0], 2]])
        with pytest.raises(ValueError, match="is not exactly what partition_to_json writes"):
            partition_from_json(rs, [[[1, 1], 1], [[1, 0], 1]])  # was read as the partition in canonical order
        with pytest.raises(ValueError, match="integer"):
            partition_from_json(rs, [[[1, 0], 1.9]])  # was read as multiplicity 1
        with pytest.raises(ValueError, match="integer"):
            partition_from_json(rs, [[[1.0, 0], 1]])
        for data in (None, [5]):  # each raised TypeError before
            with pytest.raises(ValueError, match="partition JSON lacks or mistypes"):
                partition_from_json(rs, data)
        with pytest.raises(ValueError, match="theta 5 is not a sequence of integers"):  # check_coweight names it
            partition_from_json(rs, [[5, 1]])
