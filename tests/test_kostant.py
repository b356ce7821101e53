"""Kostant partition tests: enumeration vs the DP counter, and the (K, S) bijection."""

from __future__ import annotations

import json

import pytest

from bernasym.cartan import coweights_up_to_height, root_system
from bernasym.kostant import (
    count_cache_clear,
    count_cache_load,
    count_cache_save,
    count_partitions,
    enumerate_partitions,
    enumerate_simple_partitions,
    partition_from_json,
    partition_to_json,
)

SWEEP = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("G", 2)]


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
                    assert tuple(total) == theta == k.weight
                    assert len(k.support) <= k.size
                    assert (len(k.support) == k.size) == k.is_simple

    def test_deterministic_order(self):
        rs = root_system("B", 2)
        assert enumerate_partitions(rs, (2, 2)) == enumerate_partitions(rs, (2, 2))

    def test_negative_theta_rejected(self):
        rs = root_system("A", 2)
        with pytest.raises(ValueError):
            enumerate_partitions(rs, (-1, 0))
        with pytest.raises(ValueError):
            count_partitions(rs, (0, -2))
        with pytest.raises(ValueError):
            enumerate_simple_partitions(rs, (-1, -1))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            enumerate_partitions(root_system("A", 2), (1,))


class TestCounting:
    def test_count_examples(self):
        a2 = root_system("A", 2)
        assert count_partitions(a2, (1, 1)) == 2
        assert count_partitions(a2, (2, 1)) == 2
        assert count_partitions(a2, (0, 0)) == 1

    def test_count_matches_enumeration(self):
        # the DP generating-function counter against explicit enumeration
        for series, rank in SWEEP:
            rs = root_system(series, rank)
            for theta in coweights_up_to_height(rank, 6):
                assert count_partitions(rs, theta) == len(enumerate_partitions(rs, theta))

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
        ],
        ids=["not-a-list", "int-record", "short-record", "short-labels", "string-count", "affine", "float-entry"],
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
        assert enumerate_simple_partitions(root_system("A", 1), (2,)) == []

    def test_a2_both_simple(self):
        assert len(enumerate_simple_partitions(root_system("A", 2), (1, 1))) == 2

    def test_zero(self):
        parts = enumerate_simple_partitions(root_system("A", 2), (0, 0))
        assert len(parts) == 1 and parts[0].parts == ()

    def test_simple_equals_filtered_enumeration(self):
        for series, rank in SWEEP:
            rs = root_system(series, rank)
            for theta in coweights_up_to_height(rank, 5):
                direct = {k.parts for k in enumerate_simple_partitions(rs, theta)}
                filtered = {k.parts for k in enumerate_partitions(rs, theta) if k.is_simple}
                assert direct == filtered


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
                        enumerate_simple_partitions(rs, theta2)
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
        indices = [rs.coroot_index()[tuple(coords)] for coords, _ in data]
        assert indices == sorted(indices)

    def test_bad_data_rejected(self):
        rs = root_system("A", 2)
        with pytest.raises(ValueError):
            partition_from_json(rs, [[[5, 5], 1]])
        with pytest.raises(ValueError):
            partition_from_json(rs, [[[1, 0], 0]])
        with pytest.raises(ValueError):
            partition_from_json(rs, [[[1, 0], 1], [[1, 0], 2]])
        with pytest.raises(ValueError, match="integer"):
            partition_from_json(rs, [[[1, 0], 1.9]])  # was read as multiplicity 1
        with pytest.raises(ValueError, match="integer"):
            partition_from_json(rs, [[[1.0, 0], 1]])
