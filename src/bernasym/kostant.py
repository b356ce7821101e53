"""Kostant partitions of positive coweights.

A partition of theta assigns a multiplicity n_beta >= 0 to each positive
coroot so that sum n_beta * beta = theta.  Enumeration is a recursive descent
that picks the next coroot used, in the canonical coroot order; counting is an
independent dynamic program on the generating function  prod_beta 1 / (1 - x^beta)
truncated to the coordinate box of theta, so the two routes cross-check each other.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from typing import Sequence

from .cartan import Coweight, RootSystem, _from_cartan, coordinate_box, validate_cartan_matrix


@dataclass(frozen=True)
class KostantPartition:
    """Multiset of positive coroots, recorded as (coroot index, multiplicity >= 1) pairs.

    Indices refer to the owning root system's canonical coroot order and the
    pairs are sorted by index; ``weight`` caches the coweight the parts sum to.
    """

    parts: tuple[tuple[int, int], ...]
    weight: Coweight

    @property
    def size(self) -> int:
        """|K| = total multiplicity."""
        return sum(n for _, n in self.parts)

    @property
    def support(self) -> tuple[int, ...]:
        """R_K = indices of coroots present."""
        return tuple(i for i, _ in self.parts)

    @property
    def is_simple(self) -> bool:
        return all(n == 1 for _, n in self.parts)


def _enumerate(rs: RootSystem, theta: Coweight, max_multiplicity: int | None) -> list[KostantPartition]:
    coroots = rs.positive_coroots
    out: list[KostantPartition] = []
    acc: list[tuple[int, int]] = []

    def descend(i: int, remaining: Coweight) -> None:
        if not any(remaining):
            out.append(KostantPartition(parts=tuple(acc), weight=theta))
            return
        # pick the next coroot used (depth <= height(theta)); picking the last
        # one first keeps the list in ascending lex order of multiplicity vectors
        for j in reversed(range(i, len(coroots))):
            beta = coroots[j]
            cap = min(r // b for r, b in zip(remaining, beta) if b)
            if max_multiplicity is not None:
                cap = min(cap, max_multiplicity)
            for n in range(1, cap + 1):
                acc.append((j, n))
                descend(j + 1, tuple(r - n * b for r, b in zip(remaining, beta)))
                acc.pop()

    descend(0, theta)
    return out


def enumerate_partitions(rs: RootSystem, theta: Sequence[int]) -> list[KostantPartition]:
    """The complete duplicate-free list of Kostant partitions of theta."""
    theta = rs.check_positive_coweight(theta)
    return _enumerate(rs, theta, None)


def enumerate_simple_partitions(rs: RootSystem, theta: Sequence[int]) -> list[KostantPartition]:
    """Partitions with every multiplicity equal to 1: subsets of the positive coroots summing to theta."""
    theta = rs.check_positive_coweight(theta)
    return _enumerate(rs, theta, 1)


# -- counting (independent dynamic program) ---------------------------------

_COUNT_CACHE: dict[tuple[RootSystem, Coweight], int] = {}
_COUNT_CACHE_LOCK = threading.Lock()


def count_partitions(rs: RootSystem, theta: Sequence[int]) -> int:
    """Value of the Kostant partition function at theta.

    Computed by unbounded-knapsack DP over the coordinate box of theta
    (one pass per positive coroot), not by enumeration; results are cached
    per (root system, theta).
    """
    theta = rs.check_positive_coweight(theta)
    key = (rs, theta)
    cached = _COUNT_CACHE.get(key)
    if cached is not None:
        return cached
    value = _count_by_dp(rs, theta)
    with _COUNT_CACHE_LOCK:
        _COUNT_CACHE[key] = value
    return value


def _count_by_dp(rs: RootSystem, theta: Coweight) -> int:
    box = list(coordinate_box(theta))
    ways = dict.fromkeys(box, 0)
    ways[tuple(0 for _ in theta)] = 1
    for beta in rs.positive_coroots:
        for v in box:  # lex order is a linear extension of the coordinatewise order
            prev = tuple(x - b for x, b in zip(v, beta))
            if all(x >= 0 for x in prev):
                ways[v] += ways[prev]
    return ways[theta]


def count_cache_clear() -> None:
    with _COUNT_CACHE_LOCK:
        _COUNT_CACHE.clear()


def count_cache_save(path: str) -> None:
    """Persist cached counts as JSON records [cartan, labels, name, theta, count]."""
    with _COUNT_CACHE_LOCK:
        records = [
            [
                [list(row) for row in rs.cartan],
                list(rs.labels),
                rs.name,
                list(theta),
                count,
            ]
            for (rs, theta), count in _COUNT_CACHE.items()
        ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(records, fh)


def count_cache_load(path: str) -> int:
    """Load previously saved counts; returns the number of records loaded.

    Every record is checked (its shape, integer fields, a finite-type matrix)
    before any root system is built; a bad file raises ValueError and loads nothing.
    """
    with open(path, encoding="utf-8") as fh:
        records = json.load(fh)
    if not isinstance(records, list):
        raise ValueError("a count cache file holds a JSON list of records")
    loaded: dict[tuple[RootSystem, Coweight], int] = {}
    for record in records:
        if not (isinstance(record, list) and len(record) == 5 and isinstance(record[0], list)):
            raise ValueError(f"count cache record {record!r} is not [cartan, labels, name, theta, count]")
        cartan, labels, name, theta, count = record
        validate_cartan_matrix(cartan)
        if not (_is_int_list(labels, len(cartan)) and _is_int_list(theta, len(cartan))
                and isinstance(name, str) and type(count) is int):
            raise ValueError(f"count cache record {record!r} has malformed labels, name, theta or count")
        rs = _from_cartan(name, tuple(tuple(row) for row in cartan), tuple(labels))
        loaded[(rs, tuple(theta))] = count
    with _COUNT_CACHE_LOCK:
        _COUNT_CACHE.update(loaded)
    return len(records)


def _is_int_list(value, length: int) -> bool:
    return isinstance(value, list) and len(value) == length and all(type(x) is int for x in value)


# -- wire format -------------------------------------------------------------


def partition_to_json(rs: RootSystem, partition: KostantPartition) -> list[list]:
    """JSON form: [coroot-coordinates, multiplicity] pairs in canonical coroot order."""
    return [[list(rs.positive_coroots[i]), n] for i, n in partition.parts]


def partition_from_json(rs: RootSystem, data: Sequence[Sequence]) -> KostantPartition:
    index = rs.coroot_index()
    parts: list[tuple[int, int]] = []
    weight = [0] * rs.rank
    for coords, n in data:
        beta = rs.check_coweight(coords)
        if beta not in index:
            raise ValueError(f"{beta} is not a positive coroot of {rs.name}")
        if type(n) is not int or n < 1:
            raise ValueError(f"multiplicity {n!r} is not an integer >= 1")
        parts.append((index[beta], n))
        for k in range(rs.rank):
            weight[k] += n * beta[k]
    parts.sort()
    if len({i for i, _ in parts}) != len(parts):
        raise ValueError("duplicate coroot in partition data")
    return KostantPartition(parts=tuple(parts), weight=tuple(weight))
