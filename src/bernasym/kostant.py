"""Kostant partitions of positive coweights.

A partition of theta assigns a multiplicity n_beta >= 0 to each positive
coroot so that sum n_beta * beta = theta.  Enumeration is one recursive
search over the non-simple coroots in theta's box, in the canonical coroot
order.  The simple coroots are read by position: ``RootSystem`` checks that
its first rank coroots are the unit vectors, in lex order, and that the
others follow by height.  They finish every node in closed form, as the
remainder r is r_k copies of the k-th unit vector, so every node is one
partition.  The simple partitions (each multiplicity 1) are its
``is_simple`` filter.  It serves ``trace`` and ``divisor``; the asymptotics
table does not enumerate per theta, but fills every theta's (|R_K|, |K|)
histogram by one search over its height region.
Counting is an independent dynamic program on the generating function
prod_beta 1 / (1 - x^beta) truncated to a downward-closed region sorted by
height: one integer pass per coroot gives the count at every point of the
region, so a count cross-checks either search.  The table runs it once over
its height region; ``count_partitions`` runs it over theta's box.
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_right
from operator import add
from typing import Sequence

from .cartan import Coweight, RootSystem, RootSystemSpec, Value, build_root_system, height, height_region, load_exact


class KostantPartition(Value):
    """Multiset of positive coroots, recorded as (coroot index, multiplicity >= 1) pairs.

    Indices refer to the owning root system's canonical coroot order and the
    pairs are sorted by index; the coweight they sum to is not stored.
    """

    __slots__ = ("parts",)

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


def enumerate_partitions(rs: RootSystem, theta: Sequence[int]) -> list[KostantPartition]:
    """The complete duplicate-free list of Kostant partitions of theta."""
    theta = rs.check_positive_coweight(theta)
    # the first rank coroots are the simple ones, which finish every node; of the others, sorted by height, the
    # search uses those in theta's box, each with its canonical index, and stops at the first taller than theta
    rank, bound = rs.rank, height(theta)
    indices = list(range(rank))  # canonical index of each simple coroot, then of each searched one
    fitting: list[Coweight] = []
    for index, beta in enumerate(rs.positive_coroots[rank:], rank):
        if height(beta) > bound:
            break
        if all(b <= t for b, t in zip(beta, theta)):
            fitting.append(beta)
            indices.append(index)
    found: list[tuple[tuple[int, ...], tuple[tuple[int, int], ...]]] = []
    used = [0] * len(fitting)

    def descend(i: int, remaining: Coweight) -> None:
        # the remainder is a sum of simple coroots in exactly one way, r_k copies of the k-th unit vector; the
        # simple coroots are the unit vectors in lex order, the last coordinate's first, so they take r reversed
        vector = remaining[::-1] + tuple(used)
        found.append((vector, tuple((index, n) for index, n in zip(indices, vector) if n)))
        # pick the next non-simple coroot used (depth <= height(theta) / 2)
        for j in range(i, len(fitting)):
            beta = fitting[j]
            for n in range(1, min(r // b for r, b in zip(remaining, beta) if b) + 1):
                used[j] = n
                descend(j + 1, tuple(r - n * b for r, b in zip(remaining, beta)))
            used[j] = 0

    descend(0, theta)
    # ascending lex order of the multiplicity vectors: coroots outside the box are 0 in every one
    found.sort()
    return [KostantPartition(parts) for _, parts in found]


# -- counting (independent dynamic program) ---------------------------------

_COUNT_CACHE: dict[tuple[RootSystem, Coweight], int] = {}
_COUNT_CACHE_LOCK = threading.Lock()


def count_partitions(rs: RootSystem, theta: Sequence[int]) -> int:
    """Value of the Kostant partition function at theta.

    Computed by :func:`count_region` over theta's coordinate box sorted by
    height, not by enumeration.  Results are memoized per (root system, theta).
    """
    theta = rs.check_positive_coweight(theta)
    key = (rs, theta)
    cached = _COUNT_CACHE.get(key)
    if cached is not None:
        return cached
    value = count_region(rs, height_region(rs.rank, height(theta), theta))[theta]
    with _COUNT_CACHE_LOCK:
        _COUNT_CACHE[key] = value
    return value


def count_region(rs: RootSystem, region: Sequence[Coweight]) -> dict[Coweight, int]:
    """The number of Kostant partitions of every point of a downward-closed region sorted by height.

    Unbounded-knapsack DP: from ways[0] = 1 at the zero coweight, each
    positive coroot beta in the region makes one pass over the points v in
    increasing height and adds ways[v] to ways[v + beta] when v + beta is in
    the region.  ways[v] already counts beta, since v - beta came earlier in
    the same pass.  A coroot outside the region is skipped: by downward
    closure no v + beta lies in it.
    """
    if not region or any(region[0]):
        raise ValueError("a counting region starts at the zero coweight")
    index = {v: i for i, v in enumerate(region)}
    heights = [height(v) for v in region]
    top = heights[-1]
    ways = [0] * len(region)
    ways[0] = 1
    for beta in rs.positive_coroots:
        step = height(beta)
        if step > top:
            break  # coroots are sorted by height, so no later one lies in the region
        if beta not in index:
            continue
        for i in range(bisect_right(heights, top - step)):
            j = index.get(tuple(map(add, region[i], beta)))
            if j is not None:
                ways[j] += ways[i]
    return dict(zip(region, ways))


def count_cache_clear() -> None:
    with _COUNT_CACHE_LOCK:
        _COUNT_CACHE.clear()


def count_cache_save(path: str) -> None:
    """Persist cached counts as JSON records [cartan, labels, name, theta, count]; labels are 0..rank-1."""
    with _COUNT_CACHE_LOCK:
        records = [
            [
                [list(row) for row in rs.cartan],
                list(range(rs.rank)),
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
    and its root system built as the CLI builds it; a bad file raises ValueError and loads nothing.
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
        rs = build_root_system(RootSystemSpec(cartan=cartan, label=name))  # checks the matrix and the name's type
        if not (labels == list(range(rs.rank)) and isinstance(theta, list) and len(theta) == rs.rank
                and all(type(x) is int for x in theta) and type(count) is int):
            raise ValueError(f"count cache record {record!r} has malformed labels, theta or count")
        loaded[(rs, tuple(theta))] = count
    with _COUNT_CACHE_LOCK:
        _COUNT_CACHE.update(loaded)
    return len(records)


# -- wire format -------------------------------------------------------------


def partition_to_json(rs: RootSystem, partition: KostantPartition) -> list[list]:
    """JSON form: [coroot-coordinates, multiplicity] pairs in canonical coroot order."""
    return [[list(rs.positive_coroots[i]), n] for i, n in partition.parts]


def partition_from_json(rs: RootSystem, data: list[list]) -> KostantPartition:
    """Rebuild a partition; ValueError unless ``load_exact`` passes it (canonical order, no repeats)."""
    index = {beta: i for i, beta in enumerate(rs.positive_coroots)}

    def build(data: list[list]) -> KostantPartition:
        multiplicities: dict[int, int] = {}
        for coords, n in data:
            beta = rs.check_positive_coweight(coords)
            if beta not in index:
                raise ValueError(f"{beta} is not a positive coroot of {rs.name}")
            if type(n) is not int or n < 1:  # the writer would echo True or 0
                raise ValueError(f"multiplicity {n!r} is not an integer >= 1")
            multiplicities[index[beta]] = n
        return KostantPartition(tuple(sorted(multiplicities.items())))

    return load_exact(data, build, lambda part: partition_to_json(rs, part), "partition JSON", "partition_to_json")
