"""Kostant partitions of positive coweights.

A partition of theta assigns a multiplicity n_beta >= 0 to each positive
coroot so that sum n_beta * beta = theta.  Enumeration is a recursive search
over the non-simple coroots in theta's box, in the canonical coroot order;
the simple coroots (height 1: the unit vectors) finish every node in closed
form, since the remainder r is r_k copies of the k-th unit vector in exactly
one way, so every node is one partition.  It serves ``trace`` and
``divisor``; the asymptotics table does not enumerate per theta, but fills
every theta's (|R_K|, |K|) histogram by one search over its height region.
Counting is an independent dynamic program on the generating function
prod_beta 1 / (1 - x^beta) truncated to the coordinate box of theta, so a
count cross-checks either search.  The box is one flat list of integers
indexed in mixed radix, so that v - beta sits at a fixed offset below v for
every box point v >= beta.
"""

from __future__ import annotations

import json
import threading
from itertools import product
from typing import Sequence

from .cartan import Coweight, RootSystem, Value, _from_cartan, height, validate_cartan_matrix


class KostantPartition(Value):
    """Multiset of positive coroots, recorded as (coroot index, multiplicity >= 1) pairs.

    Indices refer to the owning root system's canonical coroot order and the
    pairs are sorted by index; ``weight`` caches the coweight the parts sum to.
    """

    __slots__ = ("parts", "weight")

    def __init__(self, parts: tuple[tuple[int, int], ...], weight: Coweight) -> None:
        super().__init__(parts, weight)

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
    # only the coroots in theta's box can be used; each keeps its canonical index.
    # The coroots are sorted by height, so the scan stops at the first one taller
    # than theta, before comparing coordinates, and the simple coroots (height 1:
    # the unit vectors) come first.  They are not searched; they finish every node.
    bound = height(theta)
    indices: list[int] = []  # canonical index of each simple coroot, then of each searched one
    simple: list[int] = []  # the coordinate where each simple coroot is 1
    fitting: list[Coweight] = []
    for index, beta in enumerate(rs.positive_coroots):
        step = height(beta)
        if step > bound:
            break
        if step == 1:
            simple.append(beta.index(1))
        elif all(b <= t for b, t in zip(beta, theta)):
            fitting.append(beta)
        else:
            continue
        indices.append(index)
    found: list[tuple[tuple[int, ...], tuple[tuple[int, int], ...]]] = []
    used = [0] * len(fitting)

    def descend(i: int, remaining: Coweight) -> None:
        # the remainder is a sum of simple coroots in exactly one way: r_k copies of the k-th unit vector
        if max_multiplicity is None or all(r <= max_multiplicity for r in remaining):
            vector = tuple(remaining[k] for k in simple) + tuple(used)
            found.append((vector, tuple((index, n) for index, n in zip(indices, vector) if n)))
        # pick the next non-simple coroot used (depth <= height(theta) / 2)
        for j in range(i, len(fitting)):
            beta = fitting[j]
            cap = min(r // b for r, b in zip(remaining, beta) if b)
            if max_multiplicity is not None:
                cap = min(cap, max_multiplicity)
            for n in range(1, cap + 1):
                used[j] = n
                descend(j + 1, tuple(r - n * b for r, b in zip(remaining, beta)))
            used[j] = 0

    descend(0, theta)
    # ascending lex order of the multiplicity vectors: coroots outside the box are 0 in every one
    found.sort()
    return [KostantPartition(parts=parts, weight=theta) for _, parts in found]


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

    Computed by unbounded-knapsack DP over the coordinate box of theta, not
    by enumeration: the box is one flat list, v at index sum v_k * strides[k]
    with strides[k] = prod_{j>k} (theta_j + 1), so index order is lex order.
    One pass per positive coroot beta <= theta visits the box points v >= beta
    in increasing index and adds the count at index(v) - index(beta); the
    count of theta is the last entry.  Results are cached per (root system, theta).
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
    # theta's box in mixed radix; lex order is a linear extension of the coordinatewise order
    strides = [1] * len(theta)
    for k in range(len(theta) - 1, 0, -1):
        strides[k - 1] = strides[k] * (theta[k] + 1)
    ways = [0] * (strides[0] * (theta[0] + 1))
    ways[0] = 1
    bound = height(theta)
    for beta in rs.positive_coroots:
        if height(beta) > bound:
            break  # coroots are sorted by height, so no later one fits in theta's box
        if any(b > t for b, t in zip(beta, theta)):
            continue  # beta is not <= theta: its pass would add nothing
        offset = sum(b * s for b, s in zip(beta, strides))
        # the box points v >= beta, in increasing index, so that ways[v - beta] already counts beta
        for i in map(sum, product(*(range(b * s, (t + 1) * s, s) for b, t, s in zip(beta, theta, strides)))):
            ways[i] += ways[i - offset]
    return ways[-1]


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
