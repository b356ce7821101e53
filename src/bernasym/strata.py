"""Stratification index combinatorics.

Strata are modeled as index data only: the 2^r coordinate strata of the
completed adjoint torus, the local-model strata triples over a fixed total
coweight, and the coordinatewise defect poset with its covering relations and
DOT rendering (each element labeled with its codimension, twice its height).
"""

from __future__ import annotations

import itertools
from typing import Sequence

from .cartan import (
    Coweight,
    ParabolicType,
    RootSystem,
    Value,
    check_coweight,
    coordinate_box,
    coweights_up_to_height,
    height,
)


class ParabolicStratum(Value):
    """One coordinate stratum of the completed adjoint torus.

    ``canonical_point`` has a 1 on each Levi vertex and 0 elsewhere; the
    all-ones point is the group stratum, the all-zeros point the Borel one.
    """

    __slots__ = ("levi_vertices", "canonical_point")


def enumerate_parabolic_strata(rs: RootSystem) -> list[ParabolicStratum]:
    """All 2^r strata, sorted by (number of Levi vertices, lex)."""
    return [ParabolicStratum(levi_vertices=verts,
                             canonical_point=tuple(1 if i in verts else 0 for i in range(rs.rank)))
            for k in range(rs.rank + 1) for verts in itertools.combinations(range(rs.rank), k)]


class DefectStratumIndex(Value):
    """Index of one local-model stratum: an ordered triple summing to the total.

    The middle entry is the defect of the stratum; the outer entries are the
    degrees absorbed by the two flanking defect-free factors.
    """

    __slots__ = ("levi_vertices", "total", "parts")

    @property
    def defect(self) -> Coweight:
        return self.parts[1]


def enumerate_local_strata(
    rs: RootSystem, p: ParabolicType, theta: Sequence[int]
) -> list[DefectStratumIndex]:
    """All ordered triples of positive quotient coweights summing to theta.

    Deterministic order: lexicographic in (first part, middle part).  The
    count is the per-coordinate stars-and-bars product prod C(n_i + 2, 2).
    """
    theta = check_coweight(theta, p.quotient_rank(rs), "quotient coweight")
    out: list[DefectStratumIndex] = []
    for part1 in coordinate_box(theta):
        rest = tuple(t - a for t, a in zip(theta, part1))
        for mid in coordinate_box(rest):
            part3 = tuple(r - m for r, m in zip(rest, mid))
            out.append(DefectStratumIndex(p.levi_vertices, theta, (part1, mid, part3)))
    return out


class DefectPoset(Value):
    """Coordinatewise order on the positive quotient coweights of bounded height."""

    __slots__ = ("elements", "covers", "bound")

    def to_dot(self) -> str:
        """DOT digraph; nodes carry coordinates and codimension, edges are covers."""
        def name(v: Coweight) -> str:
            return "_".join(str(x) for x in v) or "0"

        lines = ["digraph defect_poset {", "  rankdir=BT;"]
        for v in self.elements:
            coords = "(" + ", ".join(str(x) for x in v) + ")"
            lines.append(f'  "{name(v)}" [label="{coords}\\ncodim {2 * height(v)}"];')
        for lower, upper in self.covers:
            lines.append(f'  "{name(lower)}" -> "{name(upper)}";')
        lines.append("}")
        return "\n".join(lines) + "\n"


def defect_poset(rs: RootSystem, p: ParabolicType, bound: int) -> DefectPoset:
    """The height-bounded box with its covering relations (+1 on one coordinate)."""
    quotient_rank = p.quotient_rank(rs)
    elements = tuple(coweights_up_to_height(quotient_rank, bound))
    covers: list[tuple[Coweight, Coweight]] = []
    for v in elements:
        if height(v) + 1 > bound:
            continue
        for i in range(quotient_rank):
            upper = tuple(x + 1 if k == i else x for k, x in enumerate(v))
            covers.append((v, upper))
    return DefectPoset(elements=elements, covers=tuple(covers), bound=bound)


# -- wire formats -------------------------------------------------------------


def parabolic_strata_to_json(strata: Sequence[ParabolicStratum]) -> list[dict]:
    return [
        {"levi_vertices": list(s.levi_vertices), "canonical_point": list(s.canonical_point)}
        for s in strata
    ]


def local_strata_to_json(strata: Sequence[DefectStratumIndex]) -> list[dict]:
    return [
        {
            "levi_vertices": list(s.levi_vertices),
            "total": list(s.total),
            "parts": [list(part) for part in s.parts],
            "defect": list(s.defect),
        }
        for s in strata
    ]


def defect_poset_to_json(poset: DefectPoset) -> dict:
    return {
        "bound": poset.bound,
        "elements": [list(v) for v in poset.elements],
        "covers": [[list(a), list(b)] for a, b in poset.covers],
    }
