"""Stratification index combinatorics.

Strata are modeled as index data only: the 2^r coordinate strata of the
completed adjoint torus, the local-model strata triples over a fixed total
coweight, the codimension-of-defect formula, and the coordinatewise defect
poset with its covering relations and DOT rendering.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .cartan import (
    ParabolicType,
    QuotientCoweight,
    RootSystem,
    check_quotient_coweight,
    coordinate_box,
    coweights_up_to_height,
    height,
    is_positive,
)


@dataclass(frozen=True)
class ParabolicStratum:
    """One coordinate stratum of the completed adjoint torus.

    ``canonical_point`` has a 1 on each Levi vertex and 0 elsewhere; the
    all-ones point is the group stratum, the all-zeros point the Borel one.
    """

    levi_vertices: tuple[int, ...]
    canonical_point: tuple[int, ...]


def enumerate_parabolic_strata(rs: RootSystem) -> list[ParabolicStratum]:
    """All 2^r strata, sorted by (number of Levi vertices, lex)."""
    out: list[ParabolicStratum] = []
    for k in range(rs.rank + 1):
        for verts in itertools.combinations(range(rs.rank), k):
            kept = set(verts)
            point = tuple(1 if i in kept else 0 for i in range(rs.rank))
            out.append(ParabolicStratum(levi_vertices=verts, canonical_point=point))
    return out


@dataclass(frozen=True)
class DefectStratumIndex:
    """Index of one local-model stratum: an ordered triple summing to the total.

    The middle entry is the defect of the stratum; the outer entries are the
    degrees absorbed by the two flanking defect-free factors.
    """

    levi_vertices: tuple[int, ...]
    total: QuotientCoweight
    parts: tuple[QuotientCoweight, QuotientCoweight, QuotientCoweight]

    @property
    def defect(self) -> QuotientCoweight:
        return self.parts[1]


def enumerate_local_strata(
    rs: RootSystem, p: ParabolicType, theta: Sequence[int]
) -> list[DefectStratumIndex]:
    """All ordered triples of positive quotient coweights summing to theta.

    Deterministic order: lexicographic in (first part, middle part).  The
    count is the per-coordinate stars-and-bars product prod C(n_i + 2, 2).
    """
    theta = check_quotient_coweight(rs, p, theta)
    if not is_positive(theta):
        raise ValueError(f"quotient coweight {theta} is not positive")
    out: list[DefectStratumIndex] = []
    for part1 in coordinate_box(theta):
        rest = tuple(t - a for t, a in zip(theta, part1))
        for mid in coordinate_box(rest):
            part3 = tuple(r - m for r, m in zip(rest, mid))
            out.append(
                DefectStratumIndex(
                    levi_vertices=p.levi_vertices,
                    total=theta,
                    parts=(part1, mid, part3),
                )
            )
    return out


def codim_defect(rs: RootSystem, theta: Sequence[int]) -> int:
    """Codimension of the stratum of defect theta: twice the height."""
    theta = rs.check_positive_coweight(theta)
    return 2 * height(theta)


@dataclass(frozen=True)
class DefectPoset:
    """Coordinatewise order on the positive quotient coweights of bounded height."""

    elements: tuple[QuotientCoweight, ...]
    covers: tuple[tuple[QuotientCoweight, QuotientCoweight], ...]
    bound: int

    def to_dot(self) -> str:
        """DOT digraph; nodes carry coordinates and codimension, edges are covers."""
        lines = ["digraph defect_poset {", "  rankdir=BT;"]
        for v in self.elements:
            name = "_".join(str(x) for x in v) or "0"
            coords = "(" + ", ".join(str(x) for x in v) + ")"
            lines.append(f'  "{name}" [label="{coords}\\ncodim {2 * height(v)}"];')
        for lower, upper in self.covers:
            lo = "_".join(str(x) for x in lower) or "0"
            up = "_".join(str(x) for x in upper) or "0"
            lines.append(f'  "{lo}" -> "{up}";')
        lines.append("}")
        return "\n".join(lines) + "\n"


def defect_poset(rs: RootSystem, p: ParabolicType, bound: int) -> DefectPoset:
    """The height-bounded box with its covering relations (+1 on one coordinate)."""
    p.validate(rs)
    quotient_rank = rs.rank - len(p.levi_vertices)
    elements = tuple(coweights_up_to_height(quotient_rank, bound))
    covers: list[tuple[QuotientCoweight, QuotientCoweight]] = []
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
