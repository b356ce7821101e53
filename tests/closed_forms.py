"""Closed forms of the finite root systems, written here so that the checks share no code with the library.

The number of positive roots, the exponents and the highest coroot of each
type, from Bourbaki, *Lie Groups and Lie Algebras*, ch. VI, Plates I-IX.  A
root system and its dual (the coroots) have the same number of positive roots
and the same exponents; the highest coroot is the highest root of the dual.
"""

from __future__ import annotations

CLOSED_FORM_COUNTS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}


def exponents(series: str, rank: int) -> tuple[int, ...]:
    """The exponents m_1 <= ... <= m_rank of a type; D2 = A1 x A1 has 1, 1."""
    if series == "A":
        found = range(1, rank + 1)
    elif series in "BC":
        found = range(1, 2 * rank, 2)
    elif series == "D":
        found = [*range(1, 2 * rank - 2, 2), rank - 1]
    else:
        found = {("E", 6): (1, 4, 5, 7, 8, 11), ("E", 7): (1, 5, 7, 9, 11, 13, 17),
                 ("E", 8): (1, 7, 11, 13, 17, 19, 23, 29), ("F", 4): (1, 5, 7, 11), ("G", 2): (1, 5)}[series, rank]
    return tuple(sorted(found))


def highest_coroot(series: str, rank: int) -> tuple[int, ...]:
    """The highest coroot in the simple-coroot basis, in the vertex labeling the README states (D needs rank >= 3).

    B_n has vertex n-1 short, C_n has vertex n-1 long, D_n forks at vertex n-3
    into n-2 and n-1, E_n hangs vertices 0 and 1 off the chain 2..n-1 at 2 and
    3, F4 has vertices 2 and 3 short, and G2 has vertex 0 short.
    """
    if series == "A":
        return (1,) * rank
    if series == "B":
        return (2,) * (rank - 1) + (1,)
    if series == "C":
        return (1,) + (2,) * (rank - 1)
    if series == "D":
        return (1,) + (2,) * (rank - 3) + (1, 1)
    return {("E", 6): (1, 2, 2, 3, 2, 1), ("E", 7): (2, 2, 3, 4, 3, 2, 1), ("E", 8): (2, 3, 4, 6, 5, 4, 3, 2),
            ("F", 4): (2, 4, 3, 2), ("G", 2): (2, 3)}[series, rank]
