"""Closed forms of the finite root systems, written here so that the checks share no code with the library.

The number of positive roots and the exponents of each type, from Bourbaki,
*Lie Groups and Lie Algebras*, ch. VI, Plates I-IX.  A root system and its
dual (the coroots) have the same of both.
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
