"""Exact sparse Laurent polynomials in one variable q, plus shift/twist classes.

Coefficients are Python ints, so arithmetic is arbitrary precision by
construction.  A polynomial is stored as an exponent -> coefficient map with
no zero entries; the canonical form is unique, and equality is dict equality.
"""

from __future__ import annotations

from typing import Mapping


class LaurentPoly:
    """Integer Laurent polynomial in q, canonical (zero-free) sparse form.

    The constructor is the one place that makes the canonical form: it drops
    zero coefficients and rejects an exponent or coefficient that is not an int.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] | None = None):
        self._terms: dict[int, int] = {}
        if terms:
            for e, c in terms.items():
                if type(e) is not int or type(c) is not int:
                    raise ValueError(f"term {c!r} q^{e!r} does not have an integer exponent and coefficient")
                if c:
                    self._terms[e] = c

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly()

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly({0: 1})

    @staticmethod
    def constant(c: int) -> "LaurentPoly":
        return LaurentPoly({0: c})

    @staticmethod
    def q_power(exponent: int, coefficient: int = 1) -> "LaurentPoly":
        return LaurentPoly({exponent: coefficient})

    # -- ring structure -------------------------------------------------

    @staticmethod
    def _coerce(x: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(x, LaurentPoly):
            return x
        if type(x) is int:
            return LaurentPoly.constant(x)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for e, c in other._terms.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: int) -> "LaurentPoly":
        return LaurentPoly.constant(other) - self

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[int, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers of a polynomial are not defined here")
        result = LaurentPoly.one()
        for _ in range(n):
            result = result * self
        return result

    # -- queries ---------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if type(other) is int:
            other = LaurentPoly.constant(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        if self._terms.keys() <= {0}:  # a constant equals its int, so it hashes as that int
            return hash(self._terms.get(0, 0))
        return hash(frozenset(self._terms.items()))

    def coefficient(self, exponent: int) -> int:
        return self._terms.get(exponent, 0)

    # -- wire format -----------------------------------------------------

    def to_pairs(self) -> list[list[int]]:
        """JSON form: [exponent, coefficient] pairs sorted by exponent."""
        return [[e, self._terms[e]] for e in sorted(self._terms)]

    @staticmethod
    def from_pairs(pairs: list[list[int]]) -> "LaurentPoly":
        """Read the JSON form back; ValueError unless ``to_pairs`` gives pairs back (sorted, no repeat, no 0)."""
        try:
            for e, c in pairs:
                if type(e) is not int or type(c) is not int:
                    raise ValueError(f"wire pair {[e, c]} is not a pair of integers")
        except TypeError as exc:  # pairs, or one of its pairs, is not iterable
            raise ValueError(f"wire pairs {pairs!r} are not a list of pairs") from exc
        poly = LaurentPoly(dict(pairs))
        if poly.to_pairs() != pairs:
            raise ValueError(f"wire pairs {pairs} need strictly increasing exponents and nonzero coefficients")
        return poly

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        pieces: list[str] = []
        for e in sorted(self._terms):
            c = self._terms[e]
            mag = abs(c)
            if e == 0:
                body = str(mag)
            elif e == 1:
                body = "q" if mag == 1 else f"{mag}q"
            else:
                body = f"q^{e}" if mag == 1 else f"{mag}q^{e}"
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"LaurentPoly({self._terms!r})"


class GrothendieckClass:
    """Formal sum of shift/twist tokens [n](m) with integer multiplicities.

    The Frobenius-trace specialization sends [n](m) to (-1)^n * q^(-m).
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, int], int]):
        for (shift, twist), mult in terms.items():
            if type(shift) is not int or type(twist) is not int or type(mult) is not int:
                raise ValueError(f"token [{shift!r}]({twist!r}) x {mult!r} is not made of integers")
        self._terms = dict(terms)

    def trace(self) -> LaurentPoly:
        """Frobenius trace: each [n](m) contributes (-1)^n q^(-m) times its multiplicity."""
        out: dict[int, int] = {}
        for (shift, twist), mult in self._terms.items():
            out[-twist] = out.get(-twist, 0) + (-mult if shift % 2 else mult)
        return LaurentPoly(out)
