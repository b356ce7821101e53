"""Exact sparse Laurent polynomials in one variable q, plus shift/twist classes.

Coefficients are Python ints, so arithmetic is arbitrary precision by
construction.  A polynomial is stored as an exponent -> coefficient map with
no zero entries; the canonical form is unique, and equality is dict equality.
"""

from __future__ import annotations

from typing import Callable, Mapping

from .cartan import Value, load_exact


def _operands(method: Callable) -> Callable:
    """method behind the one operand rule: an exact int becomes a constant, a LaurentPoly passes, and
    anything else (bool, float, str, ...) is NotImplemented, so the operator raises TypeError and == is False."""
    def gated(self: "LaurentPoly", other: object) -> object:
        if type(other) is int:
            other = LaurentPoly({0: other})
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        return method(self, other)
    return gated


class LaurentPoly:
    """Integer Laurent polynomial in q, canonical (zero-free) sparse form.

    The constructor is the one place that makes the canonical form: it drops
    zero coefficients and rejects terms that are not a mapping (None is the
    zero polynomial) and an exponent or coefficient that is not an int.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] | None = None):
        self._terms: dict[int, int] = {}
        try:
            items = ({} if terms is None else terms).items()
        except AttributeError:  # 0, "", [] or [(0, 1)]
            raise ValueError(f"terms {terms!r} are not a mapping of exponents to coefficients") from None
        for e, c in items:
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
    def q_power(exponent: int) -> "LaurentPoly":
        return LaurentPoly({exponent: 1})

    # -- ring structure -------------------------------------------------

    @_operands
    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self._terms)
        for e, c in other._terms.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self._terms.items()})

    @_operands
    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    @_operands
    def __rsub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return other - self

    @_operands
    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[int, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly(out)

    __rmul__ = __mul__

    @_operands
    def __pow__(self, n: "LaurentPoly") -> "LaurentPoly":
        if not n._terms.keys() <= {0} or n.coefficient(0) < 0:  # n is an int, made a constant by the gate
            raise ValueError(f"exponent {n} is not an integer >= 0")
        result = LaurentPoly.one()
        for _ in range(n.coefficient(0)):
            result = result * self
        return result

    # -- queries ---------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._terms)

    @_operands
    def __eq__(self, other: "LaurentPoly") -> bool:
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
        """Read the JSON form back; ValueError unless ``load_exact`` passes it (sorted, no repeat, no 0)."""
        def build(pairs: list[list[int]]) -> LaurentPoly:
            try:
                terms = dict(pairs)
            except (TypeError, ValueError) as exc:  # pairs is not iterable, or one of its items is not a pair
                raise ValueError(f"wire pairs {pairs!r} are not a list of pairs") from exc
            return LaurentPoly(terms)  # the constructor refuses a term that is not two ints

        return load_exact(pairs, build, LaurentPoly.to_pairs, "polynomial pairs", "LaurentPoly.to_pairs")

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


class GrothendieckClass(Value):
    """Formal sum of shift/twist tokens [n](m) with integer multiplicities, as a read-only value.

    The Frobenius-trace specialization sends [n](m) to (-1)^n * q^(-m).
    A token of multiplicity 0 is dropped, so equal sums are equal values.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, int], int]):
        try:
            items = terms.items()
        except AttributeError:  # 5 or [((0, 0), 1)]
            raise ValueError(f"terms {terms!r} are not a mapping of (shift, twist) tokens to multiplicities") from None
        for token, mult in items:
            if not (type(token) is tuple and len(token) == 2 and type(token[0]) is type(token[1]) is type(mult) is int):
                raise ValueError(f"token {token!r} x {mult!r} is not made of integers: a (shift, twist) and a count")
        super().__init__({token: mult for token, mult in items if mult})

    def trace(self) -> LaurentPoly:
        """Frobenius trace: each [n](m) contributes (-1)^n q^(-m) times its multiplicity."""
        out: dict[int, int] = {}
        for (shift, twist), mult in self._terms.items():
            out[-twist] = out.get(-twist, 0) + (-mult if shift % 2 else mult)
        return LaurentPoly(out)
