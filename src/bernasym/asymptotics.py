"""Normalized Frobenius traces of the degeneration's nearby-cycles stalks.

Three independent routes compute the same Laurent polynomial for each
positive coweight theta, and the library's central check is their exact
agreement:

* ``trace_kostant_sum``: the closed sum
  ``q^<rho,theta> * sum over Kostant partitions K of (1-q)^|R_K| q^-|K|``.
* ``trace_from_series``: the coefficient of theta in the Gindikin-Karpelevich
  product ``prod over positive coroots of (1 - e^beta)/(1 - q^-1 e^beta)``,
  expanded as a truncated formal series over the positive-coweight monoid
  and converted from the e-basis (``e^theta = q^<rho,theta> 1_theta``).
* ``trace_grothendieck_oracle``: the trace of the formal shift/twist class
  assembled over pairs (K1, K2) of a Kostant partition and a *simple*
  partition with K1 + K2 = theta, found by its own search over the coroots.

All traces are normalized: the global factor q^(-dim(Bun_G)/2) is omitted and
reported symbolically in the table metadata, keeping every value an integer
Laurent polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .cartan import (
    Coweight,
    RootSystem,
    check_integers,
    coweights_up_to_height,
    height,
    is_positive,
    root_system_from_json,
    root_system_to_json,
)
from .kostant import count_partitions, enumerate_partitions
from .qlaurent import GrothendieckClass, LaurentPoly

NORMALIZATION_EXPONENT = "-(g-1)*dim(G)/2"


class MonoidSeries:
    """Truncated formal series over the positive-coweight monoid.

    Keys are positive coweights of height <= ``height_bound``; values are
    Laurent polynomials in q.  Multiplication convolves keys and discards any
    product key above the bound, so it is exactly associative and commutative
    on the retained terms.
    """

    __slots__ = ("height_bound", "_terms")

    def __init__(self, height_bound: int, terms: Mapping[Coweight, LaurentPoly] | None = None):
        if height_bound < 0:
            raise ValueError("height bound must be >= 0")
        self.height_bound = height_bound
        self._terms: dict[Coweight, LaurentPoly] = {}
        rank: int | None = None
        if terms:
            for key, poly in terms.items():
                key = check_integers(key, "series key")
                if rank is None:
                    rank = len(key)
                elif len(key) != rank:
                    raise ValueError("series keys must all have the same length")
                if not is_positive(key):
                    raise ValueError(f"series key {key} is not positive")
                if height(key) > height_bound:
                    raise ValueError(f"series key {key} exceeds the height bound {height_bound}")
                if poly:
                    self._terms[key] = poly

    @staticmethod
    def one(height_bound: int, rank: int) -> "MonoidSeries":
        return MonoidSeries(height_bound, {tuple(0 for _ in range(rank)): LaurentPoly.one()})

    def coefficient(self, theta: Sequence[int]) -> LaurentPoly:
        return self._terms.get(check_integers(theta), LaurentPoly.zero())

    def terms(self) -> list[tuple[Coweight, LaurentPoly]]:
        return sorted(self._terms.items(), key=lambda kv: (height(kv[0]), kv[0]))

    def __mul__(self, other: "MonoidSeries") -> "MonoidSeries":
        if not isinstance(other, MonoidSeries):
            return NotImplemented
        if self.height_bound != other.height_bound:
            raise ValueError("cannot multiply series with different height bounds")
        # keys of one series share a length (the constructor checks it, products keep it): first keys suffice
        if self._terms and other._terms:
            k1 = next(iter(self._terms))
            k2 = next(iter(other._terms))
            if len(k1) != len(k2):
                raise ValueError("cannot multiply series over monoids of different ranks")
        bound = self.height_bound
        out: dict[Coweight, LaurentPoly] = {}
        for k1, p1 in self._terms.items():
            h1 = height(k1)
            for k2, p2 in other._terms.items():
                if h1 + height(k2) > bound:
                    continue
                key = tuple(a + b for a, b in zip(k1, k2))
                acc = out.get(key)
                prod = p1 * p2
                out[key] = prod if acc is None else acc + prod
        product = MonoidSeries(bound)
        product._terms = {key: poly for key, poly in out.items() if poly}
        return product

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MonoidSeries):
            return NotImplemented
        return self.height_bound == other.height_bound and self._terms == other._terms

    def __repr__(self) -> str:
        return f"MonoidSeries(h={self.height_bound}, {len(self._terms)} terms)"


def geometric_factor(beta: Coweight, height_bound: int) -> MonoidSeries:
    """One Gindikin-Karpelevich factor: 1 + sum_{i>=1} q^-i (1-q) e^{i*beta}, truncated."""
    rank = len(beta)
    terms: dict[Coweight, LaurentPoly] = {tuple(0 for _ in range(rank)): LaurentPoly.one()}
    step = height(beta)
    for i in range(1, height_bound // step + 1):
        coeff = LaurentPoly({-i: 1, -i + 1: -1})  # q^-i (1 - q)
        terms[tuple(i * b for b in beta)] = coeff
    return MonoidSeries(height_bound, terms)


def gk_product_series(rs: RootSystem, height_bound: int) -> MonoidSeries:
    """Product of the geometric factors over all positive coroots, truncated."""
    series = MonoidSeries.one(height_bound, rs.rank)
    for beta in rs.positive_coroots:
        series = series * geometric_factor(beta, height_bound)
    return series


def trace_from_series(series: MonoidSeries, rs: RootSystem, theta: Sequence[int]) -> LaurentPoly:
    """Convert the e-basis coefficient at theta to the 1-basis: multiply by q^<rho,theta>."""
    theta = rs.check_positive_coweight(theta)
    if height(theta) > series.height_bound:
        raise ValueError(
            f"theta has height {height(theta)} above the series bound {series.height_bound};"
            " rebuild the series with a larger bound"
        )
    return LaurentPoly.q_power(height(theta)) * series.coefficient(theta)


def trace_kostant_sum(rs: RootSystem, theta: Sequence[int]) -> LaurentPoly:
    """q^<rho,theta> * sum over Kostant partitions of (1-q)^|R_K| * q^-|K|."""
    theta = rs.check_positive_coweight(theta)
    one_minus_q = LaurentPoly({0: 1, 1: -1})
    total = LaurentPoly.zero()
    for part in enumerate_partitions(rs, theta):
        total = total + one_minus_q ** len(part.support) * LaurentPoly.q_power(-part.size)
    return LaurentPoly.q_power(height(theta)) * total


def trace_grothendieck_oracle(rs: RootSystem, theta: Sequence[int]) -> LaurentPoly:
    """Trace of the class sum over pairs (K1, K2) with K1 + K2 = theta.

    K1 is a Kostant partition and K2 a simple one (each coroot at most once).
    Each pair contributes the class with shift 2|K1| + |K2| and twist |K1|,
    whose trace is (-1)^|K2| q^-|K1|; the result is again multiplied by
    q^<rho,theta>.  The pairs are found by one search over the coroots: each
    step picks the next coroot used, n >= 1 times in all, and puts either all
    n copies in K1 or n - 1 in K1 and one in K2.
    """
    theta = rs.check_positive_coweight(theta)
    coroots = rs.positive_coroots
    terms: dict[tuple[int, int], int] = {}

    def descend(i: int, remaining: Coweight, k1: int, k2: int) -> None:
        if not any(remaining):
            key = (2 * k1 + k2, k1)
            terms[key] = terms.get(key, 0) + 1
            return
        for j in range(i, len(coroots)):
            beta = coroots[j]
            cap = min(r // b for r, b in zip(remaining, beta) if b)
            for n in range(1, cap + 1):
                rest = tuple(r - n * b for r, b in zip(remaining, beta))
                descend(j + 1, rest, k1 + n, k2)
                descend(j + 1, rest, k1 + n - 1, k2 + 1)

    descend(0, theta, 0, 0)
    return LaurentPoly.q_power(height(theta)) * GrothendieckClass(terms).trace()


# ---------------------------------------------------------------------------
# Colored divisors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ColoredDivisor:
    """Formal sum of positive nonzero coweights at pairwise distinct points."""

    points: tuple[tuple[str, Coweight], ...]

    def __post_init__(self) -> None:
        normalized = tuple((str(label), check_integers(theta)) for label, theta in self.points)
        labels = [label for label, _ in normalized]
        if len(set(labels)) != len(labels):
            raise ValueError("divisor point labels must be pairwise distinct")
        for label, theta in normalized:
            if not is_positive(theta):
                raise ValueError(f"divisor part at {label!r} is not positive: {theta}")
            if all(x == 0 for x in theta):
                raise ValueError(f"divisor part at {label!r} is zero; drop the point instead")
        object.__setattr__(self, "points", normalized)


def parse_divisor(text: str, rank: int) -> ColoredDivisor:
    """Parse `label:n1,n2;label2:m1,m2` into a ColoredDivisor; empty text is the empty divisor."""
    text = text.strip()
    if not text:
        return ColoredDivisor(points=())
    points: list[tuple[str, Coweight]] = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        label, sep, coords = chunk.partition(":")
        if not sep or not label.strip():
            raise ValueError(f"malformed divisor part {chunk!r}; expected label:coords")
        try:
            theta = tuple(int(tok) for tok in coords.split(","))
        except ValueError as exc:
            raise ValueError(f"malformed divisor coordinates {coords!r}") from exc
        if len(theta) != rank:
            raise ValueError(f"divisor part {label!r} has {len(theta)} coordinates, expected {rank}")
        points.append((label.strip(), theta))
    return ColoredDivisor(points=tuple(points))


def divisor_trace(rs: RootSystem, divisor: ColoredDivisor) -> LaurentPoly:
    """Factorized multi-point trace: the product of single-point traces."""
    total = LaurentPoly.one()
    for _, theta in divisor.points:
        total = total * trace_kostant_sum(rs, theta)
    return total


# ---------------------------------------------------------------------------
# The asymptotics table
# ---------------------------------------------------------------------------


class VerificationError(Exception):
    """Raised when values that must be equal at some theta differ, e.g. the three trace routes."""

    def __init__(self, theta: Coweight, **values: LaurentPoly | int):
        self.theta = theta
        self.values = values
        detail = " | ".join(f"{name}={value}" for name, value in values.items())
        super().__init__(f"values disagree at theta={theta}: {detail}")

    @classmethod
    def check(cls, theta: Coweight, **values: LaurentPoly | int) -> None:
        """Raise a VerificationError naming theta and every value unless all the values are equal."""
        first, *rest = values.values()
        if any(value != first for value in rest):
            raise cls(theta, **values)

    def report(self) -> dict:
        """JSON-ready failure report: theta, then each value in order, polynomials as wire pairs."""
        values = {k: v.to_pairs() if isinstance(v, LaurentPoly) else v for k, v in self.values.items()}
        return {"error": "identity-verification-failure", "theta": list(self.theta), **values}


@dataclass
class AsympTable:
    """Table theta -> normalized trace over the height-bounded positive coweights.

    The parabolic is the Borel throughout; the omitted normalization factor is
    described by ``normalization_exponent`` in the metadata.
    """

    root_system: RootSystem
    height_bound: int
    entries: dict[Coweight, LaurentPoly] = field(default_factory=dict)
    genus: int | None = None

    def metadata(self) -> dict:
        meta: dict = {
            "normalization_exponent": NORMALIZATION_EXPONENT,
            "dim_g": self.root_system.group_dimension,
        }
        if self.genus is not None:
            meta["genus"] = self.genus
            value = Fraction(-(self.genus - 1) * self.root_system.group_dimension, 2)
            meta["normalization_exponent_value"] = str(value)
        return meta

    def to_json_obj(self) -> dict:
        obj = {
            "root_system": root_system_to_json(self.root_system),
            "height": self.height_bound,
            "normalization_exponent": NORMALIZATION_EXPONENT,
            "metadata": self.metadata(),
            "entries": [
                {"theta": list(theta), "trace": poly.to_pairs()}
                for theta, poly in self.entries.items()
            ],
        }
        return obj

    def to_csv_text(self) -> str:
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["theta", "height", "trace"])
        for theta, poly in self.entries.items():
            writer.writerow([" ".join(str(x) for x in theta), height(theta), str(poly)])
        return buf.getvalue()

    def to_text(self) -> str:
        lines = [f"# {self.root_system.name}, height <= {self.height_bound}"]
        for theta, poly in self.entries.items():
            lines.append(f"{theta} -> {poly}")
        return "\n".join(lines) + "\n"


def build_asymp_table(
    rs: RootSystem,
    height_bound: int,
    verify: bool = True,
    genus: int | None = None,
) -> AsympTable:
    """Tabulate the Kostant-sum trace for every positive theta of height <= bound (>= 0).

    With ``verify`` set, :meth:`VerificationError.check` makes two checks at
    every theta: the Kostant sum, the series route and the Grothendieck-class
    route give the same trace (``kostant``, ``series``, ``oracle``), and the
    independent DP counter gives the number of enumerated Kostant partitions
    (``dp_count``, ``enumerated``).  The first failure raises, naming theta
    and the values it compared.
    """
    series = gk_product_series(rs, height_bound) if verify else None
    entries: dict[Coweight, LaurentPoly] = {}
    for theta in coweights_up_to_height(rs.rank, height_bound):
        value = trace_kostant_sum(rs, theta)
        if verify:
            VerificationError.check(theta, kostant=value, series=trace_from_series(series, rs, theta),
                                    oracle=trace_grothendieck_oracle(rs, theta))
            VerificationError.check(theta, dp_count=count_partitions(rs, theta),
                                    enumerated=len(enumerate_partitions(rs, theta)))
        entries[theta] = value
    return AsympTable(root_system=rs, height_bound=height_bound, entries=entries, genus=genus)


def asymp_table_from_json(obj: Mapping) -> AsympTable:
    """Rebuild a table; every theta must be a distinct positive coweight of height <= ``height``."""
    rs = root_system_from_json(obj["root_system"])
    height_bound = obj["height"]
    genus = obj.get("metadata", {}).get("genus")
    if type(height_bound) is not int or not (genus is None or type(genus) is int):
        raise ValueError(f"table height {height_bound!r} and genus {genus!r} must be integers")
    entries: dict[Coweight, LaurentPoly] = {}
    for record in obj["entries"]:
        theta = rs.check_positive_coweight(record["theta"])
        if height(theta) > height_bound:
            raise ValueError(f"table entry {theta} exceeds the height bound {height_bound}")
        if theta in entries:
            raise ValueError(f"table entry {theta} appears twice")
        entries[theta] = LaurentPoly.from_pairs(record["trace"])
    return AsympTable(root_system=rs, height_bound=height_bound, entries=entries, genus=genus)
