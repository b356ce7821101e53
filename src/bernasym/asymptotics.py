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
  assembled over ordered splittings theta1 + theta2 = theta with a Kostant
  partition of theta1 and a *simple* partition of theta2.

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
    coordinate_box,
    coweights_up_to_height,
    height,
    is_positive,
    root_system_from_json,
    root_system_to_json,
)
from .kostant import count_partitions, enumerate_partitions, enumerate_simple_partitions
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
                key = tuple(int(x) for x in key)
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
        return self._terms.get(tuple(int(x) for x in theta), LaurentPoly.zero())

    def terms(self) -> list[tuple[Coweight, LaurentPoly]]:
        return sorted(self._terms.items(), key=lambda kv: (height(kv[0]), kv[0]))

    def __mul__(self, other: "MonoidSeries") -> "MonoidSeries":
        if not isinstance(other, MonoidSeries):
            return NotImplemented
        if self.height_bound != other.height_bound:
            raise ValueError("cannot multiply series with different height bounds")
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
        return MonoidSeries(bound, out)

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
    if height_bound < 1:
        raise ValueError("the product series needs a height bound >= 1")
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
    """Trace of the class sum over splittings theta1 + theta2 = theta.

    Each pair (K1 a partition of theta1, K2 a simple partition of theta2)
    contributes the class with shift 2|K1| + |K2| and twist |K1|, whose trace
    is (-1)^|K2| q^-|K1|; the result is again multiplied by q^<rho,theta>.
    """
    theta = rs.check_positive_coweight(theta)
    terms: dict[tuple[int, int], int] = {}
    for theta2 in coordinate_box(theta):
        simples = enumerate_simple_partitions(rs, theta2)
        if not simples:
            continue
        theta1 = tuple(t - s for t, s in zip(theta, theta2))
        for k1 in enumerate_partitions(rs, theta1):
            for k2 in simples:
                key = (2 * k1.size + k2.size, k1.size)
                terms[key] = terms.get(key, 0) + 1
    cls = GrothendieckClass(terms)
    return LaurentPoly.q_power(height(theta)) * cls.trace()


# ---------------------------------------------------------------------------
# Colored divisors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ColoredDivisor:
    """Formal sum of positive nonzero coweights at pairwise distinct points."""

    points: tuple[tuple[str, Coweight], ...]

    def __post_init__(self) -> None:
        normalized = tuple((str(label), tuple(int(x) for x in theta)) for label, theta in self.points)
        labels = [label for label, _ in normalized]
        if len(set(labels)) != len(labels):
            raise ValueError("divisor point labels must be pairwise distinct")
        for label, theta in normalized:
            if not is_positive(theta):
                raise ValueError(f"divisor part at {label!r} is not positive: {theta}")
            if all(x == 0 for x in theta):
                raise ValueError(f"divisor part at {label!r} is zero; drop the point instead")
        object.__setattr__(self, "points", normalized)

    @property
    def total_weight(self) -> Coweight:
        if not self.points:
            return ()
        rank = len(self.points[0][1])
        total = [0] * rank
        for _, theta in self.points:
            for i, x in enumerate(theta):
                total[i] += x
        return tuple(total)


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
    """Raised when the three trace routes disagree at some theta."""

    def __init__(self, theta: Coweight, kostant: LaurentPoly, series: LaurentPoly, oracle: LaurentPoly):
        self.theta = theta
        self.kostant = kostant
        self.series = series
        self.oracle = oracle
        super().__init__(
            f"trace routes disagree at theta={theta}: "
            f"kostant={kostant} | series={series} | oracle={oracle}"
        )

    def report(self) -> dict:
        """JSON-ready failure report: theta and the three disagreeing traces as wire pairs."""
        traces = {name: getattr(self, name).to_pairs() for name in ("kostant", "series", "oracle")}
        return {"error": "identity-verification-failure", "theta": list(self.theta), **traces}


class KostantCountError(Exception):
    """Raised when the DP partition counter disagrees with explicit enumeration."""

    def __init__(self, theta: Coweight, dp_count: int, enumerated: int):
        self.theta = theta
        self.dp_count = dp_count
        self.enumerated = enumerated
        super().__init__(
            f"Kostant count mismatch at theta={theta}: DP={dp_count}, enumeration={enumerated}"
        )

    def report(self) -> dict:
        """JSON-ready failure report, in the shape of :meth:`VerificationError.report`."""
        counts = {"dp_count": self.dp_count, "enumerated": self.enumerated}
        return {"error": "identity-verification-failure", "theta": list(self.theta), **counts}


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

    def entry(self, theta: Sequence[int]) -> LaurentPoly:
        return self.entries[tuple(int(x) for x in theta)]

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
    """Tabulate the Kostant-sum trace for every positive theta of height <= bound.

    With ``verify`` set, every entry is checked for exact equality against the
    series route and the Grothendieck-class route (any mismatch raises
    :class:`VerificationError` naming the offending theta and all three
    values), and the Kostant enumeration cardinality is cross-checked against
    the independent DP counter (:class:`KostantCountError` on mismatch).
    """
    if height_bound < 0:
        raise ValueError("height bound must be >= 0")
    series = gk_product_series(rs, height_bound) if (verify and height_bound >= 1) else None
    entries: dict[Coweight, LaurentPoly] = {}
    for theta in coweights_up_to_height(rs.rank, height_bound):
        value = trace_kostant_sum(rs, theta)
        if verify:
            from_series = (
                trace_from_series(series, rs, theta) if series is not None else LaurentPoly.one()
            )
            from_oracle = trace_grothendieck_oracle(rs, theta)
            if not (value == from_series == from_oracle):
                raise VerificationError(theta, value, from_series, from_oracle)
            enumerated = len(enumerate_partitions(rs, theta))
            counted = count_partitions(rs, theta)
            if counted != enumerated:
                raise KostantCountError(theta, counted, enumerated)
        entries[theta] = value
    return AsympTable(root_system=rs, height_bound=height_bound, entries=entries, genus=genus)


def asymp_table_from_json(obj: Mapping) -> AsympTable:
    rs = root_system_from_json(obj["root_system"])
    entries: dict[Coweight, LaurentPoly] = {}
    for record in obj["entries"]:
        theta = tuple(int(x) for x in record["theta"])
        entries[theta] = LaurentPoly.from_pairs(record["trace"])
    meta = obj.get("metadata", {})
    genus = meta.get("genus")
    return AsympTable(
        root_system=rs,
        height_bound=int(obj["height"]),
        entries=entries,
        genus=int(genus) if genus is not None else None,
    )
