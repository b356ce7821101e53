"""Normalized Frobenius traces of the degeneration's nearby-cycles stalks.

Three independent routes compute the same Laurent polynomial for each
positive coweight theta, and the library's central check is their exact
agreement:

* ``trace_kostant_sum``: the closed sum ``q^<rho,theta> * sum over Kostant
  partitions K of (1-q)^|R_K| q^-|K|``, over a histogram of (|R_K|, |K|); the
  table fills every theta's by one search over the coroots up to its bound.
* ``trace_from_series``: the coefficient of theta in the Gindikin-Karpelevich
  product ``prod over positive coroots of (1 - e^beta)/(1 - q^-1 e^beta)``,
  converted from the e-basis (``e^theta = q^<rho,theta> 1_theta``).  The
  product is expanded over the positive coweights up to a height bound by
  two in-place passes per coroot (``gk_product_series``).
* ``trace_grothendieck_oracle``: the trace of the formal shift/twist class
  assembled over pairs (K1, K2) of a Kostant partition and a *simple*
  partition with K1 + K2 = theta, found by its own search over the coroots.

All traces are normalized: the global factor q^(-dim(Bun_G)/2) is omitted and
reported symbolically in the table metadata, keeping every value an integer
Laurent polynomial.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import takewhile
from math import comb
from operator import add, sub
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .cartan import (
    Coweight,
    RootSystem,
    Value,
    check_count,
    check_coweight,
    coweights_up_to_height,
    height,
    height_region,
    load_exact,
    root_system_from_json,
    root_system_to_json,
)
# count_partitions is not called here: it stays a module global for perfbench/traced.py, which wraps it
from .kostant import count_partitions, count_region, enumerate_partitions
from .qlaurent import GrothendieckClass, LaurentPoly

NORMALIZATION_EXPONENT = "-(g-1)*dim(G)/2"


class GKSeries(Value):
    """The Gindikin-Karpelevich product on a downward-closed region, as built by :func:`gk_product_series`.

    Every coweight of the region is a key, sorted by (height, lex); a
    coefficient asked for outside the region raises ValueError.
    """

    __slots__ = ("_terms",)

    def coefficient(self, theta: Sequence[int]) -> LaurentPoly:
        theta = check_coweight(theta, len(next(iter(self._terms), ())) or None, "theta")  # the rank, or any if empty
        if theta not in self._terms:
            raise ValueError(f"{theta} is outside the series region; rebuild the series over a region holding it")
        return self._terms[theta]

    def terms(self) -> list[tuple[Coweight, LaurentPoly]]:
        """The nonzero terms, sorted by (height, lex) of their keys."""
        return [(v, poly) for v, poly in self._terms.items() if poly]


def gk_product_series(rs: RootSystem, height_bound: int, box: Sequence[int] | None = None) -> GKSeries:
    """prod over positive coroots of (1 - e^beta)/(1 - q^-1 e^beta), on the coweights of height <= bound.

    With ``box`` given, the region is only the coweights of height <= bound in
    that box (``trace --method series`` asks for theta's box).  Either region
    is downward closed, so its coefficients are exact.  Each point's
    coefficient is a row of integers, the coefficients of q^0, q^-1, ...,
    q^-top for the region's top height (a point of height h uses q^0 ... q^-h).
    From the unit series S, each coroot beta makes two in-place passes over
    the region sorted by height: dividing by (1 - q^-1 e^beta) in increasing
    height, S[v] += q^-1 S[v - beta] (the row of v - beta one step down), so
    S[v - beta] is already divided; then multiplying by (1 - e^beta) in
    decreasing height, S[v] -= S[v - beta], so S[v - beta] is not yet
    multiplied.  The rows become Laurent polynomials once, at the end.
    """
    region = height_region(rs.rank, height_bound, box)
    width = height(region[-1]) + 1
    series = {v: [0] * width for v in region}
    series[region[0]][0] = 1
    for beta in rs.positive_coroots:
        step = height(beta)
        if step > height_bound:
            break  # coroots are sorted by height; above the bound a factor truncates to the unit series
        # (v, v - beta) for each v of the region with v - beta >= 0, by increasing height
        pairs = [(v, below) for below in takewhile(lambda below: height(below) + step <= height_bound, region)
                 if (v := tuple(map(add, below, beta))) in series]
        for v, below in pairs:
            # v - beta has height < top, so its last entry is 0 and the shift drops nothing
            series[v] = list(map(add, series[v], [0, *series[below]]))
        for v, below in reversed(pairs):
            series[v] = list(map(sub, series[v], series[below]))
    return GKSeries({v: LaurentPoly({-i: c for i, c in enumerate(row) if c}) for v, row in series.items()})


def trace_from_series(series: GKSeries, rs: RootSystem, theta: Sequence[int]) -> LaurentPoly:
    """Convert the e-basis coefficient at theta to the 1-basis: multiply by q^<rho,theta>."""
    theta = rs.check_positive_coweight(theta)
    return LaurentPoly.q_power(height(theta)) * series.coefficient(theta)


def trace_kostant_sum(rs: RootSystem, theta: Sequence[int]) -> LaurentPoly:
    """q^<rho,theta> * sum over Kostant partitions of (1-q)^|R_K| * q^-|K|."""
    theta = rs.check_positive_coweight(theta)
    return _kostant_sum(theta, Counter((len(part.parts), part.size) for part in enumerate_partitions(rs, theta)))


def _kostant_sum(theta: Coweight, histogram: Mapping[tuple[int, int], int]) -> LaurentPoly:
    """The Kostant sum at theta from its histogram {(|R_K|, |K|): number of theta's partitions}.

    A term depends only on (|R_K|, |K|): each key adds count * (1 - q)^|R_K| q^(<rho,theta> - |K|).
    """
    coefficients: dict[int, int] = {}
    top = height(theta)
    for (support, size), count in histogram.items():
        for k in range(support + 1):  # (1 - q)^s has (-1)^k C(s, k) at q^k; math.comb: the routes share no global
            e = top - size + k
            coefficients[e] = coefficients.get(e, 0) + (-1) ** k * math.comb(support, k) * count
    return LaurentPoly(coefficients)


def _partition_search(coroots: Sequence[tuple[Coweight, int]], start: int, weight: Coweight, budget: int,
                      support: int, size: int, histograms: dict[Coweight, Counter]) -> None:
    """Count a partition of ``weight`` (``support`` distinct coroots, ``size`` in all), then search its extensions.

    A child adds n >= 1 copies of one (coroot, height) from index ``start`` on, within the height ``budget``:
    each node is a new partition, none is a dead end, and the depth is the number of distinct coroots used.
    """
    histograms[weight][support, size] += 1
    for j in range(start, len(coroots)):
        beta, step = coroots[j]
        if step > budget:
            break  # the coroots are sorted by height
        extended = weight
        for n in range(1, budget // step + 1):
            extended = tuple(map(add, extended, beta))
            _partition_search(coroots, j + 1, extended, budget - n * step, support + 1, size + n, histograms)


def trace_grothendieck_oracle(rs: RootSystem, theta: Sequence[int]) -> LaurentPoly:
    """Trace of the class sum over pairs (K1, K2) with K1 + K2 = theta.

    K1 is a Kostant partition and K2 a simple one (each coroot at most once).
    Each pair contributes the class with shift 2|K1| + |K2| and twist |K1|,
    whose trace is (-1)^|K2| q^-|K1|; the result is again multiplied by
    q^<rho,theta>.  The pairs are found by one search that branches only over
    the non-simple coroots fitting in theta's box: each step picks the next
    one used, n >= 1 times in all, and puts either all n copies in K1 or
    n - 1 in K1 and one in K2.  The simple coroots (the first rank: the unit
    vectors) finish every node in closed form.  The remainder r is a sum of
    them, and each simple coroot with r_i >= 1 puts either all r_i copies in
    K1 or r_i - 1 in K1 and one in K2; so if r has s nonzero coordinates
    summing to R, the node adds C(s, t) pairs with |K1| larger by R - t and
    |K2| by t, for t = 0..s.
    """
    theta = rs.check_positive_coweight(theta)
    # the non-simple coroots follow the rank simple ones, by height: none after the first taller than theta fits
    bound = height(theta)
    coroots = [beta for beta in takewhile(lambda beta: height(beta) <= bound, rs.positive_coroots[rs.rank:])
               if all(b <= t for b, t in zip(beta, theta))]
    terms: dict[tuple[int, int], int] = {}

    def descend(i: int, remaining: Coweight, k1: int, k2: int) -> None:
        s, size = len(remaining) - remaining.count(0), k1 + sum(remaining)
        for t in range(s + 1):
            key = (2 * (size - t) + k2 + t, size - t)
            terms[key] = terms.get(key, 0) + comb(s, t)
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


class ColoredDivisor(Value):
    """Formal sum of positive nonzero coweights at pairwise distinct points."""

    __slots__ = ("points",)

    def __init__(self, points: Sequence[tuple[str, Sequence[int]]]) -> None:
        try:
            pairs = [(label, theta) for label, theta in points]
        except (TypeError, ValueError):  # not iterable (5 or None), or an item that is not a pair
            raise ValueError(f"divisor points {points!r} are not a sequence of (label, coweight) pairs") from None
        normalized = []
        for label, theta in pairs:
            if type(label) is not str:  # it names the point, as a label names a RootSystemSpec
                raise ValueError(f"divisor point label {label!r} must be a string")
            theta = check_coweight(theta, None, f"divisor part at {label!r}")
            if not any(theta):
                raise ValueError(f"divisor part at {label!r} is zero; drop the point instead")
            normalized.append((label, theta))
        if len({label for label, _ in normalized}) != len(normalized):
            raise ValueError("divisor point labels must be pairwise distinct")
        super().__init__(tuple(normalized))


def parse_divisor(text: str, rank: int) -> ColoredDivisor:
    """Parse `label:n1,n2;label2:m1,m2` into a ColoredDivisor; empty text is the empty divisor."""
    if type(text) is not str:
        raise ValueError(f"divisor text {text!r} is not a string")
    check_count(rank, "rank")
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
        points.append((label.strip(), check_coweight(theta, rank, f"divisor part {label!r}")))
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


class AsympTable(Value):
    """Table theta -> normalized trace over the height-bounded positive coweights.

    The constructor checks the height and genus (ints >= 0), then draws every entry and checks its theta (distinct,
    positive, of height <= the bound) and its trace (a LaurentPoly); ``entries`` is a read-only view.  The parabolic
    is the Borel throughout; the omitted normalization factor is ``normalization_exponent`` in the metadata.
    """

    __slots__ = ("root_system", "height_bound", "_entries", "genus")

    def __init__(self, root_system: RootSystem, height_bound: int,
                 entries: Mapping | Iterable[tuple[Sequence[int], LaurentPoly]] = (), genus: int | None = None):
        check_count(height_bound, "table height")
        if genus is not None:
            check_count(genus, "genus")
        checked: dict[Coweight, LaurentPoly] = {}
        for theta, poly in entries.items() if isinstance(entries, Mapping) else entries:
            theta = root_system.check_positive_coweight(theta)
            if height(theta) > height_bound:
                raise ValueError(f"table entry {theta} exceeds the height bound {height_bound}")
            if theta in checked:
                raise ValueError(f"table entry {theta} appears twice")
            if not isinstance(poly, LaurentPoly):
                raise ValueError(f"table entry {theta} has trace {poly!r}, expected a LaurentPoly")
            checked[theta] = poly
        super().__init__(root_system, height_bound, checked, genus)

    @property
    def entries(self) -> Mapping[Coweight, LaurentPoly]:
        return MappingProxyType(self._entries)  # the dict itself stays in the slot: copy and pickle need it

    def metadata(self) -> dict:
        meta: dict = {
            "normalization_exponent": NORMALIZATION_EXPONENT,
            "dim_g": self.root_system.group_dimension,
        }
        if self.genus is not None:
            meta["genus"] = self.genus
            doubled = -(self.genus - 1) * self.root_system.group_dimension
            meta["normalization_exponent_value"] = f"{doubled}/2" if doubled % 2 else str(doubled // 2)
        return meta

    def to_json_obj(self) -> dict:
        return {
            "root_system": root_system_to_json(self.root_system),
            "height": self.height_bound,
            "normalization_exponent": NORMALIZATION_EXPONENT,
            "metadata": self.metadata(),
            "entries": [{"theta": list(theta), "trace": poly.to_pairs()}
                        for theta, poly in self.entries.items()],
        }

    def to_csv_text(self) -> str:
        # no field holds a comma, a quote or a newline, so none needs CSV quoting
        lines = ["theta,height,trace"]
        for theta, poly in self.entries.items():
            lines.append(f"{' '.join(str(x) for x in theta)},{height(theta)},{poly}")
        return "\n".join(lines) + "\n"

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
    """Tabulate the Kostant-sum trace for every positive theta of height <= bound (>= 0; genus too).

    With ``verify`` set, :meth:`VerificationError.check` makes two checks at
    every theta: the Kostant sum, the series route and the Grothendieck-class
    route give the same trace (``kostant``, ``series``, ``oracle``), and the
    independent DP counter gives the number of Kostant partitions the sum ran
    over (``dp_count``, ``enumerated``).  One search fills every theta's
    (|R_K|, |K|) histogram, for both checks, and one DP pass per coroot over
    the same height region (:func:`count_region`) gives every theta's count.
    The first failure raises, naming theta and the values it compared.
    """
    def traces():
        thetas = coweights_up_to_height(rs.rank, height_bound)
        series = gk_product_series(rs, height_bound) if verify else None
        counts = count_region(rs, thetas) if verify else None
        histograms = {theta: Counter() for theta in thetas}
        coroots = [(beta, height(beta)) for beta in rs.positive_coroots if height(beta) <= height_bound]
        _partition_search(coroots, 0, (0,) * rs.rank, height_bound, 0, 0, histograms)
        for theta, histogram in histograms.items():
            value = _kostant_sum(theta, histogram)
            if verify:
                VerificationError.check(theta, kostant=value, series=trace_from_series(series, rs, theta),
                                        oracle=trace_grothendieck_oracle(rs, theta))
                VerificationError.check(theta, dp_count=counts[theta], enumerated=sum(histogram.values()))
            yield theta, value

    return AsympTable(rs, height_bound, traces(), genus)  # checks height and genus before the first trace


def asymp_table_from_json(obj: Mapping) -> AsympTable:
    """Rebuild a table, which checks its height, genus and thetas; ValueError unless ``load_exact`` passes it."""
    def build(obj: Mapping) -> AsympTable:
        entries = ((record["theta"], LaurentPoly.from_pairs(record["trace"])) for record in obj["entries"])
        return AsympTable(root_system_from_json(obj["root_system"]), obj["height"], entries,
                          obj.get("metadata", {}).get("genus"))

    return load_exact(obj, build, AsympTable.to_json_obj, "table JSON", "AsympTable.to_json_obj")
