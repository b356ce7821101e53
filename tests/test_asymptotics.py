"""Tests for the three trace routes, divisors, and the asymptotics table."""

from __future__ import annotations

import copy
import csv
import functools
import io
import operator
import pickle
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from bernasym.asymptotics import (
    AsympTable,
    ColoredDivisor,
    GKSeries,
    VerificationError,
    _kostant_sum,
    asymp_table_from_json,
    build_asymp_table,
    divisor_trace,
    gk_product_series,
    parse_divisor,
    trace_from_series,
    trace_grothendieck_oracle,
    trace_kostant_sum,
)
from bernasym.cartan import (
    RootSystemSpec,
    build_root_system,
    coordinate_box,
    coweights_up_to_height,
    height,
    root_system,
    root_system_from_json,
)
from bernasym.kostant import (
    count_partitions,
    count_region,
    enumerate_partitions,
)
from bernasym.qlaurent import LaurentPoly

ONE = LaurentPoly.one()
ONE_MINUS_Q = LaurentPoly({0: 1, 1: -1})


def histogram_of(partitions):
    """{(|R_K|, |K|): number of partitions}, counted from a partition list."""
    return Counter((len(part.parts), part.size) for part in partitions)


def patch_search(monkeypatch, edit=None):
    """Wrap the table's partition search; return the histograms it filled, after ``edit(theta, histogram)`` on each.

    The search recurses through its module global, so the wrapper sees every
    node; the root node (no coroot used yet) returns last, when the search is done.
    """
    import bernasym.asymptotics as mod

    search = mod._partition_search
    seen = {"roots": 0, "nodes": 0, "histograms": None}

    def wrapped(coroots, start, weight, budget, support, size, histograms):
        seen["nodes"] += 1
        search(coroots, start, weight, budget, support, size, histograms)
        if size == 0:
            seen["roots"] += 1
            seen["histograms"] = histograms
            if edit is not None:
                for theta, histogram in histograms.items():
                    edit(theta, histogram)

    monkeypatch.setattr(mod, "_partition_search", wrapped)
    return seen


def routes_follow_the_table(monkeypatch, seen):
    """Make the series and oracle routes return the table's own (possibly corrupted) Kostant sum."""
    import bernasym.asymptotics as mod

    def table_value(theta):
        return mod._kostant_sum(theta, seen["histograms"][theta])

    monkeypatch.setattr(mod, "trace_from_series", lambda series, rs, theta: table_value(theta))
    monkeypatch.setattr(mod, "trace_grothendieck_oracle", lambda rs, theta: table_value(theta))


@pytest.mark.parametrize(
    "check",
    [
        enumerate_partitions,
        count_partitions,
        trace_kostant_sum,
        lambda rs, theta: trace_from_series(gk_product_series(rs, 2), rs, theta),
        trace_grothendieck_oracle,
    ],
    ids=["enumerate", "count", "kostant_sum", "series", "oracle"],
)
@pytest.mark.parametrize(
    "theta",
    [(-1, 1), (1,), (1, 0, 0), (1.5, 0), (True, 0)],
    ids=["negative", "short", "long", "fractional", "boolean"],
)
def test_positive_coweight_required(check, theta):
    with pytest.raises(ValueError):
        check(root_system("A", 2), theta)


class TestKostantSum:
    def test_zero(self):
        for series, rank in [("A", 1), ("B", 2), ("G", 2)]:
            rs = root_system(series, rank)
            assert trace_kostant_sum(rs, tuple(0 for _ in range(rank))) == ONE

    def test_sl2_closed_form(self):
        rs = root_system("A", 1)
        for n in range(1, 11):
            assert trace_kostant_sum(rs, (n,)) == ONE_MINUS_Q

    def test_a2_long_coroot(self):
        assert trace_kostant_sum(root_system("A", 2), (1, 1)) == ONE_MINUS_Q

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            trace_kostant_sum(root_system("A", 2), (1, -1))
        for theta in (5, None):  # each raised TypeError: '...' object is not iterable
            with pytest.raises(ValueError, match=f"theta {theta} is not a sequence of integers"):
                trace_kostant_sum(root_system("A", 2), theta)

    @pytest.mark.parametrize("series,rank,bound", [("A", 3, 6), ("B", 3, 5), ("G", 2, 10)])
    def test_histogram_equals_per_partition_sum(self, series, rank, bound):
        # one term per partition, over the whole list and over every other partition of it
        rs = root_system(series, rank)
        for theta in coweights_up_to_height(rank, bound):
            parts = enumerate_partitions(rs, theta)
            for chosen in (parts, parts[::2]):
                total = LaurentPoly.zero()
                for part in chosen:
                    total = total + ONE_MINUS_Q ** len(part.support) * LaurentPoly.q_power(height(theta) - part.size)
                assert _kostant_sum(theta, histogram_of(chosen)) == total, theta

    @pytest.mark.parametrize(
        "series,rank,bound",
        [("A", 3, 9), ("B", 3, 7), ("C", 3, 7), ("D", 4, 6), ("E", 6, 4), ("F", 4, 5), ("G", 2, 14), ("A", 40, 2)],
    )
    def test_region_search_equals_enumeration(self, monkeypatch, series, rank, bound):
        # the table's one search over the height region against the per-theta enumerator
        rs = root_system(series, rank)
        seen = patch_search(monkeypatch)
        build_asymp_table(rs, bound, verify=False)
        histograms = seen["histograms"]
        assert list(histograms) == coweights_up_to_height(rank, bound)
        for theta, histogram in histograms.items():
            assert histogram == histogram_of(enumerate_partitions(rs, theta)), theta

    def test_largest_rank_table(self):
        # A64 has 2080 coroots; the search recurses once per distinct coroot used (<= 2 here)
        rs = root_system("A", 64)
        table = build_asymp_table(rs, 2, verify=False)
        assert len(table.entries) == 1 + 64 + 64 * 65 // 2
        assert table.entries[(1, 1) + (0,) * 62] == ONE_MINUS_Q
        assert table.entries[(1,) + (0,) * 62 + (1,)] == LaurentPoly({0: 1, 1: -2, 2: 1})


class TestSeries:
    def test_a1_factor_coefficients(self):
        rs = root_system("A", 1)
        series = gk_product_series(rs, 2)
        assert series.coefficient((1,)) == LaurentPoly({-1: 1, 0: -1})  # q^-1 (1-q)
        assert series.coefficient((2,)) == LaurentPoly({-2: 1, -1: -1})  # q^-2 (1-q)

    def test_constant_term_is_one(self):
        for series_name, rank, h in [("A", 1, 3), ("A", 2, 2), ("G", 2, 4)]:
            rs = root_system(series_name, rank)
            series = gk_product_series(rs, h)
            assert series.coefficient(tuple(0 for _ in range(rank))) == ONE

    def test_a2_two_paths(self):
        series = gk_product_series(root_system("A", 2), 2)
        expected = LaurentPoly({-2: 1, -1: -2, 0: 1}) + LaurentPoly({-1: 1, 0: -1})
        # q^-2 (1-q)^2 + q^-1 (1-q)
        assert series.coefficient((1, 1)) == expected

    def test_trace_from_series_examples(self):
        a1 = root_system("A", 1)
        s1 = gk_product_series(a1, 3)
        assert trace_from_series(s1, a1, (1,)) == ONE_MINUS_Q
        assert trace_from_series(s1, a1, (0,)) == ONE
        a2 = root_system("A", 2)
        s2 = gk_product_series(a2, 2)
        assert trace_from_series(s2, a2, (1, 1)) == ONE_MINUS_Q

    def test_height_bound_enforced(self):
        a1 = root_system("A", 1)
        series = gk_product_series(a1, 2)
        with pytest.raises(ValueError, match="rebuild"):
            trace_from_series(series, a1, (3,))

    @pytest.mark.parametrize("series_name,rank,h", [("E", 6, 3), ("G", 2, 4)])
    def test_coroots_above_the_bound_skipped_exactly(self, series_name, rank, h):
        # the series skips the coroots above the bound; the reference convolves every truncated factor
        # 1 + sum_{i >= 1} q^-i (1 - q) e^{i beta} as plain dicts, sharing no code with the passes
        rs = root_system(series_name, rank)
        assert any(height(beta) > h for beta in rs.positive_coroots)
        product = {(0,) * rank: ONE}
        for beta in rs.positive_coroots:
            factor = {(0,) * rank: ONE}
            for i in range(1, h // height(beta) + 1):
                factor[tuple(i * b for b in beta)] = LaurentPoly({-i: 1, -i + 1: -1})
            convolved = {}
            for k1, p1 in product.items():
                for k2, p2 in factor.items():
                    key = tuple(a + b for a, b in zip(k1, k2))
                    if height(key) <= h:
                        convolved[key] = convolved.get(key, LaurentPoly.zero()) + p1 * p2
            product = {key: poly for key, poly in convolved.items() if poly}
        terms = gk_product_series(rs, h).terms()
        assert dict(terms) == product
        assert [key for key, _ in terms] == sorted(product, key=lambda key: (height(key), key))

    @pytest.mark.parametrize("series,rank,bound", [("A", 3, 6), ("B", 3, 5), ("G", 2, 8), ("D", 4, 4)])
    def test_box_series_equals_simplex_series(self, series, rank, bound):
        # theta's box is downward closed, so the product over it is exact there
        rs = root_system(series, rank)
        simplex = gk_product_series(rs, bound)
        for theta in coweights_up_to_height(rank, bound):
            box = gk_product_series(rs, height(theta), box=theta)
            points = set(coordinate_box(theta))
            for v in points:
                assert box.coefficient(v) == simplex.coefficient(v), (theta, v)
            assert box.terms() == [(v, poly) for v, poly in simplex.terms() if v in points]

    @pytest.mark.parametrize("theta", [(2, 0), (0, 2), (2, 2)])
    def test_outside_the_region_raises(self, theta):
        series = gk_product_series(root_system("A", 2), 4, box=(1, 1))
        with pytest.raises(ValueError, match="outside the series region"):
            series.coefficient(theta)

    def test_empty_series_holds_no_theta(self):
        # the rank was read off the first key, so an empty series raised StopIteration
        with pytest.raises(ValueError, match="outside the series region"):
            GKSeries(terms={}).coefficient((0,))

    def test_box_capped_by_the_height_bound(self):
        series = gk_product_series(root_system("A", 2), 1, box=(1, 1))
        assert series.coefficient((1, 0)) == LaurentPoly({-1: 1, 0: -1})
        with pytest.raises(ValueError, match="outside the series region"):
            series.coefficient((1, 1))

    def test_truncation_consistency(self):
        # a taller series agrees with a shorter one on all retained terms
        rs = root_system("A", 2)
        short = gk_product_series(rs, 3)
        tall = gk_product_series(rs, 5)
        for theta in coweights_up_to_height(2, 3):
            assert short.coefficient(theta) == tall.coefficient(theta)

    @pytest.mark.parametrize(
        "make",
        [lambda: gk_product_series(root_system("A", 1), 2).coefficient((1.7,))],
        ids=["coefficient"],
    )
    def test_non_integer_key_rejected(self, make):
        with pytest.raises(ValueError, match="not an integer"):
            make()

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError, match="^height bound -1 must be an integer >= 0$"):
            gk_product_series(root_system("A", 2), -1)

    @pytest.mark.parametrize("bound", [True, 2.0], ids=repr)
    def test_non_integer_bound_rejected(self, bound):
        # True was read as the bound 1 and 2.0 raised a TypeError from range
        with pytest.raises(ValueError, match=f"^height bound {bound} must be an integer >= 0$"):
            gk_product_series(root_system("A", 2), bound)

    def test_bound_zero_product_is_unit(self):
        for series, rank in [("A", 1), ("B", 2), ("G", 2)]:
            assert gk_product_series(root_system(series, rank), 0).terms() == [((0,) * rank, ONE)]

    @pytest.mark.parametrize("series,rank", [("A", 3), ("B", 3), ("G", 2), ("D", 4)])
    def test_inverse_identity(self, series, rank):
        # the inverse factors (1 - q^-1 e^beta) / (1 - e^beta), applied here by the reverse passes
        # (divide by 1 - e^beta in increasing height, multiply by 1 - q^-1 e^beta in decreasing
        # height), bring the series back to the unit series
        rs = root_system(series, rank)
        inverse_q = LaurentPoly({-1: 1})
        for h in range(6):
            gk = gk_product_series(rs, h)
            region = coweights_up_to_height(rank, h)
            values = {v: gk.coefficient(v) for v in region}
            for beta in rs.positive_coroots:
                pairs = [(v, tuple(x - b for x, b in zip(v, beta))) for v in region]
                pairs = [(v, below) for v, below in pairs if min(below) >= 0]
                for v, below in pairs:
                    values[v] = values[v] + values[below]
                for v, below in reversed(pairs):
                    values[v] = values[v] - inverse_q * values[below]
            assert {v: poly for v, poly in values.items() if poly} == {(0,) * rank: ONE}, (series, rank, h)


class TestGrothendieckOracle:
    def test_a1_single(self):
        assert trace_grothendieck_oracle(root_system("A", 1), (1,)) == ONE_MINUS_Q

    def test_a1_double(self):
        assert trace_grothendieck_oracle(root_system("A", 1), (2,)) == ONE_MINUS_Q

    @pytest.mark.parametrize("n", [17, 60])
    def test_a1_large_multiplicity(self, n):
        assert trace_grothendieck_oracle(root_system("A", 1), (n,)) == ONE_MINUS_Q

    def test_b2_large_simple_multiplicities(self):
        rs = root_system("B", 2)
        assert trace_grothendieck_oracle(rs, (12, 12)) == trace_kostant_sum(rs, (12, 12))

    def test_zero(self):
        assert trace_grothendieck_oracle(root_system("A", 2), (0, 0)) == ONE

    def test_largest_rank(self):
        # A64 has 2080 coroots; the searches recurse once per coroot used, not once per coroot
        rs = root_system("A", 64)
        theta = (1,) + (0,) * 63
        assert trace_kostant_sum(rs, theta) == ONE_MINUS_Q
        assert trace_grothendieck_oracle(rs, theta) == ONE_MINUS_Q

    def test_shares_no_enumerator_with_kostant_sum(self, monkeypatch):
        # one partition dropped from each histogram of two or more: a count -1 at its largest key
        def drop_one(theta, histogram):
            if sum(histogram.values()) >= 2:
                histogram[max(histogram)] -= 1

        patch_search(monkeypatch, drop_one)
        with pytest.raises(VerificationError) as excinfo:
            build_asymp_table(root_system("A", 2), 3)
        err = excinfo.value
        assert err.theta == (1, 1)
        assert err.values["oracle"] == err.values["series"] != err.values["kostant"]

    @staticmethod
    def duplicate_first(monkeypatch):
        # one partition counted twice in every histogram: a count +1 at its smallest key
        def duplicated(theta, histogram):
            histogram[min(histogram)] += 1

        return patch_search(monkeypatch, duplicated)

    def test_duplicated_partition_fails_the_route_check(self, monkeypatch):
        self.duplicate_first(monkeypatch)
        with pytest.raises(VerificationError) as excinfo:
            build_asymp_table(root_system("A", 2), 3)
        err = excinfo.value
        assert err.theta == (0, 0)
        assert err.values["oracle"] == err.values["series"] == ONE != err.values["kostant"]

    def test_duplicated_partition_fails_the_count_check(self, monkeypatch):
        # with both routes agreeing with the corrupted Kostant sum, the DP counter still sees the duplicate
        routes_follow_the_table(monkeypatch, self.duplicate_first(monkeypatch))
        with pytest.raises(VerificationError) as excinfo:
            build_asymp_table(root_system("A", 2), 3)
        err = excinfo.value
        assert err.theta == (0, 0)
        assert err.values == {"dp_count": 1, "enumerated": 2}

    def test_dropped_partition_fails_the_count_check(self, monkeypatch):
        # one partition of (1, 1, 1) is lost and both routes agree with the short Kostant sum:
        # only the DP counter sees that the histogram is one short
        def dropped(theta, histogram):
            if theta == (1, 1, 1):
                histogram[max(histogram)] -= 1

        routes_follow_the_table(monkeypatch, patch_search(monkeypatch, dropped))
        with pytest.raises(VerificationError) as excinfo:
            build_asymp_table(root_system("A", 3), 4)
        err = excinfo.value
        assert err.theta == (1, 1, 1)
        assert err.values == {"dp_count": 4, "enumerated": 3}

    @staticmethod
    def corrupted_region_dp(skip=None, decreasing=False):
        """A region DP written here, with the coroot ``skip`` left out or each pass run by decreasing height.

        By decreasing height, v + beta is updated before v has counted beta: a 0/1 knapsack.
        """

        def count(rs, region):
            index = {v: i for i, v in enumerate(region)}
            ways = [1] + [0] * (len(region) - 1)
            for beta in rs.positive_coroots:
                if beta == skip:
                    continue
                for i in reversed(range(len(region))) if decreasing else range(len(region)):
                    j = index.get(tuple(a + b for a, b in zip(region[i], beta)))
                    if j is not None:
                        ways[j] += ways[i]
            return dict(zip(region, ways))

        return count

    @pytest.mark.parametrize("series,rank,bound", [("A", 3, 5), ("G", 2, 8)])
    def test_uncorrupted_region_dp_passes(self, monkeypatch, series, rank, bound):
        # the stand-in itself is exact, so the failures below come from the corruption alone
        import bernasym.asymptotics as mod

        monkeypatch.setattr(mod, "count_region", self.corrupted_region_dp())
        rs = root_system(series, rank)
        assert build_asymp_table(rs, bound).entries == build_asymp_table(rs, bound, verify=False).entries

    def test_skipped_coroot_fails_the_count_check(self, monkeypatch):
        # without the highest coroot (1, 1, 1) of A3, the DP misses one partition of it
        import bernasym.asymptotics as mod

        monkeypatch.setattr(mod, "count_region", self.corrupted_region_dp(skip=(1, 1, 1)))
        with pytest.raises(VerificationError) as excinfo:
            build_asymp_table(root_system("A", 3), 4)
        err = excinfo.value
        assert err.theta == (1, 1, 1)
        assert err.values == {"dp_count": 3, "enumerated": 4}

    def test_zero_one_knapsack_fails_the_count_check(self, monkeypatch):
        # by decreasing height each coroot is used at most once: (0, 2) = 2 * (0, 1) is not counted
        import bernasym.asymptotics as mod

        monkeypatch.setattr(mod, "count_region", self.corrupted_region_dp(decreasing=True))
        with pytest.raises(VerificationError) as excinfo:
            build_asymp_table(root_system("A", 2), 3)
        err = excinfo.value
        assert err.theta == (0, 2)
        assert err.values == {"dp_count": 0, "enumerated": 1}

    def test_changed_multiplicity_fails_the_route_check(self, monkeypatch):
        # the same number of partitions with the same supports, one of them with |K| larger by 1:
        # one count moves from (s, k) to (s, k + 1)
        def changed(theta, histogram):
            if theta == (1, 1):
                support, size = max(histogram)
                histogram[support, size] -= 1
                histogram[support, size + 1] += 1

        patch_search(monkeypatch, changed)
        with pytest.raises(VerificationError) as excinfo:
            build_asymp_table(root_system("A", 2), 3)
        err = excinfo.value
        assert err.theta == (1, 1)
        assert err.values["oracle"] == err.values["series"] != err.values["kostant"]

    def test_closed_form_completion_is_checked(self, monkeypatch):
        import bernasym.asymptotics as mod

        monkeypatch.setattr(mod, "comb", lambda n, k: 1)
        with pytest.raises(VerificationError) as excinfo:
            build_asymp_table(root_system("A", 2), 3)
        err = excinfo.value
        assert err.theta == (1, 1)
        assert err.values["kostant"] == err.values["series"] != err.values["oracle"]


# G2 on vertices 0 and 2, with an A1 on vertex 1: reducible, and not in series order
G2_A1_CARTAN = ((2, 0, -1), (0, 2, 0), (-3, 0, 2))


class TestOracleTriangle:
    @pytest.mark.parametrize(
        "series,rank,bound",
        [("A", 2, 4), ("B", 2, 4), ("G", 2, 4), ("C", 3, 4), ("D", 4, 4), ("F", 4, 4), ("E", 6, 3),
         pytest.param(None, 3, 4, id="cartan-G2xA1")],
    )
    def test_three_routes_agree(self, series, rank, bound):
        if series is None:
            rs = build_root_system(RootSystemSpec(cartan=G2_A1_CARTAN))
        else:
            rs = root_system(series, rank)
        gk = gk_product_series(rs, bound)
        for theta in coweights_up_to_height(rank, bound):
            a = trace_kostant_sum(rs, theta)
            b = trace_from_series(gk, rs, theta)
            c = trace_grothendieck_oracle(rs, theta)
            assert a == b == c, f"disagreement at {theta}"

    def test_reducible_table_factors(self):
        # block-diagonal B2 x G2: the coroots of one factor have zero coordinates on the other, so the product
        # over the coroots splits and each trace is the product of the traces at the two halves of theta
        b2, g2 = root_system("B", 2), root_system("G", 2)
        cartan = [[*row, 0, 0] for row in b2.cartan] + [[0, 0, *row] for row in g2.cartan]
        table = build_asymp_table(build_root_system(RootSystemSpec(cartan=cartan)), 8)
        b2_traces, g2_traces = (build_asymp_table(rs, 8).entries for rs in (b2, g2))
        assert len(table.entries) == 495
        for theta, poly in table.entries.items():
            assert poly == b2_traces[theta[:2]] * g2_traces[theta[2:]], theta

    @pytest.mark.parametrize("route", ["kostant", "series", "oracle"])
    @pytest.mark.parametrize("series,rank,bound", [("A", 3, 6), ("B", 3, 5), ("C", 3, 4), ("D", 4, 4), ("G", 2, 8)])
    def test_per_entry_identities(self, route, series, rank, bound):
        # in the Kostant sum only partitions with |R_K| <= 1 survive at q = 1 and in the first
        # derivative there, so at every theta != 0 each route must give trace(1) = 0 and
        # trace'(1) = -#{coroots beta : theta in Z_{>0} beta}
        rs = root_system(series, rank)
        gk = gk_product_series(rs, bound) if route == "series" else None
        routes = {
            "kostant": lambda theta: trace_kostant_sum(rs, theta),
            "series": lambda theta: trace_from_series(gk, rs, theta),
            "oracle": lambda theta: trace_grothendieck_oracle(rs, theta),
        }
        for theta in coweights_up_to_height(rank, bound)[1:]:
            multiples = sum(1 for beta in rs.positive_coroots
                            if any(tuple(n * b for b in beta) == theta for n in range(1, height(theta) + 1)))
            pairs = routes[route](theta).to_pairs()
            assert sum(c for _, c in pairs) == 0, theta
            assert sum(e * c for e, c in pairs) == -multiples, theta

    @pytest.mark.parametrize("series,rank", [("A", 2), ("C", 2)])
    def test_q_one_vanishing(self, series, rank):
        rs = root_system(series, rank)
        for theta in coweights_up_to_height(rank, 5):
            value = sum(c for _, c in trace_kostant_sum(rs, theta).to_pairs())
            assert value == (1 if height(theta) == 0 else 0)

    @pytest.mark.parametrize("series,rank", [("A", 3), ("B", 2)])
    def test_degree_bounds(self, series, rank):
        rs = root_system(series, rank)
        for theta in coweights_up_to_height(rank, 5):
            if height(theta) == 0:
                continue
            poly = trace_kostant_sum(rs, theta)
            rho = height(theta)
            max_size = max(k.size for k in enumerate_partitions(rs, theta))
            exponents = [e for e, _ in poly.to_pairs()]
            assert exponents[-1] <= rho
            assert exponents[0] >= rho - max_size


def support_components(cartan, theta) -> list[list[int]]:
    """The connected components of supp theta in the Dynkin diagram: vertices i != j are linked if a_ij != 0."""
    left = {i for i, t in enumerate(theta) if t}
    components = []
    while left:
        stack, component = [left.pop()], []
        while stack:
            i = stack.pop()
            component.append(i)
            linked = {j for j in left if cartan[i][j]}
            left -= linked
            stack.extend(linked)
        components.append(component)
    return components


def factorization_failures(cartan, entries) -> tuple[list, int]:
    """The thetas whose trace is not the product of the traces of theta_c, theta on each component c of its
    support and 0 elsewhere, and how many thetas have a disconnected support (where the identity says something).

    Every positive coroot has connected support, so each coroot <= theta lies in one component: the Kostant
    partitions of theta are products of those of the theta_c, whose |R_K|, |K| and heights add.  Only the
    Cartan matrix and the table are read; each theta_c has a smaller height, so it is in the table too.
    """
    failures, split = [], 0
    for theta, trace in entries.items():
        components = support_components(cartan, theta)
        if len(components) < 2:
            continue
        split += 1
        factors = []
        for component in components:
            theta_c = [0] * len(theta)
            for i in component:
                theta_c[i] = theta[i]
            factors.append(entries[tuple(theta_c)])
        if functools.reduce(operator.mul, factors) != trace:
            failures.append(theta)
    return failures, split


class TestSupportFactorization:
    """trace(theta) = prod_c trace(theta_c) over the components of supp theta, at ranks up to 40."""

    @pytest.mark.parametrize("series,rank,bound", [("B", 30, 3), ("D", 40, 3), ("E", 8, 8), ("A", 20, 4)])
    def test_trace_factors_over_the_support(self, series, rank, bound):
        rs = root_system(series, rank)
        failures, split = factorization_failures(rs.cartan, build_asymp_table(rs, bound, verify=False).entries)
        assert failures == [] and split > 0

    def test_support_components(self):
        d4 = root_system("D", 4).cartan  # vertex 1 forks into 2 and 3
        assert sorted(support_components(d4, (1, 0, 1, 1))) == [[0], [2], [3]]
        assert sorted(map(sorted, support_components(d4, (1, 1, 0, 1)))) == [[0, 1, 3]]
        assert support_components(d4, (0, 0, 0, 0)) == []


class TestDivisors:
    def test_empty_divisor(self):
        assert divisor_trace(root_system("A", 1), ColoredDivisor(points=())) == ONE
        assert parse_divisor("", 1) == parse_divisor("  ; ", 1) == ColoredDivisor(points=())

    def test_two_points_square(self):
        rs = root_system("A", 1)
        d = parse_divisor("x:1;y:1", 1)
        assert divisor_trace(rs, d) == LaurentPoly({0: 1, 1: -2, 2: 1})
        assert parse_divisor("x:1;;y:1;", 1) == d  # empty chunks are skipped

    def test_single_point_reduces(self):
        rs = root_system("A", 2)
        d = parse_divisor("x:1,1", 2)
        assert divisor_trace(rs, d) == trace_kostant_sum(rs, (1, 1))

    @pytest.mark.parametrize("theta", [(1.5, 0), (1, 0.0), (True, 0)], ids=["fractional", "float", "boolean"])
    def test_non_integer_part_rejected(self, theta):
        with pytest.raises(ValueError, match="not an integer"):
            ColoredDivisor(points=(("x", theta),))

    def test_invalid_divisors(self):
        with pytest.raises(ValueError):
            ColoredDivisor(points=(("x", (1,)), ("x", (2,))))  # repeated label
        with pytest.raises(ValueError):
            ColoredDivisor(points=(("x", (0, 0)),))  # zero part
        with pytest.raises(ValueError):
            ColoredDivisor(points=(("x", (-1, 2)),))  # negative part
        with pytest.raises(ValueError):
            parse_divisor("x=1", 1)
        with pytest.raises(ValueError):
            parse_divisor("x:1,2", 1)  # wrong arity
        with pytest.raises(ValueError):
            parse_divisor("x:a", 1)
        for rank in (True, 1.0, -1):  # True was read as rank 1
            with pytest.raises(ValueError, match=f"rank {rank} must be an integer >= 0"):
                parse_divisor("x:1", rank)

    @pytest.mark.parametrize("label", [None, 5, ("x",)], ids=repr)
    def test_non_string_label_rejected(self, label):
        # None and 5 were kept as the labels 'None' and '5'
        with pytest.raises(ValueError, match="must be a string"):
            ColoredDivisor(points=((label, (1,)),))

    @pytest.mark.parametrize("text", [5, None, b"x:1"], ids=repr)
    def test_non_string_text_rejected(self, text):
        # 5 and None raised AttributeError from text.split
        with pytest.raises(ValueError, match=r"^divisor text .* is not a string$"):
            parse_divisor(text, 2)

    @pytest.mark.parametrize("points", [5, None, (("x",),), (("x", (1,), "y"),)], ids=repr)
    def test_points_not_pairs_rejected(self, points):
        # 5 raised TypeError (not iterable) and a 1-tuple ValueError from unpacking, neither naming the input
        with pytest.raises(ValueError, match=r"^divisor points .* are not a sequence of \(label, coweight\) pairs$"):
            ColoredDivisor(points=points)

    def test_factorization_coherence(self):
        # any bipartition of the points multiplies
        rng = random.Random(424242)
        for series, rank in [("A", 1), ("A", 2), ("A", 3)]:
            rs = root_system(series, rank)
            for _ in range(20):
                n_points = rng.randint(1, 3)
                points = []
                for i in range(n_points):
                    theta = tuple(rng.randint(0, 2) for _ in range(rank))
                    if all(x == 0 for x in theta):
                        theta = tuple(1 if k == 0 else x for k, x in enumerate(theta))
                    points.append((f"p{i}", theta))
                d = ColoredDivisor(points=tuple(points))
                whole = divisor_trace(rs, d)
                for mask in range(2**n_points):
                    left = tuple(p for k, p in enumerate(points) if mask >> k & 1)
                    right = tuple(p for k, p in enumerate(points) if not mask >> k & 1)
                    product = divisor_trace(rs, ColoredDivisor(points=left)) * divisor_trace(
                        rs, ColoredDivisor(points=right)
                    )
                    assert product == whole


class TestTable:
    def test_a1_height_three(self):
        table = build_asymp_table(root_system("A", 1), 3)
        assert table.entries == {
            (0,): ONE,
            (1,): ONE_MINUS_Q,
            (2,): ONE_MINUS_Q,
            (3,): ONE_MINUS_Q,
        }

    def test_height_zero(self):
        table = build_asymp_table(root_system("B", 2), 0)
        assert table.entries == {(0, 0): ONE}

    def test_a2_height_two_verified(self):
        table = build_asymp_table(root_system("A", 2), 2, verify=True)
        assert len(table.entries) == 6
        assert set(table.entries) == {(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)}

    def test_entries_sorted_by_height_then_lex(self):
        table = build_asymp_table(root_system("A", 2), 3, verify=False)
        keys = list(table.entries)
        assert keys == sorted(keys, key=lambda v: (height(v), v))

    def test_verified_table_searches_once_one_node_per_partition(self, monkeypatch):
        # a host-independent work count: one search serves every theta's sum and count check,
        # with one node per partition, one region DP gives every count, and the table calls
        # no per-theta enumerator or counter
        import bernasym.asymptotics as mod
        import bernasym.kostant as kostant

        def per_theta(rs, theta):
            raise AssertionError(f"the table enumerated or counted {theta} alone")

        regions = []

        def region_dp(rs, region):
            regions.append(count_region(rs, region))
            return regions[-1]

        for owner, name in [(mod, "enumerate_partitions"), (mod, "count_partitions"), (kostant, "count_partitions")]:
            monkeypatch.setattr(owner, name, per_theta)
        monkeypatch.setattr(mod, "count_region", region_dp)
        seen = patch_search(monkeypatch)
        table = build_asymp_table(root_system("A", 3), 9, verify=True)
        assert len(table.entries) == 220
        assert seen["roots"] == 1
        assert len(regions) == 1
        assert list(regions[0]) == list(table.entries)
        assert seen["nodes"] == sum(regions[0].values()) == 945

    def test_verification_failure_reported(self, monkeypatch):
        import bernasym.asymptotics as mod

        bad = LaurentPoly({5: 7})
        monkeypatch.setattr(mod, "trace_grothendieck_oracle", lambda rs, theta: bad)
        with pytest.raises(VerificationError) as excinfo:
            build_asymp_table(root_system("A", 1), 1, verify=True)
        err = excinfo.value
        assert err.theta == (0,)
        assert err.values["oracle"] == bad
        assert err.values["kostant"] == ONE

    def test_json_round_trip(self):
        table = build_asymp_table(root_system("G", 2), 3, verify=False, genus=2)
        clone = asymp_table_from_json(table.to_json_obj())
        assert clone.root_system == table.root_system
        assert clone.entries == table.entries
        assert clone.height_bound == table.height_bound
        assert clone.genus == 2

    @pytest.mark.parametrize(
        "theta, match",
        [([1], "length"), ([1, 0, 0], "length"), ([-1, 1], "not positive"), ([2, 2], "height bound"),
         ([1, 0], "twice")],
        ids=["short", "long", "negative", "above-height", "duplicate"],
    )
    def test_json_rejects_bad_entry(self, theta, match):
        obj = build_asymp_table(root_system("A", 2), 3, verify=False).to_json_obj()
        obj["entries"].append({"theta": theta, "trace": [[0, 1]]})
        with pytest.raises(ValueError, match=match):
            asymp_table_from_json(obj)

    @pytest.mark.parametrize(
        "edit, match",
        [(lambda obj: obj["metadata"].update(dim_g=9), "to_json_obj writes"),
         (lambda obj: obj.update(normalization_exponent="-dim(G)/2"), "to_json_obj writes"),
         (lambda obj: obj.update(extra=1), "to_json_obj writes"),
         (lambda obj: obj.pop("metadata"), "to_json_obj writes"),
         (lambda obj: obj["entries"][0].update(height=0), "to_json_obj writes"),
         (lambda obj: obj["entries"][1]["trace"].append([2, 0]), "not exactly what LaurentPoly.to_pairs writes"),
         (lambda obj: obj["metadata"].update(dim_g=8.0), "to_json_obj writes"),
         (lambda obj: obj.pop("entries"), "lacks or mistypes"),
         (lambda obj: obj["root_system"].pop("cartan"), "lacks or mistypes"),
         (lambda obj: obj.update(metadata=[]), "lacks or mistypes"),
         (lambda obj: obj["entries"][0].update(trace=None), "not a list of pairs")],
        ids=["dim_g", "normalization-exponent", "extra-key", "no-metadata", "extra-entry-key", "zero-coefficient",
             "float-dim_g", "no-entries", "no-cartan", "list-metadata", "null-trace"],
    )
    def test_json_to_json_obj_does_not_write_rejected(self, edit, match):
        # each was read as the A2 table before
        obj = build_asymp_table(root_system("A", 2), 2, verify=False).to_json_obj()
        edit(obj)
        with pytest.raises(ValueError, match=match):
            asymp_table_from_json(obj)

    @pytest.mark.parametrize("wrap", [lambda obj: [obj], lambda obj: None, lambda obj: "table"],
                             ids=["list", "null", "string"])
    def test_json_rejects_non_object(self, wrap):
        # each raised TypeError before, as did a list in place of the root system
        obj = build_asymp_table(root_system("A", 2), 2, verify=False).to_json_obj()
        with pytest.raises(ValueError, match="lacks or mistypes"):
            asymp_table_from_json(wrap(obj))
        with pytest.raises(ValueError, match="lacks or mistypes"):
            root_system_from_json(wrap(obj["root_system"]))

    @pytest.mark.parametrize(
        "field, value",
        [("height", 2.9), ("height", True), ("genus", 1.7), ("genus", "1")],
        ids=["fractional-height", "boolean-height", "fractional-genus", "string-genus"],
    )
    def test_json_rejects_non_integer_field(self, field, value):
        obj = build_asymp_table(root_system("A", 2), 3, verify=False, genus=1).to_json_obj()
        if field == "height":
            obj["height"] = value
        else:
            obj["metadata"]["genus"] = value
        what = "table height" if field == "height" else "genus"
        with pytest.raises(ValueError, match=f"^{what} {re.escape(repr(value))} must be an integer >= 0$"):
            asymp_table_from_json(obj)

    @pytest.mark.parametrize("height_bound, genus", [(True, None), (1, False), (2.0, None), (1, 2.0), (1, "1")],
                             ids=["boolean-height", "boolean-genus", "float-height", "float-genus", "string-genus"])
    def test_build_rejects_non_integer_field(self, height_bound, genus, monkeypatch):
        # the constructor checks height and genus before the builder's first trace: no work is done
        import bernasym.asymptotics as mod

        monkeypatch.setattr(mod, "coweights_up_to_height", lambda *args: pytest.fail("the table listed its thetas"))
        what, value = ("genus", genus) if type(height_bound) is int else ("table height", height_bound)
        with pytest.raises(ValueError, match=f"^{what} {re.escape(repr(value))} must be an integer >= 0$"):
            build_asymp_table(root_system("A", 2), height_bound, genus=genus)

    def test_negative_genus_rejected(self):
        with pytest.raises(ValueError, match="^genus -4 must be an integer >= 0$"):
            build_asymp_table(root_system("A", 1), 1, genus=-4)

    @pytest.mark.parametrize("field, value", [("height", -1), ("genus", -5)], ids=["height", "genus"])
    def test_json_rejects_negative_field(self, field, value):
        obj = build_asymp_table(root_system("A", 2), 0, verify=False, genus=1).to_json_obj()
        obj["entries"] = []  # no entry to exceed a negative height: the sign check alone must refuse it
        if field == "height":
            obj["height"] = value
        else:
            obj["metadata"]["genus"] = value
        what = "table height" if field == "height" else "genus"
        with pytest.raises(ValueError, match=f"^{what} {value} must be an integer >= 0$"):
            asymp_table_from_json(obj)

    def test_metadata(self):
        table = build_asymp_table(root_system("A", 1), 1, verify=False, genus=2)
        meta = table.metadata()
        assert meta["normalization_exponent"] == "-(g-1)*dim(G)/2"
        assert meta["dim_g"] == 3  # rank 1 + 2 positive coroots... = 1 + 2*1
        assert meta["normalization_exponent_value"] == "-3/2"
        bare = build_asymp_table(root_system("A", 1), 1, verify=False)
        assert "normalization_exponent_value" not in bare.metadata()

    @pytest.mark.parametrize("series,rank", [("A", 1), ("A", 2), ("G", 2), ("B", 3)])
    @pytest.mark.parametrize("genus", [0, 1, 2, 3])
    def test_normalization_value_is_fraction_text(self, series, rank, genus):
        # the integer formatting must give exactly the text of the exact rational -(g-1)*dim/2
        rs = root_system(series, rank)
        table = AsympTable(rs, 0, genus=genus)
        expected = str(Fraction(-(genus - 1) * rs.group_dimension, 2))
        assert table.metadata()["normalization_exponent_value"] == expected

    def test_table_is_read_only_and_unhashable(self):
        # a table is a Value like every other result: no field can be reassigned or deleted, its
        # entries cannot be changed, and its entries dict makes hash() raise TypeError; tables with
        # equal fields stay equal
        table = build_asymp_table(root_system("A", 1), 1, verify=False, genus=2)
        for name in (*AsympTable.__slots__, "entries"):
            with pytest.raises(AttributeError):
                setattr(table, name, None)
            with pytest.raises(AttributeError):
                delattr(table, name)
        for change in (lambda e: e.__setitem__((9,), ONE), lambda e: e.__delitem__((1,)), lambda e: e.clear(),
                       lambda e: e.update({(9,): ONE}), lambda e: e.pop((1,))):
            with pytest.raises((TypeError, AttributeError)):
                change(table.entries)
        with pytest.raises(TypeError):
            table.entries[(9,)] = ONE
        assert dict(table.entries) == {(0,): ONE, (1,): ONE_MINUS_Q}
        assert table.genus == 2
        assert table.metadata()["normalization_exponent_value"] == "-3/2"
        assert table == build_asymp_table(root_system("A", 1), 1, verify=False, genus=2)
        assert table != build_asymp_table(root_system("A", 1), 1, verify=False)
        with pytest.raises(TypeError):
            hash(table)

    def test_copy_and_pickle_round_trip(self):
        table = build_asymp_table(root_system("B", 2), 3, verify=False, genus=1)
        for clone in (copy.copy(table), copy.deepcopy(table), pickle.loads(pickle.dumps(table))):
            assert type(clone) is AsympTable and clone == table
            assert list(clone.entries) == list(table.entries)
            assert clone.to_json_obj() == table.to_json_obj()
            with pytest.raises(TypeError):
                hash(clone)

    def test_constructor_checks_every_entry(self):
        # the loader only constructs, so a table built by hand meets the same checks
        rs = root_system("A", 2)
        for theta, match in [((1,), "length"), ((-1, 1), "not positive"), ((2, 2), "height bound"),
                             ((1.0, 0), "not an integer")]:
            with pytest.raises(ValueError, match=match):
                AsympTable(rs, 3, {theta: ONE})
        with pytest.raises(ValueError, match=r"table entry \(1, 0\) appears twice"):
            AsympTable(rs, 3, [((1, 0), ONE), ([1, 0], ONE)])
        table = AsympTable(rs, 3, [([1, 0], ONE)])
        assert list(table.entries) == [(1, 0)]
        assert AsympTable(rs, 3, table.entries) == table

    @pytest.mark.parametrize("value", [5, None, "x", 1.5], ids=repr)
    def test_constructor_checks_every_trace(self, value):
        # a trace that is not a LaurentPoly was kept, and to_json_obj failed on it with AttributeError
        with pytest.raises(ValueError, match=r"^table entry \(1, 0\) has trace .* expected a LaurentPoly$"):
            AsympTable(root_system("A", 2), 2, {(1, 0): value})

    def test_csv_mirror(self):
        table = build_asymp_table(root_system("A", 1), 2, verify=False)
        assert table.to_csv_text() == (
            "theta,height,trace\n0,0,1\n1,1,1 - q\n2,2,1 - q\n"
        )

    @pytest.mark.parametrize("series,rank,bound", [("E", 6, 6), ("D", 4, 8)])
    def test_csv_equals_standard_library_writer(self, series, rank, bound):
        # large tables whose traces have negative coefficients: the plain join must be what
        # csv.writer gives, so no field needed quoting
        table = build_asymp_table(root_system(series, rank), bound, verify=False)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["theta", "height", "trace"])
        for theta, poly in table.entries.items():
            writer.writerow([" ".join(str(x) for x in theta), height(theta), str(poly)])
        assert any(c < 0 for poly in table.entries.values() for _, c in poly.to_pairs())
        assert table.to_csv_text() == buf.getvalue()

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            build_asymp_table(root_system("A", 1), -1)
