"""Tests for the three trace routes, divisors, and the asymptotics table."""

from __future__ import annotations

import random

import pytest

from bernasym.asymptotics import (
    AsympTable,
    ColoredDivisor,
    MonoidSeries,
    VerificationError,
    asymp_table_from_json,
    build_asymp_table,
    divisor_trace,
    geometric_factor,
    gk_product_series,
    parse_divisor,
    trace_from_series,
    trace_grothendieck_oracle,
    trace_kostant_sum,
)
from bernasym.cartan import coweights_up_to_height, height, root_system
from bernasym.kostant import (
    count_partitions,
    enumerate_partitions,
    enumerate_simple_partitions,
)
from bernasym.qlaurent import LaurentPoly
from bernasym.strata import codim_defect

ONE = LaurentPoly.one()
ONE_MINUS_Q = LaurentPoly({0: 1, 1: -1})


@pytest.mark.parametrize(
    "check",
    [
        enumerate_partitions,
        enumerate_simple_partitions,
        count_partitions,
        trace_kostant_sum,
        lambda rs, theta: trace_from_series(gk_product_series(rs, 2), rs, theta),
        trace_grothendieck_oracle,
        codim_defect,
    ],
    ids=["enumerate", "enumerate_simple", "count", "kostant_sum", "series", "oracle", "codim"],
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

    def test_truncation_consistency(self):
        # a taller series agrees with a shorter one on all retained terms
        rs = root_system("A", 2)
        short = gk_product_series(rs, 3)
        tall = gk_product_series(rs, 5)
        for theta in coweights_up_to_height(2, 3):
            assert short.coefficient(theta) == tall.coefficient(theta)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: MonoidSeries(2, {(1.5,): ONE}),
            lambda: MonoidSeries(2, {(True,): ONE}),
            lambda: MonoidSeries(2, {(1,): ONE}).coefficient((1.7,)),
        ],
        ids=["fractional-key", "boolean-key", "coefficient"],
    )
    def test_non_integer_key_rejected(self, make):
        with pytest.raises(ValueError, match="not an integer"):
            make()

    def test_series_validation(self):
        with pytest.raises(ValueError):
            MonoidSeries(2, {(3,): ONE})  # height above bound
        with pytest.raises(ValueError):
            MonoidSeries(2, {(-1,): ONE})  # negative key
        with pytest.raises(ValueError):
            MonoidSeries(2, {(1,): ONE, (1, 0): ONE})  # mixed key lengths

    def test_bound_zero_product_is_unit(self):
        for series, rank in [("A", 1), ("B", 2), ("G", 2)]:
            assert gk_product_series(root_system(series, rank), 0) == MonoidSeries.one(0, rank)

    def test_cancelled_product_term_dropped(self):
        # (1 + e) * (1 - e) = 1 - e^2: the coefficient of e cancels
        product = MonoidSeries(2, {(0,): ONE, (1,): ONE}) * MonoidSeries(2, {(0,): ONE, (1,): -ONE})
        assert (1,) not in dict(product.terms())
        assert product == MonoidSeries(2, {(0,): ONE, (1,): LaurentPoly.zero(), (2,): -ONE})

    def test_mixed_rank_product_rejected(self):
        a1 = MonoidSeries(2, {(1,): ONE})
        a2 = MonoidSeries(2, {(1, 0): ONE})
        with pytest.raises(ValueError, match="different ranks"):
            a1 * a2

    def test_product_commutative_and_associative_on_retained_terms(self):
        rng = random.Random(11)

        def rand_series():
            terms = {}
            for _ in range(rng.randint(1, 4)):
                key = (rng.randint(0, 2), rng.randint(0, 2))
                if sum(key) <= 4:
                    terms[key] = LaurentPoly({rng.randint(-2, 2): rng.randint(-3, 3)})
            return MonoidSeries(4, terms)

        for _ in range(40):
            a, b, c = rand_series(), rand_series(), rand_series()
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)

    def test_factor_truncation(self):
        # a coroot of height 3 gets floor(7/3) = 2 series terms plus the constant
        factor = geometric_factor((1, 2), 7)
        assert len(factor.terms()) == 1 + 2


class TestGrothendieckOracle:
    def test_a1_single(self):
        assert trace_grothendieck_oracle(root_system("A", 1), (1,)) == ONE_MINUS_Q

    def test_a1_double(self):
        assert trace_grothendieck_oracle(root_system("A", 1), (2,)) == ONE_MINUS_Q

    def test_zero(self):
        assert trace_grothendieck_oracle(root_system("A", 2), (0, 0)) == ONE

    def test_largest_rank(self):
        # A64 has 2080 coroots; the searches recurse once per coroot used, not once per coroot
        rs = root_system("A", 64)
        theta = (1,) + (0,) * 63
        assert trace_kostant_sum(rs, theta) == ONE_MINUS_Q
        assert trace_grothendieck_oracle(rs, theta) == ONE_MINUS_Q

    def test_shares_no_enumerator_with_kostant_sum(self, monkeypatch):
        import bernasym.asymptotics as mod

        def drop_last(rs, theta):
            parts = enumerate_partitions(rs, theta)
            return parts[:-1] if len(parts) >= 2 else parts

        monkeypatch.setattr(mod, "enumerate_partitions", drop_last)
        with pytest.raises(VerificationError) as excinfo:
            build_asymp_table(root_system("A", 2), 3)
        err = excinfo.value
        assert err.theta == (1, 1)
        assert err.values["oracle"] == err.values["series"] != err.values["kostant"]


class TestOracleTriangle:
    @pytest.mark.parametrize("series,rank,bound", [("A", 2, 4), ("B", 2, 4), ("G", 2, 4)])
    def test_three_routes_agree(self, series, rank, bound):
        rs = root_system(series, rank)
        gk = gk_product_series(rs, bound)
        for theta in coweights_up_to_height(rank, bound):
            a = trace_kostant_sum(rs, theta)
            b = trace_from_series(gk, rs, theta)
            c = trace_grothendieck_oracle(rs, theta)
            assert a == b == c, f"disagreement at {theta}"

    @pytest.mark.parametrize("series,rank", [("A", 2), ("C", 2)])
    def test_q_one_vanishing(self, series, rank):
        rs = root_system(series, rank)
        for theta in coweights_up_to_height(rank, 5):
            value = trace_kostant_sum(rs, theta).eval_at_one()
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


class TestDivisors:
    def test_empty_divisor(self):
        assert divisor_trace(root_system("A", 1), ColoredDivisor(points=())) == ONE

    def test_two_points_square(self):
        rs = root_system("A", 1)
        d = parse_divisor("x:1;y:1", 1)
        assert divisor_trace(rs, d) == LaurentPoly({0: 1, 1: -2, 2: 1})

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
        with pytest.raises(ValueError, match="must be integers"):
            asymp_table_from_json(obj)

    def test_metadata(self):
        table = build_asymp_table(root_system("A", 1), 1, verify=False, genus=2)
        meta = table.metadata()
        assert meta["normalization_exponent"] == "-(g-1)*dim(G)/2"
        assert meta["dim_g"] == 3  # rank 1 + 2 positive coroots... = 1 + 2*1
        assert meta["normalization_exponent_value"] == "-3/2"
        bare = build_asymp_table(root_system("A", 1), 1, verify=False)
        assert "normalization_exponent_value" not in bare.metadata()

    def test_csv_mirror(self):
        table = build_asymp_table(root_system("A", 1), 2, verify=False)
        assert table.to_csv_text() == (
            "theta,height,trace\n0,0,1\n1,1,1 - q\n2,2,1 - q\n"
        )

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            build_asymp_table(root_system("A", 1), -1)
