"""Laurent-polynomial arithmetic and shift/twist class tests."""

from __future__ import annotations

import random

import pytest

from bernasym.qlaurent import GrothendieckClass, LaurentPoly

ONE = LaurentPoly.one()
Q = LaurentPoly.q_power(1)
ONE_MINUS_Q = LaurentPoly({0: 1, 1: -1})


def rand_poly(rng: random.Random) -> LaurentPoly:
    terms = {rng.randint(-5, 5): rng.randint(-9, 9) for _ in range(rng.randint(0, 6))}
    return LaurentPoly(terms)


class TestArithmetic:
    def test_cancellation(self):
        assert ONE_MINUS_Q + Q == ONE

    def test_additive_identity(self):
        p = LaurentPoly({-2: 3, 0: 1, 4: -7})
        assert p + LaurentPoly.zero() == p

    def test_doubling(self):
        assert ONE_MINUS_Q + ONE_MINUS_Q == LaurentPoly({0: 2, 1: -2})

    def test_difference_of_squares(self):
        assert ONE_MINUS_Q * LaurentPoly({0: 1, 1: 1}) == LaurentPoly({0: 1, 2: -1})

    def test_inverse_monomial(self):
        assert LaurentPoly.q_power(-1) * Q == ONE

    def test_binomial_square(self):
        assert ONE_MINUS_Q**2 == LaurentPoly({0: 1, 1: -2, 2: 1})

    def test_ring_axioms_randomized(self):
        rng = random.Random(20240817)
        for _ in range(200):
            a, b, c = rand_poly(rng), rand_poly(rng), rand_poly(rng)
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert ONE * a == a

    def test_int_coercion(self):
        assert 1 - Q == ONE_MINUS_Q
        assert 2 * Q == LaurentPoly({1: 2})
        assert Q + 0 == Q

    def test_exact_big_coefficients(self):
        import math

        p = (ONE + Q) ** 70
        assert p.coefficient(35) == math.comb(70, 35)
        assert p.coefficient(35) > 2**63  # exceeds fixed 64-bit width, still exact

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            Q**-1


class TestQueries:
    def test_eval_at_one(self):
        assert ONE_MINUS_Q.eval_at_one() == 0
        assert LaurentPoly.q_power(-3).eval_at_one() == 1
        assert LaurentPoly.zero().eval_at_one() == 0

    def test_support_and_extremes(self):
        p = LaurentPoly({3: 1, -2: 5})
        assert p.support() == (-2, 3)
        assert p.min_exponent() == -2
        assert p.max_exponent() == 3
        with pytest.raises(ValueError):
            LaurentPoly.zero().min_exponent()

    def test_canonical_form_drops_zeros(self):
        assert LaurentPoly({0: 0, 1: 0}) == LaurentPoly.zero()
        assert not LaurentPoly({2: 1, 0: -1}) + LaurentPoly({0: 1, 2: -1})


class TestWireFormat:
    def test_pairs_sorted_by_exponent(self):
        p = LaurentPoly({2: 1, -1: 4, 0: -3})
        assert p.to_pairs() == [[-1, 4], [0, -3], [2, 1]]

    def test_round_trip(self):
        rng = random.Random(7)
        for _ in range(50):
            p = rand_poly(rng)
            assert LaurentPoly.from_pairs(p.to_pairs()) == p


class TestRendering:
    @pytest.mark.parametrize(
        "terms,expected",
        [
            ({}, "0"),
            ({0: 1}, "1"),
            ({0: -1}, "-1"),
            ({0: 1, 1: -1}, "1 - q"),
            ({0: 1, 1: -2, 2: 1}, "1 - 2q + q^2"),
            ({-2: 1, -1: -1}, "q^-2 - q^-1"),
            ({2: 3}, "3q^2"),
            ({1: 1}, "q"),
            ({-1: 1, 0: -1}, "q^-1 - 1"),
        ],
    )
    def test_str(self, terms, expected):
        assert str(LaurentPoly(terms)) == expected


class TestGrothendieckClass:
    def test_unit_trace(self):
        assert GrothendieckClass({(0, 0): 1}).trace() == ONE

    def test_odd_shift_gives_minus_one(self):
        # shift 2|K|-|S|, twist |K|-|S| at |K| = |S| = 1
        assert GrothendieckClass({(1, 0): 1}).trace() == LaurentPoly({0: -1})

    def test_even_shift_gives_inverse_power(self):
        # the class with shift 2|K1|, twist |K1| at |K1| = 1
        assert GrothendieckClass({(2, 1): 1}).trace() == LaurentPoly.q_power(-1)

    def test_trace_additive(self):
        rng = random.Random(99)
        for _ in range(50):
            c1 = GrothendieckClass(
                {(rng.randint(0, 6), rng.randint(-3, 3)): rng.randint(-4, 4) for _ in range(4)}
            )
            c2 = GrothendieckClass(
                {(rng.randint(0, 6), rng.randint(-3, 3)): rng.randint(-4, 4) for _ in range(4)}
            )
            assert (c1 + c2).trace() == c1.trace() + c2.trace()

    def test_pairs_sorted(self):
        c = GrothendieckClass({(2, 1): 1, (0, 0): 2, (1, 0): -1})
        assert c.to_pairs() == [[0, 0, 2], [1, 0, -1], [2, 1, 1]]
