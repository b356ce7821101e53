"""Laurent-polynomial arithmetic and shift/twist class tests."""

from __future__ import annotations

import copy
import operator
import pickle
import random
import re

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

    @pytest.mark.parametrize("other", [True, 1.5, "x", 2.0, "2"], ids=repr)
    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.pow],
                             ids=lambda op: op.__name__)
    def test_only_exact_ints_coerce(self, op, other):
        # bool, float and str are refused on either side: NotImplemented from both operands makes a TypeError;
        # as an exponent, True was read as 1 and 2.0 raised a TypeError from range
        for left, right in [(Q, other), (other, Q)]:
            with pytest.raises(TypeError):
                op(left, right)

    def test_exponent_is_an_int_or_its_constant(self):
        assert Q ** 2 == Q ** LaurentPoly.constant(2) == LaurentPoly.q_power(2)
        assert Q ** 0 == ONE
        with pytest.raises(ValueError, match="exponent q is not an integer >= 0"):
            Q ** Q

    def test_bool_is_not_a_constant(self):
        assert (ONE == True) is False  # noqa: E712 (the comparison under test)
        assert (ONE != True) is True  # noqa: E712

    def test_exact_big_coefficients(self):
        import math

        p = (ONE + Q) ** 70
        assert p.coefficient(35) == math.comb(70, 35)
        assert p.coefficient(35) > 2**63  # exceeds fixed 64-bit width, still exact

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            Q**-1


class TestQueries:
    @pytest.mark.parametrize(
        "terms", [{0.5: 2}, {0: 2.7}, {0: True}, {"1": 1}], ids=["exponent", "coefficient", "boolean", "string"]
    )
    def test_non_integer_term_rejected(self, terms):
        with pytest.raises(ValueError, match="integer exponent and coefficient"):
            LaurentPoly(terms)

    @pytest.mark.parametrize("cls,terms", [(LaurentPoly, 5), (LaurentPoly, [(0, 1)]), (LaurentPoly, 0),
                                           (LaurentPoly, []), (LaurentPoly, ""), (GrothendieckClass, 5),
                                           (GrothendieckClass, [((0, 0), 1)]), (GrothendieckClass, None)],
                             ids=lambda x: getattr(x, "__name__", repr(x)))
    def test_non_mapping_terms_rejected(self, cls, terms):
        # each raised AttributeError, except LaurentPoly of 0, [] or "", which gave the zero polynomial
        with pytest.raises(ValueError, match=f"^terms {re.escape(repr(terms))} are not a mapping of"):
            cls(terms)

    def test_none_is_zero(self):
        assert LaurentPoly(None) == LaurentPoly({}) == LaurentPoly.zero() == 0

    def test_q_power_takes_only_an_exponent(self):
        # its coefficient parameter had no caller; a scaled monomial is LaurentPoly({e: c})
        assert LaurentPoly.q_power(-2) == LaurentPoly({-2: 1})
        with pytest.raises(TypeError):
            LaurentPoly.q_power(1, 3)

    def test_canonical_form_drops_zeros(self):
        assert LaurentPoly({0: 0, 1: 0}) == LaurentPoly.zero()
        assert not LaurentPoly({2: 1, 0: -1}) + LaurentPoly({0: 1, 2: -1})


class TestHash:
    @pytest.mark.parametrize("c", [0, 1, -3, 2**70])
    def test_constant_hashes_as_its_int(self, c):
        poly = LaurentPoly.constant(c)
        assert poly == c and hash(poly) == hash(c)
        assert len({c, poly}) == 1
        assert {c: "x"}.get(poly) == "x" and {poly: "x"}.get(c) == "x"

    def test_non_constant_is_not_an_int(self):
        assert len({1, ONE_MINUS_Q, Q}) == 3
        assert {1: "x"}.get(ONE_MINUS_Q) is None


class TestWireFormat:
    def test_pairs_sorted_by_exponent(self):
        p = LaurentPoly({2: 1, -1: 4, 0: -3})
        assert p.to_pairs() == [[-1, 4], [0, -3], [2, 1]]

    def test_round_trip(self):
        rng = random.Random(7)
        for _ in range(50):
            p = rand_poly(rng)
            assert LaurentPoly.from_pairs(p.to_pairs()) == p

    @pytest.mark.parametrize("pair", [[0, 1.5], [0.7, 2], [0, True]], ids=["coefficient", "exponent", "boolean"])
    def test_non_integer_pair_rejected(self, pair):
        # the constructor's refusal: from_pairs has no type check of its own
        with pytest.raises(ValueError, match="integer exponent and coefficient"):
            LaurentPoly.from_pairs([pair])

    @pytest.mark.parametrize("pairs", [None, [5], 3, [[0, 1, 2]], "ab"],
                             ids=["null", "bare-integer-pair", "integer", "triple", "string"])
    def test_non_list_pairs_rejected(self, pairs):
        # the first three raised TypeError before, the last two dict's "dictionary update sequence" message
        with pytest.raises(ValueError, match="not a list of pairs"):
            LaurentPoly.from_pairs(pairs)

    @pytest.mark.parametrize("pairs", [[[0, 1], [0, 2]], [[0, 1], [1, 0]], [[1, -1], [0, 1]]],
                             ids=["repeated-exponent", "zero-coefficient", "unsorted"])
    def test_pairs_to_pairs_does_not_write_rejected(self, pairs):
        # each was read as a polynomial before: [[0, 1], [0, 2]] as 3
        with pytest.raises(ValueError, match="is not exactly what LaurentPoly.to_pairs writes"):
            LaurentPoly.from_pairs(pairs)


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

    @pytest.mark.parametrize(
        "terms", [{(1.5, 0): 1}, {(1, 0.2): 1}, {(1, 0): 1.9}, {(True, 0): 1}, {(0,): 1}, {(0, 0, 0): 1}, {0: 1}],
        ids=["shift", "twist", "multiplicity", "boolean", "short-token", "long-token", "bare-token"],
    )
    def test_non_integer_token_rejected(self, terms):
        # (0,) raised an unpacking ValueError, (0, 0, 0) another, and 0 a TypeError
        with pytest.raises(ValueError, match="not made of integers"):
            GrothendieckClass(terms)

    def test_trace_additive(self):
        rng = random.Random(99)
        for _ in range(50):
            t1 = {(rng.randint(0, 6), rng.randint(-3, 3)): rng.randint(-4, 4) for _ in range(4)}
            t2 = {(rng.randint(0, 6), rng.randint(-3, 3)): rng.randint(-4, 4) for _ in range(4)}
            both = {key: t1.get(key, 0) + t2.get(key, 0) for key in t1.keys() | t2.keys()}
            assert GrothendieckClass(both).trace() == GrothendieckClass(t1).trace() + GrothendieckClass(t2).trace()

    def test_value_semantics(self):
        # equality compared identity, and the repr was <bernasym.qlaurent.GrothendieckClass object at 0x...>
        cls = GrothendieckClass({(0, 0): 1, (1, 2): -3})
        assert cls == GrothendieckClass({(1, 2): -3, (0, 0): 1}) == GrothendieckClass(terms={(0, 0): 1, (1, 2): -3})
        assert cls != GrothendieckClass({(0, 0): 1})
        assert repr(cls) == "GrothendieckClass(terms={(0, 0): 1, (1, 2): -3})"
        for clone in (copy.copy(cls), copy.deepcopy(cls), pickle.loads(pickle.dumps(cls))):
            assert clone == cls and type(clone) is GrothendieckClass

    def test_zero_multiplicity_dropped(self):
        assert GrothendieckClass({(0, 0): 1, (1, 0): 0}) == GrothendieckClass({(0, 0): 1})

    def test_fields_read_only(self):
        cls = GrothendieckClass({(0, 0): 1})
        for name in ("_terms", "terms", "extra"):
            with pytest.raises(AttributeError):
                setattr(cls, name, {})
        with pytest.raises(AttributeError):
            del cls._terms
