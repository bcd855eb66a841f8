"""Expression grammar, error positions, and print/parse round trips."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from superpoints import (
    GrassmannElement,
    ParseError,
    Superfunction,
    parse_element,
    parse_expr,
    parse_poly,
    parse_superfunction,
)
from superpoints.poly import PolyCoeff


def theta(n, *indices):
    return GrassmannElement.monomial(n, indices)


class TestGrammar:
    def test_sum_and_product(self):
        assert parse_element("t1*t2 + 3", 2) == GrassmannElement(2, {0: 3, 0b11: 1})

    def test_sign_from_order(self):
        assert parse_element("t2*t1", 2) == GrassmannElement.monomial(2, (1, 2), -1)

    def test_power_nilpotent(self):
        assert parse_element("t1^2", 2).is_zero()

    def test_rational_literal(self):
        assert parse_element("3/4*t1", 1) == GrassmannElement(1, {0b1: Fraction(3, 4)})

    def test_parentheses_and_unary_minus(self):
        assert parse_element("-(1 - t1)*2", 1) == GrassmannElement(1, {0: -2, 0b1: 2})

    def test_power_binds_tighter_than_product(self):
        assert parse_poly("2*x1^2", 1) == PolyCoeff(1, {(2,): 2})

    def test_power_binds_tighter_than_unary_minus(self):
        assert parse_poly("-x1^2", 1) == parse_poly("-(x1^2)", 1) == PolyCoeff(1, {(2,): -1})

    def test_whitespace_insignificant(self):
        assert parse_element(" t1 * t2+1 ", 2) == parse_element("t1*t2+1", 2)

    def test_superfunction_mode(self):
        f = parse_superfunction("x1^2*t1 - 1/2", 1, 1)
        assert f == Superfunction(
            1, 1, {0: PolyCoeff.const(1, Fraction(-1, 2)), 0b1: PolyCoeff(1, {(2,): 1})}
        )

    def test_parse_expr_dispatch(self):
        assert parse_expr("t1", n=1) == theta(1, 1)
        assert isinstance(parse_expr("t1", p=0, q=1), Superfunction)
        with pytest.raises(ValueError):
            parse_expr("1")


class TestErrors:
    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse_element("t1 + $", 2)
        assert exc.value.position == 5

    def test_unclosed_parenthesis(self):
        with pytest.raises(ParseError):
            parse_element("(1 + t1", 2)

    def test_out_of_range_generator(self):
        with pytest.raises(ParseError) as exc:
            parse_element("t1*t3", 2)
        assert exc.value.position == 3

    def test_negative_exponent(self):
        with pytest.raises(ParseError) as exc:
            parse_element("t1^-1", 2)
        assert "exponent" in str(exc.value)

    def test_negative_exponent_after_unary_minus(self):
        with pytest.raises(ParseError) as exc:
            parse_element("-t1^-1", 2)
        assert "exponent" in str(exc.value)
        assert exc.value.position == 4

    def test_fractional_exponent(self):
        with pytest.raises(ParseError):
            parse_element("2^1/2", 1)  # '^' expects a bare natural number

    def test_variables_rejected_in_grassmann_mode(self):
        with pytest.raises(ParseError):
            parse_element("x1", 2)

    def test_generators_rejected_in_poly_mode(self):
        with pytest.raises(ParseError):
            parse_poly("t1", 2)

    def test_missing_index(self):
        with pytest.raises(ParseError) as exc:
            parse_element("t + 1", 2)
        assert exc.value.position == 0

    def test_bad_rational(self):
        with pytest.raises(ParseError):
            parse_element("3/", 1)

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_element("1 2", 1)


rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6)


@st.composite
def elements(draw):
    n = draw(st.integers(min_value=0, max_value=6))
    masks = st.integers(min_value=0, max_value=(1 << n) - 1)
    terms = draw(st.dictionaries(masks, rationals, max_size=5))
    return GrassmannElement(n, terms)


class TestRoundTrip:
    @given(elements())
    def test_element_print_parse(self, element):
        assert parse_element(str(element), element.n) == element

    def test_superfunction_print_parse(self):
        rng = random.Random(1)
        import itertools

        for _ in range(40):
            p, q = rng.randint(0, 2), rng.randint(0, 3)
            terms = {}
            for mask in range(1 << q):
                if rng.random() < 0.5:
                    poly = PolyCoeff(
                        p,
                        {
                            exps: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                            for exps in itertools.product(range(3), repeat=p)
                            if rng.random() < 0.5
                        },
                    )
                    terms[mask] = poly
            f = Superfunction(p, q, terms)
            assert parse_superfunction(str(f), p, q) == f

    def test_poly_print_parse(self):
        rng = random.Random(2)
        import itertools

        for _ in range(40):
            nvars = rng.randint(0, 3)
            poly = PolyCoeff(
                nvars,
                {
                    exps: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                    for exps in itertools.product(range(3), repeat=nvars)
                    if rng.random() < 0.4
                },
            )
            assert parse_poly(str(poly), nvars) == poly
